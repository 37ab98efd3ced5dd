import cmath
import math

import pytest

from bridgetorsion.alexander import (
    classical_alexander,
    knot_determinant,
    p_at_one,
    p_polynomial,
    wada_twisted_alexander,
)
from bridgetorsion.errors import InexactDivision
from bridgetorsion.numerics import LaurentPoly, RingMatrix, units_equal
from bridgetorsion.oracles import torus_twisted_alexander
from bridgetorsion.reps import Rep2, metabelian_rep, phi_map, riley_images
from bridgetorsion.words import GroupRingElement, Word, normalize_two_bridge

CENSUS = [(p, q) for p in range(3, 16, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]
# Riley's pair at a generic point (s, u) = (-0.9 + 0.2i, 1.3 - 0.4i), off
# the metabelian ones
GENERIC_RILEY = Rep2(*riley_images(cmath.sqrt(-0.9 + 0.2j), 1.3 - 0.4j))


# -- classical Alexander polynomial ------------------------------------------------


def test_classical_values():
    assert classical_alexander(normalize_two_bridge(5, 3)) == LaurentPoly({2: 1, 1: -3, 0: 1})
    assert classical_alexander(normalize_two_bridge(3, 1)) == LaurentPoly({2: 1, 1: -1, 0: 1})
    # b(7,3) is the 5_2 knot
    assert classical_alexander(normalize_two_bridge(7, 3)) == LaurentPoly({2: 2, 1: -3, 0: 2})


def test_classical_census_properties():
    for p, q in CENSUS:
        k = normalize_two_bridge(p, q)
        delta = classical_alexander(k)
        # knots have Delta(1) = +/- 1
        assert abs(abs(delta.evaluate(1)) - 1) < 1e-9
        # symmetric up to units
        assert units_equal(delta, delta.invert_variable(), 1e-9)
        # determinant equals p
        assert knot_determinant(k) == p


def test_fox_formula_magnitude():
    for p, q in ((5, 3), (7, 5), (13, 3)):
        delta = classical_alexander(normalize_two_bridge(p, q))
        v = abs(delta.evaluate(1) * delta.evaluate(-1))
        assert abs(float(v) - p) < 1e-9


# -- Wada's twisted Alexander polynomial ----------------------------------------------


def test_figure_eight_twisted_alexander():
    k = normalize_two_bridge(5, 3)
    expected = LaurentPoly({2: 1, 0: 1})
    for idx in (1, 2):
        res = wada_twisted_alexander(k, metabelian_rep(5, idx))
        assert res.reduced is not None
        assert units_equal(res.reduced, expected, 1e-8)


def _phi_denominator(rho, by):
    """det Phi(g - 1) for the generator g that the route does not
    differentiate by, straight from the group ring."""
    g = Word.parse("y" if by == "x" else "x")
    return phi_map(rho, GroupRingElement({g: 1, Word(): -1})).det()


def test_metabelian_denominator_is_t2_plus_1():
    for p, q in ((5, 3), (7, 3), (9, 5), (11, 7)):
        k = normalize_two_bridge(p, q)
        for idx in range(1, (p - 1) // 2 + 1):
            rho = metabelian_rep(p, idx)
            res = wada_twisted_alexander(k, rho)
            assert res.denominator.close_to(LaurentPoly({2: 1, 0: 1}), 1e-10)
            for by in ("x", "y"):
                den = wada_twisted_alexander(k, rho, by=by).denominator
                assert den.close_to(_phi_denominator(rho, by), 1e-12), (p, q, idx, by)
    # a Riley representation has tr rho(y) != 0, so the closed form's t^1
    # term -t tr M is exercised too
    rho = GENERIC_RILEY
    k = normalize_two_bridge(7, 3)
    for by in ("x", "y"):
        den = wada_twisted_alexander(k, rho, by=by).denominator
        assert abs(den.coeff(1)) > 0.1
        assert den.close_to(_phi_denominator(rho, by), 1e-12), by


def test_reduced_times_denominator_recovers_numerator():
    k = normalize_two_bridge(7, 3)
    res = wada_twisted_alexander(k, metabelian_rep(7, 2))
    assert res.reduced is not None
    assert units_equal(res.reduced * res.denominator, res.numerator, 1e-8)


def test_torus_oracle_match():
    # the reduced polynomials match the closed-form product per index
    # (component X_{1,b} of the metabelian class k has b = q - 2k)
    for q in (3, 5, 7):
        knot = normalize_two_bridge(q, 1)
        for k in range(1, (q - 1) // 2 + 1):
            mine = wada_twisted_alexander(knot, metabelian_rep(q, k)).reduced
            oracle = torus_twisted_alexander(q, q - 2 * k)
            assert units_equal(mine, oracle, 1e-8), (q, k)


def test_wada_well_definedness_sample():
    for p, q in ((5, 3), (7, 5), (11, 3)):
        k = normalize_two_bridge(p, q)
        for idx in range(1, (p - 1) // 2 + 1):
            rho = metabelian_rep(p, idx)
            rx = wada_twisted_alexander(k, rho, by="x")
            ry = wada_twisted_alexander(k, rho, by="y")
            assert rx.reduced is not None and ry.reduced is not None
            assert units_equal(rx.reduced, ry.reduced, 1e-8)


# -- P(t) and P(1) ---------------------------------------------------------------------


def test_p_polynomial_figure_eight():
    p = p_polynomial(LaurentPoly({2: 1, 0: 1}))
    assert p.close_to(LaurentPoly({0: -1}), 1e-12)
    assert abs(p.evaluate(1) - (-1)) < 1e-12


def test_p_polynomial_trefoil_value():
    k = normalize_two_bridge(3, 1)
    res = wada_twisted_alexander(k, metabelian_rep(3, 1))
    p = p_polynomial(res.reduced)
    # paper's torus formula: |P(1)| = q / (4 sin^2(j pi / q)) = 3/3 = 1
    assert abs(abs(p.evaluate(1)) - 1.0) < 1e-10


def test_p_polynomial_even_and_never_inexact_on_census():
    for p_, q in CENSUS:
        k = normalize_two_bridge(p_, q)
        for idx in range(1, (p_ - 1) // 2 + 1):
            res = wada_twisted_alexander(k, metabelian_rep(p_, idx))
            assert res.reduced is not None, (p_, q, idx)
            poly = p_polynomial(res.reduced)
            assert all(e % 2 == 0 for e in poly.coeffs), (p_, q, idx)


def test_p_polynomial_rejects_non_metabelian_input():
    with pytest.raises(InexactDivision):
        p_polynomial(LaurentPoly({2: 1, 1: 1, 0: 1}))


# -- P(1) from the double zero of Wada's numerator ------------------------------------


def test_p_at_one_matches_p_polynomial_on_census():
    # P(1)^2 from the Taylor coefficient at t = i equals P(1)^2 of the
    # division route on every record with p <= 25, sign included
    for p_ in range(3, 26, 2):
        for q in range(1, p_, 2):
            if math.gcd(p_, q) != 1:
                continue
            k = normalize_two_bridge(p_, q)
            for idx in range(1, (p_ - 1) // 2 + 1):
                rho = metabelian_rep(p_, idx)
                p1, gap = p_at_one(k, rho)
                ref = p_polynomial(wada_twisted_alexander(k, rho).reduced).evaluate(1) ** 2
                assert abs(p1 * p1 - ref) <= 1e-9 * abs(ref), (p_, q, idx)
                assert gap <= 1e-12, (p_, q, idx)


def test_p_at_one_refuses_non_metabelian_rep():
    # at a generic Riley point Wada's denominator is not t^2 + 1, so the
    # numerator has no double zero at t = i
    with pytest.raises(InexactDivision):
        p_at_one(normalize_two_bridge(7, 3), GENERIC_RILEY)
    # nor has a numerator of NaNs: the gap is NaN, and a NaN fails the check
    rho = metabelian_rep(7, 2)
    e, zero, _, h = rho.img_y.entries
    nan_y = Rep2(rho.img_x, RingMatrix((e, zero, complex(math.nan, 0), h)))
    with pytest.raises(InexactDivision):
        p_at_one(normalize_two_bridge(7, 3), nan_y)
