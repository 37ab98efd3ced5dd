import cmath
import math
import random

import pytest

from bridgetorsion.errors import (
    DimensionMismatch,
    DivergenceDetected,
    InexactDivision,
    ZeroAtNegativeExponent,
    ZeroScale,
)
from bridgetorsion.numerics import LaurentPoly, RingMatrix, richardson_limit, units_equal


def poly(d):
    return LaurentPoly(dict(d))


def rand_poly(rng, span=4):
    return LaurentPoly(
        {
            e: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for e in rng.sample(range(-span, span + 1), rng.randint(1, 5))
        }
    )


# -- arithmetic examples -------------------------------------------------------


def test_difference_of_squares():
    t_plus = poly({1: 1, 0: 1})
    t_minus = poly({1: 1, 0: -1})
    assert (t_plus * t_minus) == poly({2: 1, 0: -1})


def test_additive_identity():
    p = poly({3: 2.5, -1: 1j})
    assert (LaurentPoly() + p) == p


def test_cyclotomic_pair_product():
    z5 = cmath.exp(2j * cmath.pi / 5)
    prod = poly({2: 1, 0: z5}) * poly({2: 1, 0: 1 / z5})
    expected = poly({4: 1, 2: 2 * math.cos(2 * math.pi / 5), 0: 1})
    assert prod.close_to(expected, 1e-12)


# -- evaluation ----------------------------------------------------------------


def test_eval_figure_eight_determinant():
    delta = poly({2: 1, 1: -3, 0: 1})
    assert abs(delta.evaluate(-1) - 5) < 1e-12
    assert abs(delta.evaluate(1) - (-1)) < 1e-12


def test_eval_simple():
    assert abs(poly({2: 1, 0: 1}).evaluate(1) - 2) < 1e-15


def test_eval_zero_with_negative_support():
    p = poly({-1: 1, 0: 1})
    with pytest.raises(ZeroAtNegativeExponent):
        p.evaluate(0)
    assert poly({2: 1, 0: 3}).evaluate(0) == 3


# -- variable rescaling ----------------------------------------------------------


def test_rescale_by_i():
    assert poly({2: 1, 0: 1}).rescale_variable(1j).close_to(poly({2: -1, 0: 1}), 1e-15)
    assert poly({4: 1}).rescale_variable(1j).close_to(poly({4: 1}), 1e-15)


def test_rescale_identity_and_zero():
    rng = random.Random(7)
    p = rand_poly(rng)
    assert p.rescale_variable(1) == p
    with pytest.raises(ZeroScale):
        p.rescale_variable(0)


def test_rescale_eval_compatibility():
    rng = random.Random(11)
    for _ in range(40):
        p = rand_poly(rng)
        c = complex(rng.uniform(0.3, 2), rng.uniform(-1, 1))
        z = complex(rng.uniform(0.3, 2), rng.uniform(-1, 1))
        lhs = p.rescale_variable(c).evaluate(z)
        rhs = p.evaluate(c * z)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1)


# -- exact division ---------------------------------------------------------------


def test_divide_quartic():
    num = poly({4: -1, 0: 1})
    den = poly({2: 1, 0: -1})
    q = num.divide_exact(den, 1e-10)
    assert q.close_to(poly({2: -1, 0: -1}), 1e-12)
    assert (q * den).close_to(num, 1e-12)


def test_divide_self_and_inexact():
    den = poly({2: 1, 0: -1})
    assert den.divide_exact(den, 1e-12) == LaurentPoly({0: 1})
    with pytest.raises(InexactDivision):
        poly({2: 1, 0: 1}).divide_exact(den, 1e-10)


def test_divide_roundtrip_random():
    rng = random.Random(3)
    for _ in range(40):
        q = rand_poly(rng)
        den = rand_poly(rng)
        if den.is_zero:
            continue
        back = (q * den).divide_exact(den, 1e-7)
        assert back.close_to(q, 1e-7)


# -- ring axioms -------------------------------------------------------------------


def test_ring_axioms_random():
    rng = random.Random(19)
    for _ in range(30):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert ((a * b) * c).close_to(a * (b * c), 1e-10)
        assert (a * (b + c)).close_to(a * b + a * c, 1e-10)
        assert (a + b).close_to(b + a, 1e-15)


def test_canonical_unit():
    p = poly({3: -2, 5: 6})
    c = p.canonical_unit()
    assert c == poly({0: 2, 2: -6})
    assert units_equal(p, c)
    assert units_equal(poly({1: 1j}), poly({0: 1j}))


# -- matrices ---------------------------------------------------------------------


def test_matrix_identity_and_product():
    a = RingMatrix((1 + 2j, 0.5, -1j, 3))
    ident = RingMatrix((1 + 0j, 0j, 0j, 1 + 0j))
    assert (ident * a).entries == a.entries


def test_matrix_det_multiplicative():
    rng = random.Random(23)
    for _ in range(50):
        a = RingMatrix(tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))
        b = RingMatrix(tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))
        lhs = (a * b).det()
        rhs = a.det() * b.det()
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1)


def test_matrix_dimension_errors():
    with pytest.raises(DimensionMismatch):
        RingMatrix((1, 2, 3))


def test_adjugate_inverts_sl2():
    a = RingMatrix((1j, -1j, 0j, -1j))  # det = 1
    prod = a * a.adjugate()
    assert abs(prod.entries[0] - 1) < 1e-15
    assert abs(prod.entries[1]) < 1e-15
    assert abs(prod.entries[3] - 1) < 1e-15


# -- Richardson extrapolation ---------------------------------------------------


def test_richardson_linear_exact():
    samples = [(h, 5.0 + h) for h in (0.1, 0.05, 0.025)]
    value, err = richardson_limit(samples)
    assert abs(value - 5.0) < 1e-13
    assert err < 1e-12


def test_richardson_quadratic_exact():
    samples = [(h, 2.5 - 3.0 * h * h) for h in (0.2, 0.1, 0.05, 0.025)]
    value, _ = richardson_limit(samples)
    assert abs(value - 2.5) < 1e-13


def test_richardson_polynomial_exactness():
    rng = random.Random(31)
    for n in (4, 5, 6):
        coeffs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]

        def f(h):
            return sum(c * h ** i for i, c in enumerate(coeffs))

        samples = [(0.4 / 2 ** j, f(0.4 / 2 ** j)) for j in range(n)]
        value, _ = richardson_limit(samples)
        assert abs(value - coeffs[0]) <= 1e-12 * max(abs(coeffs[0]), 1)


def test_richardson_divergence():
    samples = [(h, 1.0 / h) for h in (0.1, 0.05, 0.025, 0.0125)]
    with pytest.raises(DivergenceDetected):
        richardson_limit(samples)


def test_non_finite_coefficients_rejected():
    with pytest.raises(OverflowError):
        poly({0: float("inf")})
    with pytest.raises(OverflowError):
        poly({0: float("nan") + 0j})
    with pytest.raises(OverflowError):
        poly({200: 1e300}).rescale_variable(100.0)


def test_richardson_validation():
    with pytest.raises(ValueError):
        richardson_limit([(0.1, 1.0), (0.05, 1.0)])
    with pytest.raises(ValueError):
        richardson_limit([(0.1, 1.0), (0.05, 1.0), (0.03, 1.0)])
