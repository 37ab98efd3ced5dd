import math
from fractions import Fraction

import mpmath
import pytest

from bridgetorsion.alexander import p_polynomial, torus_twisted_alexander
from bridgetorsion.errors import IndexOutOfRange, InvalidFraction
from bridgetorsion.numerics import LaurentPoly
from bridgetorsion.oracles import (
    LensSpace,
    lens_torsion_magnitude,
    lens_torsion_multiset,
    torus_F,
    torus_P1_squared,
)


# -- lens spaces -------------------------------------------------------------------


def test_lens_construction():
    lens = LensSpace.of(5, 3)
    assert lens.r == 2
    assert (lens.q * lens.r) % lens.p == 1
    for p, q in ((9, 3), (8, 3), (2, 1), (7.9, 3.2), (Fraction(15, 2), 3), (7, 3.0), ("7", 3)):
        with pytest.raises(InvalidFraction):
            LensSpace.of(p, q)


def test_lens_torsion_values():
    assert abs(lens_torsion_magnitude(LensSpace.of(5, 3), 1) - 0.2) < 1e-12
    assert abs(lens_torsion_magnitude(LensSpace.of(5, 3), 2) - 0.2) < 1e-12
    assert abs(lens_torsion_magnitude(LensSpace.of(3, 1), 1) - 1 / 9) < 1e-12
    for q in (5, 7, 9):
        lens = LensSpace.of(q, 1)
        for k in range(1, (q - 1) // 2 + 1):
            expected = 1 / (4 * math.sin(k * math.pi / q) ** 2) ** 2
            assert abs(lens_torsion_magnitude(lens, k) - expected) < 1e-12
    with pytest.raises(IndexOutOfRange):
        lens_torsion_magnitude(LensSpace.of(5, 3), 3)


def test_lens_torsion_matches_mpmath():
    # within 1e-13 of 50-digit values (each factor 1/(4 sin^2) rounded
    # once) for every lens space L(p, q) with odd p <= 101 and every k;
    # k r is reduced mod p before the sine, or 91/40, k = 40 is off by
    # 1.2e-12
    for p in range(3, 102, 2):
        with mpmath.workdps(50):
            inv = [0.0] + [float(1 / (4 * mpmath.sin(mpmath.pi * j / p) ** 2)) for j in range(1, p)]
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            lens = LensSpace.of(p, q)
            for k in range(1, (p - 1) // 2 + 1):
                want = inv[k] * inv[k * lens.r % p]
                got = lens_torsion_magnitude(lens, k)
                assert abs(got - want) <= 1e-13 * want, (p, q, k)


@pytest.mark.parametrize("p, q", [(2001, 731), (4001, 1529)])
def test_lens_torsion_stays_accurate_near_pi(p, q):
    # k r mod p reaches p - 1, where a sine's rounded argument near pi
    # loses relative accuracy (7.1e-14 at 2001/731 and 2.2e-13 at
    # 4001/1529 unreduced); entered as min(m, p - m), every k is within a
    # few units in the last place of the 50-digit value
    lens = LensSpace.of(p, q)
    worst = 0.0
    with mpmath.workdps(50):
        for k in range(1, (p - 1) // 2 + 1):
            s = mpmath.sin(mpmath.pi * k / p) * mpmath.sin(mpmath.pi * (k * lens.r % p) / p)
            want = 1 / (16 * s * s)
            worst = max(worst, float(abs(lens_torsion_magnitude(lens, k) - want) / want))
    print(f"L({p},{q}) oracle: largest relative error {worst:.2e}")
    assert worst <= 2e-15


def test_lens_symmetries():
    # invariance under q -> q^{-1} mod p and under k -> p - k
    for p, q in ((7, 3), (11, 5), (13, 9), (15, 11)):
        lens = LensSpace.of(p, q)
        inv = LensSpace.of(p, pow(q, -1, p))
        a = lens_torsion_multiset(lens)
        b = lens_torsion_multiset(inv)
        assert all(abs(x - y) <= 1e-12 * max(x, y) for x, y in zip(a, b))
        for k in range(1, (p - 1) // 2 + 1):
            direct = lens_torsion_magnitude(lens, k)
            mirrored = 1 / (
                (4 * math.sin((p - k) * math.pi / p) ** 2)
                * (4 * math.sin((p - k) * lens.r * math.pi / p) ** 2)
            )
            assert abs(direct - mirrored) <= 1e-12 * direct


# -- torus closed forms --------------------------------------------------------------


def test_torus_twisted_alexander_smallest():
    assert torus_twisted_alexander(3, 1).close_to(LaurentPoly({2: 1, 0: 1}), 1e-12)


def test_torus_twisted_alexander_q5():
    # q = 5, b = 3: retained factor l = 2
    z2 = 2 * math.cos(4 * math.pi / 5)
    expected = LaurentPoly({2: 1, 0: 1}) * LaurentPoly({4: 1, 2: z2, 0: 1})
    assert torus_twisted_alexander(5, 3).close_to(expected, 1e-12)


def test_torus_twisted_alexander_structure():
    for q in (3, 5, 7, 9):
        for b in range(1, q, 2):
            poly = torus_twisted_alexander(q, b)
            # one factor excluded: degree 2 + 4 * ((q-1)/2 - 1)
            assert poly.max_exp - poly.min_exp == 2 + 4 * ((q - 1) // 2 - 1)
            # conjugate pairing keeps coefficients real
            assert all(abs(complex(c).imag) <= 1e-10 for c in poly.coeffs.values())
    with pytest.raises(IndexOutOfRange):
        torus_twisted_alexander(5, 2)
    with pytest.raises(IndexOutOfRange):
        torus_twisted_alexander(4, 1)


def test_torus_p1_squared_values():
    assert abs(torus_P1_squared(3, 1) - 1.0) < 1e-12
    for q, j in ((5, 1), (5, 2), (7, 3)):
        expected = (q / (4 * math.sin(j * math.pi / q) ** 2)) ** 2
        assert abs(torus_P1_squared(q, j) - expected) < 1e-12
    with pytest.raises(IndexOutOfRange):
        torus_P1_squared(5, 3)


def test_torus_F_values():
    assert torus_F(3) == 1 / 9
    assert torus_F(5) == 1 / 25
    assert torus_F(7) == 1 / 49
    with pytest.raises(IndexOutOfRange):
        torus_F(4)


def test_torus_consistency_with_lens():
    # the main formula in closed form
    for q in (3, 5, 7, 9, 11):
        lens = LensSpace.of(q, 1)
        for j in range(1, (q - 1) // 2 + 1):
            lhs = torus_P1_squared(q, j) * torus_F(q)
            rhs = lens_torsion_magnitude(lens, j)
            assert abs(lhs - rhs) <= 1e-10 * rhs


def test_torus_polynomial_reproduces_p1_squared():
    for q in (3, 5, 7, 9):
        for b in range(1, q, 2):
            j = (q - b) // 2
            poly = p_polynomial(torus_twisted_alexander(q, b).canonical_unit())
            p1 = poly.evaluate(1)
            assert abs(abs(p1) ** 2 - torus_P1_squared(q, j)) <= 1e-8 * torus_P1_squared(q, j)



def test_torus_p1_squared_refuses_an_even_q():
    # the CLI checks q in torus_F first, so only a direct call reaches this
    with pytest.raises(IndexOutOfRange, match="q = 4 must be odd >= 3"):
        torus_P1_squared(4, 1)
