import math

import pytest

from bridgetorsion.alexander import p_polynomial
from bridgetorsion.errors import IndexOutOfRange, InvalidFraction
from bridgetorsion.numerics import LaurentPoly
from bridgetorsion.oracles import (
    LensSpace,
    lens_torsion_magnitude,
    lens_torsion_multiset,
    torus_F,
    torus_P1_squared,
    torus_twisted_alexander,
)


# -- lens spaces -------------------------------------------------------------------


def test_lens_construction():
    lens = LensSpace.of(5, 3)
    assert lens.r == 2
    assert (lens.q * lens.r) % lens.p == 1
    for p, q in ((9, 3), (8, 3), (2, 1)):
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

