"""Closed-form oracles used to verify the main pipeline: torus-knot
formulas and lens-space torsion magnitudes.

Everything here is straight trigonometric evaluation with no Fox calculus,
so agreement with the generic pipeline is evidence rather than tautology.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import IndexOutOfRange, InvalidFraction
from .numerics import LaurentPoly


@dataclass(frozen=True)
class LensSpace:
    """L(p, q) together with the inverse residue r, q*r = 1 mod p.  p is
    odd: L(p, q) is the double branched cover of b(p, q), and the
    determinant p of a knot is odd."""

    p: int
    q: int
    r: int

    @classmethod
    def of(cls, p, q):
        p, q = int(p), int(q)
        if p < 3 or p % 2 == 0:
            raise InvalidFraction(f"lens space needs odd p >= 3, got {p}")
        if math.gcd(p, q % p) != 1:
            raise InvalidFraction(f"gcd({p}, {q}) != 1")
        return cls(p, q % p, pow(q, -1, p))

    @property
    def label(self):
        return f"L({self.p},{self.q})"


def torus_twisted_alexander(q, b):
    """Twisted Alexander polynomial of the (2, q) torus knot at the
    metabelian character in the component X_{1,b}:

        (t^2 + 1) * prod_{l != (q-b)/2} (t^2 + z^l)(t^2 + z^(-l)),

    z = e^{2 pi i / q}; conjugate pairing leaves the coefficients real."""
    if q < 3 or q % 2 == 0:
        raise IndexOutOfRange(f"q = {q} must be odd >= 3")
    if not (0 < b < q) or b % 2 == 0:
        raise IndexOutOfRange(f"b = {b} must be odd with 0 < b < q")
    skip = (q - b) // 2
    poly = LaurentPoly({2: 1, 0: 1})
    for ell in range(1, (q - 1) // 2 + 1):
        if ell == skip:
            continue
        z = cmath.exp(2j * cmath.pi * ell / q)
        poly = poly * LaurentPoly({2: 1, 0: z}) * LaurentPoly({2: 1, 0: 1 / z})
    return poly


def torus_P1_squared(q, j):
    """P(1)^2 = (q / (4 sin^2(j pi / q)))^2 for the (2, q) torus knot."""
    if q < 3 or q % 2 == 0:
        raise IndexOutOfRange(f"q = {q} must be odd >= 3")
    if not 1 <= j <= (q - 1) // 2:
        raise IndexOutOfRange(f"j = {j} outside 1..{(q - 1) // 2}")
    return (q / (4 * math.sin(j * math.pi / q) ** 2)) ** 2


def torus_F(q):
    """The rational function is the constant 1/q^2 on the whole irreducible
    character variety of the (2, q) torus knot."""
    if q < 3 or q % 2 == 0:
        raise IndexOutOfRange(f"q = {q} must be odd >= 3")
    return 1.0 / (q * q)


def lens_torsion_magnitude(lens, k):
    """|torsion|^2 of L(p, q) for the k-th character pair:

        1 / (|z^k - 1|^2 |z^{kr} - 1|^2) = 1 / (4 sin^2(k pi/p) 4 sin^2(k r pi/p)).
    """
    p = lens.p
    if not 1 <= k <= (p - 1) // 2:
        raise IndexOutOfRange(f"k = {k} outside 1..{(p - 1) // 2}")
    a = 4 * math.sin(k * math.pi / p) ** 2
    b = 4 * math.sin(k * lens.r * math.pi / p) ** 2
    return 1.0 / (a * b)


def lens_torsion_multiset(lens):
    """Sorted torsion magnitudes over k = 1..(p-1)/2."""
    return sorted(lens_torsion_magnitude(lens, k) for k in range(1, (lens.p - 1) // 2 + 1))

