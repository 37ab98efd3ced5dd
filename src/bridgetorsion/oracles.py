"""Closed-form oracles used to verify the main pipeline: torus-knot
formulas and lens-space torsion magnitudes.

Everything here is straight trigonometric evaluation with no Fox calculus,
so agreement with the generic pipeline is evidence rather than tautology.
"""

import math
import operator
from collections import namedtuple

from .errors import IndexOutOfRange, InvalidFraction


class LensSpace(namedtuple("LensSpace", "p q r")):
    """L(p, q) together with the inverse residue r, q*r = 1 mod p.  p is
    odd: L(p, q) is the double branched cover of b(p, q), and the
    determinant p of a knot is odd."""

    __slots__ = ()

    @classmethod
    def of(cls, p, q):
        try:
            p, q = operator.index(p), operator.index(q)
        except TypeError:
            raise InvalidFraction(f"lens space L({p!r}, {q!r}) needs integer p and q") from None
        if p < 3 or p % 2 == 0:
            raise InvalidFraction(f"lens space needs odd p >= 3, got {p}")
        if math.gcd(p, q % p) != 1:
            raise InvalidFraction(f"gcd({p}, {q}) != 1")
        return cls(p, q % p, pow(q, -1, p))

    @property
    def label(self):
        return f"L({self.p},{self.q})"


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

        1 / (|z^k - 1|^2 |z^{kr} - 1|^2) = 1 / (4 sin^2(k pi/p) 4 sin^2(k r pi/p)),

    with k r reduced mod p first, so the sine's argument stays below pi.
    """
    p = lens.p
    if not 1 <= k <= (p - 1) // 2:
        raise IndexOutOfRange(f"k = {k} outside 1..{(p - 1) // 2}")
    a = 4 * math.sin(k * math.pi / p) ** 2
    b = 4 * math.sin(k * lens.r % p * math.pi / p) ** 2
    return 1.0 / (a * b)


def lens_torsion_multiset(lens):
    """Sorted torsion magnitudes over k = 1..(p-1)/2."""
    return sorted(lens_torsion_magnitude(lens, k) for k in range(1, (lens.p - 1) // 2 + 1))

