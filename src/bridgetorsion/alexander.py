"""Wada's twisted Alexander polynomial for <x, y | w x = y w>, the classical
Alexander polynomial, and the derived quantities P(t), P(1).

``knot_determinant`` = |Delta(-1)| is computed exactly in ``words``, where
``normalize_two_bridge`` checks it against p; it is re-exported here."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InexactDivision
from .numerics import LaurentPoly
from .precision import DOUBLE
from .reps import fox_image, phi_map
from .words import GroupRingElement, Word, fox_derivative, knot_determinant  # noqa: F401

#: Exactness tolerance for the polynomial divisions below.
DIVISION_TOL = 1e-8


@dataclass(frozen=True)
class TwistedAlexResult:
    """Wada's fraction: numerator det Phi(dr/dg), denominator det(t rho(h) - 1).

    ``reduced`` carries the quotient, canonicalized so equality up to the
    unit +/- t^k becomes literal equality; it is None when the division is
    not exact (the fraction is then kept as a pair).
    """

    numerator: LaurentPoly
    denominator: LaurentPoly
    reduced: Optional[LaurentPoly]

    @property
    def exact(self):
        return self.reduced is not None


def classical_alexander(k):
    """Alexander polynomial via alpha(dr/dx), canonicalized.

    For this 2-generator 1-relator presentation the Fox image alpha(dr/dx)
    already is Delta up to a unit (no residual t - 1 factor; Delta(1) = +/-1
    and |Delta(-1)| = p confirm it downstream).
    """
    d = fox_derivative(k.relator(), "x")
    coeffs = {}
    for w, c in d.terms.items():
        e = w.exponent_sum()
        coeffs[e] = coeffs.get(e, 0) + c
    return LaurentPoly(coeffs).canonical_unit()


def wada_twisted_alexander(k, rep, by="x", tol=DIVISION_TOL):
    """Wada's twisted Alexander polynomial for the knot and representation.

    ``by`` selects the differentiation route: the x-derivative pairs with the
    denominator det(t rho(y) - 1), the y-derivative with det(t rho(x) - 1);
    both yield the same reduced polynomial up to a unit.
    """
    if by == "x":
        den_gen = Word((("y", 1),))
    elif by == "y":
        den_gen = Word((("x", 1),))
    else:
        raise ValueError(f"by = {by!r}")
    numerator = fox_image(rep, k.relator(), by).det()
    den_elem = GroupRingElement({den_gen: 1, Word(): -1})
    denominator = phi_map(rep, den_elem).det()
    try:
        reduced = numerator.divide_exact(denominator, tol).canonical_unit()
    except InexactDivision:
        reduced = None
    return TwistedAlexResult(numerator, denominator, reduced)


def p_polynomial(delta, prec=DOUBLE, tol=DIVISION_TOL):
    """P(t) = Delta(sqrt(-1) * t) / (t^2 - 1) for a metabelian twisted
    Alexander polynomial; comes out even, P(t) = P(-t)."""
    num = delta.rescale_variable(prec.imag_unit)
    den = LaurentPoly({2: 1, 0: -1})
    p = num.divide_exact(den, tol)
    odd_mag = max((abs(c) for e, c in p.coeffs.items() if e % 2), default=0.0)
    if float(odd_mag) > tol * max(p.max_mag(), 1e-300):
        raise InexactDivision(
            "P(t) acquired odd-degree terms; the input polynomial does not "
            "come from a metabelian representation"
        )
    return p


def p_at_one(p):
    """P evaluated at 1.  Only |P(1)| and P(1)^2 are canonical; the sign is a
    unit artifact and never asserted."""
    return p.evaluate(1)
