"""P(1) of record from Wada's numerator with no division (``p_at_one``);
Wada's twisted Alexander polynomial for <x, y | w x = y w>, the classical
Alexander polynomial and P(t), which tests use as the reference for P(1).

``knot_determinant`` = |Delta(-1)| is computed exactly in ``words``, where
``normalize_two_bridge`` checks it against p; it is re-exported here."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .curve import Jet2
from .errors import InexactDivision
from .numerics import LaurentPoly, RingMatrix, nan_max
from .precision import DOUBLE
from .reps import fox_image
from .words import fox_derivative, knot_determinant  # noqa: F401

#: Exactness tolerance for the polynomial divisions and the double zero below.
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


def wada_twisted_alexander(k, rep, by="x"):
    """Wada's twisted Alexander polynomial for the knot and representation.

    ``by`` selects the differentiation route: the x-derivative pairs with the
    denominator det(t rho(y) - 1), the y-derivative with det(t rho(x) - 1);
    both yield the same reduced polynomial up to a unit.  For a 2x2 matrix
    M, det(t M - 1) = t^2 det M - t tr M + 1.
    """
    if by == "x":
        m = rep.img_y
    elif by == "y":
        m = rep.img_x
    else:
        raise ValueError(f"by = {by!r}")
    numerator = RingMatrix(map(LaurentPoly, fox_image(rep, k.relator(), by))).det()
    denominator = LaurentPoly({2: m.det(), 1: -m.trace(), 0: 1})
    try:
        reduced = numerator.divide_exact(denominator, DIVISION_TOL).canonical_unit()
    except InexactDivision:
        reduced = None
    return TwistedAlexResult(numerator, denominator, reduced)


def p_at_one(knot, rep):
    """P(1) for the metabelian rep = rho_k from Wada's numerator N, which has
    N(i(1 + e)) = -4 P(1) e^2 + O(e^3), and the gap of that double zero,
    max(|[e^0] N|, |[e^1] N|) / (|[e^2] N| + 1); above DIVISION_TOL, as off
    rho_k, it raises InexactDivision.  Each entry of Phi(dr/dx) is a Jet2 in
    its (val, s, ss) slots, with t^a = i^a (1, a, a(a-1)/2)."""
    entries = []
    for d in fox_image(rep, knot.relator(), "x"):
        terms = [(a, c * (1, 1j, -1, -1j)[a % 4]) for a, c in d.items()]
        entries.append(Jet2(
            sum(c for _, c in terms),
            s=sum(a * c for a, c in terms),
            ss=sum(a * (a - 1) // 2 * c for a, c in terms),
        ))
    n = RingMatrix(entries).det()
    gap = float(nan_max((abs(n.val), abs(n.s))) / (abs(n.ss) + 1))
    if not gap <= DIVISION_TOL:
        raise InexactDivision(f"N(i(1 + e)) of {knot.label} has no double zero: gap {gap:.3e}")
    return -n.ss / 4, gap


def p_polynomial(delta, prec=DOUBLE):
    """P(t) = Delta(sqrt(-1) * t) / (t^2 - 1) for a metabelian twisted
    Alexander polynomial; comes out even, P(t) = P(-t)."""
    num = delta.rescale_variable(prec.sqrt(-1))
    den = LaurentPoly({2: 1, 0: -1})
    p = num.divide_exact(den, DIVISION_TOL)
    odd_mag = max((abs(c) for e, c in p.coeffs.items() if e % 2), default=0.0)
    if float(odd_mag) > DIVISION_TOL * max(p.max_mag(), 1e-300):
        raise InexactDivision(
            "P(t) acquired odd-degree terms; the input polynomial does not "
            "come from a metabelian representation"
        )
    return p
