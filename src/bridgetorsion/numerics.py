"""Laurent polynomials, 2x2 matrices over commutative rings, and
Richardson extrapolation.

Coefficient arithmetic is duck-typed on purpose: builtin complex, ints,
mpmath numbers and the Taylor jets used for curve derivatives all flow
through the same polynomial and matrix code.
"""

from __future__ import annotations

import math

from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    InexactDivision,
    ZeroAtNegativeExponent,
    ZeroScale,
)

# Relative magnitude at or below which a coefficient is an exact zero.
DEFAULT_ZERO_TOL = 1e-9


def nan_max(values):
    """The largest of values, or NaN if any is NaN, so a check ``x <= tol``
    on the result fails; the builtin max keeps a NaN only in first place."""
    values = list(values)
    return math.nan if any(v != v for v in values) else max(values)


def _mag(c):
    # no NaN/Inf may escape a ring operation; overflow is an error
    m = float(abs(c))
    if not math.isfinite(m):
        raise OverflowError(f"non-finite coefficient {c!r}")
    return m


class LaurentPoly:
    """Finitely supported exponent -> coefficient map, kept in canonical form.

    Canonical form drops every coefficient whose magnitude is at or below
    ``DEFAULT_ZERO_TOL`` times the largest coefficient magnitude.  The
    threshold is relative, so rescaling a polynomial never changes which
    terms survive, and the zero polynomial has empty support.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        maxmag = 0.0
        for c in coeffs.values():
            m = _mag(c)
            if m > maxmag:
                maxmag = m
        cutoff = maxmag * DEFAULT_ZERO_TOL
        self.coeffs = {int(e): c for e, c in coeffs.items() if _mag(c) > cutoff}

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def min_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no support")
        return min(self.coeffs)

    @property
    def max_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no support")
        return max(self.coeffs)

    def coeff(self, exponent):
        return self.coeffs.get(exponent, 0)

    def max_mag(self):
        return max((_mag(c) for c in self.coeffs.values()), default=0.0)

    def items(self):
        return sorted(self.coeffs.items())

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly({0: other})
        merged = dict(self.coeffs)
        for e, c in other.coeffs.items():
            merged[e] = merged.get(e, 0) + c
        return LaurentPoly(merged)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        prod = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                prod[e] = prod.get(e, 0) + c1 * c2
        return LaurentPoly(prod)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, z):
        """Sum c_e z^e."""
        if z == 0 and any(e < 0 for e in self.coeffs):
            raise ZeroAtNegativeExponent("evaluation at 0 with negative-exponent terms")
        return sum(c * z ** e for e, c in self.coeffs.items())

    def rescale_variable(self, c):
        """Return q with q(t) = p(c*t)."""
        if c == 0:
            raise ZeroScale("variable rescale by 0")
        return LaurentPoly({e: coeff * c ** e for e, coeff in self.coeffs.items()})

    def invert_variable(self):
        """Return p(1/t)."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def divide_exact(self, den, tol=DEFAULT_ZERO_TOL):
        """Quotient of an exact division, by long division from the top degree.

        Raises InexactDivision when the remainder exceeds ``tol`` times the
        numerator's largest coefficient, which signals the numerator is not
        actually a multiple of ``den``.
        """
        if not isinstance(den, LaurentPoly):
            den = LaurentPoly({0: den})
        if den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly()
        num_scale = self.max_mag()
        dmax = den.max_exp
        dlead = den.coeffs[dmax]
        qmin = self.min_exp - den.min_exp
        rem = dict(self.coeffs)
        quot = {}
        while rem:
            rmax = max(rem)
            f_exp = rmax - dmax
            if f_exp < qmin:
                break
            f = rem.pop(rmax) / dlead
            quot[f_exp] = quot.get(f_exp, 0) + f
            for e, c in den.coeffs.items():
                if e == dmax:
                    continue
                te = f_exp + e
                rem[te] = rem.get(te, 0) - f * c
        rem_mag = max((_mag(c) for c in rem.values()), default=0.0)
        if rem_mag > tol * num_scale:
            raise InexactDivision(
                f"remainder magnitude {rem_mag:.3e} exceeds {tol:.1e} * |num| = {tol * num_scale:.3e}"
            )
        return LaurentPoly(quot)

    def canonical_unit(self):
        """Normalize away the unit ambiguity +/- t^k.

        Shifts the lowest exponent to 0 and fixes the sign so the lowest-degree
        coefficient has positive real part (positive imaginary part on ties).
        """
        if not self.coeffs:
            return self
        emin = self.min_exp
        c0 = complex(self.coeffs[emin])
        if abs(c0.real) > DEFAULT_ZERO_TOL * abs(c0):
            sign = 1 if c0.real > 0 else -1
        else:
            sign = 1 if c0.imag >= 0 else -1
        if emin == 0 and sign == 1:
            return self
        return LaurentPoly({e - emin: sign * c for e, c in self.coeffs.items()})

    def close_to(self, other, tol=1e-8):
        """Coefficientwise agreement relative to the larger coefficient scale."""
        scale = max(self.max_mag(), other.max_mag(), 1e-300)
        exps = set(self.coeffs) | set(other.coeffs)
        return all(_mag(self.coeff(e) - other.coeff(e)) <= tol * scale for e in exps)

    # -- display -------------------------------------------------------------

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        bits = []
        for e, c in self.items():
            z = complex(c)
            cs = f"{z.real:g}" if abs(z.imag) <= 1e-12 * max(abs(z), 1e-300) else f"({z.real:g}{z.imag:+g}j)"
            if e == 0:
                bits.append(cs)
            elif e == 1:
                bits.append(f"{cs}*t")
            else:
                bits.append(f"{cs}*t^{e}")
        return "LaurentPoly(" + " + ".join(bits) + ")"


def units_equal(a, b, tol=1e-8):
    """Equality of Laurent polynomials up to the unit group {+/- t^k}."""
    return a.canonical_unit().close_to(b.canonical_unit(), tol)


class RingMatrix:
    """2x2 matrix over a commutative coefficient ring, entries row-major."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        if len(entries) != 4:
            raise DimensionMismatch(f"{len(entries)} entries for a 2x2 matrix")
        self.entries = entries

    def __mul__(self, other):
        a0, a1, a2, a3 = self.entries
        b0, b1, b2, b3 = other.entries
        return RingMatrix((
            a0 * b0 + a1 * b2,
            a0 * b1 + a1 * b3,
            a2 * b0 + a3 * b2,
            a2 * b1 + a3 * b3,
        ))

    def __add__(self, other):
        return RingMatrix(x + y for x, y in zip(self.entries, other.entries))

    def det(self):
        e = self.entries
        return e[0] * e[3] - e[1] * e[2]

    def trace(self):
        return self.entries[0] + self.entries[3]

    def adjugate(self):
        """The inverse when the determinant is one."""
        a, b, c, d = self.entries
        return RingMatrix((d, -b, -c, a))

    def __repr__(self):
        a, b, c, d = self.entries
        return f"RingMatrix([{a!r}, {b!r}]; [{c!r}, {d!r}])"


def richardson_limit(samples, ratio=None):
    """Extrapolate f(h) -> f(0) from samples (h, f(h)) at geometric step sizes.

    Returns (limit, error_estimate) where the estimate is the difference of
    the last two diagonal extrapolants.  Raises DivergenceDetected when the
    diagonal differences grow instead of settling.
    """
    pts = sorted(samples, key=lambda s: -float(s[0]))
    if len(pts) < 3:
        raise ValueError("need at least 3 samples")
    hs = [float(h) for h, _ in pts]
    if any(h <= 0 for h in hs):
        raise ValueError("step sizes must be positive")
    r = float(ratio) if ratio is not None else hs[0] / hs[1]
    if r <= 1.0:
        raise ValueError("step sizes must decrease geometrically")
    for i in range(len(hs) - 1):
        if abs(hs[i] / hs[i + 1] - r) > 1e-6 * r:
            raise ValueError("step sizes are not in geometric progression")

    # prev_row is ordered largest h first; each level's best value (built from
    # the smallest steps) therefore sits at the end of the row.
    prev_row = [v for _, v in pts]
    diag = [prev_row[-1]]
    for m in range(1, len(pts)):
        factor = r ** m - 1.0
        row = []
        for i in range(len(prev_row) - 1):
            low, high = prev_row[i], prev_row[i + 1]
            row.append(high + (high - low) / factor)
        prev_row = row
        diag.append(row[-1])

    steps = [abs(diag[i + 1] - diag[i]) for i in range(len(diag) - 1)]
    scale = max(max(abs(v) for _, v in pts), abs(diag[-1]), 1e-300)
    growing_steps = (
        len(steps) >= 2
        and all(steps[i + 1] > steps[i] for i in range(len(steps) - 1))
        and float(steps[-1]) > 1e-12 * float(scale)
    )
    # monotone drift without settling (e.g. samples of 1/h): the magnitudes
    # climb every level and the last correction is still macroscopic
    drifting = (
        all(abs(diag[i + 1]) > abs(diag[i]) for i in range(len(diag) - 1))
        and float(steps[-1]) > 1e-3 * float(scale)
    )
    if growing_steps or drifting:
        raise DivergenceDetected(
            f"extrapolants do not settle: diagonal steps {[float(s) for s in steps]}"
        )
    err = float(steps[-1]) if steps else 0.0
    return diag[-1], err
