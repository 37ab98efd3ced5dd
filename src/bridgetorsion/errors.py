"""Exception types shared across the package."""


class TorsionError(Exception):
    """Base class for every error raised by this package."""


class ZeroAtNegativeExponent(TorsionError):
    """Evaluation at z = 0 of a polynomial with negative-exponent support."""


class ZeroScale(TorsionError):
    """Variable rescaling t -> c*t with c = 0."""


class RecordError(TorsionError):
    """A check of one invariant record failed; the record keeps the error."""


class InexactDivision(RecordError):
    """Polynomial division left a remainder above tolerance, or Wada's
    numerator N lacks its double zero at t = i (``alexander.p_at_one``)."""


class DimensionMismatch(TorsionError):
    """Matrix dimensions incompatible with the requested operation."""


class DivergenceDetected(TorsionError):
    """Richardson extrapolants grow instead of settling."""


class InvalidFraction(TorsionError):
    """A fraction p/q that does not describe a two-bridge knot."""


class IndexOutOfRange(TorsionError):
    """Character or representation index outside 1..(p-1)/2."""


class ZeroParameter(TorsionError):
    """Riley parameter s = 0 (the representation needs sqrt(s) invertible)."""


class DeterminantMismatch(TorsionError):
    """|Delta(-1)| disagrees with the bridge number p of the input fraction."""


class SingularPoint(RecordError):
    """|d(phi)/du| vanishes at a continuation seed; the curve is not smooth there."""


class NewtonDivergence(RecordError):
    """Newton iteration failed to converge on the Riley curve."""


class ParseError(TorsionError):
    """Malformed catalog row or fraction string."""
