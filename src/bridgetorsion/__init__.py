"""Torsion invariants of double branched covers of two-bridge knots.

For a two-bridge knot b(p, q) the package computes, per metabelian character
index k, the product tau_k = |P(1)^2 * F| from the knot group alone (twisted
Alexander polynomial plus a Taylor coefficient on the SL2(C) character
variety) and verifies the multiset {tau_k} against the closed-form torsion
of the lens space L(p, q)."""

__version__ = "0.1.0"

from .errors import (
    DeterminantMismatch,
    DimensionMismatch,
    DivergenceDetected,
    IndexOutOfRange,
    InexactDivision,
    InvalidFraction,
    NewtonDivergence,
    ParseError,
    SingularPoint,
    TorsionError,
    ZeroAtNegativeExponent,
    ZeroParameter,
    ZeroScale,
)
from .numerics import LaurentPoly, RingMatrix, richardson_limit, units_equal
from .precision import DOUBLE, Precision
from .words import (
    GroupRingElement,
    TwoBridgeKnot,
    Word,
    build_relator_word,
    fox_derivative,
    fractions_mirror_equivalent,
    longitude_word,
    normalize_two_bridge,
)
from .reps import (
    Rep2,
    fox_image,
    metabelian_pair,
    metabelian_rep,
    metabelian_u,
    phi_map,
    riley_images,
)
from .alexander import (
    TwistedAlexResult,
    classical_alexander,
    knot_determinant,
    p_at_one,
    p_polynomial,
    torus_twisted_alexander,
    wada_twisted_alexander,
)
from .curve import (
    Jet2,
    RileyPoint,
    continue_riley_curve,
    evaluate_F,
    riley_residual,
    trace_longitude,
)
from .oracles import (
    LensSpace,
    lens_torsion_magnitude,
    lens_torsion_multiset,
    torus_F,
    torus_P1_squared,
)
from .pipeline import (
    ComparisonVerdict,
    InvariantRecord,
    compare_knots,
    compute_invariants,
    metabelian_pairing,
    run_catalog,
    tau_multiset,
)
