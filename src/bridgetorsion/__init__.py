"""Torsion invariants of double branched covers of two-bridge knots.

For a two-bridge knot b(p, q) the package computes, per metabelian character
index k, the product tau_k = |P(1)^2 * F| from the knot group alone (twisted
Alexander polynomial plus a Taylor coefficient on the SL2(C) character
variety) and verifies the multiset {tau_k} against the closed-form torsion
of the lens space L(p, q).

The float references (numerics, precision, reps, alexander, curve), the
batch catalog and result cache (catalog), and their exports load on first
use; computing and comparing knots runs none of them."""

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
from .words import (
    GroupRingElement,
    TwoBridgeKnot,
    Word,
    build_relator_word,
    fox_derivative,
    fractions_mirror_equivalent,
    knot_determinant,
    longitude_word,
    normalize_two_bridge,
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
    tau_multiset,
)

#: what ``from bridgetorsion import *`` brings: the names imported above,
#: then the lazy exports (below)
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if getattr(value, "__module__", "").startswith(f"{__name__}.")
]


def _lazy(name):
    # a module in sys.modules (where imports and tracers look for it) that
    # runs on its first attribute access
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


numerics = _lazy("numerics")
precision = _lazy("precision")
reps = _lazy("reps")
alexander = _lazy("alexander")
curve = _lazy("curve")
catalog = _lazy("catalog")

_LAZY_EXPORTS = {
    name: module
    for module, names in (
        ("numerics", "LaurentPoly RingMatrix richardson_limit units_equal"),
        ("precision", "DOUBLE Precision"),
        ("reps", "Rep2 fox_image metabelian_pair metabelian_rep metabelian_u phi_map "
                 "riley_images"),
        ("alexander", "TwistedAlexResult classical_alexander p_at_one p_polynomial "
                      "torus_twisted_alexander wada_twisted_alexander"),
        ("curve", "Jet2 RileyPoint continue_riley_curve evaluate_F riley_residual "
                  "trace_longitude"),
        ("catalog", "run_catalog"),
    )
    for name in names.split()
}
__all__ += _LAZY_EXPORTS


def __getattr__(name):
    """A lazy export, read from its module (loading it)."""
    try:
        module = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted(globals().keys() | _LAZY_EXPORTS.keys())
