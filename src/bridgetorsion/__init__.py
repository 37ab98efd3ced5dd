"""Torsion invariants of double branched covers of two-bridge knots.

For a two-bridge knot b(p, q) the package computes, per metabelian character
index k, the product tau_k = |P(1)^2 * F| from the knot group alone (twisted
Alexander polynomial plus a Taylor coefficient on the SL2(C) character
variety) and verifies the multiset {tau_k} against the closed-form torsion
of the lens space L(p, q).

The package namespace holds what the modules it imports (errors, words,
oracles, pipeline) export, under one spelling each.  The float references
(numerics, precision, reps, alexander, curve) and the batch catalog and
result cache (catalog) load on first use and are reached by module path
only, for example ``bridgetorsion.curve.evaluate_F`` or
``bridgetorsion.catalog.run_catalog``; computing and comparing knots, and
``from bridgetorsion import *``, run none of them."""

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

#: what ``from bridgetorsion import *`` brings: the names imported above
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
