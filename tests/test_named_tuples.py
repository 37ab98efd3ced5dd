"""The package's value types are immutable named tuples: no field can be
set, ``_replace`` and ``_asdict`` round-trip, and a knot's relator and <-w
come from its own word."""

import pytest

from bridgetorsion import exact, pipeline
from bridgetorsion.alexander import wada_twisted_alexander
from bridgetorsion.curve import RileyPoint
from bridgetorsion.oracles import LensSpace
from bridgetorsion.pipeline import compare_knots, compute_invariants, tau_multiset
from bridgetorsion.reps import metabelian_pair, metabelian_rep
from bridgetorsion.selfcheck import CriterionResult
from bridgetorsion.words import normalize_two_bridge


def _instances():
    knot, other = normalize_two_bridge(7, 3), normalize_two_bridge(7, 5)
    return [
        knot,
        LensSpace.of(7, 3),
        pipeline.read(exact.knot_elements(knot))[0],
        compute_invariants(knot)[0],
        compare_knots(knot, other, *(tau_multiset(compute_invariants(k)) for k in (knot, other))),
        metabelian_pair(7, 1),
        RileyPoint(-1.0, -0.75 + 0j, 0.0),
        wada_twisted_alexander(knot, metabelian_rep(7, 1)),
        CriterionResult(1, "name", True, "detail"),
    ]


INSTANCES = _instances()


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda obj: type(obj).__name__)
def test_fields_cannot_be_set(obj):
    for name in obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = None


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda obj: type(obj).__name__)
def test_replace_round_trips(obj):
    same = obj._replace(**obj._asdict())
    assert type(same) is type(obj) and same == obj
    first = obj._fields[0]
    changed = obj._replace(**{first: "changed"})
    assert getattr(changed, first) == "changed" and getattr(obj, first) != "changed"
    assert changed._replace(**{first: getattr(obj, first)}) == obj


def test_relator_is_built_once_per_knot():
    knot = normalize_two_bridge(41, 11)
    # a replaced knot builds its own
    other = knot._replace(word=normalize_two_bridge(41, 3).word)
    assert other.relator() != knot.relator()
