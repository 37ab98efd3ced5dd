"""End-to-end assembly of the torsion invariant multiset from P(1) and F,
read off the knot's exact elements (``exact``), knot comparison and the
report encoding.  The batch catalog and the per-knot result cache live in
``catalog``, which loads on first use; ``cached_invariant_report``,
``read_catalog`` and ``run_catalog`` stay readable here, from that module,
because the benchmark's tracer (``perfbench/measure.py`` ``TARGETS``)
names them under ``pipeline``."""

import json
import math
from collections import namedtuple

from .errors import ParseError, RecordError
from .exact import knot_elements, read
from .oracles import LensSpace, lens_torsion_magnitude
from .words import fractions_mirror_equivalent

#: Largest multiset deviation at which two knots of one determinant are
#: reported equivalent up to mirror image.
COMPARE_TOL = 1e-6


def metabelian_pairing(p, k):
    """The unique k' in 1..(p-1)/2 with 2k' = +/- k mod p, from the inverse
    (p+1)/2 of 2 mod p; rho_{k'} is the companion representation at whose
    character F is evaluated."""
    kp = k * ((p + 1) // 2) % p
    return min(kp, p - kp)


class InvariantRecord(namedtuple("InvariantRecord", "k kprime p1_squared f_value tau "
                                                   "cross_check diagnostics error")):
    """Per-index invariant data: tau_k = |P(1)^2 * F(chi_{rho_{k'}})|.

    ``cross_check`` is the lens-space oracle value at the same index; the
    per-index match is informational (sorted multisets are what the theory
    pins down), the acceptance equality runs at multiset level.
    ``diagnostics`` defaults to a new empty dict for each record, and
    ``error`` is None for a record that holds."""

    __slots__ = ()

    def __new__(cls, k, kprime, p1_squared, f_value, tau, cross_check=None,
                diagnostics=None, error=None):
        return tuple.__new__(cls, (k, kprime, p1_squared, f_value, tau, cross_check,
                                   {} if diagnostics is None else diagnostics, error))

    @property
    def ok(self):
        return self.error is None


class ComparisonVerdict(namedtuple("ComparisonVerdict", "knot_a knot_b verdict "
                                   "max_multiset_deviation congruence_match determinants_match")):
    """``verdict`` is "equivalent-up-to-mirror", "distinct" or
    "undetermined"; ``max_multiset_deviation`` is None when undetermined."""

    __slots__ = ()


def _record(knot, idx, lens, elements):
    """The record of index idx, read off the knot's exact elements."""
    kprime = metabelian_pairing(knot.p, idx)
    try:
        reading = read(elements, kprime)
        # the theorem gives P(1)^2 F = 1/(u_k u_{kr}) > 0
        if not reading.tau > 0:
            raise RecordError(f"P(1)^2 F = {reading.tau:.3e} is not positive")
    except RecordError as exc:
        return _failed(knot, idx, lens, exc)
    return InvariantRecord(idx, kprime, reading.p1_squared, reading.f_value, reading.tau,
                           lens_torsion_magnitude(lens, idx), {"margin_bits": reading.margin_bits})


def _failed(knot, idx, lens, exc):
    return InvariantRecord(idx, metabelian_pairing(knot.p, idx), 0.0, 0.0, float("nan"),
                           lens_torsion_magnitude(lens, idx), {},
                           f"{type(exc).__name__}: {exc}")


def compute_invariants(knot):
    """One InvariantRecord per k = 1..(p-1)/2, torus knots b(p, 1) included,
    from one exact pass over the knot; a failed check of that pass fails
    every record, and a failed readout its own record.  Failures are
    recorded rather than raised, so partial results survive."""
    lens = LensSpace.of(knot.p, knot.q)
    indices = range(1, (knot.p - 1) // 2 + 1)
    try:
        elements = knot_elements(knot)
    except RecordError as exc:
        return [_failed(knot, idx, lens, exc) for idx in indices]
    return [_record(knot, idx, lens, elements) for idx in indices]


def tau_multiset(records):
    if any(r.error is not None for r in records):
        return None
    return sorted(r.tau for r in records)


def _multiset_deviation(taus_a, taus_b):
    if len(taus_a) != len(taus_b):
        return float("inf")
    dev = 0.0
    for a, b in zip(taus_a, taus_b):
        dev = max(dev, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return dev


def format_deviation(value, spec):
    """A multiset deviation for display; "n/a" for an undetermined verdict."""
    return "n/a" if value is None else format(value, spec)


def compare_knots(a, b, records_a=None, records_b=None, *, taus=None):
    """Verdict per the torsion multisets, with the arithmetic congruence
    q' = +/- q^{+/-1} mod p reported as independent confirmation.  Any error
    record on either side makes the verdict "undetermined", with no
    deviation.  ``taus``, the pair of ``tau_multiset``s of the two sides,
    stands in for the records where the caller holds them sorted already."""
    if taus is None:
        records_a = records_a if records_a is not None else compute_invariants(a)
        records_b = records_b if records_b is not None else compute_invariants(b)
        taus = tau_multiset(records_a), tau_multiset(records_b)
    taus_a, taus_b = taus
    det_match = a.p == b.p
    congruence = det_match and fractions_mirror_equivalent(a.p, a.q, b.q)
    if taus_a is None or taus_b is None:
        verdict, deviation = "undetermined", None
    else:
        deviation = _multiset_deviation(taus_a, taus_b)
        if det_match and deviation <= COMPARE_TOL:
            verdict = "equivalent-up-to-mirror"
        else:
            verdict = "distinct"
    return ComparisonVerdict(
        knot_a=a,
        knot_b=b,
        verdict=verdict,
        max_multiset_deviation=deviation,
        congruence_match=congruence,
        determinants_match=det_match,
    )


# -- reporting ---------------------------------------------------------------


def record_to_dict(rec):
    # [x, 0.0] pairs: the report format of complex values, kept for readers
    return {
        "k": rec.k,
        "kprime": rec.kprime,
        "p1_squared": [rec.p1_squared, 0.0],
        "F": [rec.f_value, 0.0],
        "tau": rec.tau if rec.error is None else None,
        "oracle": rec.cross_check,
        "absError": (
            abs(rec.tau - rec.cross_check)
            if rec.cross_check is not None and rec.error is None
            else None
        ),
        "diagnostics": rec.diagnostics,
        "error": rec.error,
    }


def knot_report(knot, records):
    return {
        "knot": {"p": knot.p, "q": knot.q},
        "records": [record_to_dict(r) for r in records],
    }


def verdict_to_dict(v):
    """JSON form of a verdict; JSON has no infinity, so a deviation that is
    not finite is written as null."""
    dev = v.max_multiset_deviation
    return {
        "knots": [[v.knot_a.p, v.knot_a.q], [v.knot_b.p, v.knot_b.q]],
        "verdict": v.verdict,
        "maxMultisetDeviation": dev if dev is not None and math.isfinite(dev) else None,
        "congruenceMatch": v.congruence_match,
        "determinantsMatch": v.determinants_match,
    }


def serialize_report(report):
    """Canonical byte form, compact JSON with sorted keys; identical
    computations serialize bit-for-bit."""
    return json.dumps(report, sort_keys=True).encode()


def parse_fraction(text):
    """'p/q' -> (p, q)."""
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ParseError(f"expected 'p/q', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad fraction {text!r}: {exc}") from None


_CATALOG = {"cached_invariant_report", "read_catalog", "run_catalog"}


def __getattr__(name):
    """A catalog or cache function, read from ``catalog`` (loading it)."""
    if name not in _CATALOG:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import catalog

    return getattr(catalog, name)
