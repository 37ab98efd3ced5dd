"""End-to-end assembly of the torsion invariant multiset from P(1) and F,
read off the knot's exact elements (``exact``), knot comparison, batch
catalogs and the per-knot result cache."""

import csv
import itertools
import json
import math
import os
from collections import namedtuple
from functools import cache

from .errors import ParseError, RecordError, TorsionError
from .exact import knot_elements, read
from .oracles import LensSpace, lens_torsion_magnitude
from .words import fractions_mirror_equivalent, normalize_two_bridge

#: Largest multiset deviation at which two knots of one determinant are
#: reported equivalent up to mirror image.
COMPARE_TOL = 1e-6


@cache
def fingerprint():
    """SHA-256 over the name and bytes of every module of the package, in
    sorted order; keys the cache, so any change to the source, be it a
    method, a tolerance or the report schema, gives a new key."""
    import hashlib  # loads OpenSSL, which only the cache needs

    here = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
        with open(os.path.join(here, name), "rb") as f:
            data = f.read()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


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


# -- reporting and cache -----------------------------------------------------


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
        "determinant": knot.p,
        "records": [record_to_dict(r) for r in records],
        "verdicts": [],
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


def default_cache_dir():
    return os.environ.get("TORSION_CACHE_DIR") or ".torsion_cache"


def _atomic_write(path, data):
    import tempfile  # only a cache or catalog write needs it

    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cached_report(path, knot):
    """(report, records) cached at path, or None where there is none or it
    does not parse, names another knot, or has records that do not rebuild
    with k = 1..(p-1)/2 in order."""
    try:
        with open(path, "rb") as f:
            report = json.loads(f.read().decode())
    except (FileNotFoundError, ValueError):
        return None
    if not isinstance(report, dict) or report.get("knot") != {"p": knot.p, "q": knot.q}:
        return None
    try:
        records = _records_from_report(report)
    except (KeyError, TypeError, ValueError):
        return None
    if [r.k for r in records] != list(range(1, (knot.p - 1) // 2 + 1)):
        return None
    return report, records


def cached_invariant_report(knot, cache_dir=None):
    """Per-knot report, served from the directory cache when the code
    fingerprint matches; returns (report, hit, records), the records
    computed on a miss or rebuilt from the entry on a hit.  A damaged entry
    is a miss, and is computed and written again."""
    base = cache_dir or default_cache_dir()
    path = os.path.join(base, fingerprint()[:16], f"{knot.p}_{knot.q}.json")
    cached = _cached_report(path, knot)
    if cached is not None:
        return cached[0], True, cached[1]
    records = compute_invariants(knot)
    report = knot_report(knot, records)
    _atomic_write(path, serialize_report(report))
    return report, False, records


def parse_fraction(text):
    """'p/q' -> (p, q)."""
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ParseError(f"expected 'p/q', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad fraction {text!r}: {exc}") from None


def read_catalog(path):
    """Rows 'p,q[,label]' with an optional header, a first non-blank row
    whose first cell is neither empty nor an integer; yields
    (row_no, p, q, label) or (row_no, None, None, message) for malformed
    rows, numbered as in the file."""
    rows = []
    header_allowed = True
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        for row_no in itertools.count(1):
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
                header_allowed = False
                rows.append((row_no, None, None, f"row {row_no}: {exc}"))
                continue
            # cells keep their positions; only trailing empty ones go
            cells = [c.strip() for c in row]
            while cells and not cells[-1]:
                cells.pop()
            if not cells:
                continue
            first, header_allowed = header_allowed, False
            p = None
            try:
                p = int(cells[0])
                q = int(cells[1])
            except (ValueError, IndexError):
                if first and p is None and cells[0]:
                    continue  # a header: its first cell is not an integer
                rows.append((row_no, None, None, f"row {row_no}: cannot parse {row!r}"))
                continue
            label = cells[2] if len(cells) > 2 and cells[2] else f"b({p},{q})"
            rows.append((row_no, p, q, label))
    return rows


def run_catalog(input_path, out_path=None, cache_dir=None):
    """Compute every catalog row, compare same-determinant pairs, and write
    serialize_report of the returned report to out_path; per-row failures
    are recorded, not fatal."""
    entries = []
    errors = []
    for row_no, p, q, label in read_catalog(input_path):
        if p is None:
            errors.append({"row": row_no, "error": label})
            continue
        try:
            knot = normalize_two_bridge(p, q)
        except TorsionError as exc:
            errors.append({"row": row_no, "error": f"{type(exc).__name__}: {exc}"})
            continue
        report, _, records = cached_invariant_report(knot, cache_dir)
        entries.append((label, knot, report, tau_multiset(records)))

    verdicts = []
    for (_, a, _, taus_a), (_, b, _, taus_b) in itertools.combinations(entries, 2):
        if a.p == b.p and (a.p, a.q) != (b.p, b.q):
            verdicts.append(compare_knots(a, b, taus=(taus_a, taus_b)))

    report = {
        "config": fingerprint(),
        "knots": [knot_rep for _, _, knot_rep, _ in entries],
        "labels": [label for label, _, _, _ in entries],
        "verdicts": [verdict_to_dict(v) for v in verdicts],
        "errors": errors,
    }
    if out_path:
        _atomic_write(out_path, serialize_report(report))
    return report


def _is_number(x):
    """True for a finite JSON number; a bool does not count."""
    return type(x) is float and math.isfinite(x) or type(x) is int


def _is_pair(z):
    return type(z) is list and len(z) == 2 and _is_number(z[0]) and _is_number(z[1])


def _records_from_report(report):
    """Rebuild just enough of the records (tau, error) for comparisons.
    A field of the wrong type raises TypeError: k and kprime integers,
    p1_squared and F pairs of numbers, the oracle a number or null, the
    diagnostics an object, and either a finite tau and no error or an error
    string and no tau."""
    out = []
    for r in report["records"]:
        tau, error, oracle = r["tau"], r.get("error"), r["oracle"]
        if not (
            type(r["k"]) is int
            and type(r["kprime"]) is int
            and _is_pair(r["p1_squared"])
            and _is_pair(r["F"])
            and (oracle is None or _is_number(oracle))
            and type(r.get("diagnostics", {})) is dict
            and (error is None and _is_number(tau) or tau is None and type(error) is str)
        ):
            raise TypeError(f"record with a field of the wrong type: {r!r}")
        out.append(
            InvariantRecord(
                k=r["k"],
                kprime=r["kprime"],
                p1_squared=r["p1_squared"][0],
                f_value=r["F"][0],
                tau=tau if tau is not None else float("nan"),
                cross_check=oracle,
                diagnostics=r.get("diagnostics", {}),
                error=error,
            )
        )
    return out
