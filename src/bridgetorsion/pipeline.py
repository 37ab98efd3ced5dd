"""End-to-end assembly of the torsion invariant multiset from P(1)
(``alexander.p_at_one``) and F (``curve.evaluate_F``), knot comparison,
batch catalogs and the per-knot result cache."""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

from .alexander import p_at_one
from .curve import evaluate_F, metabelian_pairing
from .errors import ParseError, RecordError, TorsionError
from .oracles import LensSpace, lens_torsion_magnitude
from .precision import DOUBLE, Precision
from .reps import metabelian_rep
from .words import TwoBridgeKnot, fractions_mirror_equivalent, normalize_two_bridge

#: Largest multiset deviation at which two knots of one determinant are
#: reported equivalent up to mirror image.
COMPARE_TOL = 1e-6


@cache
def fingerprint():
    """SHA-256 over the name and bytes of every module of the package, in
    sorted order; keys the cache, so any change to the source, be it a
    method, a tolerance or the report schema, gives a new key."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@cache
def _extended():
    """The 30-digit backend, built on the first record that needs it, so a
    run whose records all pass in double never imports mpmath."""
    return Precision("extended")


@dataclass(frozen=True)
class InvariantRecord:
    """Per-index invariant data: tau_k = |P(1)^2 * F(chi_{rho_{k'}})|.

    ``cross_check`` is the lens-space oracle value at the same index; the
    per-index match is informational (sorted multisets are what the theory
    pins down), the acceptance equality runs at multiset level."""

    k: int
    kprime: int
    p1_squared: complex
    f_value: complex
    tau: float
    cross_check: float | None = None
    diagnostics: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self):
        return self.error is None


@dataclass(frozen=True)
class ComparisonVerdict:
    knot_a: TwoBridgeKnot
    knot_b: TwoBridgeKnot
    verdict: str  # "equivalent-up-to-mirror" | "distinct" | "undetermined"
    max_multiset_deviation: float | None  # None when undetermined
    congruence_match: bool
    determinants_match: bool


def _generic_record(knot, idx, prec, lens):
    p1, p1_gap = p_at_one(knot, metabelian_rep(knot.p, idx, prec))
    # only |P(1)| and P(1)^2 are canonical; the sign is a unit artifact
    p1sq = complex(p1) ** 2
    kprime = metabelian_pairing(knot.p, idx)
    est = evaluate_F(knot, kprime, prec)
    f_val = complex(est.value)
    prod = p1sq * f_val
    tau = abs(prod)
    # the assembled product must be essentially real, and positive in
    # magnitude
    if not tau > 0:
        raise RecordError("tau is not positive")
    if not abs(prod.imag) <= 1e-6 * tau:
        raise RecordError(f"imaginary part {prod.imag:.3e} exceeds 1e-6 * tau")
    diag = {
        "p1_gap": p1_gap,
        "f_direct": [complex(est.direct).real, complex(est.direct).imag],
        "f_rel_disagreement": est.rel_disagreement,
        "newton_residual_max": est.max_residual,
        "lam_gap0": est.lam_gap0,
        "lam_gap1": est.lam_gap1,
        "lon_gap0": est.lon_gap0,
        "path": "generic",
        "precision": prec.name,
    }
    return InvariantRecord(
        k=idx,
        kprime=kprime,
        p1_squared=p1sq,
        f_value=f_val,
        tau=tau,
        cross_check=lens_torsion_magnitude(lens, idx),
        diagnostics=diag,
    )


def _record(knot, idx, lens):
    """The record of index idx in double precision; a record whose checks
    fail there is computed again, by the same code with the same
    tolerances, at 30 digits, and keeps an error only if it fails there
    too."""
    try:
        return _generic_record(knot, idx, DOUBLE, lens)
    except RecordError:
        pass
    try:
        return _generic_record(knot, idx, _extended(), lens)
    except RecordError as exc:
        return InvariantRecord(
            k=idx,
            kprime=metabelian_pairing(knot.p, idx),
            p1_squared=0j,
            f_value=0j,
            tau=float("nan"),
            cross_check=lens_torsion_magnitude(lens, idx),
            diagnostics={"precision": "extended"},
            error=f"{type(exc).__name__}: {exc}",
        )


def compute_invariants(knot):
    """One InvariantRecord per k = 1..(p-1)/2, torus knots b(p, 1) included;
    per-record failures are recorded rather than raised, so partial results
    survive."""
    lens = LensSpace.of(knot.p, knot.q)
    return [_record(knot, idx, lens) for idx in range(1, (knot.p - 1) // 2 + 1)]


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


def compare_knots(a, b, records_a=None, records_b=None):
    """Verdict per the torsion multisets, with the arithmetic congruence
    q' = +/- q^{+/-1} mod p reported as independent confirmation.  Any error
    record on either side makes the verdict "undetermined", with no
    deviation."""
    records_a = records_a if records_a is not None else compute_invariants(a)
    records_b = records_b if records_b is not None else compute_invariants(b)
    det_match = a.p == b.p
    taus_a, taus_b = tau_multiset(records_a), tau_multiset(records_b)
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


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def record_to_dict(rec):
    return {
        "k": rec.k,
        "kprime": rec.kprime,
        "p1_squared": _pair(rec.p1_squared),
        "F": _pair(rec.f_value),
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
    """Canonical byte form; identical computations serialize bit-for-bit."""
    return json.dumps(report, sort_keys=True, indent=1).encode()


def default_cache_dir():
    return os.environ.get("TORSION_CACHE_DIR") or ".torsion_cache"


def _atomic_write(path, data):
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
    """The report cached at path, or None where there is none or it does
    not parse, names another knot, or has records that do not rebuild with
    k = 1..(p-1)/2 in order."""
    try:
        with open(path, "rb") as f:
            report = json.loads(f.read().decode())
    except (FileNotFoundError, ValueError):
        return None
    if not isinstance(report, dict) or report.get("knot") != {"p": knot.p, "q": knot.q}:
        return None
    try:
        ks = [r.k for r in _records_from_report(report)]
    except (KeyError, TypeError, ValueError):
        return None
    return report if ks == list(range(1, (knot.p - 1) // 2 + 1)) else None


def cached_invariant_report(knot, cache_dir=None):
    """Per-knot report, served from the directory cache when the code
    fingerprint matches; returns (report, hit).  A damaged entry is a miss,
    and is computed and written again."""
    base = cache_dir or default_cache_dir()
    path = os.path.join(base, fingerprint()[:16], f"{knot.p}_{knot.q}.json")
    report = _cached_report(path, knot)
    if report is not None:
        return report, True
    records = compute_invariants(knot)
    report = knot_report(knot, records)
    _atomic_write(path, serialize_report(report))
    return report, False


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
    the JSON report; per-row failures are recorded, not fatal."""
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
        report, hit = cached_invariant_report(knot, cache_dir)
        entries.append({"row": row_no, "label": label, "knot": knot, "report": report, "cache_hit": hit})

    records = [_records_from_report(e["report"]) for e in entries]
    verdicts = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i]["knot"], entries[j]["knot"]
            if a.p != b.p or (a.p, a.q) == (b.p, b.q):
                continue
            verdicts.append(compare_knots(a, b, records[i], records[j]))

    report = {
        "config": fingerprint(),
        "knots": [e["report"] for e in entries],
        "labels": [e["label"] for e in entries],
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
                p1_squared=complex(*r["p1_squared"]),
                f_value=complex(*r["F"]),
                tau=tau if tau is not None else float("nan"),
                cross_check=oracle,
                diagnostics=r.get("diagnostics", {}),
                error=error,
            )
        )
    return out
