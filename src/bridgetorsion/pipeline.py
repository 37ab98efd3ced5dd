"""End-to-end assembly of the torsion invariant multiset, knot comparison,
batch catalogs and the per-knot result cache."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field, replace

from . import __version__
from .alexander import p_at_one, p_polynomial, wada_twisted_alexander
from .curve import F_METHOD, LimitConfig, evaluate_F, metabelian_pairing
from .errors import (
    EstimateDisagreement,
    InexactDivision,
    LongitudeNotIdentity,
    NewtonDivergence,
    ParseError,
    SingularPoint,
    TorsionError,
)
from .oracles import LensSpace, lens_torsion_magnitude
from .precision import get_precision
from .reps import metabelian_rep
from .words import TwoBridgeKnot, fractions_mirror_equivalent, normalize_two_bridge

_RECORD_ERRORS = (
    SingularPoint,
    NewtonDivergence,
    EstimateDisagreement,
    InexactDivision,
    LongitudeNotIdentity,
)


@dataclass(frozen=True)
class Config:
    """All numeric knobs of a run; the fingerprint keys the cache."""

    precision: str = "double"
    newton_tol: float = 1e-12
    singular_tol: float = 1e-8
    cross_tol: float = 1e-5
    compare_tol: float = 1e-6

    def limit_config(self):
        return LimitConfig(
            newton_tol=self.newton_tol,
            singular_tol=self.singular_tol,
            cross_tol=self.cross_tol,
        )

    def fingerprint(self):
        payload = {
            "version": __version__,
            "f_method": F_METHOD,
            "precision": self.precision,
            "newton_tol": self.newton_tol,
            "singular_tol": self.singular_tol,
            "cross_tol": self.cross_tol,
            "compare_tol": self.compare_tol,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


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


def _check_record(rec):
    """The assembled product must be essentially real and positive in
    magnitude; violations mark the record instead of crashing the run."""
    if rec.error is not None:
        return rec
    prod = rec.p1_squared * rec.f_value
    if not rec.tau > 0:
        return replace(rec, error="tau is not positive")
    if abs(prod.imag) > 1e-6 * rec.tau:
        return replace(
            rec, error=f"imaginary part {prod.imag:.3e} exceeds 1e-6 * tau"
        )
    return rec


def _generic_record(knot, idx, cfg, prec, lens):
    rho = metabelian_rep(knot.p, idx, prec)
    wada = wada_twisted_alexander(knot, rho)
    if wada.reduced is None:
        raise InexactDivision(
            f"twisted Alexander fraction did not reduce for {knot.label}, k={idx}"
        )
    poly_p = p_polynomial(wada.reduced, prec)
    p1 = complex(p_at_one(poly_p))
    kprime = metabelian_pairing(knot.p, idx)
    est = evaluate_F(knot, kprime, cfg.limit_config(), prec)
    f_val = complex(est.value)
    p1sq = p1 * p1
    tau = abs(p1sq * f_val)
    diag = {
        "f_direct": [complex(est.direct).real, complex(est.direct).imag],
        "f_rel_disagreement": est.rel_disagreement,
        "newton_residual_max": est.max_residual,
        "lam_gap0": est.lam_gap0,
        "lam_gap1": est.lam_gap1,
        "lon_gap0": est.lon_gap0,
        "path": "generic",
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


def compute_invariants(knot, cfg=Config()):
    """One InvariantRecord per k = 1..(p-1)/2, torus knots b(p, 1) included;
    per-record failures are recorded rather than raised, so partial results
    survive."""
    prec = get_precision(cfg.precision)
    lens = LensSpace.of(knot.p, knot.q)
    records = []
    for idx in range(1, (knot.p - 1) // 2 + 1):
        try:
            rec = _generic_record(knot, idx, cfg, prec, lens)
        except _RECORD_ERRORS as exc:
            rec = InvariantRecord(
                k=idx,
                kprime=metabelian_pairing(knot.p, idx),
                p1_squared=0j,
                f_value=0j,
                tau=float("nan"),
                cross_check=lens_torsion_magnitude(lens, idx),
                error=f"{type(exc).__name__}: {exc}",
            )
        records.append(_check_record(rec))
    return records


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


def compare_knots(a, b, cfg=Config(), records_a=None, records_b=None):
    """Verdict per the torsion multisets, with the arithmetic congruence
    q' = +/- q^{+/-1} mod p reported as independent confirmation.  Any error
    record on either side makes the verdict "undetermined", with no
    deviation."""
    records_a = records_a if records_a is not None else compute_invariants(a, cfg)
    records_b = records_b if records_b is not None else compute_invariants(b, cfg)
    det_match = a.p == b.p
    taus_a, taus_b = tau_multiset(records_a), tau_multiset(records_b)
    congruence = det_match and fractions_mirror_equivalent(a.p, a.q, b.q)
    if taus_a is None or taus_b is None:
        verdict, deviation = "undetermined", None
    else:
        deviation = _multiset_deviation(taus_a, taus_b)
        if det_match and deviation <= cfg.compare_tol:
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


def knot_report(knot, records, verdicts=()):
    return {
        "knot": {"p": knot.p, "q": knot.q},
        "determinant": knot.p,
        "records": [record_to_dict(r) for r in records],
        "verdicts": list(verdicts),
    }


def verdict_to_dict(v):
    return {
        "knots": [[v.knot_a.p, v.knot_a.q], [v.knot_b.p, v.knot_b.q]],
        "verdict": v.verdict,
        "maxMultisetDeviation": v.max_multiset_deviation,
        "congruenceMatch": v.congruence_match,
        "determinantsMatch": v.determinants_match,
    }


def serialize_report(report):
    """Canonical byte form; identical computations serialize bit-for-bit."""
    return json.dumps(report, sort_keys=True, indent=1).encode()


def default_cache_dir():
    return os.environ.get("TORSION_CACHE_DIR", ".torsion_cache")


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


def cached_invariant_report(knot, cfg=Config(), cache_dir=None):
    """Per-knot report, served from the directory cache when the config
    fingerprint matches; returns (report, hit)."""
    base = cache_dir or default_cache_dir()
    path = os.path.join(base, cfg.fingerprint()[:16], f"{knot.p}_{knot.q}.json")
    if os.path.exists(path):
        with open(path, "rb") as f:
            return json.loads(f.read().decode()), True
    records = compute_invariants(knot, cfg)
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
    """Rows 'p,q[,label]' with an optional header; yields (row_no, p, q, label)
    or (row_no, None, None, message) for malformed rows."""
    rows = []
    with open(path, newline="") as f:
        for row_no, row in enumerate(csv.reader(f), start=1):
            cells = [c.strip() for c in row if c.strip() != ""]
            if not cells:
                continue
            try:
                p, q = int(cells[0]), int(cells[1])
            except (ValueError, IndexError):
                if row_no == 1:
                    continue  # header
                rows.append((row_no, None, None, f"row {row_no}: cannot parse {row!r}"))
                continue
            label = cells[2] if len(cells) > 2 else f"b({p},{q})"
            rows.append((row_no, p, q, label))
    return rows


def run_catalog(input_path, cfg=Config(), out_path=None, cache_dir=None):
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
        report, hit = cached_invariant_report(knot, cfg, cache_dir)
        entries.append({"row": row_no, "label": label, "knot": knot, "report": report, "cache_hit": hit})

    verdicts = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i]["knot"], entries[j]["knot"]
            if a.p != b.p or (a.p, a.q) == (b.p, b.q):
                continue
            recs_a = _records_from_report(entries[i]["report"])
            recs_b = _records_from_report(entries[j]["report"])
            verdicts.append(compare_knots(a, b, cfg, recs_a, recs_b))

    report = {
        "config": cfg.fingerprint(),
        "knots": [e["report"] for e in entries],
        "labels": [e["label"] for e in entries],
        "verdicts": [verdict_to_dict(v) for v in verdicts],
        "errors": errors,
    }
    if out_path:
        _atomic_write(out_path, serialize_report(report))
    return report


def _records_from_report(report):
    """Rebuild just enough of the records (tau, error) for comparisons."""
    out = []
    for r in report["records"]:
        out.append(
            InvariantRecord(
                k=r["k"],
                kprime=r["kprime"],
                p1_squared=complex(*r["p1_squared"]),
                f_value=complex(*r["F"]),
                tau=r["tau"] if r["tau"] is not None else float("nan"),
                cross_check=r["oracle"],
                diagnostics=r.get("diagnostics", {}),
                error=r.get("error"),
            )
        )
    return out
