"""Batch catalogs and the per-knot result cache, keyed by a fingerprint of
the package source.  The package loads this module on first use, so a run
that only computes or compares never compiles it."""

import csv
import itertools
import json
import math
import os
from functools import cache

from .errors import TorsionError
from .oracles import LensSpace, lens_torsion_magnitude
from .pipeline import (
    InvariantRecord,
    compare_knots,
    compute_invariants,
    knot_report,
    metabelian_pairing,
    serialize_report,
    tau_multiset,
    verdict_to_dict,
)
from .words import normalize_two_bridge


@cache
def fingerprint():
    """SHA-256 over the stream name, NUL, byte length, NUL and bytes of
    every module of the package, in sorted order; keys the cache, so any
    change to the source, be it a method, a tolerance or the report schema,
    gives a new key.  The digest comes from the interpreter's own SHA-256
    module, the one ``hashlib`` falls back to, so no command loads OpenSSL;
    ``hashlib`` is imported only on a build without it."""
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256

    here = os.path.dirname(os.path.abspath(__file__))
    digest = sha256()
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
        with open(os.path.join(here, name), "rb") as f:
            data = f.read()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


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
    does not parse, has records that do not rebuild with k = 1..(p-1)/2 in
    order and each k's own k', or is not exactly the report of the knot
    and the rebuilt records: another knot, an extra key or a field the
    records do not give, such as a second pair entry, an absError or an
    oracle other than this build's lens value, is a miss.  The tau and the
    diagnostics are served as the entry holds them."""
    try:
        with open(path, "rb") as f:
            report = json.loads(f.read().decode())
    except (FileNotFoundError, ValueError):
        return None
    try:
        records = _records_from_report(report, knot)
    except (KeyError, TypeError, ValueError):
        return None
    if report != knot_report(knot, records):
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


def _records_from_report(report, knot):
    """Rebuild the records of a report of knot, each with this build's lens
    oracle, not the stored one.  A missing field raises KeyError, a field
    of the wrong type TypeError, and records other than k = 1..(p-1)/2 in
    order, each with its own k', ValueError.  k and kprime are integers,
    p1_squared and F pairs of numbers, the diagnostics an object, and
    either tau is finite and there is no error or there is an error string
    and no tau."""
    records = report["records"]
    if len(records) != (knot.p - 1) // 2:
        raise ValueError(f"{len(records)} records for {knot.label}")
    lens = LensSpace.of(knot.p, knot.q)
    out = []
    for k, r in enumerate(records, 1):
        tau, error = r["tau"], r["error"]
        if not (
            type(r["k"]) is int
            and type(r["kprime"]) is int
            and _is_pair(r["p1_squared"])
            and _is_pair(r["F"])
            and type(r["diagnostics"]) is dict
            and (error is None and _is_number(tau) or tau is None and type(error) is str)
        ):
            raise TypeError(f"record with a field of the wrong type: {r!r}")
        if (r["k"], r["kprime"]) != (k, metabelian_pairing(knot.p, k)):
            raise ValueError(f"record {k} of {knot.label} has k, k' = {r['k']}, {r['kprime']}")
        out.append(
            InvariantRecord(
                k=k,
                kprime=r["kprime"],
                p1_squared=r["p1_squared"][0],
                f_value=r["F"][0],
                tau=tau if tau is not None else float("nan"),
                cross_check=lens_torsion_magnitude(lens, k),
                diagnostics=r["diagnostics"],
                error=error,
            )
        )
    return out
