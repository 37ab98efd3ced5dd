"""Batch catalogs and the per-knot result cache, keyed by a fingerprint of
the package source.  The package loads this module on first use, so a run
that only computes or compares never compiles it."""

import csv
import gc
import itertools
import json
import os
from functools import cache

from .errors import RecordError, TorsionError
from .exact import checked_elements
from .pipeline import (
    compare_knots,
    invariant_records,
    knot_pass,
    knot_report,
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


def _entry_dir(cache_dir):
    """The directory of this fingerprint's entries under the cache."""
    return os.path.join(cache_dir or default_cache_dir(), fingerprint()[:16])


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


def _cached_elements(path, knot):
    """The knot's elements from the entry at path, or None where there is
    none or it does not parse (nesting too deep for the decoder included)
    or fails ``checked_elements``."""
    try:
        with open(path, "rb") as f:
            return checked_elements(knot, json.loads(f.read().decode()))
    except (FileNotFoundError, ValueError, RecursionError, RecordError):
        return None


def cached_invariant_report(knot, cache_dir=None):
    """Per-knot report, from the knot's elements held in the directory
    cache when the code fingerprint matches; returns (report, hit, records).
    An entry is the two coefficient lists of ``knot_elements``, and a hit
    is one that passes ``checked_elements`` and whose records, read by
    ``invariant_records``, all hold: elements that vanish at a root read
    pass the identity as 0 = 0 and fail their readout.  On a miss
    ``knot_pass`` gives the elements, or the failed pass's RecordError,
    and the entry is written only where every record holds."""
    path = os.path.join(_entry_dir(cache_dir), f"{knot.p}_{knot.q}.json")
    elements = _cached_elements(path, knot)
    if elements is not None:
        records = invariant_records(knot, elements)
        if all(r.ok for r in records):
            return knot_report(knot, records), True, records
    elements = knot_pass(knot)
    records = invariant_records(knot, elements)
    if all(r.ok for r in records):
        _atomic_write(path, serialize_report(elements))
    return knot_report(knot, records), False, records


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
    # No row's time depends on its place in the file.  The entry directory
    # is made before the first row, not by the first miss, where a catalog
    # has a row to look up.  The rows make no reference cycles (a failed
    # pass's error comes without its traceback), so the cyclic collector
    # has nothing to free while they run; paused, it no longer scans the
    # growing list of reports inside whichever row its allocation count
    # happens to trip, and runs once after the last.
    rows = read_catalog(input_path)
    if any(p is not None for _, p, _, _ in rows):
        os.makedirs(_entry_dir(cache_dir), exist_ok=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for row_no, p, q, label in rows:
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
    finally:
        if enabled:
            gc.enable()

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
