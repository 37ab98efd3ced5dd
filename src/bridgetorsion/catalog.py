"""Batch catalogs and the result cache, one file of entries per
determinant, keyed by a fingerprint of the package source.  The package
loads this module on first use, so a run that only computes or compares
never compiles it."""

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


def _entry_path(cache_dir, p):
    """The file of this fingerprint's entries of determinant p."""
    return os.path.join(cache_dir or default_cache_dir(), fingerprint()[:16], f"{p}.json")


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


def _read_entries(path):
    """The JSON object of the p file at path, or an empty one where there
    is no file or it does not parse (nesting too deep for the decoder
    included) or holds no object."""
    try:
        with open(path, "rb") as f:
            entries = json.loads(f.read().decode())
    except (FileNotFoundError, ValueError, RecursionError):
        return {}
    return entries if type(entries) is dict else {}


def cached_invariant_report(knot, entries):
    """Per-knot report, from the knot's elements held in entries, the
    run's entries of knot.p, which map each normalized q (as a string) to
    that knot's elements; returns (report, hit, records) and opens no
    file.  An entry is the two coefficient lists of ``knot_elements``, and
    a hit is one that passes ``checked_elements`` and whose records, read
    by ``invariant_records``, all hold: elements that vanish at a root
    read pass the identity as 0 = 0 and fail their readout.  On a miss
    ``knot_pass`` gives the elements, or the failed pass's RecordError;
    they replace the entry where every record holds, and the entry is
    dropped where one fails."""
    key = str(knot.q)
    try:
        elements = checked_elements(knot, entries[key])
    except (KeyError, RecordError):
        pass
    else:
        records = invariant_records(knot, elements)
        if all(r.ok for r in records):
            return knot_report(knot, records), True, records
    elements = knot_pass(knot)
    records = invariant_records(knot, elements)
    if all(r.ok for r in records):
        entries[key] = elements
    else:
        entries.pop(key, None)
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
    are recorded, not fatal.  The cache file of each determinant is read
    once, before the lookups, and written once, after them, where they
    changed its entries; the rows do no file work."""
    knots = []
    errors = []
    for row_no, p, q, label in read_catalog(input_path):
        if p is None:
            errors.append({"row": row_no, "error": label})
            continue
        try:
            knots.append((label, normalize_two_bridge(p, q)))
        except TorsionError as exc:
            errors.append({"row": row_no, "error": f"{type(exc).__name__}: {exc}"})
    cached = {p: _read_entries(_entry_path(cache_dir, p))
              for p in dict.fromkeys(knot.p for _, knot in knots)}
    changed = set()
    results = []
    # No row's time depends on its place in the file.  The rows open no
    # file, and they make no reference cycles (a failed pass's error comes
    # without its traceback), so the cyclic collector has nothing to free
    # while they run; paused, it no longer scans the growing list of
    # reports inside whichever row its allocation count happens to trip,
    # and runs once after the last.  The files are written in the finally
    # so that a row that raises keeps the entries computed before it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for label, knot in knots:
            held, key = cached[knot.p], str(knot.q)
            before = held.get(key)
            report, _, records = cached_invariant_report(knot, held)
            if held.get(key) is not before:  # a lookup stores or drops its own entry only
                changed.add(knot.p)
            results.append((label, knot, report, tau_multiset(records)))
    finally:
        if enabled:
            gc.enable()
        for p in changed:
            _atomic_write(_entry_path(cache_dir, p), serialize_report(cached[p]))

    # each row meets the later rows of its p, in row order
    later = {}
    for _, knot, _, taus in results:
        later.setdefault(knot.p, []).append((knot, taus))
    verdicts = []
    for _, a, _, taus_a in results:
        rest = later[a.p]
        del rest[0]  # the row itself
        verdicts.extend(compare_knots(a, b, taus_a, taus_b) for b, taus_b in rest if b.q != a.q)

    report = {
        "config": fingerprint(),
        "knots": [knot_rep for _, _, knot_rep, _ in results],
        "labels": [label for label, _, _, _ in results],
        "verdicts": [verdict_to_dict(v) for v in verdicts],
        "errors": errors,
    }
    if out_path:
        _atomic_write(out_path, serialize_report(report))
    return report
