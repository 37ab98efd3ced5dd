"""Seeded inputs, timed passes and output checks for the three workloads.

Every call into the program goes through a module attribute looked up at call
time (``pipeline.compute_invariants``, ``pipeline.run_catalog``), so a
``measure.Tracer`` installed around a pass sees it.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import tempfile

from bridgetorsion import oracles, pipeline, words

from measure import TARGETS, Tracer

LADDER = ((5, 3), (15, 7), (41, 11), (61, 17), (101, 31))
CENSUS_MAX_P = 25
CATALOG_MAX_P = 21
WARM_RUNS = 5
ORACLE_TOL = 1e-6  # acceptance bound: a knot is verified within it
WRONG_TOL = 1e-5  # the program's own F cross-check tolerance: beyond it, wrong
ROW_TARGET = tuple(t for t in TARGETS if t[0] == "pipeline.cached_invariant_report")


def odd_rep(p, q):
    """The odd one of q, p - q modulo p: the normalized q of the fraction."""
    r = q % p
    return r if r % 2 else p - r


def normalized_fractions(max_p):
    return [
        (p, q)
        for p in range(3, max_p + 1, 2)
        for q in range(1, p, 2)
        if math.gcd(p, q) == 1
    ]


def knot_class(p, q):
    """Smallest normalized q equivalent to p/q up to mirror image."""
    return min(odd_rep(p, q), odd_rep(p, pow(q, -1, p)))


def ladder_inputs(seed):
    order = list(LADDER)
    random.Random(seed).shuffle(order)
    return [words.normalize_two_bridge(p, q) for p, q in order]


def census_inputs(seed):
    order = normalized_fractions(CENSUS_MAX_P)
    random.Random(seed).shuffle(order)
    return [words.normalize_two_bridge(p, q) for p, q in order]


def catalog_rows(seed):
    """Two rows per knot class with p <= CATALOG_MAX_P, as (p, q, label).

    The first row is q itself and the second q^-1 mod p, each under a random
    move among q, q + 2p, 2p - q and p - q, and the seed also picks which
    normalized fraction of the class plays q.  Every normalized fraction is
    therefore computed exactly once per cold pass whatever the seed, and a
    class with a single normalized fraction gives one cache hit."""
    rng = random.Random(seed)
    classes = sorted({(p, knot_class(p, q)) for p, q in normalized_fractions(CATALOG_MAX_P)})
    rows = []
    for n, (p, c) in enumerate(classes):
        q = rng.choice(sorted({c, odd_rep(p, pow(c, -1, p))}))
        for tag, base in (("a", q), ("b", pow(q, -1, p))):
            surface = rng.choice((base, base + 2 * p, 2 * p - base, p - base))
            rows.append((p, surface, f"c{n:02d}{tag}"))
    rng.shuffle(rows)
    return rows


def write_catalog(rows, path):
    with open(path, "w") as f:
        f.write("p,q,label\n")
        for p, q, label in rows:
            f.write(f"{p},{q},{label}\n")


def generate(workload, seed, out_dir):
    """The workload's inputs: knots for ladder and census, a CSV path for
    catalog (written under out_dir)."""
    if workload == "ladder":
        return ladder_inputs(seed)
    if workload == "census":
        return census_inputs(seed)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"catalog_{seed}_{os.getpid()}.csv")
    write_catalog(catalog_rows(seed), path)
    return path


# -- checks ------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, and what went wrong.

    ``failed`` names an operation that did not give a trusted result: a knot
    with an error record or off the oracle by more than ORACLE_TOL, a wrong
    verdict, or a failed check.  ``wrong`` names the subset where the program
    presented a result as valid and a check contradicts it beyond what the
    program itself promises: an oracle deviation above WRONG_TOL, a verdict
    against the arithmetic between error-free knots, or differing bytes.  Any
    of those makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.wrong = []
        self.records = 0
        self.records_failed = 0
        self.knots = 0
        self.knots_verified = 0
        self.verdicts = 0
        self.verdicts_wrong = 0

    def fail(self, what, wrong=False):
        self.failed.append(what)
        if wrong:
            self.wrong.append(what)

    def check_report(self, report):
        """Lens-oracle multiset on every knot, torus closed forms on b(p, 1)."""
        p, q = report["knot"]["p"], report["knot"]["q"]
        recs = report["records"]
        label = f"{p}/{q}"
        self.attempted += 1
        self.knots += 1
        self.records += len(recs)
        errors = [r for r in recs if r["error"] is not None]
        if errors:
            self.records_failed += len(errors)
            self.fail(f"{label} " + ", ".join(f"k={r['k']}: {r['error'].split(':')[0]}"
                                              for r in errors))
            return
        taus = sorted(r["tau"] for r in recs)
        lens = oracles.lens_torsion_multiset(oracles.LensSpace.of(p, q))
        dev = _multiset_deviation(taus, lens)
        if dev > ORACLE_TOL:
            self.fail(f"{label}: lens multiset deviation {dev:.3e}", wrong=dev > WRONG_TOL)
            return
        if q == 1:
            for r in recs:
                dev = max(
                    _rel(complex(*r["p1_squared"]), oracles.torus_P1_squared(p, r["k"])),
                    _rel(complex(*r["F"]), oracles.torus_F(p)),
                )
                if dev > ORACLE_TOL:
                    self.fail(f"{label} k={r['k']}: torus closed form deviation {dev:.3e}",
                              wrong=dev > WRONG_TOL)
                    return
        self.knots_verified += 1

    def check_verdict(self, verdict, failed_knots):
        """Wrong when it disagrees with the class arithmetic or is given while
        either knot has an error record; only the first is a wrong result,
        the second is the known defect of failed records turning into
        verdicts."""
        (pa, qa), (pb, qb) = verdict["knots"]
        same = knot_class(pa, qa) == knot_class(pb, qb)
        said = verdict["verdict"] == "equivalent-up-to-mirror"
        self.attempted += 1
        self.verdicts += 1
        pair = f"{pa}/{qa} vs {pb}/{qb}"
        if said != same:
            self.verdicts_wrong += 1
            self.fail(f"verdict {pair}: {verdict['verdict']}", wrong=True)
        elif (pa, qa) in failed_knots or (pb, qb) in failed_knots:
            self.verdicts_wrong += 1
            self.fail(f"verdict {pair}: {verdict['verdict']} from a failed record")

    def check_same(self, what, first, second):
        self.attempted += 1
        if first != second:
            self.fail(f"{what}: serialized reports differ", wrong=True)


class PassChecker:
    """Checks the passes of one run.  The first pass's checks are the run's
    operations; all later passes together are one more operation, which
    fails if any of them differs from the first in report bytes or in what
    failed.  So ``attempted`` and ``failed`` do not depend on how many
    passes fit in the run."""

    def __init__(self):
        self.tally = Tally()
        self.first = None
        self.first_failed = None
        self.passes = 0
        self.differing = []

    def check(self, ps, label):
        self.passes += 1
        if self.first is None:
            self.first = ps.check(self.tally)
            self.first_failed = list(self.tally.failed)
            return
        again = Tally()
        if ps.check(again) != self.first or again.failed != self.first_failed:
            self.differing.append(label)

    def finish(self):
        """The tally, with the repeat check counted once if it applies."""
        if self.passes > 1:
            self.tally.attempted += 1
            if self.differing:
                self.tally.fail(f"{', '.join(self.differing)} differ from the first pass",
                                wrong=True)
        return self.tally


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _multiset_deviation(a, b):
    if len(a) != len(b):
        return math.inf
    return max((_rel(x, y) for x, y in zip(a, b)), default=0.0)


# -- passes ------------------------------------------------------------------


class KnotPass:
    """One closed-loop pass of compute_invariants over the knots."""

    def __init__(self, knots, clock):
        started = clock()
        self.knot_s = []
        results = []
        for knot in knots:
            t = clock()
            records = pipeline.compute_invariants(knot)
            self.knot_s.append(clock() - t)
            results.append((knot, records))
        self.wall_s = clock() - started
        self.results = results

    def serialized(self):
        """Canonical report bytes per knot, in (p, q) order."""
        ordered = sorted(self.results, key=lambda kr: (kr[0].p, kr[0].q))
        return [pipeline.serialize_report(pipeline.knot_report(k, r)) for k, r in ordered]

    def check(self, tally):
        """Check every knot, drop the records, return the report bytes."""
        blobs = self.serialized()
        self.results = None
        for blob in blobs:
            tally.check_report(json.loads(blob))
        return b"".join(blobs)


class CatalogPass:
    """A cold run_catalog into a fresh private cache, then WARM_RUNS warm
    runs over the same CSV.  Row times and cache hits come from the
    tracer's spans around pipeline.cached_invariant_report, so the caller
    installs a tracer (at least ROW_TARGET) around the pass."""

    def __init__(self, csv_path, out_dir, tracer):
        clock = tracer.clock
        cache = tempfile.mkdtemp(prefix="cache-", dir=out_dir)
        try:
            out = os.path.join(cache, "report.json")
            hits0 = tracer.counters.get("pipeline.cached_invariant_report.hits", 0)
            mark = tracer.mark()
            t = clock()
            self.cold = pipeline.run_catalog(csv_path, out_path=out, cache_dir=cache)
            self.wall_s = clock() - t
            self.knot_s = tracer.durations("pipeline.cached_invariant_report", mark)
            self.warm = []
            self.warm_s = []
            for _ in range(WARM_RUNS):
                t = clock()
                self.warm.append(pipeline.run_catalog(csv_path, out_path=out, cache_dir=cache))
                self.warm_s.append(clock() - t)
            self.lookups = len(tracer.durations("pipeline.cached_invariant_report", mark))
            self.cache_hits = tracer.counters.get("pipeline.cached_invariant_report.hits", 0) - hits0
        finally:
            shutil.rmtree(cache)

    def check(self, tally):
        """Check rows, verdicts and warm bytes, drop the reports, return the
        cold report bytes."""
        cold = pipeline.serialize_report(self.cold)
        for n, warm in enumerate(self.warm, start=1):
            tally.check_same(f"catalog warm run {n} vs cold", cold, pipeline.serialize_report(warm))
        catalog, self.cold, self.warm = self.cold, None, None
        failed_knots = {
            (report["knot"]["p"], report["knot"]["q"])
            for report in catalog["knots"]
            if any(r["error"] is not None for r in report["records"])
        }
        for report in catalog["knots"]:
            tally.check_report(report)
        for verdict in catalog["verdicts"]:
            tally.check_verdict(verdict, failed_knots)
        for err in catalog["errors"]:
            tally.attempted += 1
            tally.fail(f"catalog row {err['row']}: {err['error']}", wrong=True)
        return cold


def run_pass(workload, inputs, out_dir, clock, tracer=None):
    """One pass timed on ``clock``.  The catalog pass reads its row times off
    spans, so untraced it installs a tracer on ROW_TARGET alone."""
    if workload != "catalog":
        return KnotPass(inputs, clock)
    if tracer is not None:
        return CatalogPass(inputs, out_dir, tracer)
    with Tracer(ROW_TARGET, clock) as rows:
        return CatalogPass(inputs, out_dir, rows)
