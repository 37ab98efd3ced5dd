"""Benchmark of the bridgetorsion pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload ladder|census|catalog|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src, and
outputs (span files, the catalog CSV, private caches) go to ./.perfbench_out.
Every workload is a closed loop with one caller in one thread.

--trace 0 times repeated passes, at least three and until --seconds have
passed, and reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs one untraced pass and
one traced pass, checks that both give byte-identical reports, and reports
the per-layer metrics plus the tracing overhead.  Human-readable lines come
first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("ladder", "census", "catalog")
SETUP_PROBES = 9
MIN_PASSES = 3  # per-knot medians need three samples to shed one outlier


def load(workload, seed, clock=time.perf_counter):
    """Import the package from this checkout and generate the inputs.
    Returns (workloads module, inputs, seconds): the set-up that setup_s times."""
    started = clock()
    sys.path.insert(0, SRC)
    import bridgetorsion
    import workloads

    found = os.path.realpath(os.path.dirname(bridgetorsion.__file__))
    if found != os.path.realpath(os.path.join(SRC, "bridgetorsion")):
        raise ImportError(f"bridgetorsion imported from {found}, not from {SRC}")
    inputs = workloads.generate(workload, seed, OUT)
    return workloads, inputs, clock() - started


def setup_seconds(workload, seed):
    """Median set-up time over fresh interpreters, timed inside each on the
    reference clock."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return median(times)


def line(name, value, unit, note=""):
    shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
    print(f"  {name:<40} {shown} {unit:<12} {note}".rstrip())


def failures(tally):
    counts = {}
    for what in tally.failed:
        counts[what] = counts.get(what, 0) + 1
    return [f"{what} (x{n})" if n > 1 else what for what, n in counts.items()]


def result(tally, metrics, spec):
    """The last stdout line: exactly the metrics named in BENCHMARK.json."""
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }


def untraced(workload, seed, seconds, bench):
    setup_s = setup_seconds(workload, seed)
    wl, inputs, _ = load(workload, seed)
    passes = []
    raw_s = []
    checker = wl.PassChecker()
    deadline = time.perf_counter() + seconds
    with measure.RefClock() as clock:
        while True:
            raw = clock.raw()
            ps = wl.run_pass(workload, inputs, OUT, clock)
            raw_s.append(clock.raw() - raw)
            checker.check(ps, f"pass {len(passes) + 1}")
            passes.append(ps)
            if time.perf_counter() >= deadline and len(passes) >= MIN_PASSES:
                break
    tally = checker.finish()
    if workload == "catalog":
        os.unlink(inputs)

    # each knot's time is its median over the passes; knots keep their
    # position from pass to pass
    knot_s = [median(times) for times in zip(*(ps.knot_s for ps in passes))]
    m = {
        "setup_s": setup_s,
        "wall_s": median([ps.wall_s for ps in passes]),
        "knot_p50_s": median(knot_s),
        "knot_max_s": max(knot_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records_ok_ratio": (tally.records - tally.records_failed) / tally.records,
        "knots_verified_ratio": tally.knots_verified / tally.knots,
    }
    print(f"workload {workload}  seed {seed}  passes {len(passes)}  "
          "closed loop, 1 caller, 1 thread: no waiting time to measure")
    print("  times are seconds at reference speed (see perfbench/README.md)")
    line("setup_s", m["setup_s"], "s", f"median of {SETUP_PROBES} fresh interpreters")
    line("wall_s", m["wall_s"], "s", f"median of {len(passes)} passes; raw "
         + ", ".join(f"{r:.3f}" for r in raw_s))
    line("knot_p50_s", m["knot_p50_s"], "s", f"median of {len(knot_s)} knots")
    tail = measure.tail_percentile(knot_s)
    if tail:
        line("knot_tail_s", tail[1], "s", f"p{tail[0]} of {tail[2]} knots, >= 10 beyond")
    else:
        print(f"  {'knot_tail_s':<40} {'n/a':>14} {'s':<12} "
              f"{len(knot_s)} knots leave fewer than 10 beyond p50")
    line("knot_max_s", m["knot_max_s"], "s", "slowest knot")
    if workload == "catalog":
        warm = [s for ps in passes for s in ps.warm_s]
        lookups = sum(ps.lookups for ps in passes)
        hits = sum(ps.cache_hits for ps in passes)
        line("catalog_cold_s", m["wall_s"], "s", f"median of {len(passes)} cold runs")
        line("catalog_warm_s", median(warm), "s", f"median of {len(warm)} warm runs")
        line("cache_hit_ratio", hits / lookups, "ratio", f"{hits}/{lookups} lookups")
        line("verdicts_wrong_ratio", tally.verdicts_wrong / max(tally.verdicts, 1), "ratio",
             f"{tally.verdicts_wrong}/{tally.verdicts} verdicts")
    line("records_failed_ratio", tally.records_failed / tally.records, "ratio",
         f"{tally.records_failed}/{tally.records} records")
    line("records_ok_ratio", m["records_ok_ratio"], "ratio")
    line("knots_verified_ratio", m["knots_verified_ratio"], "ratio",
         f"{tally.knots_verified}/{tally.knots} knots")
    line("peak_rss_mb", m["peak_rss_mb"], "MB")
    for what in failures(tally):
        print(f"  failed: {what}")
    return result(tally, m, bench["end_to_end"])


def traced(workload, seed, bench):
    """Raw perf_counter times throughout: the reference clock's timer would
    land inside spans."""
    wl, inputs, _ = load(workload, seed)
    plain = wl.run_pass(workload, inputs, OUT, measure.clock)
    tracer = measure.Tracer()
    with tracer:
        spanned = wl.run_pass(workload, inputs, OUT, measure.clock, tracer)
    checker = wl.PassChecker()
    checker.check(plain, "untraced pass")
    checker.check(spanned, "traced pass")
    tally = checker.finish()
    if workload == "catalog":
        os.unlink(inputs)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans_{workload}.jsonl")
    tracer.write(spans_path)

    m = tracer.summary()
    fs = m["curve.evaluate_F.calls"]
    m["curve.solves_per_F"] = m["curve.continue_riley_curve.calls"] / fs if fs else 0.0
    m["trace.overhead_s"] = spanned.wall_s - plain.wall_s
    print(f"workload {workload}  seed {seed}  traced pass: {len(tracer.starts)} spans "
          f"written to {os.path.relpath(spans_path, ROOT)}")
    line("wall_s untraced", plain.wall_s, "s")
    line("wall_s traced", spanned.wall_s, "s")
    for spec in bench["per_layer"]:
        line(spec["name"], m[spec["name"]], spec["unit"])
    for what in failures(tally):
        print(f"  failed: {what}")
    return result(tally, m, bench["per_layer"])


def run_all(args):
    """Every workload in turn, each in its own interpreter."""
    code = 0
    for workload in WORKLOADS:
        code = max(code, subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
        ).returncode)
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_probe:
            with measure.RefClock() as clock:
                _, inputs, seconds = load(args.workload, args.seed, clock)
            if args.workload == "catalog":
                os.unlink(inputs)
            print(repr(seconds))
            return 0
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        if args.trace:
            out = traced(args.workload, args.seed, bench)
        else:
            out = untraced(args.workload, args.seed, args.seconds, bench)
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
