"""The benchmark's clock, statistics and in-memory span tracing.

``RefClock`` times work in seconds at a reference speed.  Tracing reaches the program only from outside: a ``Tracer`` swaps wrappers in
at the attributes callers look up (every ``bridgetorsion`` module namespace
that holds the function, or the class for a method), records one span per
call, and puts the originals back on ``uninstall``.  Nothing under ``src/``
knows about it.
"""

from __future__ import annotations

import json
import math
import signal
import statistics
import sys
import time
from array import array

clock = time.perf_counter

# Reference burst: first-order jets multiplied through 2x2 matrices, the
# same kind of small-object arithmetic as the program's hot path, but fixed
# here so that no change to the program changes it.  REF_BURST_S is its
# duration (5th percentile of 5000 bursts) on a 2.0 GHz Xeon vCPU running at
# its fast speed.
REF_ITERATIONS = 40
REF_BURST_S = 3.6e-4
REF_PERIOD_S = 0.025
REF_WINDOW = 5

# (metric prefix, module, attribute path, recorder).  "span" records
# start/end/parent; "count" only counts calls, for the kernel operation that
# runs millions of times; "hits" and "bytes" add a counter read off the result.
TARGETS = (
    ("pipeline.compute_invariants", "pipeline", "compute_invariants", "span"),
    ("pipeline.run_catalog", "pipeline", "run_catalog", "span"),
    ("pipeline.cached_invariant_report", "pipeline", "cached_invariant_report", "hits"),
    ("pipeline.serialize_report", "pipeline", "serialize_report", "bytes"),
    ("pipeline.compare_knots", "pipeline", "compare_knots", "span"),
    ("pipeline.read_catalog", "pipeline", "read_catalog", "span"),
    ("words.normalize_two_bridge", "words", "normalize_two_bridge", "span"),
    ("words.fox_derivative", "words", "fox_derivative", "span"),
    ("alexander.knot_determinant", "alexander", "knot_determinant", "span"),
    ("alexander.wada_twisted_alexander", "alexander", "wada_twisted_alexander", "span"),
    ("alexander.p_polynomial", "alexander", "p_polynomial", "span"),
    ("reps.phi_map", "reps", "phi_map", "span"),
    ("reps.word_product", "reps", "word_product", "span"),
    ("curve.evaluate_F", "curve", "evaluate_F", "span"),
    ("curve.continue_riley_curve", "curve", "continue_riley_curve", "span"),
    ("curve.trace_longitude", "curve", "trace_longitude", "span"),
    ("numerics.richardson_limit", "numerics", "richardson_limit", "span"),
    ("numerics.LaurentPoly.divide_exact", "numerics", "LaurentPoly.divide_exact", "span"),
    ("numerics.RingMatrix.mul", "numerics", "RingMatrix.__mul__", "count"),
)

_EXTRA = {
    "hits": lambda result: int(result[1]),
    "bytes": len,
}


class _Jet:
    __slots__ = ("v", "a", "b")

    def __init__(self, v, a=0.0, b=0.0):
        self.v, self.a, self.b = v, a, b

    def __add__(self, o):
        return _Jet(self.v + o.v, self.a + o.a, self.b + o.b)

    def __mul__(self, o):
        return _Jet(self.v * o.v, self.v * o.a + self.a * o.v, self.v * o.b + self.b * o.v)


def reference_burst():
    """Seconds taken by one fixed burst of the reference arithmetic."""
    started = clock()
    m = (_Jet(0.6 + 0.8j, 1.0), _Jet(0.1 - 0.3j), _Jet(-0.2 + 0.5j, 0.0, 1.0), _Jet(0.9 + 0.1j))
    r = (_Jet(1.0), _Jet(0j), _Jet(0j), _Jet(1.0))
    for _ in range(REF_ITERATIONS):
        a, b, c, d = r
        e, f, g, h = m
        r = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        s = 1 / (abs(r[0].v) + abs(r[3].v))
        r = tuple(_Jet(x.v * s, x.a * s, x.b * s) for x in r)
    return clock() - started


class RefClock:
    """A clock in seconds at reference speed.

    The host's cores change speed by up to 2x over seconds to minutes, so raw
    times of identical work spread too much between runs.  While started, an
    interval timer runs the reference burst every REF_PERIOD_S; the clock
    advances by the elapsed time times REF_BURST_S over the median of the
    last REF_WINDOW bursts, and the bursts themselves are left out.  ``raw()``
    gives the same elapsed time unscaled (bursts still left out)."""

    def __init__(self):
        self._state = (0.0, 0.0, clock(), 1.0)  # (ref, raw, at, factor)
        self._recent = []
        self._previous = None

    def _factor(self, burst):
        self._recent = (self._recent + [burst])[-REF_WINDOW:]
        return REF_BURST_S / statistics.median(self._recent)

    def _probe(self, *_):
        at = clock()
        ref, raw, last, factor = self._state
        new = self._factor(reference_burst())
        self._state = (ref + (at - last) * factor, raw + (at - last), clock(), new)

    def start(self):
        for _ in range(REF_WINDOW):
            factor = self._factor(reference_burst())
        self._state = (0.0, 0.0, clock(), factor)
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def _read(self):
        while True:
            state = self._state
            now = clock()
            if state is self._state:
                return state, now

    def __call__(self):
        (ref, _, last, factor), now = self._read()
        return ref + (now - last) * factor

    def raw(self):
        (_, raw, last, _), now = self._read()
        return raw + (now - last)


def tail_percentile(samples, min_beyond=10):
    """(percentile, value, n) for the highest whole percentile that leaves at
    least ``min_beyond`` samples strictly above its value, or None when the
    samples are too few for any percentile from 50 up."""
    data = sorted(samples)
    n = len(data)
    for pct in range(99, 49, -1):
        value = _percentile(data, pct)
        if sum(1 for x in data if x > value) >= min_beyond:
            return pct, value, n
    return None


def _percentile(data, pct):
    """Linear interpolation between closest ranks of sorted data."""
    pos = (len(data) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def self_times(names, parents, starts, ends):
    """Per-name self time: each span's duration minus the durations of its
    direct children.  Spans of one thread nest, so children never overlap."""
    child = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[i] - starts[i]
    totals = {}
    for i, name in enumerate(names):
        totals[name] = totals.get(name, 0.0) + (ends[i] - starts[i] - child[i])
    return totals


class Tracer:
    """Spans in flat arrays (name id, parent index, start, end) plus counters."""

    def __init__(self, targets=TARGETS, clock=clock):
        self.targets = targets
        self.clock = clock
        self.names = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = {}
        self._stack = []
        self._undo = []

    def _id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _bump(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap_span(self, name, fn, extra):
        nid = self._id(name)
        ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack
        )
        read = _EXTRA.get(extra)
        extra_key = f"{name}.{extra}"
        failed_key = f"{name}.failed"
        bump = self._bump
        clock = self.clock

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                bump(failed_key)
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if read is not None:
                bump(extra_key, read(result))
            return result

        return traced

    def _wrap_count(self, name, fn):
        key = f"{name}.calls"
        counters = self.counters
        counters.setdefault(key, 0)

        def counted(*args):
            counters[key] += 1
            return fn(*args)

        return counted

    def install(self, package="bridgetorsion"):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for name, module, attr, recorder in self.targets:
            owner = sys.modules[f"{package}.{module}"]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            fn = getattr(owner, path[-1])
            if recorder == "count":
                wrapper = self._wrap_count(name, fn)
            else:
                wrapper = self._wrap_span(name, fn, recorder)
            if len(path) > 1:
                self._patch(owner, path[-1], wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def mark(self):
        return len(self.starts)

    def durations(self, name, since=0):
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return [
            self.ends[i] - self.starts[i]
            for i in range(since, len(self.starts))
            if self.name_ids[i] == nid
        ]

    def summary(self):
        """{prefix.calls, prefix.self_s, ...} for every target, zero when the
        workload never reached it."""
        named = [self.names[i] for i in self.name_ids]
        selfs = self_times(named, self.parents, self.starts, self.ends)
        calls = {}
        for name in named:
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for name, _, _, recorder in self.targets:
            if recorder == "count":
                out[f"{name}.calls"] = self.counters.get(f"{name}.calls", 0)
                continue
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = selfs.get(name, 0.0)
            out[f"{name}.failed"] = self.counters.get(f"{name}.failed", 0)
            if recorder in _EXTRA:
                out[f"{name}.{recorder}"] = self.counters.get(f"{name}.{recorder}", 0)
        return out

    def write(self, path):
        """One JSON line per span, times in seconds from the first span."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        with open(path, "w") as f:
            for i in range(len(self.starts)):
                f.write(json.dumps({
                    "span": i,
                    "name": self.names[self.name_ids[i]],
                    "parent": self.parents[i],
                    "start": round(self.starts[i] - t0, 9),
                    "end": round(self.ends[i] - t0, 9),
                }) + "\n")
