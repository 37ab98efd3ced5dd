"""The acceptance suite: every criterion as a callable check.

Both ``tests/test_acceptance.py`` and the CLI ``selftest`` subcommand run
these; each criterion returns a result row with a one-line detail."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .alexander import wada_twisted_alexander
from .curve import evaluate_F, riley_residual
from .numerics import LaurentPoly, units_equal
from .oracles import (
    LensSpace,
    lens_torsion_magnitude,
    lens_torsion_multiset,
    torus_F,
    torus_P1_squared,
)
from .pipeline import compare_knots, compute_invariants, format_deviation
from .reps import metabelian_rep, metabelian_u
from .words import normalize_two_bridge

#: Every two-bridge fraction with odd p <= 15 (equivalent fractions included).
CENSUS_FRACTIONS = [
    (p, q)
    for p in range(3, 16, 2)
    for q in range(1, p, 2)
    if math.gcd(p, q) == 1
]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str

    @property
    def line(self):
        tag = "PASS" if self.ok else "FAIL"
        return f"[{tag}] criterion {self.number}: {self.name} -- {self.detail}"


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class AcceptanceSuite:
    """Runs the criteria with shared, memoized pipeline results."""

    def __init__(self):
        self._records = {}
        self.census_seconds = None

    def records(self, p, q):
        if (p, q) not in self._records:
            self._records[p, q] = compute_invariants(normalize_two_bridge(p, q))
        return self._records[p, q]

    def _census_records(self):
        t0 = time.perf_counter()
        out = {pq: self.records(*pq) for pq in CENSUS_FRACTIONS}
        if self.census_seconds is None:
            self.census_seconds = time.perf_counter() - t0
        return out

    # -- criteria ---------------------------------------------------------

    def criterion_1(self):
        t0 = time.perf_counter()
        recs = compute_invariants(normalize_two_bridge(5, 3))
        elapsed = time.perf_counter() - t0
        devs = [_rel(r.tau, 0.2) for r in recs]
        ok = (
            len(recs) == 2
            and all(r.ok for r in recs)
            and max(devs) <= 1e-6
            and elapsed < 1.0
        )
        return CriterionResult(
            1,
            "figure-eight golden value tau = 1/5",
            ok,
            f"max rel dev {max(devs):.2e}, {elapsed:.2f}s",
        )

    def criterion_2(self):
        knot = normalize_two_bridge(5, 3)
        expected = LaurentPoly({2: 1, 0: 1})
        worst = None
        ok = True
        for k in (1, 2):
            wada = wada_twisted_alexander(knot, metabelian_rep(5, k))
            good = wada.reduced is not None and units_equal(wada.reduced, expected, 1e-8)
            ok = ok and good
            worst = wada.reduced
        return CriterionResult(
            2,
            "figure-eight twisted Alexander is t^2+1",
            ok,
            f"reduced = {worst!r}",
        )

    def criterion_3(self):
        knot = normalize_two_bridge(5, 3)
        values = [complex(1 / evaluate_F(knot, kp).value) for kp in (1, 2)]
        dev = max(abs(v - 5.0) for v in values)
        return CriterionResult(
            3,
            "figure-eight local form H_hat(-2) = 5",
            dev <= 1e-4,
            f"values {[f'{v.real:.6f}' for v in values]}, max dev {dev:.2e}",
        )

    def criterion_4(self):
        worst = 0.0
        for q in (3, 5, 7, 9, 11):
            lens = LensSpace.of(q, 1)
            for j in range(1, (q - 1) // 2 + 1):
                lhs = torus_P1_squared(q, j) * torus_F(q)
                rhs = lens_torsion_magnitude(lens, j)
                worst = max(worst, _rel(lhs, rhs))
        return CriterionResult(
            4,
            "torus closed forms match lens torsion",
            worst <= 1e-10,
            f"max rel dev {worst:.2e}",
        )

    def criterion_5(self):
        t0 = time.perf_counter()
        worst_tau, worst_f = 0.0, 0.0
        ok = True
        for q in (3, 5, 7):
            recs = self.records(q, 1)
            ok = ok and all(r.ok for r in recs)
            for r in recs:
                expected = 1.0 / (4 * math.sin(r.k * math.pi / q) ** 2) ** 2
                worst_tau = max(worst_tau, _rel(r.tau, expected))
                worst_f = max(worst_f, _rel(complex(r.f_value).real, 1.0 / q ** 2))
        elapsed = time.perf_counter() - t0
        ok = ok and worst_tau <= 1e-6 and worst_f <= 1e-5 and elapsed < 10.0
        return CriterionResult(
            5,
            "generic pipeline reproduces torus closed forms",
            ok,
            f"tau dev {worst_tau:.2e}, F dev {worst_f:.2e}, {elapsed:.2f}s",
        )

    def criterion_6(self):
        census = self._census_records()
        worst, worst_knot = 0.0, None
        ok = True
        for (p, q), recs in census.items():
            if not all(r.ok for r in recs):
                ok = False
                worst_knot = f"b({p},{q}) errored"
                continue
            taus = sorted(r.tau for r in recs)
            oracle = lens_torsion_multiset(LensSpace.of(p, q))
            dev = max(_rel(a, b) for a, b in zip(taus, oracle))
            if dev > worst:
                worst, worst_knot = dev, f"b({p},{q})"
        elapsed = self.census_seconds or 0.0
        ok = ok and worst <= 1e-6 and elapsed < 60.0
        return CriterionResult(
            6,
            "tau multisets equal lens torsion multisets, p <= 15",
            ok,
            f"max rel dev {worst:.2e} at {worst_knot}, census {elapsed:.1f}s",
        )

    def criterion_7(self):
        worst = 0.0
        count_ok = True
        for p, q in CENSUS_FRACTIONS:
            knot = normalize_two_bridge(p, q)
            recs = self.records(p, q)
            count_ok = count_ok and len(recs) == (p - 1) // 2
            for k in range(1, (p - 1) // 2 + 1):
                val, _, _ = riley_residual(knot, -1.0, metabelian_u(p, k))
                worst = max(worst, abs(val))
        ok = count_ok and worst < 1e-8
        return CriterionResult(
            7,
            "metabelian census: (p-1)/2 records, Riley residuals vanish",
            ok,
            f"max |phi(-1, u_k)| = {worst:.2e}, counts ok = {count_ok}",
        )

    def criterion_8(self):
        worst_pair = None
        ok = True
        for p, q in CENSUS_FRACTIONS:
            knot = normalize_two_bridge(p, q)
            for k in range(1, (p - 1) // 2 + 1):
                rho = metabelian_rep(p, k)
                wx = wada_twisted_alexander(knot, rho, by="x")
                wy = wada_twisted_alexander(knot, rho, by="y")
                good = (
                    wx.reduced is not None
                    and wy.reduced is not None
                    and units_equal(wx.reduced, wy.reduced, 1e-8)
                )
                if not good:
                    ok = False
                    worst_pair = (p, q, k)
        return CriterionResult(
            8,
            "Wada x-route and y-route agree up to a unit",
            ok,
            "all census pairs" if ok else f"mismatch at {worst_pair}",
        )

    def criterion_9(self):
        v1 = compare_knots(
            normalize_two_bridge(7, 3),
            normalize_two_bridge(7, 5),
            self.records(7, 3),
            self.records(7, 5),
        )
        v2 = compare_knots(
            normalize_two_bridge(11, 3),
            normalize_two_bridge(11, 5),
            self.records(11, 3),
            self.records(11, 5),
        )
        ok = (
            v1.verdict == "equivalent-up-to-mirror"
            and v1.congruence_match
            and v2.verdict == "distinct"
            and not v2.congruence_match
            and v2.max_multiset_deviation > 1e-3
        )
        return CriterionResult(
            9,
            "classification verdicts b(7,3)~b(7,5), b(11,3)!=b(11,5)",
            ok,
            f"7: {v1.verdict} (dev {format_deviation(v1.max_multiset_deviation, '.1e')}), "
            f"11: {v2.verdict} (dev {format_deviation(v2.max_multiset_deviation, '.1e')})",
        )

    def criterion_10(self):
        census = self._census_records()
        worst = 0.0
        ok = True
        for recs in census.values():
            for r in recs:
                if not r.ok:
                    ok = False
                    continue
                rel = r.diagnostics.get("f_rel_disagreement")
                if rel is None:
                    ok = False
                    continue
                worst = max(worst, rel)
        ok = ok and worst <= 1e-5
        return CriterionResult(
            10,
            "F estimates (a) and (b) agree on every record",
            ok,
            f"max rel disagreement {worst:.2e}",
        )

    def run_all(self):
        return [getattr(self, f"criterion_{i}")() for i in range(1, 11)]


def run_acceptance():
    """Run all criteria, printing one pass/fail line each; returns results."""
    results = AcceptanceSuite().run_all()
    for res in results:
        print(res.line)
    return results
