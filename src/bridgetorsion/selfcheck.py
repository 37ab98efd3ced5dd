"""The acceptance suite: every criterion as a callable check.

Both ``tests/test_acceptance.py`` and the CLI ``selftest`` subcommand run
these; each criterion returns a result row with a one-line detail.  The
census criteria (3, 5, 6, 7, 9 and 10) share one exact pass per fraction,
and 3, 7 and 10 read its elements or its failed zero test, with no
tolerance; Wada's criteria, 2 and 8, are the only ones that read the float
references."""

import math
import time
from collections import namedtuple

from .alexander import wada_twisted_alexander
from .errors import RecordError
from .numerics import LaurentPoly, units_equal
from .oracles import (
    LensSpace,
    lens_torsion_magnitude,
    lens_torsion_multiset,
    torus_F,
    torus_P1_squared,
)
from .pipeline import (
    compare_knots,
    format_deviation,
    invariant_records,
    knot_pass,
    tau_multiset,
)
from .reps import metabelian_rep
from .words import normalize_two_bridge

#: Every two-bridge fraction with odd p <= 15 (equivalent fractions included).
CENSUS_FRACTIONS = [
    (p, q)
    for p in range(3, 16, 2)
    for q in range(1, p, 2)
    if math.gcd(p, q) == 1
]


class CriterionResult(namedtuple("CriterionResult", "number name ok detail")):
    __slots__ = ()

    @property
    def line(self):
        tag = "PASS" if self.ok else "FAIL"
        return f"[{tag}] criterion {self.number}: {self.name} -- {self.detail}"


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class AcceptanceSuite:
    """Runs the criteria on one memoized exact pass and one memoized
    readout per census fraction."""

    def __init__(self):
        self._elements, self._records = {}, {}

    def elements(self, p, q):
        """The fraction's ``knot_pass``: its elements or its pass's RecordError."""
        if (p, q) not in self._elements:
            self._elements[p, q] = knot_pass(normalize_two_bridge(p, q))
        return self._elements[p, q]

    def records(self, p, q):
        """The fraction's records, read once from its memoized pass; every
        record fails where the pass did."""
        if (p, q) not in self._records:
            knot = normalize_two_bridge(p, q)
            self._records[p, q] = invariant_records(knot, self.elements(p, q))
        return self._records[p, q]

    def _first_error(self, fractions):
        """'b(p,q): error' of the first fraction with an error record, or None."""
        return next((f"b({p},{q}): {r.error}" for p, q in fractions
                     for r in self.records(p, q) if not r.ok), None)

    def _failed_passes(self):
        """'b(p,q): error' of each census fraction whose exact pass failed."""
        return [f"b({p},{q}): {exc}" for p, q in CENSUS_FRACTIONS
                if isinstance(exc := self.elements(p, q), RecordError)]

    # -- criteria ---------------------------------------------------------

    def criterion_1(self):
        t0 = time.perf_counter()
        recs = self.records(5, 3)  # the first read of 5/3's memo times its pass
        elapsed = time.perf_counter() - t0
        name = "figure-eight golden value tau = 1/5"
        error = self._first_error([(5, 3)])
        if error:
            return CriterionResult(1, name, False, error)
        worst = max(_rel(r.tau, 0.2) for r in recs)
        ok = len(recs) == 2 and worst <= 1e-6 and elapsed < 1.0
        return CriterionResult(1, name, ok, f"max rel dev {worst:.2e}, {elapsed:.2f}s")

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
        # D = 16/F with D - 80 of equal coefficients is 80 at every index,
        # and the correctly rounded readout of F is the double nearest 1/5
        name = "figure-eight local form H_hat(-2) = 5"
        error = self._first_error([(5, 3)])
        if error:
            return CriterionResult(3, name, False, error)
        d = self.elements(5, 3)[1]
        values = [r.f_value for r in self.records(5, 3)]
        ok = len({d[0] - 80, *d[1:]}) == 1 and values == [0.2, 0.2]
        return CriterionResult(3, name, ok, f"D = {d}, F = {values}")

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
        name = "generic pipeline reproduces torus closed forms"
        error = self._first_error((q, 1) for q in (3, 5, 7))
        if error:
            return CriterionResult(5, name, False, error)
        worst_tau, worst_f = 0.0, 0.0
        for q in (3, 5, 7):
            for r in self.records(q, 1):
                worst_tau = max(worst_tau, _rel(r.tau, torus_P1_squared(q, r.k) * torus_F(q)))
                worst_f = max(worst_f, _rel(r.f_value, torus_F(q)))
        elapsed = time.perf_counter() - t0
        ok = worst_tau <= 1e-6 and worst_f <= 1e-5 and elapsed < 10.0
        return CriterionResult(
            5, name, ok, f"tau dev {worst_tau:.2e}, F dev {worst_f:.2e}, {elapsed:.2f}s"
        )

    def criterion_6(self):
        t0 = time.perf_counter()
        error = self._first_error(CENSUS_FRACTIONS)  # runs the census pass
        elapsed = time.perf_counter() - t0
        name = "tau multisets equal lens torsion multisets, p <= 15"
        if error:
            return CriterionResult(6, name, False, error)
        worst, worst_knot = 0.0, None
        for p, q in CENSUS_FRACTIONS:
            taus = tau_multiset(self.records(p, q))
            oracle = lens_torsion_multiset(LensSpace.of(p, q))
            dev = max(_rel(a, b) for a, b in zip(taus, oracle))
            if dev > worst:
                worst, worst_knot = dev, f"b({p},{q})"
        ok = worst <= 1e-6 and elapsed < 60.0
        return CriterionResult(
            6, name, ok, f"max rel dev {worst:.2e} at {worst_knot}, census {elapsed:.1f}s"
        )

    def criterion_7(self):
        # the zero test "phi at g^0" is Riley's residual at s = -1, for every
        # u_k at once; a pass that failed a later check had passed it
        counts_ok = all(len(self.records(p, q)) == (p - 1) // 2 for p, q in CENSUS_FRACTIONS)
        failed = [f for f in self._failed_passes() if "phi at g^0" in f]
        detail = failed[0] if failed else f"phi(-1, u_k) = 0 exactly, counts ok = {counts_ok}"
        name = "metabelian census: (p-1)/2 records, Riley residuals vanish"
        return CriterionResult(7, name, counts_ok and not failed, detail)

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
        v1, v2 = (
            compare_knots(normalize_two_bridge(p, q), normalize_two_bridge(p, r),
                          taus=(tau_multiset(self.records(p, q)),
                                tau_multiset(self.records(p, r))))
            for p, q, r in ((7, 3, 5), (11, 3, 5))
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
        # knot_elements holds estimate (b) of [g^2] I_lam equal to D = 16/F,
        # estimate (a), by an exact zero test, raising on the first failed check
        failed = self._failed_passes()
        detail = failed[0] if failed else f"exact on {len(CENSUS_FRACTIONS)} census fractions"
        return CriterionResult(10, "F estimates (a) and (b) agree on every record", not failed, detail)

    def run_all(self):
        return [getattr(self, f"criterion_{i}")() for i in range(1, 11)]


def run_acceptance():
    """Run all criteria, printing one pass/fail line each; returns results."""
    results = AcceptanceSuite().run_all()
    for res in results:
        print(res.line)
    return results
