"""The acceptance suite: one test per criterion, each printing its
pass/fail line (run with -s to see them all)."""

import pytest

from bridgetorsion import exact, pipeline, selfcheck
from bridgetorsion.pipeline import compute_invariants
from bridgetorsion.selfcheck import AcceptanceSuite
from bridgetorsion.words import normalize_two_bridge


@pytest.fixture(scope="module")
def suite():
    return AcceptanceSuite()


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(suite, number):
    result = getattr(suite, f"criterion_{number}")()
    print(result.line)
    assert result.ok, result.line


@pytest.mark.parametrize("number, check", [(10, "estimate (b)"), (7, "phi at g^0")])
def test_criterion_fails_when_its_zero_test_fails(monkeypatch, number, check):
    # the criterion's zero test off by one, and no other check: every record
    # names it, and the criterion fails, naming a knot
    zero_test = exact._zero_test

    def off(x, p, b, what, label):
        zero_test(x + 1 if what == check else x, p, b, what, label)

    monkeypatch.setattr(exact, "_zero_test", off)
    for r in compute_invariants(normalize_two_bridge(7, 3)):
        assert f"{check} fails" in r.error, r.k
    result = getattr(AcceptanceSuite(), f"criterion_{number}")()
    assert not result.ok
    assert f"{check} fails" in result.detail and "b(3,1)" in result.detail, result.line


def test_suite_runs_one_exact_pass_per_knot(monkeypatch):
    # every criterion, criterion 1 included, reads the memoized pass of
    # each of the 24 census fractions
    calls = []

    def counted(knot):
        calls.append(knot.label)
        return exact.knot_elements(knot)

    monkeypatch.setattr(pipeline, "knot_elements", counted)
    assert all(r.ok for r in AcceptanceSuite().run_all())
    assert len(calls) == len(set(calls)) == 24 == len(selfcheck.CENSUS_FRACTIONS)


def test_suite_reads_each_knot_once(monkeypatch, break_letter):
    # the records are memoized with the elements: one readout per census
    # fraction for the whole run; a failed pass reads nothing, and its
    # failed records are memoized as well
    calls = []
    read = pipeline.read

    def counted(elements):
        calls.append(len(elements[0]))
        return read(elements)

    monkeypatch.setattr(pipeline, "read", counted)
    suite = AcceptanceSuite()
    assert all(r.ok for r in suite.run_all())
    assert len(calls) == 24 == len(selfcheck.CENSUS_FRACTIONS)
    assert suite.records(5, 3) is suite.records(5, 3) and len(calls) == 24
    break_letter()
    failed = AcceptanceSuite()
    records = failed.records(5, 3)
    assert not any(r.ok for r in records) and failed.records(5, 3) is records
    assert len(calls) == 24


def test_criterion_8_names_the_pair_whose_routes_disagree(monkeypatch):
    # Wada's y-route off by the non-unit factor 2 at 7/3 fails the unit
    # comparison at each of its indices; the criterion names the last
    wada = selfcheck.wada_twisted_alexander

    def skewed(knot, rho, by="x"):
        result = wada(knot, rho, by=by)
        if (knot.p, knot.q, by) == (7, 3, "y"):
            return result._replace(reduced=result.reduced * 2)
        return result

    monkeypatch.setattr(selfcheck, "wada_twisted_alexander", skewed)
    result = AcceptanceSuite().criterion_8()
    assert not result.ok and result.detail == "mismatch at (7, 3, 3)", result.line
