"""The acceptance suite: one test per criterion, each printing its
pass/fail line (run with -s to see them all)."""

import pytest

from bridgetorsion import exact
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


def test_criterion_10_fails_when_estimate_b_fails(monkeypatch):
    # estimate (b) off by one, and no other check: every record names it,
    # and criterion 10 fails, naming a knot
    zero_test = exact._zero_test

    def off_at_b(x, p, what, label):
        zero_test(x + 1 if what == "estimate (b)" else x, p, what, label)

    monkeypatch.setattr(exact, "_zero_test", off_at_b)
    for r in compute_invariants(normalize_two_bridge(7, 3)):
        assert "estimate (b) fails" in r.error, r.k
    result = AcceptanceSuite().criterion_10()
    assert not result.ok
    assert "estimate (b) fails" in result.detail and "b(3,1)" in result.detail, result.line
