import json
import math
import os

import mpmath
import pytest

from bridgetorsion import curve, pipeline
from bridgetorsion.oracles import (
    LensSpace,
    lens_torsion_magnitude,
    lens_torsion_multiset,
    torus_F,
    torus_P1_squared,
)
from bridgetorsion.pipeline import (
    Config,
    cached_invariant_report,
    compare_knots,
    compute_invariants,
    knot_report,
    parse_fraction,
    run_catalog,
    serialize_report,
    tau_multiset,
)
from bridgetorsion.errors import ParseError
from bridgetorsion.selfcheck import AcceptanceSuite
from bridgetorsion.words import normalize_two_bridge


def test_figure_eight_records():
    knot = normalize_two_bridge(5, 3)
    records = compute_invariants(knot)
    assert len(records) == 2
    assert [r.k for r in records] == [1, 2]
    assert [r.kprime for r in records] == [2, 1]
    for r in records:
        assert r.ok
        assert abs(r.tau - 0.2) <= 1e-6 * 0.2
        assert abs(r.tau - r.cross_check) <= 1e-6
        prod = r.p1_squared * r.f_value
        assert abs(prod.imag) <= 1e-6 * r.tau
        assert r.diagnostics["path"] == "generic"


def test_torus_records_match_closed_forms():
    # b(p, 1) goes through the same path as every other knot, and matches
    # the (2, p) torus closed forms record by record; the trefoil's tau is 1/9
    for p in range(3, 26, 2):
        for r in compute_invariants(normalize_two_bridge(p, 1)):
            assert r.ok, (p, r.k, r.error)
            assert r.diagnostics["path"] == "generic"
            p1sq, f = torus_P1_squared(p, r.k), torus_F(p)
            assert abs(r.p1_squared - p1sq) <= 1e-6 * p1sq, (p, r.k)
            assert abs(r.f_value - f) <= 1e-6 * f, (p, r.k)
            assert abs(r.tau - p1sq * f) <= 1e-6 * p1sq * f, (p, r.k)
            if p == 3:
                assert abs(r.tau - 1 / 9) <= 1e-9


def test_trefoil_uses_closed_form_with_generic_crosscheck():
    # the trefoil's one record comes from the generic path; the (2, 3) closed
    # form tau = 1/9 checks it, and its own cross-check estimate agrees
    records = compute_invariants(normalize_two_bridge(3, 1))
    assert len(records) == 1
    r = records[0]
    assert r.ok
    assert abs(r.tau - 1 / 9) <= 1e-9
    assert r.diagnostics["path"] == "generic"
    assert abs(r.tau - r.cross_check) <= 1e-5 * r.tau


def test_force_generic_on_torus():
    # no knob is needed any more: the default config sends b(5, 1) through the
    # generic path, and its records match the closed form
    records = compute_invariants(normalize_two_bridge(5, 1), Config())
    assert len(records) == 2
    for r in records:
        assert r.ok
        assert r.diagnostics["path"] == "generic"
        expected = 1 / (4 * math.sin(r.k * math.pi / 5) ** 2) ** 2
        assert abs(r.tau - expected) <= 1e-6 * expected


def test_record_count_census_sample():
    for p, q in ((7, 3), (9, 5), (11, 7)):
        records = compute_invariants(normalize_two_bridge(p, q))
        assert len(records) == (p - 1) // 2
        assert all(r.ok for r in records)


def test_multiset_matches_lens_oracle():
    for p, q in ((7, 5), (13, 3)):
        knot = normalize_two_bridge(p, q)
        taus = tau_multiset(compute_invariants(knot))
        lens = LensSpace.of(p, q)
        oracle = sorted(lens_torsion_magnitude(lens, k) for k in range(1, (p - 1) // 2 + 1))
        for a, b in zip(taus, oracle):
            assert abs(a - b) <= 1e-6 * max(a, b)


# fractions where the step-grid limit used to fail or miss the oracle
@pytest.mark.parametrize(
    "p, q",
    [(21, 13), (23, 7), (23, 11), (23, 13), (23, 21), (25, 13), (25, 23), (61, 17), (101, 31)],
)
def test_former_failures_match_lens_oracle(p, q):
    taus = tau_multiset(compute_invariants(normalize_two_bridge(p, q)))
    assert taus is not None
    oracle = lens_torsion_multiset(LensSpace.of(p, q))
    for a, b in zip(taus, oracle):
        assert abs(a - b) <= 1e-6 * max(a, b)


@pytest.mark.slow
def test_census_through_61_matches_lens_oracle():
    # every normalized fraction with p <= 61 (394 of them): no error record,
    # and the sorted multiset within the acceptance bound of the lens oracle
    fractions = [(p, q) for p in range(3, 62, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]
    assert len(fractions) == 394
    for p, q in fractions:
        records = compute_invariants(normalize_two_bridge(p, q))
        assert all(r.ok for r in records), (p, q, [r.error for r in records if not r.ok])
        oracle = lens_torsion_multiset(LensSpace.of(p, q))
        for a, b in zip(tau_multiset(records), oracle):
            assert abs(a - b) <= 1e-6 * max(a, b), (p, q)


def test_multiset_invariant_under_inverse_fraction():
    # q -> q^-1 mod p names the same knot up to mirror image
    for p, q in ((7, 3), (11, 3), (13, 3), (17, 5), (19, 7)):
        qinv = pow(q, -1, p)
        assert qinv not in (q, p - q)
        a = tau_multiset(compute_invariants(normalize_two_bridge(p, q)))
        b = tau_multiset(compute_invariants(normalize_two_bridge(p, qinv)))
        assert all(abs(x - y) <= 1e-9 * max(x, y) for x, y in zip(a, b)), (p, q)


def test_mirror_input_normalizes_to_same_records():
    a = normalize_two_bridge(7, 3)
    b = normalize_two_bridge(7, 4)  # mirror fraction of b(7,3)
    assert b.mirror and (b.p, b.q) == (7, 3)
    assert tau_multiset(compute_invariants(a)) == tau_multiset(compute_invariants(b))


# -- comparison -------------------------------------------------------------------


def test_compare_same_knot():
    a = normalize_two_bridge(5, 3)
    v = compare_knots(a, a)
    assert v.verdict == "equivalent-up-to-mirror"
    assert v.max_multiset_deviation <= 1e-12


def test_compare_equivalent_pair():
    v = compare_knots(normalize_two_bridge(7, 3), normalize_two_bridge(7, 5))
    assert v.verdict == "equivalent-up-to-mirror"
    assert v.congruence_match
    assert v.max_multiset_deviation <= 1e-6


def test_compare_different_determinants():
    v = compare_knots(normalize_two_bridge(3, 1), normalize_two_bridge(5, 3))
    assert v.verdict == "distinct"
    assert not v.determinants_match
    assert v.max_multiset_deviation == float("inf")


def test_compare_distinct_same_determinant():
    v = compare_knots(normalize_two_bridge(11, 3), normalize_two_bridge(11, 5))
    assert v.verdict == "distinct"
    assert not v.congruence_match
    assert v.max_multiset_deviation > 1e-3


# -- caching and catalog ----------------------------------------------------------


def test_cache_bit_for_bit(tmp_path):
    knot = normalize_two_bridge(5, 3)
    cfg = Config()
    cache = str(tmp_path / "cache")
    report1, hit1 = cached_invariant_report(knot, cfg, cache)
    assert not hit1
    path = os.path.join(cache, cfg.fingerprint()[:16], "5_3.json")
    with open(path, "rb") as f:
        cached_bytes = f.read()
    fresh = knot_report(knot, compute_invariants(knot, cfg))
    assert serialize_report(fresh) == cached_bytes
    report2, hit2 = cached_invariant_report(knot, cfg, cache)
    assert hit2
    assert report2 == report1 == fresh


def test_fingerprint_sensitivity(monkeypatch):
    assert Config().fingerprint() != Config(precision="extended").fingerprint()
    assert Config().fingerprint() == Config().fingerprint()
    # a cache written by another method of computing F is never served
    current = Config().fingerprint()
    monkeypatch.setattr(pipeline, "F_METHOD", "richardson-grid")
    assert Config().fingerprint() != current


def test_catalog_run(tmp_path):
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text(
        "p,q,label\n3,1,trefoil\n5,1,\n5,3,figure-eight\n7,1,\n7,3,\n7,5,\n"
    )
    out_path = tmp_path / "report.json"
    report = run_catalog(str(csv_path), Config(), str(out_path), str(tmp_path / "cache"))
    assert len(report["knots"]) == 6
    assert not report["errors"]
    pair_verdicts = {
        (tuple(v["knots"][0]), tuple(v["knots"][1])): v["verdict"]
        for v in report["verdicts"]
    }
    assert pair_verdicts[((7, 3), (7, 5))] == "equivalent-up-to-mirror"
    assert pair_verdicts[((7, 1), (7, 3))] == "distinct"
    with open(out_path) as f:
        on_disk = json.load(f)
    assert on_disk == report
    # a second run is served from the cache and produces the identical report
    report2 = run_catalog(str(csv_path), Config(), None, str(tmp_path / "cache"))
    assert report2["knots"] == report["knots"]


def test_catalog_empty_and_bad_rows(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    report = run_catalog(str(empty), Config())
    assert report["knots"] == [] and report["errors"] == []

    bad = tmp_path / "bad.csv"
    bad.write_text("4,1\n5,3\nnot,a,row\n")
    report = run_catalog(str(bad), Config(), None, str(tmp_path / "cache2"))
    assert len(report["knots"]) == 1
    assert len(report["errors"]) == 2
    assert report["knots"][0]["knot"] == {"p": 5, "q": 3}


def test_parse_fraction():
    assert parse_fraction("5/3") == (5, 3)
    with pytest.raises(ParseError):
        parse_fraction("5:3")
    with pytest.raises(ParseError):
        parse_fraction("a/b")


def test_partial_results_on_record_errors(monkeypatch):
    # a skewed cross-check estimate marks every record, not raises
    exact = curve._implicit_h2
    monkeypatch.setattr(curve, "_implicit_h2", lambda *a: exact(*a) * 1.001)
    cfg = Config()
    records = compute_invariants(normalize_two_bridge(5, 3), cfg)
    assert len(records) == 2
    assert all(not r.ok for r in records)
    assert all("EstimateDisagreement" in r.error for r in records)
    assert tau_multiset(records) is None
    report = knot_report(normalize_two_bridge(5, 3), records)
    assert all(r["tau"] is None and r["error"] for r in report["records"])
    v = compare_knots(
        normalize_two_bridge(5, 3), normalize_two_bridge(5, 3), cfg, records, records
    )
    assert v.verdict == "undetermined"
    assert v.max_multiset_deviation is None


def test_criterion_9_fails_on_record_errors(monkeypatch):
    # undetermined verdicts have no deviation; the criterion reports FAIL
    exact = curve._implicit_h2
    monkeypatch.setattr(curve, "_implicit_h2", lambda *a: exact(*a) * 1.001)
    result = AcceptanceSuite().criterion_9()
    assert not result.ok
    assert "undetermined (dev n/a)" in result.line


def test_extended_precision():
    cfg = Config(precision="extended")
    records = compute_invariants(normalize_two_bridge(5, 3), cfg)
    for r in records:
        assert r.ok
        assert abs(r.tau - 0.2) <= 1e-10 * 0.2


def test_extended_precision_leaves_global_mpmath_alone():
    # the extended run keeps its 30 digits in a private mpmath context
    with mpmath.workdps(15):
        records = compute_invariants(normalize_two_bridge(5, 3), Config(precision="extended"))
        assert mpmath.mp.dps == 15
    assert all(r.diagnostics["f_rel_disagreement"] < 1e-20 for r in records)


def test_env_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("TORSION_CACHE_DIR", str(tmp_path / "envcache"))
    knot = normalize_two_bridge(3, 1)
    cfg = Config()
    _, hit = cached_invariant_report(knot, cfg)
    assert not hit
    assert os.path.isdir(str(tmp_path / "envcache"))
    _, hit = cached_invariant_report(knot, cfg)
    assert hit
