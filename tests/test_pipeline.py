import builtins
import gc
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile

import mpmath
import pytest

from bridgetorsion import catalog, curve, exact, numerics, pipeline
from bridgetorsion.oracles import (
    LensSpace,
    lens_torsion_magnitude,
    lens_torsion_multiset,
    torus_F,
    torus_P1_squared,
)
from bridgetorsion.pipeline import (
    InvariantRecord,
    cached_invariant_report,
    compare_knots,
    compute_invariants,
    knot_report,
    parse_fraction,
    serialize_report,
    tau_multiset,
)
from bridgetorsion.catalog import fingerprint, run_catalog
from bridgetorsion.errors import ParseError, RecordError
from bridgetorsion.precision import Precision
from bridgetorsion.selfcheck import CENSUS_FRACTIONS, AcceptanceSuite
from bridgetorsion.words import (
    TwoBridgeKnot,
    build_relator_word,
    fractions_mirror_equivalent,
    normalize_two_bridge,
)


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
        assert r.diagnostics["margin_bits"] >= pipeline.MIN_MARGIN_BITS


def test_torus_records_match_closed_forms():
    # b(p, 1) goes through the same path as every other knot, and matches
    # the (2, p) torus closed forms record by record; the trefoil's tau is 1/9
    for p in range(3, 26, 2):
        for r in compute_invariants(normalize_two_bridge(p, 1)):
            assert r.ok, (p, r.k, r.error)
            assert r.diagnostics["margin_bits"] >= pipeline.MIN_MARGIN_BITS
            p1sq, f = torus_P1_squared(p, r.k), torus_F(p)
            assert abs(r.p1_squared - p1sq) <= 1e-6 * p1sq, (p, r.k)
            assert abs(r.f_value - f) <= 1e-6 * f, (p, r.k)
            assert abs(r.tau - p1sq * f) <= 1e-6 * p1sq * f, (p, r.k)
            if p == 3:
                assert abs(r.tau - 1 / 9) <= 1e-9


def test_trefoil_record_is_one_ninth_and_meets_its_oracle():
    # the trefoil's one record holds with its full margin, with the (2, 3)
    # closed form tau = 1/9, and meets its lens oracle value
    records = compute_invariants(normalize_two_bridge(3, 1))
    assert len(records) == 1
    r = records[0]
    assert r.ok
    assert abs(r.tau - 1 / 9) <= 1e-9
    assert r.diagnostics["margin_bits"] >= pipeline.MIN_MARGIN_BITS
    assert abs(r.tau - r.cross_check) <= 1e-5 * r.tau


def test_torus_knot_5_1_meets_its_closed_form():
    # both records of b(5, 1) hold with their full margin and meet the
    # (2, 5) closed form
    records = compute_invariants(normalize_two_bridge(5, 1))
    assert len(records) == 2
    for r in records:
        assert r.ok
        assert r.diagnostics["margin_bits"] >= pipeline.MIN_MARGIN_BITS
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


# fractions whose multisets match the lens oracle, each once failed by a
# float route: the first nine by F's numerical limit, which failed or
# missed the oracle, 91/57 by the cross-check of F in double and 79/1 by the
# division of P(t) in double
@pytest.mark.parametrize(
    "p, q",
    [
        (21, 13), (23, 7), (23, 11), (23, 13), (23, 21), (25, 13), (25, 23), (61, 17),
        (101, 31), (91, 57), (79, 1),
    ],
)
def test_former_failures_match_lens_oracle(p, q):
    taus = tau_multiset(compute_invariants(normalize_two_bridge(p, q)))
    assert taus is not None
    oracle = lens_torsion_multiset(LensSpace.of(p, q))
    for a, b in zip(taus, oracle):
        assert abs(a - b) <= 1e-6 * max(a, b)


_MPMATH_PROBE = """
import contextlib, io, os, sys, tempfile
from bridgetorsion.catalog import fingerprint
from bridgetorsion.pipeline import compute_invariants
from bridgetorsion.selfcheck import CENSUS_FRACTIONS
from bridgetorsion.words import normalize_two_bridge
for p, q in [(101, 31), (79, 1)] + CENSUS_FRACTIONS:
    recs = compute_invariants(normalize_two_bridge(p, q))
    assert all(r.ok for r in recs), (p, q)
fingerprint()
print("mpmath" in sys.modules)
sys.modules["mpmath"] = None  # from here on, importing mpmath raises ImportError
from bridgetorsion.cli import main
with tempfile.TemporaryDirectory() as tmp:
    csv_path = os.path.join(tmp, "knots.csv")
    with open(csv_path, "w") as f:
        f.write("7,3\\n7,5\\n7,1\\n")
    commands = [["invariants", "5/3"], ["compare", "7/3", "7/5"], ["oracle", "lens", "7", "3"],
                ["oracle", "torus", "5"],
                ["catalog", csv_path, "--cache", os.path.join(tmp, "cache")], ["selftest"]]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(argv) for argv in commands]
print(codes)
"""


def test_mpmath_stays_unloaded_by_every_command():
    # the value path reads its floats off exact integer elements with an
    # integer cosine table, so mpmath is never imported; with its import
    # blocked, every command (invariants, compare, both oracles, catalog
    # and selftest) still exits 0, as only the tests' references need it
    src = os.path.dirname(os.path.dirname(curve.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _MPMATH_PROBE],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", str([0] * 6)]


def _fractions(lo, hi):
    """The normalized fractions p/q (q odd, prime to p) with lo <= p <= hi."""
    return [(p, q) for p in range(lo, hi + 1, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]


def _assert_census_matches_lens_oracle(fractions):
    """No error record, the sorted multiset within the acceptance bound of
    the lens oracle, and every tau within 1e-12 of the lens value at 50
    digits; returns the tau multisets by fraction.  Prints the SHA-256 over
    the serialized reports in sorted (p, q) order, the check that report
    bytes are unchanged (not asserted: libm may differ between
    platforms)."""
    taus = {}
    digest = hashlib.sha256()
    for p, q in sorted(fractions):
        knot = normalize_two_bridge(p, q)
        records = compute_invariants(knot)
        digest.update(serialize_report(knot_report(knot, records)))
        assert all(r.ok for r in records), (p, q, [r.error for r in records if not r.ok])
        taus[p, q] = tau_multiset(records)
        oracle = lens_torsion_multiset(LensSpace.of(p, q))
        for a, b in zip(taus[p, q], oracle):
            assert abs(a - b) <= 1e-6 * max(a, b), (p, q)
        r = pow(q, -1, p)
        with mpmath.workdps(50):
            for rec in records:
                sines = mpmath.sin(mpmath.pi * rec.k / p) * mpmath.sin(mpmath.pi * (rec.k * r % p) / p)
                want = 1 / (16 * sines ** 2)
                assert abs(rec.tau - want) <= 1e-12 * want, (p, q, rec.k)
    print(f"report SHA-256 over {len(fractions)} fractions: {digest.hexdigest()}")
    return taus


def _assert_classes_are_mirror_classes(taus):
    """Grouped by tau multiset under COMPARE_TOL, the fractions fall into
    exactly the classes q' = +/- q^{+/-1} mod p; prints both margins."""
    within, between = 0.0, math.inf
    for (p, qa), (pb, qb) in itertools.combinations(taus, 2):
        if p != pb:
            continue
        dev = pipeline._multiset_deviation(taus[p, qa], taus[p, qb])
        if fractions_mirror_equivalent(p, qa, qb):
            within = max(within, dev)
        else:
            between = min(between, dev)
    print(f"largest deviation within a class {within:.2e}, smallest between {between:.3f}")
    assert within <= pipeline.COMPARE_TOL < between


@pytest.mark.slow
def test_census_through_101_matches_lens_oracle():
    fractions = _fractions(3, 101)
    assert len(fractions) == 1053
    _assert_classes_are_mirror_classes(_assert_census_matches_lens_oracle(fractions))


@pytest.mark.slow
def test_census_103_through_131_matches_lens_oracle():
    fractions = _fractions(103, 131)
    assert len(fractions) == 717
    _assert_census_matches_lens_oracle(fractions)


def test_multiset_invariant_under_inverse_fraction():
    # q -> q^-1 mod p names the same knot up to mirror image
    for p, q in ((7, 3), (11, 3), (13, 3), (17, 5), (19, 7)):
        qinv = pow(q, -1, p)
        assert qinv not in (q, p - q)
        a = tau_multiset(compute_invariants(normalize_two_bridge(p, q)))
        b = tau_multiset(compute_invariants(normalize_two_bridge(p, qinv)))
        assert all(abs(x - y) <= 1e-9 * max(x, y) for x, y in zip(a, b)), (p, q)


def test_mirror_image_has_the_same_multiset():
    # the mirror of b(p, q) is b(p, 2p - q): its word has every exponent
    # negated.  Built directly, bypassing normalization, its torsion
    # multiset must equal that of the normalized knot
    for p, q in CENSUS_FRACTIONS:
        knot = normalize_two_bridge(p, q)
        mw = build_relator_word(p, 2 * p - q)
        assert [e for _, e in mw.letters] == [-e for _, e in knot.word.letters]
        mirror = TwoBridgeKnot(p, q, mw, mw.exponent_sum(), True)
        a = tau_multiset(compute_invariants(knot))
        b = tau_multiset(compute_invariants(mirror))
        assert a is not None and b is not None, (p, q)
        assert all(abs(x - y) <= 1e-8 * max(x, y) for x, y in zip(a, b)), (p, q)


def test_mirror_input_normalizes_to_same_records():
    a = normalize_two_bridge(7, 3)
    b = normalize_two_bridge(7, 4)  # mirror fraction of b(7,3)
    assert b.mirror and (b.p, b.q) == (7, 3)
    assert tau_multiset(compute_invariants(a)) == tau_multiset(compute_invariants(b))


# -- comparison -------------------------------------------------------------------


def _verdict(a, b):
    """compare_knots on the tau multisets of both knots, computed here."""
    return compare_knots(a, b, *(tau_multiset(compute_invariants(k)) for k in (a, b)))


def test_compare_same_knot():
    a = normalize_two_bridge(5, 3)
    v = _verdict(a, a)
    assert v.verdict == "equivalent-up-to-mirror"
    assert v.max_multiset_deviation <= 1e-12


def test_compare_equivalent_pair():
    v = _verdict(normalize_two_bridge(7, 3), normalize_two_bridge(7, 5))
    assert v.verdict == "equivalent-up-to-mirror"
    assert v.congruence_match
    assert v.max_multiset_deviation <= 1e-6


def test_compare_different_determinants():
    v = _verdict(normalize_two_bridge(3, 1), normalize_two_bridge(5, 3))
    assert v.verdict == "distinct"
    assert not v.determinants_match
    assert v.max_multiset_deviation == float("inf")


def test_census_classes_are_the_mirror_classes():
    # grouped by tau multiset under COMPARE_TOL, the 68 normalized fractions
    # with p <= 25 fall into exactly the classes q' = +/- q^{+/-1} mod p
    fractions = _fractions(3, 25)
    assert len(fractions) == 68
    _assert_classes_are_mirror_classes(
        {f: tau_multiset(compute_invariants(normalize_two_bridge(*f))) for f in fractions}
    )


def test_compare_distinct_same_determinant():
    v = _verdict(normalize_two_bridge(11, 3), normalize_two_bridge(11, 5))
    assert v.verdict == "distinct"
    assert not v.congruence_match
    assert v.max_multiset_deviation > 1e-3


# -- caching and catalog ----------------------------------------------------------


def _entry_path(cache, knot):
    """The cache file of the knot's determinant."""
    return os.path.join(cache, fingerprint()[:16], f"{knot.p}.json")


def _lookup(knot, cache, tmp_path, monkeypatch):
    """What cached_invariant_report returns in a catalog run over the one
    row knot, which reads the file of knot.p from cache before the lookup
    and writes it after, where the lookup changed its entries."""
    results = []
    lookup = catalog.cached_invariant_report

    def spy(knot, entries):
        results.append(lookup(knot, entries))
        return results[-1]

    csv_path = tmp_path / "lookup.csv"
    csv_path.write_text(f"{knot.p},{knot.q}\n")
    with monkeypatch.context() as m:
        m.setattr(catalog, "cached_invariant_report", spy)
        run_catalog(str(csv_path), None, cache)
    (result,) = results
    return result


def test_cache_bit_for_bit(tmp_path, monkeypatch):
    # the entry is the encoding of the knot's two coefficient lists, under
    # its q in the file of its p; a miss returns the records it computed,
    # and a hit those read off the entry, equal in full, diagnostics and
    # cross-checks included
    knot = normalize_two_bridge(5, 3)
    cache = str(tmp_path / "cache")
    report1, hit1, records1 = _lookup(knot, cache, tmp_path, monkeypatch)
    assert not hit1
    with open(_entry_path(cache, knot), "rb") as f:
        entry = f.read()
    assert entry == serialize_report({"3": exact.knot_elements(knot)})
    assert json.loads(entry) == {"3": exact.knot_elements(knot)}
    computed = compute_invariants(knot)
    assert records1 == computed
    assert report1 == knot_report(knot, computed)
    report2, hit2, records2 = _lookup(knot, cache, tmp_path, monkeypatch)
    assert hit2
    assert report2 == report1
    assert records2 == computed


def test_census_elements_are_their_own_cache_entries():
    # for the 68 fractions p <= 25, what knot_elements returns is the
    # object an entry holds: checked_elements returns it unchanged, and the
    # entry's JSON decodes to it, so every entry written on a miss is a hit
    fractions = _fractions(3, 25)
    assert len(fractions) == 68
    for p, q in fractions:
        knot = normalize_two_bridge(p, q)
        elements = exact.knot_elements(knot)
        entry = json.loads(serialize_report(elements))
        assert exact.checked_elements(knot, elements) is elements, (p, q)
        assert elements == entry, (p, q)


def _coeffs(edit):
    """The true entry of the knot with its coefficient lists [n2, D]
    replaced by edit(n2, D)."""

    def damage(knot):
        return serialize_report(edit(*exact.knot_elements(knot)))

    return damage


def _edited(edit):
    """The knot's report, the entry format before the cache held elements,
    with one field changed by edit(report, record)."""

    def damage(knot):
        report = knot_report(knot, compute_invariants(knot))
        edit(report, report["records"][0])
        return serialize_report(report)

    return damage


def _replaced(c, e, x):
    return c[:e] + [x] + c[e + 1:]


def _whole_file(damaged):
    """damaged written as the whole file of the knot's p, not as its entry."""
    return "file", damaged


@pytest.mark.parametrize(
    "damaged",
    [
        _whole_file(lambda knot: serialize_report({"3": exact.knot_elements(knot)})[:40]),
        _whole_file(b"[" * 100000),
        # the entry of the knot as the whole file: a list, not an object
        _whole_file(lambda knot: serialize_report(exact.knot_elements(knot))),
        b"{}",
        lambda knot: serialize_report(exact.knot_elements(normalize_two_bridge(7, 1))),
        _coeffs(lambda n2, d: [_replaced(n2, 1, True), d]),
        _coeffs(lambda n2, d: [_replaced(n2, 2, 1.0), d]),
        # the earlier entry [n2, D, phi_u], phi_u that of every p = 7 knot
        _coeffs(lambda n2, d: [n2, d, [4, 2, 3, 0, 0, 3, 2]]),
        _coeffs(lambda n2, d: [n2, d[:-1]]),
        _coeffs(lambda n2, d: [n2, _replaced(d, 1, d[1] + 1)]),
        _coeffs(lambda n2, d: [n2, [2 * x for x in d]]),
        # passes the packed identity, as it adds 2^(Bp) - 1, and the
        # symmetry check, and fails the digit guard alone
        _coeffs(lambda n2, d: [n2, [x + 2 ** 64 - 1 for x in d]]),
        # pass checked_elements, as elements with equal coefficients vanish
        # at every root read and the identity reads 0 = 0, and fail every
        # readout
        serialize_report([[0] * 7, [0] * 7]),
        serialize_report([[5] * 7, [3] * 7]),
        # reports, whole or with a field damaged, are not two lists
        _edited(lambda report, rec: report.update(records=[{"k": 1}])),
        _edited(lambda report, rec: report.update(records=[])),
        _edited(lambda report, rec: report.update(determinant=999)),
        _edited(lambda report, rec: report.update(note="x")),
        _edited(lambda report, rec: rec.update(note="x")),
        _edited(lambda report, rec: rec.update(p1_squared=[rec["p1_squared"][0], 5.0])),
        _edited(lambda report, rec: rec.update(absError=rec["absError"] + 0.5)),
        _edited(lambda report, rec: rec.update(tau=rec["tau"] * 1.5)),
        _edited(lambda report, rec: rec.update(kprime=3 - rec["kprime"])),
        _edited(lambda report, rec: rec.update(
            oracle=rec["oracle"] * 1.5, absError=abs(rec["tau"] - rec["oracle"] * 1.5))),
        _edited(lambda report, rec: rec.update(
            tau=rec["tau"] * 1.5, oracle=rec["tau"] * 1.5, absError=0.0)),
    ],
    ids=["truncated", "nested", "list", "empty", "other-knot", "wrong-type", "float", "three-lists",
         "short-list", "asymmetric", "doubled", "guard", "vanishing", "constant",
         "partial-record", "no-records", "determinant", "extra-key", "extra-record-key",
         "second-entry", "abs-error", "tau", "kprime", "oracle", "tau-and-oracle"],
)
def test_damaged_cache_entry_is_recomputed(tmp_path, monkeypatch, damaged):
    # a file that does not parse or holds no object counts as empty, and
    # an entry whose elements fail checked_elements (two lists of p ints
    # within the digit guard, each symmetric, with the paper's identity
    # holding) or any record's readout is a miss: the elements are
    # computed again and the file rewritten, and a catalog over that file
    # runs
    knot = normalize_two_bridge(7, 3)
    whole = type(damaged) is tuple
    if whole:
        damaged = damaged[1]
    if callable(damaged):
        damaged = damaged(knot)
    if not whole:
        damaged = b'{"3": ' + damaged + b"}"
    cache = str(tmp_path / "cache")
    path = _entry_path(cache, knot)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as f:
        f.write(damaged)
    report, hit, records = _lookup(knot, cache, tmp_path, monkeypatch)
    assert not hit
    computed = compute_invariants(knot)
    assert records == computed
    assert serialize_report(report) == serialize_report(knot_report(knot, computed))
    with open(path, "rb") as f:
        assert f.read() == serialize_report({"3": exact.knot_elements(knot)})
    with open(path, "wb") as f:
        f.write(damaged)
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text("7,3\n")
    catalog = run_catalog(str(csv_path), None, cache)
    assert catalog["knots"] == [report]


def test_hit_proves_tau_not_the_scale(tmp_path, monkeypatch):
    # the identity n2^2 u_k u_kr = D holds mod N = 1 + t + ... + t^(p-1):
    # 3 n2 with 9 D is a hit with every tau of a fresh run, P(1)^2 times 9
    # and F over 9; D + 1000 N is a hit with a fresh run's floats and
    # other margins, read off the stored representative
    knot = normalize_two_bridge(21, 8)
    fresh = compute_invariants(knot)
    n2, d = exact.knot_elements(knot)
    cache = str(tmp_path / "cache")
    path = _entry_path(cache, knot)
    os.makedirs(os.path.dirname(path))

    def hit_records(coeffs):
        with open(path, "wb") as f:
            f.write(serialize_report({str(knot.q): coeffs}))
        _, hit, records = _lookup(knot, cache, tmp_path, monkeypatch)
        assert hit
        return records

    records = hit_records([[3 * x for x in n2], [9 * x for x in d]])
    assert [r.tau for r in records] == [f.tau for f in fresh]
    for r, f in zip(records, fresh):
        assert math.isclose(r.p1_squared, 9 * f.p1_squared, rel_tol=1e-15)
        assert math.isclose(r.f_value, f.f_value / 9, rel_tol=1e-15)

    records = hit_records([n2, [x + 1000 for x in d]])
    floats = [(r.p1_squared, r.f_value, r.tau) for r in records]
    assert floats == [(f.p1_squared, f.f_value, f.tau) for f in fresh]
    margins = [r.diagnostics["margin_bits"] for r in records]
    fresh_margins = [f.diagnostics["margin_bits"] for f in fresh]
    assert margins != fresh_margins
    assert all(m <= f for m, f in zip(margins, fresh_margins))


# source edits that must each change the cache key: another digit width
# of the exact ring, another precision of its readout, another working
# precision of the 30-digit backend, and another zero tolerance of the
# polynomial arithmetic
_SOURCE_EDITS = [
    ("exact.py", "return 32 if p <= 31 else 40 if p <= 131 else 64", "return 64"),
    ("pipeline.py", "READOUT_BITS = 128", "READOUT_BITS = 96"),
    ("precision.py", "ctx.dps = 30", "ctx.dps = 40"),
    ("numerics.py", "DEFAULT_ZERO_TOL = 1e-9", "DEFAULT_ZERO_TOL = 1e-10"),
]

_FINGERPRINT_PROBE = "from bridgetorsion.catalog import fingerprint; print(fingerprint())"


def _fresh_fingerprint(src_root):
    """The key computed by a fresh interpreter that sees only src_root."""
    proc = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(src_root)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_fingerprint_sensitivity(tmp_path):
    # the key is the package source: an unedited copy reproduces it in two
    # fresh interpreters, and a cache written by code with another method
    # or another constant is never served
    package = os.path.dirname(curve.__file__)
    ignore = shutil.ignore_patterns("__pycache__")
    current = fingerprint()
    clean = tmp_path / "clean"
    shutil.copytree(package, clean / "bridgetorsion", ignore=ignore)
    assert _fresh_fingerprint(clean) == current
    assert _fresh_fingerprint(clean) == current
    for i, (name, old, new) in enumerate(_SOURCE_EDITS):
        root = tmp_path / f"edit{i}"
        shutil.copytree(package, root / "bridgetorsion", ignore=ignore)
        path = root / "bridgetorsion" / name
        text = path.read_text()
        assert text.count(old) == 1, (name, old)
        path.write_text(text.replace(old, new))
        assert _fresh_fingerprint(root) != current, (name, new)
    assert fingerprint() == current


_FALLBACK_PROBE = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from bridgetorsion.catalog import fingerprint
print(fingerprint(), "hashlib" in sys.modules)
"""


def test_fingerprint_is_the_sha256_of_the_source_stream():
    # the key is SHA-256 over name NUL length NUL bytes of each module, in
    # sorted order, as hashlib computes it; a build without the
    # interpreter's own SHA-256 module gives the same key through hashlib
    package = os.path.dirname(catalog.__file__)
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), "rb") as f:
            data = f.read()
        digest.update(f"{name}\0{len(data)}\0".encode() + data)
    assert fingerprint() == digest.hexdigest()
    proc = subprocess.run(
        [sys.executable, "-c", _FALLBACK_PROBE],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(package)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [digest.hexdigest(), "True"]


def test_catalog_run(tmp_path):
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text(
        "p,q,label\n3,1,trefoil\n5,1,\n5,3,figure-eight\n7,1,\n7,3,\n7,5,\n"
    )
    out_path = tmp_path / "report.json"
    report = run_catalog(str(csv_path), str(out_path), str(tmp_path / "cache"))
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
    report2 = run_catalog(str(csv_path), None, str(tmp_path / "cache"))
    assert report2["knots"] == report["knots"]


def test_catalog_sorts_each_row_once(tmp_path, monkeypatch):
    # 5 rows, 5 comparisons among the four rows of p = 7 (7/3 twice); each
    # row's multiset is sorted once, and the verdicts are compare_knots'
    sorts = []

    def counting(records):
        sorts.append(len(records))
        return tau_multiset(records)

    monkeypatch.setattr(catalog, "tau_multiset", counting)
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text("7,1\n7,3\n7,5\n5,3\n7,3\n")
    report = run_catalog(str(csv_path), None, str(tmp_path / "cache"))
    assert len(sorts) == 5
    assert len(report["verdicts"]) == 5
    monkeypatch.undo()
    for v in report["verdicts"]:
        a, b = (normalize_two_bridge(*pq) for pq in v["knots"])
        assert v == pipeline.verdict_to_dict(_verdict(a, b))


def test_catalog_runs_one_exact_pass_per_miss_and_none_per_verdict(tmp_path, monkeypatch,
                                                                   passes):
    # cold, the four distinct knots miss and the repeated 7/3 hits the
    # entry its first row stored; warm, every row hits.  The passes are
    # the misses', so the 5 verdicts of each run, which read the rows'
    # multisets, run none
    hits = _spy_hits(monkeypatch)
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text("7,1\n7,3\n7,5\n5,3\n7,3\n")
    for _ in range(2):
        assert len(run_catalog(str(csv_path), None, str(tmp_path / "cache"))["verdicts"]) == 5
    assert hits == [False] * 4 + [True] * 6
    assert passes == [(7, 1), (7, 3), (7, 5), (5, 3)]


def test_compare_knots_runs_no_exact_pass(passes):
    # a verdict reads the multisets its caller holds, whatever they are
    a, b, c = (normalize_two_bridge(*pq) for pq in ((7, 3), (7, 5), (9, 2)))
    taus = {k: tau_multiset(compute_invariants(k)) for k in (a, b, c)}
    del passes[:]
    verdicts = [compare_knots(x, y, taus[x], taus[y]) for x, y in ((a, b), (a, c), (b, b))]
    assert compare_knots(a, b, None, taus[b]).verdict == "undetermined"
    assert [v.verdict for v in verdicts] == ["equivalent-up-to-mirror", "distinct",
                                             "equivalent-up-to-mirror"]
    assert passes == []


def _spy_file_calls(monkeypatch):
    """(name, inside, path) of each open, os.makedirs, os.replace and
    tempfile.mkstemp call made from now on: inside tells whether a
    cached_invariant_report call that run_catalog makes was running, and
    path is the file or directory made, opened or renamed to."""
    calls, inside = [], []

    def spying(name, call, where):
        def spy(*args, **kwargs):
            calls.append((name, bool(inside), str(where(*args, **kwargs))))
            return call(*args, **kwargs)
        return spy

    for owner, name, where in ((builtins, "open", lambda path, *_, **__: path),
                               (os, "makedirs", lambda path, *_, **__: path),
                               (os, "replace", lambda src, dst, *_, **__: dst),
                               (tempfile, "mkstemp", lambda *_, dir=None, **__: dir)):
        monkeypatch.setattr(owner, name, spying(name, getattr(owner, name), where))
    lookup = catalog.cached_invariant_report

    def spy(knot, entries):
        inside.append(knot)
        try:
            return lookup(knot, entries)
        finally:
            inside.pop()

    monkeypatch.setattr(catalog, "cached_invariant_report", spy)
    return calls


def test_catalog_rows_share_no_setup(tmp_path, monkeypatch):
    # no lookup opens, makes, renames or creates a file, cold or warm, and
    # every lookup finds the cyclic collector paused; the collector's
    # state is restored after the rows, also when one raises, whose run
    # still writes the entries computed before that row; and a catalog
    # with no row to look up makes no directory
    calls = _spy_file_calls(monkeypatch)
    seen = []
    lookup = catalog.cached_invariant_report

    def spy(knot, entries):
        seen.append(gc.isenabled())
        if knot.p == 9:
            raise RuntimeError("stop")
        return lookup(knot, entries)

    monkeypatch.setattr(catalog, "cached_invariant_report", spy)
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text("7,3\nx,1\n5,3\n")
    cache = str(tmp_path / "cache")
    assert gc.isenabled()
    for _ in range(2):
        run_catalog(str(csv_path), None, cache)
    assert seen == [False] * 4 and gc.isenabled()
    assert {name for name, _, _ in calls} == {"open", "makedirs", "replace", "mkstemp"}
    assert [call for call in calls if call[1]] == []
    csv_path.write_text("5,1\n9,2\n")
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(RuntimeError, match="stop"):
                run_catalog(str(csv_path), None, cache)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
    with open(_entry_path(cache, normalize_two_bridge(5, 1)), "rb") as f:
        assert sorted(json.loads(f.read())) == ["1", "3"]

    for text in ("", "p,q\nx,y\n"):
        csv_path.write_text(text)
        run_catalog(str(csv_path), None, str(tmp_path / "unused"))
        assert not os.path.exists(tmp_path / "unused")


def _read_json(path):
    with open(path, "rb") as f:
        return json.loads(f.read())


def test_catalog_keeps_one_file_per_determinant(tmp_path, monkeypatch):
    # a cold run over three determinants with a cacheable knot reads each
    # p file once and writes one file per such p, and none for p = 11,
    # whose every knot fails; a warm run reads each file once and writes
    # none; a run that adds one q keeps the file's other entries
    knot_pass = catalog.knot_pass
    monkeypatch.setattr(catalog, "knot_pass", lambda knot: (
        RecordError("stop") if knot.p == 11 else knot_pass(knot)))
    calls = _spy_file_calls(monkeypatch)
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text("7,3\n5,3\n11,3\n7,5\nx,1\n9,2\n7,3\n4,1\n")
    cache = str(tmp_path / "cache")
    files = os.path.join(cache, fingerprint()[:16])
    keys = {"5.json": ["3"], "7.json": ["3", "5"], "9.json": ["7"]}  # 9/2 is 9/7
    for run in ("cold", "warm"):
        calls.clear()
        run_catalog(str(csv_path), None, cache)
        opened = [os.path.basename(path) for name, _, path in calls
                  if name == "open" and os.path.dirname(path) == files]
        assert opened == ["7.json", "5.json", "11.json", "9.json"], run
        written = [os.path.basename(path) for name, _, path in calls if name == "replace"]
        assert sorted(written) == (sorted(keys) if run == "cold" else []), run
        assert {name: sorted(_read_json(os.path.join(files, name)))
                for name in os.listdir(files)} == keys, run
    held = _read_json(os.path.join(files, "7.json"))
    csv_path.write_text("7,1\n")
    run_catalog(str(csv_path), None, cache)
    added = {"1": exact.knot_elements(normalize_two_bridge(7, 1))}
    assert _read_json(os.path.join(files, "7.json")) == {**held, **added}


def test_catalog_whose_knots_all_fail_writes_no_file(tmp_path, break_letter):
    # nothing stored, nothing written: not even the entry directory is made
    break_letter()
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text("7,3\n5,3\n7,5\n")
    report = run_catalog(str(csv_path), None, str(tmp_path / "cache"))
    assert len(report["knots"]) == 3
    assert not os.path.exists(tmp_path / "cache")


def test_catalog_verdicts_are_those_of_every_pair(tmp_path):
    # each row meets only the later rows of its own p, and the verdicts
    # are those of the scan over every pair of rows, in the same order,
    # on a shuffled catalog with several p and repeated knots
    fractions = [(p, q) for p in (5, 7, 9, 11, 13) for q in range(1, p) if math.gcd(p, q) == 1]
    rows = [pq for pq in fractions for _ in range(2)][::3] + [(7, 3), (13, 5), (13, 5)]
    random.Random(45).shuffle(rows)
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text("".join(f"{p},{q}\n" for p, q in rows))
    report = run_catalog(str(csv_path), None, str(tmp_path / "cache"))
    knots = [normalize_two_bridge(p, q) for p, q in rows]
    taus = [tau_multiset(compute_invariants(k)) for k in knots]
    reference = [pipeline.verdict_to_dict(compare_knots(a, b, ta, tb))
                 for (a, ta), (b, tb) in itertools.combinations(zip(knots, taus), 2)
                 if a.p == b.p and a.q != b.q]
    assert len(reference) > 20
    assert report["verdicts"] == reference


def test_catalog_rows_make_no_reference_cycles(tmp_path, break_letter):
    # the premise of pausing the collector: a cold and a warm run, with bad
    # rows, leave nothing for it, nor does a run whose exact passes fail,
    # as knot_pass keeps their errors without tracebacks
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text("7,3\n7,5\nx,1\n4,1\n9,3\n5,3\n")
    cache = str(tmp_path / "cache")
    for _ in range(2):
        gc.collect()
        run_catalog(str(csv_path), str(tmp_path / "report.json"), cache)
        assert gc.collect() == 0
    break_letter()
    gc.collect()
    report = run_catalog(str(csv_path), None, str(tmp_path / "broken"))
    assert all(r["error"] for kr in report["knots"] for r in kr["records"])
    assert gc.collect() == 0


def test_failed_records_have_their_own_diagnostics(break_letter):
    break_letter()
    records = compute_invariants(normalize_two_bridge(11, 3))
    assert len(records) == 5 and not any(r.ok for r in records)
    assert all(r.diagnostics == {} for r in records)
    assert len({id(r.diagnostics) for r in records}) == len(records)
    records[0].diagnostics["seen"] = True
    assert records[1].diagnostics == {}
    # the default is a new dict per record too
    a, b = InvariantRecord(1, 1, 0.0, 0.0, 1.0), InvariantRecord(1, 1, 0.0, 0.0, 1.0)
    assert a.diagnostics == {} and a.diagnostics is not b.diagnostics


def _spy_hits(monkeypatch):
    """The hit flag of each cached_invariant_report call run_catalog makes."""
    hits = []
    lookup = catalog.cached_invariant_report

    def spy(knot, entries):
        result = lookup(knot, entries)
        hits.append(result[1])
        return result

    monkeypatch.setattr(catalog, "cached_invariant_report", spy)
    return hits


def test_catalog_file_is_the_report_bytes(tmp_path, monkeypatch):
    # the --out file is serialize_report of the returned report, cold and warm,
    # with a hit inside the cold run (7/11 normalizes to 7/3), a bad row, an
    # unnormalizable one and a label with non-ASCII text and a newline
    assert normalize_two_bridge(7, 11).q == normalize_two_bridge(7, 3).q
    hits = _spy_hits(monkeypatch)
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text('p,q,label\n7,3,"5₂ — zwei\nKnoten"\n7,11,\nx,1\n4,1\n5,3\n', encoding="utf-8")
    out_path = tmp_path / "report.json"
    cache = str(tmp_path / "cache")
    for expected_hits in ([False, True, False], [True, True, True]):
        hits.clear()
        report = run_catalog(str(csv_path), str(out_path), cache)
        assert hits == expected_hits
        assert len(report["knots"]) == 3 and len(report["errors"]) == 2
        assert report["labels"][0] == "5₂ — zwei\nKnoten"
        assert out_path.read_bytes() == serialize_report(report)

    # a header-only catalog keeps an empty knots list
    csv_path.write_text("p,q,label\n")
    report = run_catalog(str(csv_path), str(out_path), cache)
    assert report["knots"] == []
    assert json.loads(out_path.read_bytes())["knots"] == []
    assert out_path.read_bytes() == serialize_report(report)


def test_noncanonical_cache_entry_is_a_hit(tmp_path, monkeypatch):
    # a valid entry in another layout, the same elements written with
    # indent=1, is a hit; the --out file is still exactly serialize_report
    # of the returned report, and the verdicts are those of the cold run
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text("7,3\n7,5\n7,1\n")
    out_path = tmp_path / "report.json"
    cache = str(tmp_path / "cache")
    cold = run_catalog(str(csv_path), str(out_path), cache)
    knots = [normalize_two_bridge(kr["knot"]["p"], kr["knot"]["q"]) for kr in cold["knots"]]
    with open(_entry_path(cache, knots[0]), "wb") as f:
        f.write(json.dumps({str(k.q): exact.knot_elements(k) for k in knots}, indent=1).encode())
    hits = _spy_hits(monkeypatch)
    warm = run_catalog(str(csv_path), str(out_path), cache)
    assert hits == [True, True, True]
    assert out_path.read_bytes() == serialize_report(warm)
    assert warm["verdicts"] == cold["verdicts"]
    assert warm == cold


def _read_nan(monkeypatch):
    """Patch pipeline.read to give NaN for F and tau at every index."""
    exact_read = pipeline.read

    def nan_read(elements):
        return [r._replace(f_value=math.nan, tau=math.nan) for r in exact_read(elements)]

    monkeypatch.setattr(pipeline, "read", nan_read)


def test_nan_estimate_gives_error_records(monkeypatch):
    # a NaN fails the sign check like any value that is not positive: every
    # record is an error record, and the report is strict JSON, with no
    # NaN token
    _read_nan(monkeypatch)
    knot = normalize_two_bridge(7, 3)
    records = compute_invariants(knot)
    assert len(records) == 3
    assert all("not positive" in r.error for r in records)

    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")

    data = serialize_report(knot_report(knot, records))
    assert b"NaN" not in data
    json.loads(data, parse_constant=refuse)


def test_hit_and_miss_read_the_elements_alike(tmp_path, monkeypatch):
    # a hit reads its records off the elements as a miss does: with read
    # giving every tau doubled, the warm hit has the miss's records; with
    # read giving NaN, the same entry is no hit, as its records fail, and
    # the lookup gives a fresh run's error records, opens no file, so the
    # file keeps the entry, and drops the entry from the run's entries
    exact_read = pipeline.read
    monkeypatch.setattr(pipeline, "read", lambda elements: [
        r._replace(tau=2 * r.tau) for r in exact_read(elements)])
    knot = normalize_two_bridge(7, 3)
    cache = str(tmp_path / "cache")
    miss = _lookup(knot, cache, tmp_path, monkeypatch)
    hit = _lookup(knot, cache, tmp_path, monkeypatch)
    assert (miss[1], hit[1]) == (False, True)
    assert hit[0] == miss[0] == knot_report(knot, compute_invariants(knot))
    with open(_entry_path(cache, knot), "rb") as f:
        entry = f.read()
    _read_nan(monkeypatch)
    entries = json.loads(entry)
    report, hit, records = cached_invariant_report(knot, entries)
    assert not hit
    assert all("not positive" in r.error for r in records)
    assert report == knot_report(knot, compute_invariants(knot))
    with open(_entry_path(cache, knot), "rb") as f:
        assert f.read() == entry
    assert entries == {}


def test_failed_exact_pass_is_not_cached(tmp_path, monkeypatch, break_letter):
    # a knot whose exact pass fails writes no entry: every lookup is a
    # miss with every record failed
    break_letter()
    knot = normalize_two_bridge(7, 3)
    cache = str(tmp_path / "cache")
    for _ in range(2):
        report, hit, records = _lookup(knot, cache, tmp_path, monkeypatch)
        assert not hit and not any(r.ok for r in records)
        assert report == knot_report(knot, compute_invariants(knot))
        assert not os.path.exists(_entry_path(cache, knot))


def test_catalog_empty_and_bad_rows(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    report = run_catalog(str(empty))
    assert report["knots"] == [] and report["errors"] == []

    bad = tmp_path / "bad.csv"
    bad.write_text("4,1\n5,3\nnot,a,row\n")
    report = run_catalog(str(bad), None, str(tmp_path / "cache2"))
    assert len(report["knots"]) == 1
    assert len(report["errors"]) == 2
    assert report["knots"][0]["knot"] == {"p": 5, "q": 3}

    # only a row 1 whose first cell is not an integer is a header
    for first in ("5", "5,x"):
        unlabeled = tmp_path / "unlabeled.csv"
        unlabeled.write_text(f"{first}\n7,3\n")
        report = run_catalog(str(unlabeled), None, str(tmp_path / "cache2"))
        assert [kr["knot"] for kr in report["knots"]] == [{"p": 7, "q": 3}]
        assert [e["row"] for e in report["errors"]] == [1], first

    # the header may follow blank rows, which still count in row numbers
    for text, rows in (("\np,q\n5,3\n", []), ("\n5\n7,3\n", [2])):
        blank_first = tmp_path / "blank_first.csv"
        blank_first.write_text(text)
        report = run_catalog(str(blank_first), None, str(tmp_path / "cache2"))
        assert [e["row"] for e in report["errors"]] == rows, text

    # a file saved with a UTF-8 byte-order mark keeps its first row, with a
    # header and without one
    for text in ("p,q\n5,3\n7,3\n", "5,3\n7,3\n"):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        report = run_catalog(str(bom), None, str(tmp_path / "cache2"))
        assert [kr["knot"] for kr in report["knots"]] == [{"p": 5, "q": 3}, {"p": 7, "q": 3}], text
        assert report["errors"] == [], text

    # cells keep their positions: an empty p or q cell is a bad row, also
    # on row 1, while an empty label cell gives the default label
    gaps = tmp_path / "gaps.csv"
    gaps.write_text(",5,3\n5,,3\n7,3,\n7,3,,x\n")
    report = run_catalog(str(gaps), None, str(tmp_path / "cache2"))
    assert [e["row"] for e in report["errors"]] == [1, 2]
    assert [kr["knot"] for kr in report["knots"]] == [{"p": 7, "q": 3}] * 2
    assert report["labels"] == ["b(7,3)"] * 2

    # a field over the csv module's size limit is a bad row, numbered as in
    # the file, and reading goes on
    long_field = tmp_path / "long_field.csv"
    long_field.write_text("5,3\n7," + "a" * 200_000 + "\n9,5\n")
    report = run_catalog(str(long_field), None, str(tmp_path / "cache2"))
    assert [e["row"] for e in report["errors"]] == [2]
    assert [kr["knot"] for kr in report["knots"]] == [{"p": 5, "q": 3}, {"p": 9, "q": 5}]


def test_parse_fraction():
    assert parse_fraction("5/3") == (5, 3)
    with pytest.raises(ParseError):
        parse_fraction("5:3")
    with pytest.raises(ParseError):
        parse_fraction("a/b")


def test_partial_results_on_record_errors(break_letter):
    # a letter kernel that fails an exact check marks every record, not raises
    break_letter()
    records = compute_invariants(normalize_two_bridge(5, 3))
    assert len(records) == 2
    assert all(not r.ok for r in records)
    assert all(r.error.startswith("RecordError: ") for r in records)
    assert tau_multiset(records) is None
    report = knot_report(normalize_two_bridge(5, 3), records)
    assert all(r["tau"] is None and r["error"] for r in report["records"])
    v = compare_knots(normalize_two_bridge(5, 3), normalize_two_bridge(5, 3),
                      tau_multiset(records), tau_multiset(records))
    assert v.verdict == "undetermined"
    assert v.max_multiset_deviation is None


def test_records_place_each_reading_by_the_inverse_pairing():
    # the reading at k' serves k = 2k' or p - 2k', whichever is at most
    # (p-1)/2: for every odd p <= 131 that fills 1..(p-1)/2 exactly once
    # and inverts metabelian_pairing, and invariant_records, here fed a
    # failed pass so that no readout runs, lists its records so
    for p in range(3, 132, 2):
        half = (p - 1) // 2
        placed = {kp: 2 * kp if 2 * kp <= half else p - 2 * kp for kp in range(1, half + 1)}
        assert sorted(placed.values()) == list(range(1, half + 1)), p
        assert all(pipeline.metabelian_pairing(p, k) == kp for kp, k in placed.items()), p
        knot = normalize_two_bridge(p, 1)
        records = pipeline.invariant_records(knot, RecordError("no pass"))
        assert [(r.k, r.kprime) for r in records] == [
            (k, pipeline.metabelian_pairing(p, k)) for k in range(1, half + 1)], p
        assert all(r.error == "RecordError: no pass" for r in records), p


def test_records_keep_k_order_when_the_pass_or_a_readout_fails(monkeypatch, break_letter):
    # 7/3 reads k' = 1, 2, 3 for k = 2, 3, 1: with the least readout
    # margin one bit below MIN_MARGIN_BITS only the record of that k'
    # fails, at its own k, and with a failed pass every record fails, each
    # in k order with its k'
    knot = normalize_two_bridge(7, 3)
    pairs = [(k, pipeline.metabelian_pairing(7, k)) for k in (1, 2, 3)]
    assert pairs == [(1, 3), (2, 1), (3, 2)]
    margins = [r.diagnostics["margin_bits"] for r in compute_invariants(knot)]
    least = min(margins)
    assert margins.count(least) == 1
    monkeypatch.setattr(pipeline, "MIN_MARGIN_BITS", least + 1)
    records = compute_invariants(knot)
    assert [(r.k, r.kprime) for r in records] == pairs
    failed = margins.index(least)
    for i, r in enumerate(records):
        if i == failed:
            assert r.error == (f"RecordError: readout margin {least} bits at k' = {r.kprime}, "
                               f"below {least + 1}")
        else:
            assert r.ok and r.diagnostics == {"margin_bits": margins[i]}
    break_letter()
    records = compute_invariants(knot)
    assert [(r.k, r.kprime) for r in records] == pairs
    assert all(r.error.startswith("RecordError: rho(<-w)") for r in records)


def test_criterion_9_fails_on_record_errors(break_letter):
    # undetermined verdicts have no deviation; the criterion reports FAIL
    break_letter()
    result = AcceptanceSuite().criterion_9()
    assert not result.ok
    assert "undetermined (dev n/a)" in result.line


def test_79_1_and_91_57_meet_their_reference_values():
    # b(79, 1) meets the (2, 79) torus closed forms, and 91/57, whose
    # record k = 1 once needed 30 digits, meets the lens values computed
    # at 30 digits within 1e-14
    for r in compute_invariants(normalize_two_bridge(79, 1)):
        assert r.ok, r.k
        expected = torus_P1_squared(79, r.k) * torus_F(79)
        assert abs(r.tau - expected) <= 1e-10 * expected, r.k
    ext = Precision("extended")
    r_inv = pow(57, -1, 91)
    for r in compute_invariants(normalize_two_bridge(91, 57)):
        sines = ext.sin(r.k * ext.pi / 91) * ext.sin(r.k * r_inv * ext.pi / 91)
        want = 1 / (16 * sines ** 2)
        assert r.ok and abs(r.tau - want) <= 1e-14 * want, r.k


def test_value_path_builds_no_laurent_polynomial(monkeypatch):
    # P(1) of record is a Taylor coefficient of Wada's numerator: no
    # polynomial is built, divided or normalized on the way to a record
    def refuse(*args):
        raise AssertionError("a LaurentPoly on the value path")

    monkeypatch.setattr(numerics.LaurentPoly, "__init__", refuse)
    for p, q in ((5, 3), (41, 11), (91, 57)):
        assert all(r.ok for r in compute_invariants(normalize_two_bridge(p, q))), (p, q)


def test_value_path_stays_real():
    # P(1)^2, F and tau are floats, read off elements of Z[u], which are
    # symmetric under t -> 1/t (knot_elements checks it), and the report
    # writes P(1)^2 and F with imaginary part 0.0
    for p, q in ((5, 3), (41, 11), (61, 17)):
        knot = normalize_two_bridge(p, q)
        records = compute_invariants(knot)
        for r in records:
            assert {type(v) for v in (r.p1_squared, r.f_value, r.tau)} == {float}, (p, q, r.k)
        for r in knot_report(knot, records)["records"]:
            assert r["p1_squared"][1] == r["F"][1] == 0.0
            assert list(r["diagnostics"]) == ["margin_bits"]


def test_value_path_builds_no_relator(tmp_path, monkeypatch):
    # normalization checks |Delta(-1)| = p from w, and the exact pass
    # walks w alone: neither the relator nor <-w is built on the way to a
    # record, a verdict or a catalog, cold or warm
    def refuse(*args):
        raise AssertionError("the relator or <-w on the value path")

    monkeypatch.setattr(TwoBridgeKnot, "relator", refuse)
    monkeypatch.setattr(TwoBridgeKnot, "reversed_word", property(refuse))
    census = [(p, q) for p in range(3, 26, 2) for q in range(1, p) if math.gcd(p, q) == 1]
    for p, q in census:
        assert all(r.ok for r in compute_invariants(normalize_two_bridge(p, q))), (p, q)
    assert _verdict(normalize_two_bridge(7, 3),
                    normalize_two_bridge(7, 5)).verdict == "equivalent-up-to-mirror"
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text("p,q\n5,3\n7,3\n7,5\n9,2\n")
    hits = _spy_hits(monkeypatch)
    cold = run_catalog(str(csv_path), None, str(tmp_path / "cache"))
    warm = run_catalog(str(csv_path), None, str(tmp_path / "cache"))
    assert hits == [False] * 4 + [True] * 4
    assert len(cold["knots"]) == 4 and not cold["errors"] and warm == cold


@pytest.mark.parametrize("q", [79, 101, 131, 201])
def test_large_torus_knots_meet_closed_forms_with_full_margin(q):
    # every record of b(q, 1) is read off the exact elements with its full
    # margin, and meets the (2, q) closed forms
    for r in compute_invariants(normalize_two_bridge(q, 1)):
        assert r.ok, r.k
        expected = torus_P1_squared(q, r.k) * torus_F(q)
        assert abs(r.tau - expected) <= 1e-9 * expected, r.k
        assert r.diagnostics["margin_bits"] >= pipeline.MIN_MARGIN_BITS, r.k


def test_b301_1_meets_torus_closed_forms():
    # every record of b(301, 1), of which one failed its tangency check in
    # double, is error-free and within 1e-12 of the (2, 301) closed forms
    for r in compute_invariants(normalize_two_bridge(301, 1)):
        assert r.ok, (r.k, r.error)
        p1sq, f = torus_P1_squared(301, r.k), torus_F(301)
        assert abs(r.p1_squared - p1sq) <= 1e-12 * p1sq, r.k
        assert abs(r.f_value - f) <= 1e-12 * f, r.k


def test_extended_precision_leaves_global_mpmath_alone():
    # the 30-digit backend, the tests' reference, keeps its digits in a
    # private mpmath context
    with mpmath.workdps(15):
        root = Precision("extended").sqrt(2)
        assert mpmath.mp.dps == 15
    assert abs(root ** 2 - 2) < mpmath.mpf(10) ** -28


def test_env_cache_dir(tmp_path, tmp_path_factory, monkeypatch):
    monkeypatch.setenv("TORSION_CACHE_DIR", str(tmp_path / "envcache"))
    csv_path = tmp_path_factory.mktemp("csv") / "knots.csv"
    csv_path.write_text("3,1\n")
    hits = _spy_hits(monkeypatch)
    run_catalog(str(csv_path))
    hit = hits.pop()
    assert not hit
    assert os.path.isdir(str(tmp_path / "envcache"))
    run_catalog(str(csv_path))
    hit = hits.pop()
    assert hit

    # an empty value counts as unset: the cache goes to .torsion_cache, not
    # to the working directory itself
    monkeypatch.setenv("TORSION_CACHE_DIR", "")
    monkeypatch.chdir(tmp_path)
    run_catalog(str(csv_path))
    hit = hits.pop()
    assert not hit
    assert sorted(os.listdir(tmp_path)) == [".torsion_cache", "envcache"]
