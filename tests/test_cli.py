import json
import os
import subprocess
import sys

import pytest

from bridgetorsion import pipeline
from bridgetorsion.cli import main
from bridgetorsion.oracles import torus_F, torus_P1_squared


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_json(capsys):
    code, out, _ = run_cli(capsys, ["invariants", "5/3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["knot"] == {"p": 5, "q": 3}
    assert report.keys() == {"knot", "records"}
    taus = [r["tau"] for r in report["records"]]
    assert len(taus) == 2
    assert all(abs(t - 0.2) < 1e-6 for t in taus)
    assert all(r["error"] is None for r in report["records"])


def test_invariants_json_torus_knot(capsys):
    # b(7,1) takes the same path as every knot and meets the closed forms
    code, out, _ = run_cli(capsys, ["invariants", "7/1", "--json"])
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 3
    for r in records:
        assert list(r["diagnostics"]) == ["margin_bits"]
        p1sq, f = torus_P1_squared(7, r["k"]), torus_F(7)
        assert abs(complex(*r["p1_squared"]) - p1sq) <= 1e-6 * p1sq
        assert abs(complex(*r["F"]) - f) <= 1e-6 * f


def test_invariants_table(capsys):
    code, out, _ = run_cli(capsys, ["invariants", "3/1"])
    assert code == 0
    assert "b(3,1)" in out
    assert "0.11111111" in out


def test_invariants_domain_error(capsys):
    code, _, err = run_cli(capsys, ["invariants", "4/1"])
    assert code == 2
    assert "error" in err.lower()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bogus-command"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["invariants"])
    assert info.value.code == 1
    # there is no precision option: the value path is exact
    with pytest.raises(SystemExit) as info:
        main(["invariants", "5/3", "--precision", "extended"])
    assert info.value.code == 1


def test_compare(capsys):
    code, out, _ = run_cli(capsys, ["compare", "7/3", "7/5", "--json"])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "equivalent-up-to-mirror"
    assert verdict["congruenceMatch"] is True

    code, out, _ = run_cli(capsys, ["compare", "11/3", "11/5"])
    assert code == 0
    assert "distinct" in out


def test_compare_equivalent_fractions_of_one_knot(capsys):
    # 21/8 names the mirror of b(21,13); this pair once failed a record
    code, out, _ = run_cli(capsys, ["compare", "21/13", "21/8", "--json"])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "equivalent-up-to-mirror"
    assert verdict["maxMultisetDeviation"] <= 1e-6


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_compare_json_is_strict_json(capsys):
    # different determinants give multisets of different sizes, whose
    # deviation is infinite; JSON has no Infinity, so it is written as null
    code, out, _ = run_cli(capsys, ["compare", "5/3", "7/3", "--json"])
    assert code == 0
    verdict = json.loads(out, parse_constant=_reject_constant)
    assert verdict["verdict"] == "distinct"
    assert verdict["maxMultisetDeviation"] is None
    assert verdict["determinantsMatch"] is False


def test_negative_product_gives_error_records(capsys, monkeypatch):
    # the theorem gives P(1)^2 F = 1/(u_k u_{kr}) > 0; a value of F with the
    # wrong sign fails the record, and the report is still strict JSON
    exact_read = pipeline.read

    def negated(elements):
        return [r._replace(f_value=-r.f_value, tau=-r.tau) for r in exact_read(elements)]

    monkeypatch.setattr(pipeline, "read", negated)
    code, out, _ = run_cli(capsys, ["invariants", "7/3", "--json"])
    assert code == 2
    records = json.loads(out, parse_constant=_reject_constant)["records"]
    assert len(records) == 3
    for r in records:
        assert r["tau"] is None and "not positive" in r["error"], r


def test_compare_with_record_errors_is_undetermined(capsys, break_letter):
    break_letter()
    code, out, _ = run_cli(capsys, ["compare", "7/3", "7/5"])
    assert code == 2
    assert "undetermined" in out


def test_selftest_reports_every_criterion_when_the_exact_pass_fails(capsys, break_letter):
    # a failed pass fails the criteria that read it, each on its own line,
    # naming the first knot it fails; the break leaves "phi at g^0" intact
    break_letter()
    code, out, err = run_cli(capsys, ["selftest"])
    lines = out.splitlines()
    assert code == 2 and err == ""
    assert len(lines) == 10 and all(line[:6] in ("[PASS]", "[FAIL]") for line in lines)
    # Wada's criteria, the torus closed forms and Riley's residual still hold
    assert [n for n, line in enumerate(lines, 1) if line.startswith("[PASS]")] == [2, 4, 7, 8]
    assert "-- b(5,3): RecordError: rho(<-w) = C W C / c fails" in lines[0]
    assert "rho(<-w) = C W C / c fails in Z[t] for b(5,3)" in lines[2]
    assert "-- b(3,1): RecordError: " in lines[4] and "-- b(3,1): RecordError: " in lines[5]


def test_oracle_tables(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "lens", "5", "3"])
    assert code == 0
    assert "L(5,3)" in out and "0.2" in out
    code, out, _ = run_cli(capsys, ["oracle", "torus", "5"])
    assert code == 0
    assert "L(5,1)" in out
    # an invalid q is refused before any table line is printed
    code, out, err = run_cli(capsys, ["oracle", "torus", "4"])
    assert code == 2
    assert out == ""
    assert "q = 4" in err


def test_oracle_lens_refuses_even_p(capsys):
    # a double branched cover of a knot has odd order p; an even p would
    # leave the order-2 character out of the table, or print none at all
    for p, q in (("8", "3"), ("2", "1")):
        code, out, err = run_cli(capsys, ["oracle", "lens", p, q])
        assert code == 2
        assert out == ""
        assert f"odd p >= 3, got {p}" in err


def test_catalog_cli(tmp_path, capsys):
    csv_path = tmp_path / "cat.csv"
    csv_path.write_text("3,1\n5,3\n4,1\n")
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        ["catalog", str(csv_path), "--out", str(out_path), "--cache", str(tmp_path / "c")],
    )
    assert code == 2  # the 4/1 row fails
    assert "2 knots" in out
    report = json.loads(out_path.read_text())
    assert len(report["errors"]) == 1

    good = tmp_path / "good.csv"
    good.write_text("3,1\n5,3\n")
    code, out, _ = run_cli(
        capsys, ["catalog", str(good), "--cache", str(tmp_path / "c")]
    )
    assert code == 0


def test_catalog_oversized_field(tmp_path, capsys):
    # a field the csv module refuses is a bad row (exit 2), not a traceback
    csv_path = tmp_path / "long.csv"
    csv_path.write_text("5,3\n7," + "a" * 200_000 + "\n")
    code, out, err = run_cli(capsys, ["catalog", str(csv_path), "--cache", str(tmp_path / "c")])
    assert code == 2
    assert "1 knots, 1 bad rows" in out
    assert err == ""


def test_catalog_unreadable_input(tmp_path, capsys):
    # an input that cannot be read is an error of the run (exit 2), not a
    # traceback, which would exit 1 like a usage error
    code, out, err = run_cli(capsys, ["catalog", str(tmp_path)])
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_catalog_non_utf8_input(tmp_path, capsys):
    cp1252 = tmp_path / "cp1252.csv"
    cp1252.write_bytes("5,3,n\u0153ud\n".encode("cp1252"))
    code, out, err = run_cli(capsys, ["catalog", str(cp1252), "--cache", str(tmp_path / "c")])
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_module_entry_point():
    # run the package this suite imports, not whichever copy the inherited
    # environment would find
    proc = subprocess.run(
        [sys.executable, "-m", "bridgetorsion", "oracle", "lens", "5", "3"],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pipeline.__file__))),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "0.2" in proc.stdout


def test_invariants_table_prints_an_error_row_per_record(capsys, break_letter):
    # a failed exact pass fails every record: the table prints each as one
    # ERROR row, k and k' kept, and the command exits 2
    break_letter()
    code, out, err = run_cli(capsys, ["invariants", "7/3"])
    error = "ERROR: RecordError: rho(<-w) = C W C / c fails in Z[t] for b(7,3)"
    assert code == 2 and err == ""
    assert out.splitlines()[2:] == [f"  1   3  {error}", f"  2   1  {error}",
                                    f"  3   2  {error}"]


@pytest.mark.parametrize("broken", [False, True])
def test_catalog_prints_each_same_determinant_verdict(tmp_path, capsys, break_letter, broken):
    # 7/3 and 7/5 are one knot up to mirror, 11/3 and 11/5 two; with the
    # exact pass broken every record fails and both verdicts are undetermined
    if broken:
        break_letter()
    csv_path = tmp_path / "pairs.csv"
    csv_path.write_text("7,3\n7,5\n11,3\n11,5\n")
    code, out, err = run_cli(capsys, ["catalog", str(csv_path), "--cache", str(tmp_path / "c")])
    lines = out.splitlines()
    assert err == "" and len(lines) == 3
    if broken:
        assert code == 2
        assert lines == ["computed 4 knots, 0 bad rows, 16 record errors",
                         "  b(7,3) vs b(7,5): undetermined (dev n/a)",
                         "  b(11,3) vs b(11,5): undetermined (dev n/a)"]
    else:
        assert code == 0
        assert lines[:2] == ["computed 4 knots, 0 bad rows, 0 record errors",
                             "  b(7,3) vs b(7,5): equivalent-up-to-mirror (dev 0.00e+00)"]
        assert lines[2].startswith("  b(11,3) vs b(11,5): distinct (dev ")
