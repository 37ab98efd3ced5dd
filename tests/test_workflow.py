"""The CI workflow (``.github/workflows/tests.yml``) agrees with the
repository: every file it runs exists, the pytest marker it selects is
registered, the console script it calls is declared, and its Python
matrix includes the ``requires-python`` floor.  Plain text parsing, so it
runs on every supported Python with no YAML or TOML reader."""

import pathlib
import re
import shlex

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
PYPROJECT = (ROOT / "pyproject.toml").read_text()
INTERPRETERS = {"python", "python3", "pip"}


def _commands():
    """The argument lists of the workflow's ``run:`` steps, each one line."""
    assert not re.search(r"^\s*run:\s*[|>]", WORKFLOW, re.M), "a multi-line run: step"
    return [shlex.split(m) for m in re.findall(r"^\s*run:\s*(.+?)\s*$", WORKFLOW, re.M)]


def _table(name):
    """The lines of the pyproject table [name], up to the next table."""
    body = PYPROJECT.split(f"[{name}]\n", 1)[1]
    return re.split(r"^\[", body, maxsplit=1, flags=re.M)[0].splitlines()


def test_files_the_workflow_runs_exist():
    scripts = [arg for args in _commands() for arg in args if arg.endswith(".py")]
    assert "perfbench/selftest.py" in scripts
    for script in scripts:
        assert (ROOT / script).is_file(), script


def test_selected_markers_are_registered():
    line = next(line for line in _table("tool.pytest.ini_options") if line.startswith("markers"))
    registered = {entry.split(":")[0] for entry in re.findall(r'"([^"]*)"', line)}
    selected = []
    for args in _commands():
        if "pytest" in args:
            rest = args[args.index("pytest") + 1:]
            selected += [rest[i + 1] for i, arg in enumerate(rest[:-1]) if arg == "-m"]
    assert "slow" in selected
    for expression in selected:
        names = set(re.findall(r"\w+", expression)) - {"not", "and", "or"}
        assert names <= registered, expression


def test_called_commands_are_declared_scripts():
    scripts = {line.split("=")[0].strip() for line in _table("project.scripts") if "=" in line}
    called = {args[0] for args in _commands()} - INTERPRETERS
    assert "bridgetorsion" in called
    assert called <= scripts, called - scripts


def test_matrix_includes_the_requires_python_floor():
    floor = re.search(r'^requires-python\s*=\s*">=\s*([\d.]+)"', PYPROJECT, re.M).group(1)
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", WORKFLOW).group(1)
    versions = [v.strip().strip("\"'") for v in matrix.split(",")]
    assert floor == "3.10"
    assert floor in versions, versions


def test_benchmark_oracle_checks_run_on_the_benchmark_python():
    # one step on 3.11, the benchmark host's Python, runs every workload
    # once, traced, with seed 1, and gates on each result line's
    # "correct" and "failed" fields
    steps = re.findall(r"^\s*- name:.*\n((?:\s+(?!- )\S.*\n)*)", WORKFLOW, re.M)
    runs = [step for step in steps if "perfbench/run.py" in step]
    assert len(runs) == 1, runs
    assert re.search(r"^\s*if:\s*matrix\.python-version == '3\.11'\s*$", runs[0], re.M)
    args = shlex.split(re.search(r"^\s*run:\s*(.+?)\s*$", runs[0], re.M).group(1))
    bench = args[:args.index("|")]
    assert bench[:2] == ["python3", "perfbench/run.py"]
    assert {tuple(bench[i:i + 2]) for i in range(2, len(bench), 2)} == {
        ("--workload", "all"), ("--trace", "1"), ("--seed", "1")}
    gate = args[args.index("|") + 1:]
    assert gate[:2] == ["python3", "-c"]
    for field in ("'correct'", "'failed'", "len(rows) != 3"):
        assert field in gate[2], field
