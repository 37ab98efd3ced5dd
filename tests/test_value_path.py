"""The value path (errors, words, exact, oracles, pipeline, catalog, cli)
imports, at module level, only the standard library and itself: the float
references (numerics, precision, reps, alexander, curve) and the
acceptance suite (selfcheck) stay out of it, and the package runs them
only on first use.  So it does the batch catalog and cache (catalog),
which no module imports at module level.  Nor does the package load the
standard library's heavier modules on import, and each module it
compiles on import stays below the parser's token step."""

import ast
import os
import pathlib
import subprocess
import sys
import tokenize

import pytest

import bridgetorsion

PACKAGE = pathlib.Path(bridgetorsion.__file__).parent
VALUE_PATH = {"errors", "words", "exact", "oracles", "pipeline", "catalog", "cli"}

#: The package's public names, each of which the package namespace keeps:
#: what the modules that ``import bridgetorsion`` runs export.
EXPORTS = """
__version__ DeterminantMismatch DimensionMismatch DivergenceDetected IndexOutOfRange
InexactDivision InvalidFraction NewtonDivergence ParseError SingularPoint TorsionError
ZeroAtNegativeExponent ZeroParameter ZeroScale GroupRingElement TwoBridgeKnot Word
build_relator_word fox_derivative fractions_mirror_equivalent knot_determinant
longitude_word normalize_two_bridge metabelian_pairing LensSpace lens_torsion_magnitude
lens_torsion_multiset torus_F torus_P1_squared ComparisonVerdict InvariantRecord
compare_knots compute_invariants tau_multiset
""".split()

#: Names of the modules loaded on first use, each reached by its module path
#: only (``bridgetorsion.curve.evaluate_F``), never as a package attribute.
MODULE_PATH_ONLY = {
    "numerics": "LaurentPoly RingMatrix richardson_limit units_equal",
    "precision": "DOUBLE Precision",
    "reps": "Rep2 fox_image metabelian_pair metabelian_rep metabelian_u phi_map riley_images",
    "alexander": "TwistedAlexResult classical_alexander p_at_one p_polynomial "
                 "torus_twisted_alexander wada_twisted_alexander",
    "curve": "Jet2 RileyPoint continue_riley_curve evaluate_F riley_residual trace_longitude",
    "catalog": "run_catalog",
}


def _module_level_imports(name):
    """The package modules that module name imports outside any function."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.ImportFrom):
                module = child.module or ""
                if child.level == 0 and module.split(".")[0] != "bridgetorsion":
                    continue
                if child.level == 0:
                    module = module.partition(".")[2]
                if module:
                    found.add(module.split(".")[0])
                else:  # from . import a, b
                    found.update(alias.name for alias in child.names)
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    head, _, rest = alias.name.partition(".")
                    if head == "bridgetorsion" and rest:
                        found.add(rest.split(".")[0])
            visit(child)

    visit(ast.parse((PACKAGE / f"{name}.py").read_text()))
    return found


@pytest.mark.parametrize("name", sorted(VALUE_PATH))
def test_value_path_imports_only_the_value_path(name):
    assert _module_level_imports(name) <= VALUE_PATH, name


def _imports_of_exact(name):
    """The names module name imports from ``exact``, anywhere in it."""
    return {alias.name for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text()))
            if isinstance(node, ast.ImportFrom) and node.module in ("exact", "bridgetorsion.exact")
            for alias in node.names}


def test_only_pipeline_runs_the_exact_pass():
    # pipeline.knot_pass alone turns a failed pass into a value; catalog
    # and the acceptance suite call it, and catalog reads only the check
    importers = {name: _imports_of_exact(name) for name in sorted(VALUE_PATH | {"selfcheck"})}
    assert [name for name, names in importers.items() if "knot_elements" in names] == ["pipeline"]
    assert importers["catalog"] == {"checked_elements"} and importers["selfcheck"] == set()


def test_acceptance_suite_reads_no_curve():
    # criteria 3 and 7 read the exact pass; Wada's criteria, 2 and 8, are
    # the suite's only float references
    from bridgetorsion import selfcheck

    readers = _module_level_imports("selfcheck") & set(FLOAT_REFERENCES)
    assert readers == {"numerics", "reps", "alexander"}
    assert not {"evaluate_F", "riley_residual", "metabelian_u"} & vars(selfcheck).keys()


#: The parser tokens of a module past which CPython 3.11's compile peak
#: steps up about 0.25 MB; the benchmark runs without bytecode, so a module
#: that ``import bridgetorsion`` compiles would show it in ``peak_rss_mb``.
PARSER_TOKEN_STEP = 4096


def _significant_tokens(name):
    """The tokens of module name, comments, blank lines and the encoding
    left out."""
    with open(PACKAGE / f"{name}.py", "rb") as f:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
                   for tok in tokenize.tokenize(f.readline))


def test_imported_modules_stay_below_the_parser_token_step():
    # the modules ``import bridgetorsion`` compiles: the package and what
    # it imports at module level, transitively
    compiled, todo = set(), ["__init__"]
    while todo:
        name = todo.pop()
        if name not in compiled:
            compiled.add(name)
            todo.extend(_module_level_imports(name))
    assert compiled == {"__init__", "errors", "words", "exact", "oracles", "pipeline"}
    counts = {name: _significant_tokens(name) for name in sorted(compiled)}
    print(counts)
    assert {name: n for name, n in counts.items() if n >= PARSER_TOKEN_STEP} == {}


def test_no_module_imports_the_catalog():
    # the package registers catalog lazily; a module-level import would run it
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert "__init__" in modules and "catalog" in modules
    assert [name for name in modules if "catalog" in _module_level_imports(name)] == []


def test_package_keeps_every_export():
    missing = [name for name in EXPORTS if not hasattr(bridgetorsion, name)]
    assert missing == []
    assert bridgetorsion.metabelian_pairing is bridgetorsion.pipeline.metabelian_pairing


def test_star_import_brings_every_export():
    namespace = {}
    exec("from bridgetorsion import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(EXPORTS)


def test_lazy_module_names_have_one_spelling():
    # each name of a module loaded on first use is that module's own object,
    # and the package namespace has no second spelling of it
    for module, names in MODULE_PATH_ONLY.items():
        owner = getattr(bridgetorsion, module)
        for name in names.split():
            assert not hasattr(bridgetorsion, name), name
            value = getattr(owner, name)
            assert value.__module__ == owner.__name__ == f"bridgetorsion.{module}", name
    with pytest.raises(ImportError):
        exec("from bridgetorsion import evaluate_F", {})


#: Standard modules the package leaves unloaded until it needs them:
#: dataclasses pulls in inspect (and ast, dis, tokenize), hashlib loads
#: OpenSSL, which no command loads (the cache key takes the interpreter's
#: own SHA-256 module), tempfile only the cache writes and csv only the
#: catalog reader; pathlib pulls in urllib.parse, ipaddress and fnmatch.
UNLOADED = ("dataclasses", "inspect", "typing", "hashlib", "pathlib", "tempfile", "csv",
            "__future__")

_DIET = """
import sys
import bridgetorsion
from bridgetorsion import compare_knots, compute_invariants, normalize_two_bridge
a, b = normalize_two_bridge(7, 3), normalize_two_bridge(7, 5)
compute_invariants(a)
compare_knots(a, b)
print(" ".join(name for name in sys.argv[3:] if name in sys.modules))
bridgetorsion.catalog.run_catalog(sys.argv[1], None, sys.argv[2])
print("hashlib" in sys.modules or "_hashlib" in sys.modules, "tempfile" in sys.modules,
      "csv" in sys.modules)
"""


def test_import_loads_no_heavy_standard_module(tmp_path):
    # a fresh interpreter without site, which may preload typing
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text("7,3\n7,5\n")
    out = subprocess.run(
        [sys.executable, "-S", "-c", _DIET, str(csv_path), str(tmp_path / "cache"), *UNLOADED],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out == ["", "False True True"]


FLOAT_REFERENCES = ("numerics", "precision", "reps", "alexander", "curve", "selfcheck")
LAZY = (*FLOAT_REFERENCES, "catalog")

_FIRST_USE = """
import os
import sys

package = sys.argv[3]
ran = []


def hook(event, args):
    if event == "exec":
        filename = getattr(args[0], "co_filename", "")
        if os.path.dirname(filename) == package:
            ran.append(os.path.basename(filename)[:-3])


def report():
    print(" ".join(sorted(name for name in ran if name in sys.argv[4:])))


sys.addaudithook(hook)
import bridgetorsion
from bridgetorsion import *
report()
from bridgetorsion import cli, compare_knots, compute_invariants, normalize_two_bridge
a, b = normalize_two_bridge(7, 3), normalize_two_bridge(7, 5)
compute_invariants(a)
compare_knots(a, b)
assert cli.main(["invariants", "7/3", "--json"]) == 0
assert cli.main(["compare", "7/3", "7/5", "--json"]) == 0
report()
bridgetorsion.catalog.run_catalog(sys.argv[1], None, sys.argv[2])
report()
assert callable(bridgetorsion.numerics.LaurentPoly)
assert callable(bridgetorsion.alexander.wada_twisted_alexander)
from bridgetorsion.curve import riley_residual
assert riley_residual is bridgetorsion.curve.riley_residual
report()
"""


def test_value_path_runs_no_float_reference(tmp_path):
    # the float references and catalog sit in sys.modules from the start,
    # unexecuted; an audit hook sees each module's code run, on first use and
    # only once: a star import, computing and comparing run none of them, a
    # catalog run runs catalog alone
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text("7,3\n7,5\n")
    out = subprocess.run(
        [sys.executable, "-S", "-c", _FIRST_USE, str(csv_path), str(tmp_path / "cache"),
         str(PACKAGE), *LAZY],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0] == ""  # the star import
    assert out[-3:] == ["", "catalog", "alexander catalog curve numerics precision reps"]
