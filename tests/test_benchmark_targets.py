"""The traced benchmark (``perfbench/run.py --trace 1``) wraps program
functions it names in ``perfbench/measure.py`` ``TARGETS``; a deleted or
renamed function would break it, so every name there must resolve, and
the counters its ``_EXTRA`` readers take off their results must read."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

from bridgetorsion.pipeline import cached_invariant_report, knot_report, serialize_report
from bridgetorsion.words import normalize_two_bridge

ROOT = pathlib.Path(__file__).resolve().parents[1]
MEASURE = ROOT / "perfbench" / "measure.py"


def _measure():
    spec = importlib.util.spec_from_file_location("perfbench_measure", MEASURE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _measure().TARGETS


def test_trace_targets_resolve():
    targets = _targets()
    assert targets
    for name, module, attr, _ in targets:
        owner = importlib.import_module(f"bridgetorsion.{module}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: bridgetorsion.{module} has no {attr}"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_extra_readers_read_real_results(tmp_path):
    # "hits" reads int(result[1]) of cached_invariant_report: 0 on a miss,
    # 1 on a hit; "bytes" reads len of serialize_report's result
    extra = _measure()._EXTRA
    knot = normalize_two_bridge(5, 3)
    cache = str(tmp_path / "cache")
    miss = cached_invariant_report(knot, cache)
    assert extra["hits"](miss) == 0
    assert extra["hits"](cached_invariant_report(knot, cache)) == 1
    assert extra["bytes"](serialize_report(knot_report(knot, miss[2]))) > 0


_TRACER_PROBE = """
import sys
import bridgetorsion
from bridgetorsion import pipeline
from measure import Tracer

def attributes():
    out = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("bridgetorsion"):
            for key, value in vars(module).items():
                out[name, key] = value
                if isinstance(value, type):
                    out.update(((name, key, k), v) for k, v in vars(value).items())
    return out

before, original = attributes(), pipeline.compute_invariants
tracer = Tracer()
tracer.install()
assert pipeline.compute_invariants is not original
tracer.uninstall()
after = attributes()
assert after.keys() == before.keys()
assert [key for key, value in before.items() if after[key] is not value] == []
assert pipeline.compute_invariants is original
print("restored")
"""


def test_tracer_installs_on_the_package():
    # in a fresh interpreter that has imported only the package, the tracer
    # finds every module it patches, and uninstall puts every attribute back
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _TRACER_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "restored"


_ROW_PROBE = """
import sys
import bridgetorsion
from bridgetorsion import pipeline
from measure import Tracer
from workloads import ROW_TARGET

(name, _, _, _), = ROW_TARGET
for run in ("cold", "warm"):
    with Tracer(ROW_TARGET) as rows:
        pipeline.run_catalog(sys.argv[1], None, sys.argv[2])
    print(run, len(rows.durations(name)), rows.counters.get(name + ".hits", 0))
"""


def test_row_spans_reach_the_catalog(tmp_path):
    # the untraced catalog pass times its rows from ROW_TARGET's spans around
    # pipeline.cached_invariant_report, which catalog, loaded on first use,
    # holds: in a fresh interpreter that has imported only the package, each
    # valid row gives one span, and on the warm run one hit
    csv_path = tmp_path / "knots.csv"
    csv_path.write_text("p,q\n7,3\n7,5\nx,1\n4,1\n5,3\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _ROW_PROBE, str(csv_path), str(tmp_path / "cache")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["cold 3 0", "warm 3 3"]
