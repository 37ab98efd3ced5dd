"""The traced benchmark (``perfbench/run.py --trace 1``) wraps program
functions it names in ``perfbench/measure.py`` ``TARGETS``; a deleted or
renamed function would break it, so every name there must resolve, and
the counters its ``_EXTRA`` readers take off their results must read."""

import importlib
import importlib.util
import pathlib

from bridgetorsion.pipeline import cached_invariant_report, knot_report, serialize_report
from bridgetorsion.words import normalize_two_bridge

MEASURE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "measure.py"


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
