"""The traced benchmark (``perfbench/run.py --trace 1``) wraps program
functions it names in ``perfbench/measure.py`` ``TARGETS``; a deleted or
renamed function would break it, so every name there must resolve."""

import importlib
import importlib.util
import pathlib

MEASURE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "measure.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_measure", MEASURE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_trace_targets_resolve():
    targets = _targets()
    assert targets
    for name, module, attr, _ in targets:
        owner = importlib.import_module(f"bridgetorsion.{module}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: bridgetorsion.{module} has no {attr}"
            owner = getattr(owner, part)
        assert callable(owner), name
