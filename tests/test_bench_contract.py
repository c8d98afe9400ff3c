"""The benchmark's workloads run against the program and pass their output checks.

``perfbench/workloads.py`` calls public ``heatnet`` names and compares each
step's outputs with ``perfbench/golden.json``. Running one step of every
workload here turns an API break or a changed output (a different edge
list, say) into a test failure. The module is loaded read-only: no
bytecode is written under ``perfbench/``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    old, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = old
    return module


@pytest.fixture(scope="module")
def golden():
    return json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["workloads"]


@pytest.mark.parametrize("variant", [0, 5])
@pytest.mark.parametrize("name", ["train-small", "explain-large", "slide-build"])
def test_workload_step_matches_golden(workloads, golden, tmp_path, name, variant):
    wl = workloads.WORKLOADS[name](variant, str(tmp_path))
    wl.setup()
    _, _, out = wl.step()
    assert wl.check(out, golden[name][str(variant)]) == []
