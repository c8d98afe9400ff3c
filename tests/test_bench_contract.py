"""The benchmark's workloads run against the program and pass their output checks.

``perfbench/workloads.py`` calls public ``heatnet`` names and compares each
step's outputs with ``perfbench/golden.json``. Running one step of every
workload here turns an API break or a changed output (a different edge
list, say) into a test failure. One small step of each under the tracer
of ``perfbench/spans.py`` (``--trace 1``) turns a renamed function or
method that the tracer patches into a test failure too. The modules are
loaded read-only: no bytecode is written under ``perfbench/``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    old, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = old
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


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


def test_traced_small_steps_pass_their_checks_and_uninstall_restores(workloads, spans,
                                                                     tmp_path):
    import heatnet
    from heatnet import explain, model
    forward, explain_graph = model.Model.forward, explain.explain_graph
    steps = [cls(0, str(tmp_path), small=True) for cls in workloads.WORKLOADS.values()]
    for wl in steps:
        wl.setup()
    tracer = spans.Tracer()
    try:   # a failed install still restores what it patched
        tracer.install()
        outs = [wl.step()[2] for wl in steps]
    finally:
        tracer.uninstall()
    assert tracer.calls["model.Model.forward"] > 0
    assert tracer.calls["explain.explain_graph"] == 1
    for wl, out in zip(steps, outs):
        assert wl.check(out, None) == [], wl.name
    assert model.Model.forward is forward
    assert explain.explain_graph is explain_graph and heatnet.explain_graph is explain_graph
