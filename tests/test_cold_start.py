"""Importing heatnet, and running commands that need no p-value or worker
processes, loads numpy but not scipy or multiprocessing."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import sys
import heatnet
import heatnet.cli
from heatnet.metrics import metric_auc_macro

HEAVY = ("scipy", "multiprocessing", "concurrent.futures.process")

def loaded():
    return [name for name in HEAVY if name in sys.modules]

assert not loaded(), ("import", loaded())
metric_auc_macro([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]], [1, 0, 1])
assert not loaded(), ("metric_auc_macro", loaded())
assert heatnet.cli.main(["gradcheck", "--nodes", "4"]) == 0
assert not loaded(), ("gradcheck", loaded())
"""


def test_scipy_and_multiprocessing_stay_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
