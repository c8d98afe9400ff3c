"""Importing heatnet, and running commands that need no p-value, loads numpy but not scipy."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import sys
import heatnet
import heatnet.cli
from heatnet.metrics import metric_auc_macro
assert "scipy" not in sys.modules, "import"
metric_auc_macro([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]], [1, 0, 1])
assert "scipy" not in sys.modules, "metric_auc_macro"
assert heatnet.cli.main(["gradcheck", "--nodes", "4"]) == 0
assert "scipy" not in sys.modules, "gradcheck"
"""


def test_scipy_stays_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
