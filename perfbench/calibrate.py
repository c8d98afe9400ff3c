"""A fixed CPU kernel that measures how fast the host runs right now.

On a shared machine host speed can drift by a quarter or more within
minutes, and the wall time of every workload drifts with it. The
benchmark times this kernel next to every step and scales step times to
the host speed at which the kernel takes ``REFERENCE_S``. The kernel
mixes what the workloads spend time on: interpreter-bound loops over
small objects and dicts, exactly rounded sums, small numpy ops, a
mid-sized matrix product, row sorts, sets of index pairs and JSON text.
It uses no heatnet code, so no change to the program can move it. Do not
change it: that would rescale every time the benchmark reports.
"""

import json
import math
import time

import numpy as np

REFERENCE_S = 0.15


def _kernel() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(60000):
        key = (i * 7919) & 4095
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += math.sqrt(i + 1.0)
    acc += math.fsum(table.values())
    rng = np.random.default_rng(0)
    small = rng.standard_normal((24, 2))
    for _ in range(3000):
        ex = np.exp(small - small.max(axis=0))
        small = ex / ex.sum(axis=0) + small[::-1] * 0.5
        acc += math.fsum(small[:, 0].tolist())
    big = rng.standard_normal((400, 32))
    acc += float((big @ big.T).sum())
    doc = [{"id": i, "feat": big[i % 400, :8].tolist()} for i in range(900)]
    acc += len(json.loads(json.dumps(doc)))
    rows = rng.standard_normal((100, 4000))
    idx = np.arange(4000)
    for v in range(100):
        row = rows[v].copy()
        row[v] = -np.inf
        acc += float(np.lexsort((idx, -row))[0])
    pairs = {(v, (v * 7 + u) % 4000) for v in range(1500) for u in range(8)}
    edges = [{"src": a, "dst": b, "attr": [a * 1e-3]} for a, b in sorted(pairs)]
    acc += len(json.loads(json.dumps(edges)))
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
