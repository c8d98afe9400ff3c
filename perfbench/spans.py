"""Span and call-count tracing of the public heatnet functions, from outside.

``Tracer.install()`` replaces every public function of every loaded
``heatnet`` module with a wrapper, on every binding a caller can look it up
through: the defining module, each module that imported it by name
(``from .hetgraph import remove_node``), and the package namespace. Calls
made through a module object (``ad.segment_softmax``) resolve to the
patched module attribute. ``uninstall()`` restores the originals.

Most wrappers record a span (name, start, end, parent) and a call count;
the hot, tiny functions listed in ``COUNT_ONLY`` only count, so that the
trace does not swamp the work it measures. A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# Every public autodiff op: their total is reported as ``autodiff.ops``.
AUTODIFF_OPS = (
    "add", "neg", "mul", "scale", "matmul", "transpose", "reshape", "concat",
    "gather_rows", "slice_cols", "reduce_sum", "reduce_mean", "mean_rows",
    "softmax_rows", "leaky_relu", "dropout", "cross_entropy",
    "segment_softmax", "segment_reduce",
)
# Ops heavy enough to earn a span; the rest only count.
SPANNED_OPS = ("segment_softmax", "segment_reduce")
COUNT_ONLY = {f"autodiff.{op}" for op in AUTODIFF_OPS if op not in SPANNED_OPS} | {
    "builder.pearson_edge_attr",
    "builder.majority_vote_type",
    "seeding.rng_for",
    "hetgraph.HeteroGraph.pos",
}
# Context managers and checkers a timed region never calls as work.
SKIP = {"autodiff.no_grad", "autodiff.grad_check"}
# Public methods worth tracing; module-level functions are found by scanning.
METHODS = (
    ("model", "Model", "forward"),
    ("model", "Model", "loss"),
    ("model", "Model", "predict_proba"),
    ("hetgraph", "HeteroGraph", "pos"),
)


def _heatnet_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "heatnet" or name.startswith("heatnet."))]


class Tracer:
    """Collects spans, counts and the knn/explain probes for one traced run."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self.knn = {"pairs": 0, "kept": 0, "peak_bytes": 0}
        self.explain = {"forward_evals": 0, "nodes": 0}

    # -- recording ------------------------------------------------------------
    def _enter(self, name: str) -> tuple[int, float]:
        self.calls[name] += 1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._child.append(0.0)
        return idx, time.perf_counter()

    def _exit(self, name: str, idx: int, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        child = self._child.pop()
        dur = t1 - t0
        self.self_s[name] += dur - child
        if self._child:
            self._child[-1] += dur
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, t0, t1, parent, child)

    @contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself around a timed step."""
        idx, t0 = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, idx, t0)

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, t0 = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, idx, t0)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls
        is_op = name.startswith("autodiff.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if is_op:
                calls["autodiff.ops"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _knn_probe(self, fn):
        """Peak traced memory, pairs scored and edges kept by knn_edges."""
        @functools.wraps(fn)
        def probe(features, k, *args, **kwargs):
            tracemalloc.start()
            try:
                out = fn(features, k, *args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            n = len(features)
            self.knn["pairs"] += n * (n - 1)
            self.knn["kept"] += len(out)
            self.knn["peak_bytes"] = max(self.knn["peak_bytes"], peak)
            return out
        return probe

    def _explain_probe(self, fn):
        @functools.wraps(fn)
        def probe(model, g, *args, **kwargs):
            out = fn(model, g, *args, **kwargs)
            self.explain["forward_evals"] += out.n_forward_evals
            self.explain["nodes"] += g.n_nodes
            return out
        return probe

    def _wrap(self, name: str, fn):
        if name == "builder.knn_edges":
            fn = self._knn_probe(fn)
        elif name == "explain.explain_graph":
            fn = self._explain_probe(fn)
        if name in COUNT_ONLY:
            return self._count_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _heatnet_modules()
        wrappers: dict[int, tuple[object, object]] = {}
        for mod in modules:
            short = mod.__name__.removeprefix("heatnet.")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or f"{short}.{attr}" in SKIP):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"heatnet.{mod_name}"], cls_name)
            orig = cls.__dict__[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{mod_name}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- summaries ------------------------------------------------------------
    def coverage(self, top: str) -> float:
        """Share of the ``top`` spans' time covered by their direct children."""
        total = covered = 0.0
        for span in self.spans:
            if span is not None and span[0] == top:
                total += span[2] - span[1]
                covered += span[4]
        return covered / total if total else 0.0

    def dump_spans(self, path) -> None:
        """Write spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    name, t0, t1, parent, _ = span
                    fh.write(json.dumps([name, t0, t1, parent]) + "\n")
