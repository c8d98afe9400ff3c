"""The three benchmark workloads: inputs, the timed step, and output checks.

Each workload builds its inputs from an input variant (the workload seed
modulo ``N_VARIANTS``), runs one closed-loop caller with ``jobs=1`` that
makes each call only after the previous one returned, and checks every
step's outputs. Expected outputs for every variant were recorded on the
seed commit in ``golden.json`` (see ``record_golden.py``); checks compare
against them and against invariants that need no recording.

All calls into the program go through public ``heatnet`` names looked up
at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import replace

import numpy as np

import heatnet as hn
from heatnet.builder import BuildConfig, PatchRecord
from heatnet.hetgraph import DEFAULT_TYPE_NAMES
from heatnet.model import ModelConfig
from heatnet.seeding import rng_for
from heatnet.synth import SyntheticSpec
from heatnet.train import TrainConfig, kfold_split

N_VARIANTS = 32

# Loss logs may move by reordered float sums in later commits; a real bug
# moves them by far more than this.
LOSS_RTOL = 1e-6
AUC_ATOL = 0.02
DELTA_RTOL = 1e-6
PEARSON_ATOL = 1e-12


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol * 1e-3)


class TrainSmall:
    """Fold 0 of the c06 recipe, trained for a fixed number of epochs."""

    name = "train-small"
    top_span = "train.train"

    def __init__(self, variant: int, scratch: str, small: bool = False):
        self.seed = 42 + variant          # variant 0 is exactly the c06 data
        self.n_graphs = 20 if small else 200
        self.epochs = 1 if small else 3
        self.spec = SyntheticSpec(n_nodes=(10, 16), feature_dim=8, rule="interaction",
                                  theta=0.8, build=BuildConfig(k=3))
        self.model_cfg = ModelConfig(feature_dim=8, hidden_dim=8, heads=2, n_layers=2,
                                     dropout=0.2)
        # patience == max_epochs: epoch 1 always improves on inf, so early
        # stopping can never cut a call short.
        self.train_cfg = TrainConfig(learning_rate=3e-3, weight_decay=1e-5,
                                     max_epochs=self.epochs, batch_size=2,
                                     patience=self.epochs, folds=5, seed=self.seed,
                                     dropout=0.2)

    def setup(self) -> None:
        ds = hn.synth_generate(self.spec, self.n_graphs, self.seed)
        train_idx, val_idx, _ = kfold_split(list(range(self.n_graphs)), 5, self.seed)[0]
        self.train_graphs = [ds.graphs[i] for i in train_idx]
        self.val_graphs = [ds.graphs[i] for i in val_idx]

    def step(self):
        model = hn.Model.init(self.model_cfg, rng_for(self.seed, "init", 0))
        t0 = time.perf_counter()
        result = hn.train(self.train_graphs, self.val_graphs, model, self.train_cfg,
                          deterministic=True)
        wall = time.perf_counter() - t0
        return self.epochs, {"train_epoch_s": wall / self.epochs}, result

    def digest(self, result) -> dict:
        return {"log": [[r.train_loss, r.val_loss, r.val_auc] for r in result.log]}

    def check(self, result, golden: dict | None) -> list[str]:
        bad = []
        if result.aborted:
            bad.append("training aborted")
        if len(result.log) != self.epochs:
            bad.append(f"ran {len(result.log)} epochs, expected {self.epochs}")
        for r in result.log:
            if not (math.isfinite(r.train_loss) and math.isfinite(r.val_loss)):
                bad.append(f"non-finite loss at epoch {r.epoch}")
        if golden is not None:
            for r, (tl, vl, auc) in zip(result.log, golden["log"]):
                if not (_close(r.train_loss, tl, LOSS_RTOL) and _close(r.val_loss, vl, LOSS_RTOL)):
                    bad.append(f"epoch {r.epoch} losses {r.train_loss!r}/{r.val_loss!r} "
                               f"differ from recorded {tl!r}/{vl!r}")
                if abs(r.val_auc - auc) > AUC_ATOL:
                    bad.append(f"epoch {r.epoch} val_auc {r.val_auc!r} differs from recorded {auc!r}")
        return bad


class ExplainLarge:
    """Leave-one-node-out attribution of one 256-node graph."""

    name = "explain-large"
    top_span = "explain.explain_graph"
    TOP_K = 10
    N_SAMPLED = 3

    def __init__(self, variant: int, scratch: str, small: bool = False):
        self.variant = variant
        self.n_nodes = 24 if small else 256
        self.k = 4

    def setup(self) -> None:
        rng = np.random.default_rng([self.variant, 256])
        width = int(math.isqrt(self.n_nodes - 1)) + 1
        patches = [PatchRecord(str(i), i % width, i // width, rng.standard_normal(8),
                               type_label=DEFAULT_TYPE_NAMES[int(rng.integers(6))])
                   for i in range(self.n_nodes)]
        self.graph = replace(hn.build_graph(patches, BuildConfig(k=self.k)), label=1)
        self.model = hn.Model.init(ModelConfig(feature_dim=8), rng=1000 + self.variant)
        self._pick = np.random.default_rng([self.variant, 257])

    def step(self):
        t0 = time.perf_counter()
        attr = hn.explain_graph(self.model, self.graph)
        return 1, {"explain_s": time.perf_counter() - t0}, attr

    def digest(self, attr) -> dict:
        top = [e for e in attr.entries if e.delta is not None][:self.TOP_K + 1]
        return {"full_loss": attr.full_loss,
                "top_ids": [e.node_id for e in top[:self.TOP_K]],
                "top_deltas": [e.delta for e in top[:self.TOP_K]],
                # |delta| gap between ranks k and k+1: shows the recorded
                # top-k is no near-tie that float reordering could flip.
                "margin": abs(top[self.TOP_K - 1].delta) - abs(top[self.TOP_K].delta)}

    def check(self, attr, golden: dict | None) -> list[str]:
        bad = []
        n = self.graph.n_nodes
        if attr.n_forward_evals != n + 1:
            bad.append(f"{attr.n_forward_evals} forward evaluations, expected {n + 1}")
        deltas = {e.node_id: e.delta for e in attr.entries}
        if sorted(deltas) != sorted(self.graph.node_ids) or None in deltas.values():
            bad.append("attribution does not score every node")
            return bad
        # Bit equality with the unbatched definition, on a few sampled nodes.
        for nid in self._pick.choice(self.graph.node_ids, self.N_SAMPLED, replace=False).tolist():
            ref = hn.causal_contribution(self.model, self.graph, attr.label, nid)
            if ref != deltas[nid]:
                bad.append(f"node {nid}: delta {deltas[nid]!r} != causal_contribution {ref!r}")
        if golden is not None:
            got = self.digest(attr)
            if got["top_ids"] != golden["top_ids"]:
                bad.append(f"top-{self.TOP_K} ids {got['top_ids']} != recorded {golden['top_ids']}")
            for d, ref in zip(got["top_deltas"], golden["top_deltas"]):
                if not _close(d, ref, DELTA_RTOL):
                    bad.append(f"top delta {d!r} differs from recorded {ref!r}")
            if not _close(attr.full_loss, golden["full_loss"], LOSS_RTOL):
                bad.append(f"full loss {attr.full_loss!r} != recorded {golden['full_loss']!r}")
        return bad


class SlideBuild:
    """The build-graph path on a patch table, then load_graph on its output."""

    name = "slide-build"
    top_span = "bench.step"

    def __init__(self, variant: int, scratch: str, small: bool = False):
        self.variant = variant
        self.n_patches = 200 if small else 4000
        self.dim = 32
        self.build_cfg = BuildConfig(k=8, metric="cosine")
        self.table = os.path.join(scratch, "patches.jsonl")
        self.graph_path = os.path.join(scratch, "graph.json")

    def setup(self) -> None:
        rng = np.random.default_rng([self.variant, 4000])
        width = 64
        with open(self.table, "w", encoding="utf-8") as fh:
            for i in range(self.n_patches):
                rec = {"id": f"p{i:05d}", "x": i % width, "y": i // width,
                       "type": DEFAULT_TYPE_NAMES[int(rng.integers(6))],
                       "feat": rng.standard_normal(self.dim).tolist()}
                fh.write(json.dumps(rec) + "\n")

    def step(self):
        t0 = time.perf_counter()
        patches = hn.load_patch_table(self.table)
        g = hn.build_graph(patches, self.build_cfg)
        hn.save_graph(g, self.graph_path)
        t1 = time.perf_counter()
        loaded = hn.load_graph(self.graph_path)
        t2 = time.perf_counter()
        return 1, {"build_s": t1 - t0, "load_s": t2 - t1}, (g, loaded)

    @staticmethod
    def _edge_digest(g) -> str:
        pairs = np.stack([g.edge_src, g.edge_dst]).astype("<i8")
        return hashlib.sha256(pairs.tobytes()).hexdigest()

    def digest(self, out) -> dict:
        g, _ = out
        return {"n_edges": g.n_edges, "edges_sha256": self._edge_digest(g),
                "attr_fsum": math.fsum(g.edge_attrs[:, 0].tolist())}

    def check(self, out, golden: dict | None) -> list[str]:
        g, loaded = out
        bad = []
        if loaded != g:
            bad.append("load_graph(save_graph(g)) != g")
        # Pearson attributes against a vectorized recomputation.
        centered = g.features - g.features.mean(axis=1, keepdims=True)
        norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
        src = np.asarray([g.pos(int(s)) for s in g.edge_src])
        dst = np.asarray([g.pos(int(t)) for t in g.edge_dst])
        r = np.einsum("ij,ij->i", centered[src], centered[dst]) / (norms[src] * norms[dst])
        r = np.where(src == dst, 1.0, np.clip(r, -1.0, 1.0))
        err = float(np.max(np.abs(r - g.edge_attrs[:, 0]))) if g.n_edges else 0.0
        if err > PEARSON_ATOL:
            bad.append(f"Pearson attributes differ from recomputation by {err:.3g}")
        if golden is not None:
            got = self.digest(out)
            if got["n_edges"] != golden["n_edges"] or got["edges_sha256"] != golden["edges_sha256"]:
                bad.append(f"edge list ({got['n_edges']} edges) differs from the recorded one "
                           f"({golden['n_edges']} edges)")
            if not _close(got["attr_fsum"], golden["attr_fsum"], 1e-9):
                bad.append(f"attribute sum {got['attr_fsum']!r} != recorded {golden['attr_fsum']!r}")
        return bad


WORKLOADS = {w.name: w for w in (TrainSmall, ExplainLarge, SlideBuild)}
