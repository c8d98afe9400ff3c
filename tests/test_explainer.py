"""Leave-one-node-out attribution and heatmap export."""

import csv
import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import from_lists
from heatnet import autodiff as ad, explain, hetgraph, model as model_module
from heatnet.builder import BuildConfig, PatchRecord, build_graph
from heatnet.errors import AttributionError, ExportError, GraphValidationError
from heatnet.hetgraph import DEFAULT_TYPES, HeteroGraph, TypeSet
from heatnet.explain import (
    causal_contribution,
    explain_graph,
    export_heatmap,
    top_k_ids,
)
from heatnet.model import Model, ModelConfig
from heatnet.seeding import rng_for
from heatnet.testing import random_labeled_graph

TYPES3 = TypeSet(DEFAULT_TYPES.names[:3])


def parse_heatmap_csv(path):
    """Read back (node_id, x, y, delta) rows; the format is lossless."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["node_id", "x", "y", "delta"]
        return [(int(r[0]), int(r[1]), int(r[2]), float(r[3])) for r in reader]


def make_model(seed=0, feature_dim=4):
    cfg = ModelConfig(feature_dim=feature_dim, types=TYPES3.names, hidden_dim=4,
                      heads=2, n_layers=2, dropout=0.0)
    return Model.init(cfg, rng_for(seed, "init"))


class TestCausalContribution:
    def test_constant_model_gives_zero_everywhere(self):
        rng = np.random.default_rng(0)
        g = random_labeled_graph(rng, TYPES3, n_nodes=6, feature_dim=4)
        model = make_model()
        model.pool.classifier_w.data = np.zeros_like(model.pool.classifier_w.data)
        for nid in g.node_ids:
            assert causal_contribution(model, g, g.label, nid) == 0.0

    def test_duplicate_nodes_share_delta(self):
        # two nodes with identical type, feature, and (self-loop) edges are
        # exchangeable under mean aggregation
        feat = [1.0, -0.5, 2.0, 0.3]
        other = [0.2, 0.1, -1.0, 0.8]
        g = from_lists(
            TYPES3,
            nodes=[(0, "neoplastic", feat), (1, "neoplastic", feat),
                   (2, "inflammatory", other)],
            edges=[(0, 0, [1.0]), (1, 1, [1.0]), (2, 2, [1.0]),
                   (0, 2, [0.5]), (2, 0, [0.5]), (1, 2, [0.5]), (2, 1, [0.5])],
            label=1,
        )
        model = make_model(seed=1)
        d0 = causal_contribution(model, g, 1, 0)
        d1 = causal_contribution(model, g, 1, 1)
        assert d0 == pytest.approx(d1, abs=1e-12)

    def test_single_node_graph_rejected(self):
        g = from_lists(TYPES3, nodes=[(0, "neoplastic", [1.0, 0.0, 0.0, 0.0])],
                       edges=[(0, 0, [1.0])], label=0)
        with pytest.raises(AttributionError):
            causal_contribution(make_model(), g, 0, 0)


class TestExplainGraph:
    def test_single_node_graph_yields_error_entry(self):
        g = from_lists(TYPES3, nodes=[(0, "neoplastic", [1.0, 0.0, 0.0, 0.0])],
                       edges=[(0, 0, [1.0])], label=0)
        attr = explain_graph(make_model(), g)
        assert len(attr.entries) == 1
        assert attr.entries[0].error is not None
        assert attr.entries[0].delta is None
        assert attr.n_forward_evals == 1

    def test_eval_count_is_nodes_plus_one(self):
        rng = np.random.default_rng(1)
        g = random_labeled_graph(rng, TYPES3, n_nodes=9, feature_dim=4)
        attr = explain_graph(make_model(seed=2), g)
        assert attr.n_forward_evals == 10
        assert len(attr.entries) == 9

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        g = random_labeled_graph(rng, TYPES3, n_nodes=6, feature_dim=4)
        model = make_model(seed=3)
        a = explain_graph(model, g)
        b = explain_graph(model, g)
        assert [(e.node_id, e.delta) for e in a.entries] == \
               [(e.node_id, e.delta) for e in b.entries]

    def test_matches_naive_per_node_recomputation(self):
        rng = np.random.default_rng(3)
        g = random_labeled_graph(rng, TYPES3, n_nodes=10, feature_dim=4)
        model = make_model(seed=4)
        attr = explain_graph(model, g)
        by_id = {e.node_id: e.delta for e in attr.entries}
        for nid in g.node_ids:
            assert by_id[nid] == causal_contribution(model, g, g.label, nid)

    def test_sorted_by_descending_magnitude(self):
        rng = np.random.default_rng(4)
        g = random_labeled_graph(rng, TYPES3, n_nodes=8, feature_dim=4)
        attr = explain_graph(make_model(seed=5), g)
        mags = [abs(e.delta) for e in attr.entries]
        assert mags == sorted(mags, reverse=True)

    def test_invariant_to_node_relabeling(self):
        rng = np.random.default_rng(5)
        g = random_labeled_graph(rng, TYPES3, n_nodes=7, feature_dim=4)
        model = make_model(seed=6)
        base = {e.node_id: e.delta for e in explain_graph(model, g).entries}

        offset = 100
        relabeled = HeteroGraph(
            types=g.types,
            node_ids=tuple(nid + offset for nid in g.node_ids),
            node_types=g.node_types,
            features=g.features,
            edge_src=g.edge_src + offset,
            edge_dst=g.edge_dst + offset,
            edge_attrs=g.edge_attrs,
            label=g.label,
            coords=g.coords)
        shifted = {e.node_id: e.delta for e in explain_graph(model, relabeled).entries}
        for nid, delta in base.items():
            assert shifted[nid + offset] == delta


@st.composite
def explain_graphs(draw, self_loops=True):
    """Graphs with scattered, unsorted ids, shuffled edges and one-node types.

    Node 0's type has no other node, so removing node 0 removes the last
    node of a type. Without self-loops, a cycle gives every node an incoming
    edge and node 0 keeps only its cycle edge, so some removal strips a node
    of its last incoming edge.
    """
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    types = rng.integers(1, len(DEFAULT_TYPES), size=n)
    types[0] = 0
    if self_loops:
        pairs = {(i, i) for i in range(n)}
    else:
        cycle = rng.permutation(n)
        pairs = {(int(cycle[i - 1]), int(cycle[i])) for i in range(n)}
    density = draw(st.sampled_from([0.0, 0.2, 0.6]))
    pairs |= {(s, t) for s in range(n) for t in range(1, n)
              if s != t and rng.random() < density}
    pairs = sorted(pairs)
    perm = rng.permutation(len(pairs))
    ids = np.asarray(draw(st.lists(st.integers(-500, 500), min_size=n, max_size=n,
                                   unique=True)), dtype=np.intp)
    return HeteroGraph(
        types=DEFAULT_TYPES, node_ids=tuple(ids.tolist()), node_types=types,
        features=rng.standard_normal((n, 4)),
        edge_src=ids[[pairs[i][0] for i in perm]], edge_dst=ids[[pairs[i][1] for i in perm]],
        edge_attrs=rng.uniform(-1.0, 1.0, size=(len(pairs), 2)),
        label=int(rng.integers(2)))


EXPLAIN_CONFIGS = {
    "default": {},
    "sum-aggregation": {"aggregation": "sum"},
    "heads4-dk2": {"heads": 4},
    "type-blind": {"type_blind": True, "pooling": "mean"},   # baseline_config
    "one-layer": {"n_layers": 1},
    "three-layers": {"n_layers": 3},
}


class TestBitEqualToLeaveOneOut:
    """explain_graph's cached, local recompute equals causal_contribution bit for bit."""

    @staticmethod
    def model(name, seed):
        cfg = ModelConfig(feature_dim=4, edge_attr_dim=2, hidden_dim=8, dropout=0.0,
                          **EXPLAIN_CONFIGS[name])
        return Model.init(cfg, rng_for(seed, "init"))

    @pytest.mark.parametrize("name", EXPLAIN_CONFIGS)
    @settings(max_examples=25, deadline=None)
    @given(g=explain_graphs(), seed=st.integers(0, 1000))
    def test_every_delta(self, name, g, seed):
        model = self.model(name, seed)
        attr = explain_graph(model, g)
        assert attr.n_forward_evals == g.n_nodes + 1
        deltas = {e.node_id: e.delta for e in attr.entries}
        for nid in g.node_ids:
            assert deltas[nid] == causal_contribution(model, g, g.label, nid), nid

    @pytest.mark.parametrize("name", EXPLAIN_CONFIGS)
    @settings(max_examples=10, deadline=None)
    @given(g=explain_graphs(), seed=st.integers(0, 1000))
    def test_every_delta_through_the_fallback(self, name, g, seed):
        # With the type sums' expansion reported as having no grid, every
        # removal runs the definition's forward.
        model = self.model(name, seed)
        with mock.patch.object(ad, "_segment_expansion", lambda xs, runs: None):
            attr = explain_graph(model, g)
        deltas = {e.node_id: e.delta for e in attr.entries}
        for nid in g.node_ids:
            assert deltas[nid] == causal_contribution(model, g, g.label, nid), nid

    @settings(max_examples=40, deadline=None)
    @given(g=explain_graphs(self_loops=False), seed=st.integers(0, 1000))
    def test_stranding_removal_fails_like_leave_one_out(self, g, seed):
        model = self.model("default", seed)
        first_error = None
        for nid in g.node_ids:
            try:
                causal_contribution(model, g, g.label, nid)
            except GraphValidationError as exc:
                first_error = str(exc)
                break
        assert first_error is not None
        with pytest.raises(GraphValidationError) as exc:
            explain_graph(model, g)
        assert str(exc.value) == first_error


def test_one_forward_and_no_graph_copies(monkeypatch):
    rng = np.random.default_rng(11)
    g = random_labeled_graph(rng, TYPES3, n_nodes=64, feature_dim=4, extra_edge_prob=0.05)
    model = make_model(seed=12)
    calls = {"forward": 0, "remove_node": 0}
    forward, remove = Model.forward, hetgraph.remove_node

    def counting_forward(self, *args, **kwargs):
        calls["forward"] += 1
        return forward(self, *args, **kwargs)

    def counting_remove(*args, **kwargs):
        calls["remove_node"] += 1
        return remove(*args, **kwargs)

    monkeypatch.setattr(Model, "forward", counting_forward)
    monkeypatch.setattr(hetgraph, "remove_node", counting_remove)
    monkeypatch.setattr(explain, "remove_node", counting_remove)
    attr = explain_graph(model, g)
    assert calls == {"forward": 1, "remove_node": 0}
    assert attr.n_forward_evals == 65


def test_stranding_graph_fails_after_two_forwards(monkeypatch):
    # Node 10 keeps one incoming edge, from the last node: removing that node
    # strands it, and every other node keeps its self-loop.
    rng = np.random.default_rng(11)
    g = random_labeled_graph(rng, TYPES3, n_nodes=64, feature_dim=4, extra_edge_prob=0.05)
    keep = g.edge_dst != 10
    g = HeteroGraph(types=g.types, node_ids=g.node_ids, node_types=g.node_types,
                    features=g.features, edge_src=np.append(g.edge_src[keep], 63),
                    edge_dst=np.append(g.edge_dst[keep], 10),
                    edge_attrs=np.append(g.edge_attrs[keep], [[0.5]], axis=0), label=g.label)
    model = make_model(seed=12)
    first_error = None
    for nid in g.node_ids:
        try:
            causal_contribution(model, g, g.label, nid)
        except GraphValidationError as exc:
            first_error = str(exc)
            break
    assert nid == 63 and first_error is not None
    calls = 0
    forward = Model.forward

    def counting_forward(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(Model, "forward", counting_forward)
    with pytest.raises(GraphValidationError) as exc:
        explain_graph(model, g)
    assert str(exc.value) == first_error
    assert calls <= 2


def test_explain_work_grows_linearly_with_the_graph(monkeypatch):
    # Rows summed by the segment kernel over one explain_graph on kNN patch
    # graphs (k = 4, 8-d features, six types): O(n * region), not O(n^2).
    rows = []
    fsum = ad._segment_fsum

    def counting(xs, runs, **kwargs):
        rows[-1] += len(xs)
        return fsum(xs, runs, **kwargs)

    monkeypatch.setattr(ad, "_segment_fsum", counting)
    model = Model.init(ModelConfig(feature_dim=8), 1000)
    for n in (256, 1024):
        rng = np.random.default_rng([0, n])
        width = math.isqrt(n - 1) + 1
        patches = [PatchRecord(str(i), i % width, i // width, rng.standard_normal(8),
                               type_label=DEFAULT_TYPES.names[int(rng.integers(6))])
                   for i in range(n)]
        g = dataclasses.replace(build_graph(patches, BuildConfig(k=4)), label=1)
        rows.append(0)
        explain_graph(model, g)
    assert rows[1] <= 6 * rows[0], rows


def test_one_batch_per_explain_graph(monkeypatch):
    # the full forward and the removal recompute share one batch layout
    rng = np.random.default_rng(13)
    graphs = [random_labeled_graph(rng, TYPES3, n_nodes=n, feature_dim=4) for n in (1, 2, 9)]
    model = make_model(seed=14)
    calls = []
    batch = hetgraph.batch_graphs

    def counting_batch(graphs):
        calls.append(len(graphs))
        return batch(graphs)

    for module in (hetgraph, model_module, explain):
        if hasattr(module, "batch_graphs"):
            monkeypatch.setattr(module, "batch_graphs", counting_batch)
    for g in graphs:
        calls.clear()
        explain_graph(model, g)
        assert calls == [1], g.n_nodes


class TestExport:
    def make_attr(self, seed=6, n_nodes=6):
        rng = np.random.default_rng(seed)
        g = random_labeled_graph(rng, TYPES3, n_nodes=n_nodes, feature_dim=4)
        return explain_graph(make_model(seed=7), g, graph_id="g0", model_id="m0")

    def test_round_trip_recovers_identical_deltas(self, tmp_path):
        attr = self.make_attr()
        csv_path = tmp_path / "heat.csv"
        export_heatmap(attr, csv_path, tmp_path / "heat.json")
        rows = parse_heatmap_csv(csv_path)
        scored = [e for e in attr.entries if e.delta is not None]
        assert [(r[0], r[3]) for r in rows] == [(e.node_id, e.delta) for e in scored]

    def test_top_k_ids_match_csv_order(self, tmp_path):
        attr = self.make_attr(seed=7)
        csv_path = tmp_path / "heat.csv"
        json_path = tmp_path / "heat.json"
        export_heatmap(attr, csv_path, json_path, top_k=3)
        summary = json.loads(json_path.read_text())
        rows = parse_heatmap_csv(csv_path)
        assert summary["top_k"] == [r[0] for r in rows[:3]]
        assert summary["min"] == min(r[3] for r in rows)
        assert summary["max"] == max(r[3] for r in rows)

    def test_missing_coordinates_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        g = random_labeled_graph(rng, TYPES3, n_nodes=4, feature_dim=4, with_coords=False)
        attr = explain_graph(make_model(seed=8), g)
        with pytest.raises(ExportError) as exc:
            export_heatmap(attr, tmp_path / "x.csv")
        assert "0" in str(exc.value)

    def test_header_only_for_empty_attribution(self, tmp_path):
        from heatnet.explain import Attribution
        empty = Attribution(graph_id=None, model_id=None, label=0, full_loss=0.0,
                            entries=(), n_forward_evals=1)
        csv_path = tmp_path / "empty.csv"
        export_heatmap(empty, csv_path, tmp_path / "empty.json")
        assert csv_path.read_text().strip() == "node_id,x,y,delta"

    def test_top_k_helper(self):
        attr = self.make_attr(seed=9)
        ids = top_k_ids(attr, 2)
        assert len(ids) == 2
        assert ids[0] == attr.entries[0].node_id
