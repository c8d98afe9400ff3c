"""Per-type pooling, classification head, and full model forward."""

import tracemalloc

import numpy as np
import pytest

from _reference import from_lists, ref_model_forward, ref_pl_pool
from heatnet import autodiff as ad
from heatnet.autodiff import Tensor
from heatnet.builder import BuildConfig, PatchRecord, build_graph
from heatnet.errors import ShapeError
from heatnet.hetgraph import DEFAULT_TYPE_NAMES, DEFAULT_TYPES, HeteroGraph, TypeSet
from heatnet.model import Model, ModelConfig, baseline_config
from heatnet.pooling import PoolParams, graph_logits, pl_pool
from heatnet.seeding import rng_for
from heatnet.testing import random_labeled_graph

TYPES3 = TypeSet(DEFAULT_TYPES.names[:3])


def make_pool(types=TYPES3, dim=4, n_classes=2, seed=0):
    return PoolParams.init(types, dim, n_classes, rng_for(seed, "pool"))


def pool_one(feats, type_idx, params):
    """pl_pool of one graph: its (T, d) matrix."""
    s = pl_pool(feats, type_idx, params, np.zeros(len(type_idx), dtype=np.intp))
    assert s.shape[0] == len(params.types)
    return s


def logits_one(pooled, params):
    """graph_logits of one (T, d) matrix: its (C,) logits."""
    return graph_logits(pooled, params).data[0]


class TestPlPool:
    def test_single_type_identity_readout(self):
        feats = Tensor(np.array([[1.0, 3.0], [3.0, 5.0]]))
        params = make_pool(dim=2)  # readout starts at identity
        s = pool_one(feats, np.array([1, 1]), params)
        assert s.shape == (3, 2)
        np.testing.assert_allclose(s.data[1], [2.0, 4.0], atol=1e-15)
        np.testing.assert_array_equal(s.data[0], [0.0, 0.0])
        np.testing.assert_array_equal(s.data[2], [0.0, 0.0])

    def test_empty_types_contribute_zero_rows(self):
        types = DEFAULT_TYPES
        params = make_pool(types=types, dim=3)
        feats = Tensor(np.ones((4, 3)))
        s = pool_one(feats, np.zeros(4, dtype=np.intp), params)
        assert s.shape == (6, 3)
        assert (s.data[1:] == 0.0).all()

    def test_matches_mean_then_matmul_oracle(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((4, 3))
        type_idx = np.array([0, 1, 0, 1])
        params = make_pool(dim=3, seed=1)
        params.readout.data = rng.standard_normal((3, 3, 3))
        s = pool_one(Tensor(feats), type_idx, params)
        readout = list(params.readout.data)
        ref = ref_pl_pool(feats, type_idx, 3, readout)
        np.testing.assert_allclose(s.data, ref, atol=1e-12)

    def test_permutation_within_type_invariant(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((6, 4))
        type_idx = np.array([0, 1, 1, 2, 1, 0])
        params = make_pool(dim=4, seed=2)
        s1 = pool_one(Tensor(feats), type_idx, params).data
        perm = np.array([5, 2, 4, 3, 1, 0])  # permutes within types only
        s2 = pool_one(Tensor(feats[perm]), type_idx[perm], params).data
        assert (s1 == s2).all()

    def test_row_depends_only_on_own_type(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((5, 3))
        type_idx = np.array([0, 1, 1, 2, 2])
        params = make_pool(dim=3, seed=3)
        s1 = pool_one(Tensor(feats), type_idx, params).data
        zeroed = feats.copy()
        zeroed[type_idx != 1] = 0.0
        s2 = pool_one(Tensor(zeroed), type_idx, params).data
        np.testing.assert_array_equal(s1[1], s2[1])

    def test_duplicating_a_type_leaves_s_unchanged(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((3, 4))
        type_idx = np.array([0, 1, 2])
        params = make_pool(dim=4, seed=4)
        s1 = pool_one(Tensor(feats), type_idx, params).data
        dup = np.vstack([feats, feats[1:2]])
        s2 = pool_one(Tensor(dup), np.array([0, 1, 2, 1]), params).data
        np.testing.assert_allclose(s2, s1, atol=1e-12)


class TestGraphLogits:
    def test_rows_must_be_types_per_graph(self):
        params = make_pool(dim=3)
        for shape in ((4, 3), (3, 2), (3,)):
            with pytest.raises(ShapeError):
                graph_logits(Tensor(np.zeros(shape)), params)
        assert graph_logits(Tensor(np.zeros((6, 3))), params).shape == (2, 2)

    def test_zero_s_gives_bias(self):
        params = make_pool(dim=3)
        params.classifier_b.data = np.array([0.5, -1.5])
        logits = logits_one(Tensor(np.zeros((3, 3))), params)
        np.testing.assert_allclose(logits, [0.5, -1.5])

    def test_zero_classifier_gives_bias(self):
        params = make_pool(dim=3)
        params.classifier_w.data = np.zeros_like(params.classifier_w.data)
        params.classifier_b.data = np.array([1.0, 2.0])
        s = Tensor(np.random.default_rng(4).standard_normal((3, 3)))
        np.testing.assert_allclose(logits_one(s, params), [1.0, 2.0])

    def test_hand_computed_logits(self):
        params = make_pool(dim=2)
        params.classifier_w.data = np.array([[1.0, 0.0], [0.0, 2.0]])
        params.classifier_b.data = np.array([0.1, -0.1])
        s = Tensor(np.array([[2.0, 4.0], [0.0, 2.0], [4.0, 0.0]]))
        z = np.array([2.0, 2.0])  # mean over rows
        np.testing.assert_allclose(logits_one(s, params),
                                   [z[0] + 0.1, 2 * z[1] - 0.1], atol=1e-12)


def make_model(types=TYPES3, feature_dim=4, seed=0, **kw):
    cfg = ModelConfig(feature_dim=feature_dim, types=types.names, hidden_dim=4,
                      heads=2, n_layers=2, dropout=0.0, **kw)
    return Model.init(cfg, rng_for(seed, "init"))


class TestModelForward:
    def test_deterministic_eval(self):
        rng = np.random.default_rng(5)
        g = random_labeled_graph(rng, TYPES3, n_nodes=7, feature_dim=4)
        model = make_model()
        a = model.forward([g]).data
        b = model.forward([g]).data
        assert (a == b).all()

    def test_single_node_graph_is_well_defined(self):
        g = from_lists(TYPES3, nodes=[(0, "neoplastic", [1.0, 0.0, 2.0, 1.0])],
                       edges=[(0, 0, [1.0])], label=0)
        logits = make_model().forward([g])
        assert logits.shape == (1, 2)
        assert np.isfinite(logits.data).all()

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            g = random_labeled_graph(rng, TYPES3, n_nodes=10, feature_dim=4)
            model = make_model(seed=trial)
            np.testing.assert_allclose(model.forward([g]).data[0],
                                       ref_model_forward(g, model), atol=1e-10)

    def test_mean_pooling_variant_matches_oracle(self):
        rng = np.random.default_rng(7)
        g = random_labeled_graph(rng, TYPES3, n_nodes=8, feature_dim=4)
        model = make_model(seed=11, pooling="mean")
        np.testing.assert_allclose(model.forward([g]).data[0],
                                   ref_model_forward(g, model), atol=1e-10)

    def test_end_to_end_grad_check(self):
        rng = np.random.default_rng(8)
        g = random_labeled_graph(rng, TYPES3, n_nodes=6, feature_dim=4)
        model = make_model(seed=12)

        def f():
            return ad.cross_entropy(model.forward([g]), [g.label])

        assert ad.grad_check(f, list(model.parameters().values()), eps=1e-4) < 1e-5

    def test_training_forward_records_at_most_15_ops(self, monkeypatch):
        # per layer one typed projection, one edge map and one attention op;
        # leaky ReLU and dropout between layers; five pooling ops and two for
        # the head, so the tape does not grow with the number of types, heads
        # or edges
        ops = []
        make = ad._make

        def counting_make(data, parents, vjp, op):
            ops.append(op)
            return make(data, parents, vjp, op)

        g = random_labeled_graph(np.random.default_rng(0), DEFAULT_TYPES, n_nodes=13,
                                 feature_dim=8)
        assert len(set(g.node_types.tolist())) == len(DEFAULT_TYPES)
        model = Model.init(ModelConfig(feature_dim=8), rng_for(0, "init"))
        monkeypatch.setattr(ad, "_make", counting_make)
        model.forward([g], training=True, rngs=[rng_for(0, "dropout")])
        assert len(ops) <= 15, sorted(ops)
        ops.clear()
        model.forward([g])
        assert len(ops) <= 14, sorted(ops)

    def test_dropout_only_active_in_training(self):
        rng = np.random.default_rng(9)
        g = random_labeled_graph(rng, TYPES3, n_nodes=6, feature_dim=4)
        cfg = ModelConfig(feature_dim=4, types=TYPES3.names, hidden_dim=4, heads=2,
                          n_layers=2, dropout=0.5)
        model = Model.init(cfg, rng_for(13, "init"))
        eval_logits = model.forward([g]).data
        train_logits = model.forward([g], training=True, rngs=[rng_for(0, "drop")]).data
        assert (model.forward([g]).data == eval_logits).all()
        assert not np.allclose(train_logits, eval_logits)

    def test_checkpointable_state_roundtrip(self):
        rng = np.random.default_rng(10)
        g = random_labeled_graph(rng, TYPES3, n_nodes=5, feature_dim=4)
        model = make_model(seed=14)
        logits = model.forward([g]).data
        state = model.state_arrays()
        other = make_model(seed=999)
        other.load_state(state)
        assert (other.forward([g]).data == logits).all()


class TestBaseline:
    def test_baseline_matches_heat_on_single_type_graph(self):
        # With one node type, matched weights, and an edge map that emits
        # all-ones modulation, the full model collapses onto the baseline:
        # identity readout over a single type is plain mean pooling.
        single = TypeSet(("only",))
        rng = np.random.default_rng(11)
        g = random_labeled_graph(rng, single, n_nodes=6, feature_dim=4)
        ones_attrs = np.ones_like(g.edge_attrs)
        g = HeteroGraph(types=g.types, node_ids=g.node_ids, node_types=g.node_types,
                        features=g.features, edge_src=g.edge_src, edge_dst=g.edge_dst,
                        edge_attrs=ones_attrs, label=g.label)
        base_cfg = ModelConfig(feature_dim=4, types=("only",), hidden_dim=4, heads=1,
                               n_layers=2, dropout=0.0, type_blind=True, pooling="mean")
        baseline = Model.init(base_cfg, rng_for(15, "init"))
        heat = Model.init(ModelConfig(feature_dim=4, types=("only",), hidden_dim=4,
                                      heads=1, n_layers=2, dropout=0.0, pooling="pl"),
                          rng_for(16, "init"))
        for bl, hl in zip(baseline.layers, heat.layers):
            hl.w_node.data = bl.w_node.data.copy()
        heat.layers[0].w_edge.data = np.ones_like(heat.layers[0].w_edge.data)  # attr 1 -> ones
        heat.layers[1].w_edge.data = np.eye(4)                                 # ones -> ones
        heat.pool.classifier_w.data = baseline.pool.classifier_w.data.copy()
        heat.pool.classifier_b.data = baseline.pool.classifier_b.data.copy()
        out_heat = heat.forward([g]).data
        out_base = baseline.forward([g]).data
        np.testing.assert_allclose(out_heat, out_base, atol=1e-10)

    def test_baseline_attention_still_normalized(self):
        from _reference import incoming_segments
        from heatnet.hetgraph import batch_graphs
        from heatnet.layers import layer_forward
        rng = np.random.default_rng(12)
        g = random_labeled_graph(rng, TYPES3, n_nodes=6, feature_dim=4)
        baseline = Model.init(baseline_config(ModelConfig(
            feature_dim=4, types=TYPES3.names, hidden_dim=4, heads=2, n_layers=2,
            dropout=0.0)), rng_for(17, "init"))
        b = batch_graphs([g])
        out = layer_forward(b, baseline.layers[0], return_attention=True)
        for seg in incoming_segments(b):
            np.testing.assert_allclose(out.attention[seg].sum(axis=0), np.ones(2), atol=1e-9)


def test_forward_memory_is_blocked():
    rng = np.random.default_rng(0)
    patches = [PatchRecord(str(i), i % 64, i // 64, rng.standard_normal(32),
                           type_label=DEFAULT_TYPE_NAMES[int(rng.integers(6))])
               for i in range(4096)]
    g = build_graph(patches, BuildConfig(k=8))
    model = Model.init(ModelConfig(feature_dim=32, hidden_dim=64, heads=4), rng=0)
    batch = model.batch([g])
    tracemalloc.start()
    try:
        with ad.no_grad():
            model.forward(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Whole-array temporaries: 128 MiB for layer 2's gathered per-row weights
    # (4096 * 64 * 64 * 8 bytes), 21 MiB for each (43k edges, 64) attention
    # array; 269 MiB peak measured. Row blocks measured 23 MiB.
    assert peak < 40 * 2**20
