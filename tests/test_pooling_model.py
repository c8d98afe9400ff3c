"""Per-type pooling, classification head, and full model forward."""

import tracemalloc

import numpy as np
import pytest

from _reference import (from_lists, ref_graph_logits, ref_model_forward, ref_pl_pool,
                        ref_pooled_logits)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from heatnet import autodiff as ad
from heatnet.autodiff import Tensor
from heatnet.builder import BuildConfig, PatchRecord, build_graph
from heatnet.errors import ContractError, ShapeError
from heatnet.hetgraph import DEFAULT_TYPE_NAMES, DEFAULT_TYPES, HeteroGraph, TypeSet, _pool_cells
from heatnet.model import Model, ModelConfig, baseline_config
from heatnet.pooling import PoolParams, pl_pool
from heatnet.seeding import rng_for
from heatnet.testing import random_labeled_graph

TYPES3 = TypeSet(DEFAULT_TYPES.names[:3])


def make_pool(types=TYPES3, dim=4, n_classes=2, seed=0):
    return PoolParams.init(types, dim, n_classes, rng_for(seed, "pool"))


def logits_one(feats, type_idx, params):
    """pl_pool of one graph under per-type pooling: its (C,) logits."""
    cells = _pool_cells(type_idx, params.readout.shape[0], np.zeros(len(type_idx), dtype=np.intp))
    logits = pl_pool(feats, cells, params)
    assert logits.shape == (1, params.classifier_b.shape[0])
    return logits.data[0]


def hand_classifier(params):
    params.classifier_w.data = np.array([[1.0, 0.0], [0.0, 2.0]])
    params.classifier_b.data = np.array([0.1, -0.1])


class TestPlPool:
    def test_single_type_identity_readout(self):
        feats = Tensor(np.array([[1.0, 3.0], [3.0, 5.0]]))
        params = make_pool(dim=2)  # readout starts at identity
        hand_classifier(params)
        z = np.array([2.0, 4.0]) / 3  # the type-1 mean over T = 3 types
        np.testing.assert_allclose(logits_one(feats, np.array([1, 1]), params),
                                   [z[0] + 0.1, 2 * z[1] - 0.1], atol=1e-15)

    def test_empty_types_contribute_zero_rows(self):
        # An absent type adds nothing to the graph sum; the divisor is still T.
        params = make_pool(types=DEFAULT_TYPES, dim=3)
        params.readout.data = np.random.default_rng(0).standard_normal((6, 3, 3))
        feats = np.random.default_rng(1).standard_normal((4, 3))
        z = params.readout.data[2] @ feats.mean(axis=0) / 6
        np.testing.assert_allclose(logits_one(Tensor(feats), np.full(4, 2), params),
                                   params.classifier_w.data @ z + params.classifier_b.data,
                                   atol=1e-12)

    def test_matches_mean_then_matmul_oracle(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((4, 3))
        type_idx = np.array([0, 1, 0, 1])
        params = make_pool(dim=3, seed=1)
        params.readout.data = rng.standard_normal((3, 3, 3))
        ref = ref_graph_logits(ref_pl_pool(feats, type_idx, 3, list(params.readout.data)),
                               params.classifier_w.data, params.classifier_b.data)
        np.testing.assert_allclose(logits_one(Tensor(feats), type_idx, params), ref, atol=1e-12)

    def test_permutation_within_type_invariant(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((6, 4))
        type_idx = np.array([0, 1, 1, 2, 1, 0])
        params = make_pool(dim=4, seed=2)
        params.readout.data = rng.standard_normal((3, 4, 4))
        z1 = logits_one(Tensor(feats), type_idx, params)
        perm = np.array([5, 2, 4, 3, 1, 0])  # permutes within types only
        z2 = logits_one(Tensor(feats[perm]), type_idx[perm], params)
        assert z1.tobytes() == z2.tobytes()

    def test_row_depends_only_on_own_type(self):
        # With every other type's map zeroed, only type 1's rows reach the logits.
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((5, 3))
        type_idx = np.array([0, 1, 1, 2, 2])
        params = make_pool(dim=3, seed=3)
        params.readout.data[[0, 2]] = 0.0
        zeroed = feats.copy()
        zeroed[type_idx != 1] = 0.0
        assert (logits_one(Tensor(feats), type_idx, params).tobytes()
                == logits_one(Tensor(zeroed), type_idx, params).tobytes())

    def test_duplicating_a_type_leaves_s_unchanged(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((3, 4))
        params = make_pool(dim=4, seed=4)
        z1 = logits_one(Tensor(feats), np.array([0, 1, 2]), params)
        dup = np.vstack([feats, feats[1:2]])
        z2 = logits_one(Tensor(dup), np.array([0, 1, 2, 1]), params)
        np.testing.assert_allclose(z2, z1, atol=1e-12)

    def test_index_arrays_must_cover_the_feature_rows(self):
        idx = np.zeros(3, dtype=np.intp)   # cells of 3 rows, 5 feature rows
        with pytest.raises(ShapeError):
            pl_pool(Tensor(np.ones((5, 2))), _pool_cells(idx, 3, idx), make_pool(dim=2))


class TestPermutationGather:
    """``pl_pool`` gathers rows by a permutation, whose VJP assigns each
    row's gradient; it equals the scatter-add composition byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), n_types=st.integers(1, 4), n_graphs=st.integers(1, 3),
           zeros=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_forward_and_gradient_bytes_equal_the_add_at_composition(self, n, n_types, n_graphs,
                                                                     zeros, seed):
        rng = np.random.default_rng(seed)
        n = max(n, n_graphs)
        graph = np.sort(np.concatenate([np.arange(n_graphs), rng.integers(0, n_graphs, n - n_graphs)]))
        cells = _pool_cells(rng.integers(0, n_types, n), n_types, graph)
        params = PoolParams.init(TypeSet(DEFAULT_TYPE_NAMES[:n_types]), 3, 2, rng_for(seed, "pool"))
        feats = rng.standard_normal((n, 3))
        upstream = rng.standard_normal((n_graphs, 2))
        if zeros:
            upstream[rng.random(upstream.shape) < 0.5] = -0.0
        runs = []
        for order in (cells.order, ad.Index(cells.order.rows, n)):   # distinct, then add.at
            x = Tensor(feats, requires_grad=True)
            means = ad.segment_reduce(ad.gather_rows(x, order), cells.runs)
            out = ad.pooled_logits(means, cells.cells, params.readout, params.classifier_w,
                                   params.classifier_b)
            ad.backward(ad.reduce_sum(ad.mul(out, Tensor(upstream))))
            runs.append([out.data.tobytes(), x.grad.tobytes()])
        assert cells.order.distinct and runs[0] == runs[1]
        logits = pl_pool(Tensor(feats), cells, params).data
        assert logits.tobytes() == runs[0][0]


class TestGraphLogits:
    """``ad.pooled_logits``, the head on (graph, type) cell means."""

    @staticmethod
    def head(means, cells, params, n_types=3):
        return ad.pooled_logits(Tensor(means), ad.Cells(cells, n_types), params.readout,
                                params.classifier_w, params.classifier_b)

    def test_rows_must_be_types_per_graph(self):
        params = make_pool(dim=3)
        for means, cells, n_types in (
                (np.zeros((2, 3)), [0, 1, 2], 3),   # a cell without a row
                (np.zeros((3, 2)), [0, 1, 2], 3),   # rows of another dim
                (np.zeros(3), [0, 1, 2], 3),        # 1-D means
                (np.zeros((3, 3)), [0, 1, 2], 4)):  # readout maps for 3 types, not 4
            with pytest.raises(ShapeError):
                self.head(means, cells, params, n_types)
        for cells in ([1, 0, 2], [0, 0, 2], [-1, 0, 1], [0, 1, 6]):  # unsorted, or graph 1 empty
            with pytest.raises(ContractError):
                self.head(np.zeros((3, 3)), cells, params)
        assert self.head(np.zeros((3, 3)), [0, 2, 4], params).shape == (2, 2)

    def test_zero_s_gives_bias(self):
        params = make_pool(dim=3)
        params.classifier_b.data = np.array([0.5, -1.5])
        logits = logits_one(Tensor(np.zeros((4, 3))), np.array([0, 1, 1, 2]), params)
        assert logits.tolist() == [0.5, -1.5]

    def test_zero_classifier_gives_bias(self):
        params = make_pool(dim=3)
        params.classifier_w.data = np.zeros_like(params.classifier_w.data)
        params.classifier_b.data = np.array([1.0, 2.0])
        feats = Tensor(np.random.default_rng(4).standard_normal((4, 3)))
        assert logits_one(feats, np.array([0, 2, 2, 0]), params).tolist() == [1.0, 2.0]

    def test_hand_computed_logits(self):
        params = make_pool(dim=2)
        hand_classifier(params)
        # graph 0 has all three types, graph 1 only type 1
        means = np.array([[2.0, 4.0], [0.0, 2.0], [4.0, 0.0], [3.0, 6.0]])
        z = np.array([[2.0, 2.0], [1.0, 2.0]])  # sums over T = 3 rows, absent ones zero
        np.testing.assert_allclose(self.head(means, [0, 1, 2, 4], params).data,
                                   z * [1.0, 2.0] + [0.1, -0.1], atol=1e-12)


@st.composite
def cell_means(draw):
    """Means of random (graph, type) cells, every graph with at least one,
    with the maps (or None) and classifier of a pooling head."""
    n_graphs, n_types = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dim, n_classes = draw(st.integers(1, 4)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    present = rng.random((n_graphs, n_types)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    present[np.arange(n_graphs), rng.integers(n_types, size=n_graphs)] = True
    cells = np.flatnonzero(present)
    means = rng.standard_normal((len(cells), dim))
    means[rng.random(means.shape) < 0.1] = 0.0
    readout = rng.standard_normal((n_types, dim, dim)) if draw(st.booleans()) else None
    weight = rng.standard_normal((n_classes, dim)) * draw(st.sampled_from([1.0, 0.0]))
    return (means, cells, n_types, readout, weight, rng.standard_normal(n_classes),
            rng.standard_normal((n_graphs, n_classes)))


class TestPooledLogits:
    """The fused head equals its zero-padded composition bit for bit."""

    # In the example the means' gradient underflows to -0.0, which the
    # oracle's scatter into zeros turns into +0.0.
    @example(case=(np.ones((1, 1)), np.array([0]), 4, None, np.array([[5e-324], [0.0]]),
                   np.zeros(2), np.array([[-1.0, 0.0]])))
    @settings(max_examples=100, deadline=None)
    @given(case=cell_means())
    def test_logits_and_gradients_equal_the_oracle(self, case):
        means, cells, n_types, readout, weight, bias, upstream = case
        runs = []
        for head in (ad.pooled_logits, ref_pooled_logits):
            leaves = [Tensor(a, requires_grad=True) for a in (means, weight, bias)]
            maps = None if readout is None else Tensor(readout, requires_grad=True)
            out = head(leaves[0], ad.Cells(cells, n_types), maps, leaves[1], leaves[2])
            grads = ad.backward(ad.reduce_sum(ad.mul(out, Tensor(upstream))))
            runs.append([out.data.tobytes()] + [grads[t].tobytes() for t in leaves]
                        + ([] if maps is None else [grads[maps].tobytes()]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("maps", [True, False])
    def test_grad_check(self, maps):
        rng = np.random.default_rng(5)
        means = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        readout = Tensor(rng.standard_normal((3, 3, 3)), requires_grad=True) if maps else None
        weight = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        bias = Tensor(rng.standard_normal(2), requires_grad=True)
        params = [means, weight, bias] + ([readout] if maps else [])

        def f():
            out = ad.pooled_logits(means, ad.Cells([0, 2, 4, 5], 3), readout, weight, bias)
            return ad.reduce_sum(ad.cross_entropy(out, [1, 0]))

        assert ad.grad_check(f, params, eps=1e-4) < 1e-5


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

    def test_training_forward_records_at_most_11_ops(self, monkeypatch):
        # per layer one typed projection, one edge map and one attention op;
        # leaky ReLU and dropout between layers; a gather into (graph, type)
        # order, the cell means and one pooling head op, so the tape does not
        # grow with the number of types, heads or edges
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
        assert len(ops) <= 11, sorted(ops)
        ops.clear()
        model.forward([g])
        assert len(ops) <= 10, sorted(ops)

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
