"""Attention layer: projections, scores, normalization, full forward."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (
    edge_list,
    forced_blocks,
    from_lists,
    head_blocks,
    incoming_segments,
    ref_attend,
    ref_layer_forward,
    ref_plain_attention,
)
from heatnet import autodiff as ad
from heatnet.errors import ConfigError, ContractError, GraphValidationError, ShapeError
from heatnet.hetgraph import DEFAULT_TYPES, HeteroGraph, TypeSet, batch_graphs
from heatnet.layers import HeatLayerParams, attend, layer_forward
from heatnet.seeding import rng_for
from heatnet.testing import random_labeled_graph

TYPES3 = TypeSet(DEFAULT_TYPES.names[:3])


def make_params(types=TYPES3, d_in=4, d_out=4, heads=2, d_edge=1, seed=0, **kw):
    return HeatLayerParams.init(types, d_in, d_out, heads, d_edge,
                                rng_for(seed, "layer"), **kw)


def identity_params(d, types=TYPES3):
    """Single-head layer whose projections are the identity."""
    params = make_params(types=types, d_in=d, d_out=d, heads=1, d_edge=1)
    for blocks in head_blocks(params.w_node, types.names, 1).values():
        blocks[0][...] = np.eye(d)
    return params


class TestAttScore:
    def test_zero_modulation_gives_zero(self):
        # zero edge attributes zero every edge's modulation, so every score
        # is zero and each node's attention splits evenly over its in-edges
        rng = np.random.default_rng(8)
        g = random_labeled_graph(rng, TYPES3, n_nodes=6, feature_dim=4)
        params = make_params()
        b = batch_graphs([g])
        zero_attrs = ad.Tensor(np.zeros_like(b.edge_attrs))
        out = layer_forward(b, params, edge_attrs=zero_attrs, return_attention=True)
        in_degree = np.bincount(b.edge_pos[1], minlength=g.n_nodes)
        expected = np.repeat((1.0 / in_degree[b.edge_pos[1]])[:, None], params.heads, axis=1)
        np.testing.assert_allclose(out.attention, expected, rtol=1e-15)


class TestAttentionSoftmax:
    def test_equal_scores_split_evenly(self):
        # a zero edge map zeroes every score
        rng = np.random.default_rng(4)
        g = random_labeled_graph(rng, TYPES3, n_nodes=6, feature_dim=4)
        params = make_params()
        params.w_edge.data[...] = 0.0
        b = batch_graphs([g])
        out = layer_forward(b, params, return_attention=True)
        in_degree = np.bincount(b.edge_pos[1], minlength=g.n_nodes)
        expected = np.repeat((1.0 / in_degree[b.edge_pos[1]])[:, None], params.heads, axis=1)
        np.testing.assert_allclose(out.attention, expected, rtol=1e-15)


class TestProject:
    def test_zero_edge_projection(self):
        # a zero edge map gives zero next-layer edge attributes
        rng = np.random.default_rng(4)
        g = random_labeled_graph(rng, TYPES3, n_nodes=6, feature_dim=4)
        params = make_params()
        params.w_edge.data[...] = 0.0
        out = layer_forward(batch_graphs([g]), params)
        assert out.edge_attrs.shape == (g.n_edges, params.d_k)
        assert (out.edge_attrs.data == 0.0).all()


class TestLayerForward:
    def test_self_loop_fixed_point(self):
        g = from_lists(TYPES3, nodes=[(0, "neoplastic", [1.0, -2.0, 0.5])],
                       edges=[(0, 0, [1.0])])
        out = layer_forward(batch_graphs([g]), identity_params(3))
        np.testing.assert_allclose(out.node_features.data, g.features, atol=1e-15)

    def test_zero_features_give_zero_outputs(self):
        g = from_lists(
            TYPES3,
            nodes=[(0, "neoplastic", [0.0, 0.0]), (1, "inflammatory", [0.0, 0.0])],
            edges=[(0, 0, [1.0]), (1, 1, [1.0]), (0, 1, [0.4]), (1, 0, [0.4])])
        out = layer_forward(batch_graphs([g]), make_params(d_in=2, d_out=4))
        np.testing.assert_array_equal(out.node_features.data, np.zeros((2, 4)))

    def test_missing_incoming_edges_rejected(self):
        g = from_lists(TYPES3,
                       nodes=[(0, "no-label", [1.0]), (1, "no-label", [2.0])],
                       edges=[(0, 1, [0.2])])
        with pytest.raises(GraphValidationError, match="node 0 has no incoming edges"):
            layer_forward(batch_graphs([g]), make_params(d_in=1, d_out=2))

    def test_lone_incoming_edge_gets_weight_one(self):
        g = from_lists(TYPES3,
                       nodes=[(0, "neoplastic", [1.0, 2.0]), (1, "inflammatory", [-3.0, 0.5])],
                       edges=[(0, 0, [1.0]), (0, 1, [0.7]), (1, 1, [1.0])])
        att = layer_forward(batch_graphs([g]), make_params(d_in=2, d_out=4),
                            return_attention=True).attention
        assert (att[0] == 1.0).all()
        assert not (att[1:] == 1.0).any()

    def test_hetero_graph_rejected(self):
        # a graph's own edge rows are not target-sorted, so it must not pass
        # for a batch and be segmented by their order
        g = from_lists(TYPES3,
                       nodes=[(0, "no-label", [1.0]), (1, "no-label", [2.0])],
                       edges=[(0, 1, [0.2]), (1, 0, [0.5]), (0, 0, [1.0]), (1, 1, [1.0])])
        with pytest.raises(ContractError, match="takes a GraphBatch.*got HeteroGraph"):
            layer_forward(g, make_params(d_in=1, d_out=2))

    def test_graph_type_set_must_match(self):
        g = random_labeled_graph(np.random.default_rng(3), DEFAULT_TYPES, n_nodes=3, feature_dim=4)
        with pytest.raises(ConfigError, match="type set"):
            layer_forward(batch_graphs([g]), make_params())

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            g = random_labeled_graph(rng, TYPES3, n_nodes=int(rng.integers(2, 8)),
                                     feature_dim=4)
            params = make_params(seed=trial)
            b = batch_graphs([g])
            att = layer_forward(b, params, return_attention=True).attention
            for seg in incoming_segments(b):
                np.testing.assert_allclose(att[seg].sum(axis=0), np.ones(params.heads),
                                           atol=1e-9)

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            n = int(rng.integers(1, 6))
            g = random_labeled_graph(rng, TYPES3, n_nodes=n, feature_dim=3)
            heads = int(rng.choice([1, 2]))
            params = make_params(d_in=3, d_out=4 * heads // heads * heads, heads=heads,
                                 seed=100 + trial)
            b = batch_graphs([g])
            out = layer_forward(b, params)
            w_node = head_blocks(params.w_node, TYPES3.names, heads)
            ref_h, ref_e = ref_layer_forward(g.features, g.node_types, edge_list(b), b.edge_attrs,
                                             w_node, params.w_edge.data, heads,
                                             type_names=TYPES3.names)
            np.testing.assert_allclose(out.node_features.data, ref_h, atol=1e-10)
            np.testing.assert_allclose(out.edge_attrs.data, ref_e, atol=1e-10)

    def test_permutation_equivariance_bit_exact(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(2, 9))
            g = random_labeled_graph(rng, TYPES3, n_nodes=n, feature_dim=4)
            params = make_params(seed=200 + trial)
            out = layer_forward(batch_graphs([g]), params).node_features.data

            perm = rng.permutation(n)
            new_ids = {int(old): int(perm[i]) for i, old in enumerate(g.node_ids)}
            order = np.argsort(perm)  # node with new id j sits at position order[j]
            pairs = sorted(
                (new_ids[int(s)], new_ids[int(t)], i)
                for i, (s, t) in enumerate(zip(g.edge_src, g.edge_dst)))
            gp = HeteroGraph(
                types=g.types,
                node_ids=tuple(range(n)),
                node_types=g.node_types[order],
                features=g.features[order],
                edge_src=np.array([p[0] for p in pairs], dtype=np.intp),
                edge_dst=np.array([p[1] for p in pairs], dtype=np.intp),
                edge_attrs=g.edge_attrs[[p[2] for p in pairs]],
                label=g.label)
            out_p = layer_forward(batch_graphs([gp]), params).node_features.data
            # row for new id j must equal the original node's row, bitwise
            assert (out_p == out[order]).all()

    def test_degenerates_to_plain_dot_product_attention(self):
        # single type, all-ones edge modulation, one head
        rng = np.random.default_rng(8)
        single = TypeSet(("only",))
        for agg in ("sum", "mean"):
            for trial in range(10):
                n = int(rng.integers(2, 6))
                g = random_labeled_graph(rng, single, n_nodes=n, feature_dim=4)
                params = HeatLayerParams.init(single, 4, 4, 1, 1, rng_for(trial, "w"),
                                              aggregation=agg, edge_identity=True)
                b = batch_graphs([g])
                out = layer_forward(b, params).node_features.data
                ref = ref_plain_attention(g.features,
                                          head_blocks(params.w_node, single.names, 1)["only"][0],
                                          edge_list(b), aggregation=agg)
                np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_type_swap_invariance(self):
        # swapping two types' projections and the node labels leaves output unchanged
        rng = np.random.default_rng(9)
        g = random_labeled_graph(rng, TYPES3, n_nodes=6, feature_dim=4)
        params = make_params(seed=300)
        out = layer_forward(batch_graphs([g]), params).node_features.data

        a, b = "no-label", "inflammatory"
        ia, ib = TYPES3.index(a), TYPES3.index(b)
        params.w_node.data[[ia, ib]] = params.w_node.data[[ib, ia]]
        swapped = g.node_types.copy()
        swapped[g.node_types == ia] = ib
        swapped[g.node_types == ib] = ia
        g2 = HeteroGraph(types=g.types, node_ids=g.node_ids, node_types=swapped,
                         features=g.features, edge_src=g.edge_src, edge_dst=g.edge_dst,
                         edge_attrs=g.edge_attrs, label=g.label)
        out2 = layer_forward(batch_graphs([g2]), params).node_features.data
        np.testing.assert_allclose(out2, out, atol=1e-12)

    def test_layer_gradients_pass_grad_check(self):
        rng = np.random.default_rng(10)
        g = random_labeled_graph(rng, TYPES3, n_nodes=5, feature_dim=3)
        params = make_params(d_in=3, d_out=4, heads=2, seed=400)
        tensors = [params.w_node, params.w_edge]

        def f():
            out = layer_forward(batch_graphs([g]), params)
            return ad.reduce_sum(ad.mul(out.node_features, out.node_features))

        assert ad.grad_check(f, tensors, eps=1e-4) < 1e-5


ATTEND_CONFIGS = {
    "mean": {},
    "sum": {"aggregation": "sum"},
    "all-ones-modulation": {"edge_identity": True},
}


def attend_inputs(name, d_k, seed, m=5, heads=2, n_edges=None):
    """Leaf tables, a modulation and random (src, dst, counts) runs for ``attend``:
    any table row may feed any edge row, as in the explain recompute."""
    rng = np.random.default_rng(seed)
    params = make_params(d_in=3, d_out=heads * d_k, heads=heads, d_edge=2, seed=seed,
                         **ATTEND_CONFIGS[name])
    n_edges = int(rng.integers(1, 3 * m)) if n_edges is None else n_edges
    cuts = np.sort(rng.choice(np.arange(1, n_edges), size=int(rng.integers(0, n_edges)),
                              replace=False))
    counts = np.diff(np.concatenate([[0], cuts, [n_edges]]))

    def leaf(*shape):
        return ad.Tensor(rng.normal(0.0, 1.5, size=shape), requires_grad=True)

    table = leaf(m, params.d_out)
    mod = ad.Tensor(np.ones((n_edges, d_k))) if params.w_edge is None else leaf(n_edges, d_k)
    src, dst = rng.integers(0, m, size=(2, n_edges))
    if n_edges >= m:
        # every row feeds some edge, so no gradient entry is identically zero
        src[rng.permutation(n_edges)[:m]] = np.arange(m)
    return params, table, mod, src, dst, counts


def attend_raw(params, table, mod, src, dst, counts):
    """``attend`` on index arrays and counts, each checked as the op's plan."""
    m = table.shape[0]
    return attend(params, table, mod, ad.Index(src, m), ad.Index(dst, m), ad.Runs(counts))


def weighted_sum(out, seed):
    r = np.random.default_rng(seed + 1).normal(size=out.shape)
    return ad.reduce_sum(ad.mul(out, ad.Tensor(r)))


class TestFusedAttend:
    """``attend`` is one tape op that equals the unfused composition."""

    @pytest.mark.parametrize("name", ATTEND_CONFIGS)
    @settings(max_examples=30, deadline=None)
    @given(d_k=st.sampled_from([1, 2, 4]), seed=st.integers(0, 10_000))
    def test_equals_unfused_composition(self, name, d_k, seed):
        params, table, mod, src, dst, counts = attend_inputs(name, d_k, seed)
        leaves = [t for t in (table, mod) if t.requires_grad]
        results = []
        for op in (attend_raw, ref_attend):
            out, att = op(params, table, mod, src, dst, counts)
            grads = ad.backward(weighted_sum(out, seed))
            results.append((out.data, np.asarray(getattr(att, "data", att)),
                            [grads[t] for t in leaves]))
        (out, att, grads), (ref_out, ref_att, ref_grads) = results
        assert out.tobytes() == ref_out.tobytes()
        assert att.tobytes() == ref_att.tobytes()
        for got, want in zip(grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("name", ATTEND_CONFIGS)
    @settings(max_examples=30, deadline=None)
    @given(d_k=st.sampled_from([1, 2, 4]), seed=st.integers(0, 10_000))
    def test_row_blocks_change_no_bits(self, name, rows, d_k, seed):
        """Blocks of at most ``rows`` edge rows, or one longer segment, give
        the one-block outputs, weights and gradients byte for byte."""
        runs = []
        for blocks in (None, rows):
            params, table, mod, src, dst, counts = attend_inputs(name, d_k, seed)
            leaves = [t for t in (table, mod) if t.requires_grad]
            with forced_blocks(blocks):
                out, att = attend_raw(params, table, mod, src, dst, counts)
                grads = ad.backward(weighted_sum(out, seed))
            runs.append([out.data.tobytes(), att.tobytes()] + [grads[t].tobytes() for t in leaves])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("d_k", [1, 2, 4])
    @pytest.mark.parametrize("name", ATTEND_CONFIGS)
    def test_gradients_pass_grad_check(self, name, d_k):
        params, table, mod, src, dst, counts = attend_inputs(name, d_k, seed=d_k, m=4, n_edges=7)
        leaves = [t for t in (table, mod) if t.requires_grad]

        def f():
            return weighted_sum(attend_raw(params, table, mod, src, dst, counts)[0], d_k)

        assert ad.grad_check(f, leaves, eps=1e-4) < 1e-5

    @settings(max_examples=60, deadline=None)
    @given(heads=st.integers(1, 4), d_k=st.integers(1, 9), name=st.sampled_from(list(ATTEND_CONFIGS)),
           zeros=st.booleans(), seed=st.integers(0, 10_000))
    def test_outputs_and_modulation_gradient_bytes_equal_the_composition(self, heads, d_k, name,
                                                                         zeros, seed):
        # The VJP's head sums (``_sum_heads``) and d_k sums (``_sum_last``)
        # round as the composition's reductions, also for -0.0 upstream entries.
        params, table, mod, src, dst, counts = attend_inputs(name, d_k, seed, heads=heads)
        upstream = np.random.default_rng(seed + 7).normal(size=(len(counts), heads * d_k))
        if zeros:
            upstream[np.random.default_rng(seed + 8).random(upstream.shape) < 0.5] = -0.0
        results, g_mods = [], []
        for op in (attend_raw, ref_attend):
            out, att = op(params, table, mod, src, dst, counts)
            grads = ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(upstream))))
            results.append([out.data.tobytes(), np.asarray(getattr(att, "data", att)).tobytes()])
            g_mods.append(grads.get(mod))
        assert results[0] == results[1]
        if mod.requires_grad:
            # With one head the composition's broadcast gradient is not summed,
            # so a -0.0 there stays -0.0 where a sum gives +0.0.
            assert np.array_equal(g_mods[0], g_mods[1])
            if heads > 1:
                assert g_mods[0].tobytes() == g_mods[1].tobytes()

    def test_records_one_tape_op(self, monkeypatch):
        params, table, mod, src, dst, counts = attend_inputs("mean", 2, 0)
        ops = []
        make = ad._make

        def counting_make(data, parents, vjp, op):
            ops.append(op)
            return make(data, parents, vjp, op)

        monkeypatch.setattr(ad, "_make", counting_make)
        attend_raw(params, table, mod, src, dst, counts)
        assert ops == ["edge_attention"]

    @pytest.mark.parametrize("change", ["src", "dst", "counts", "mod"])
    def test_bad_inputs_rejected(self, change):
        params, table, mod, src, dst, counts = attend_inputs("mean", 2, 3)
        if change == "src":
            src = src.copy()
            src[0] = table.shape[0]
        elif change == "dst":
            dst = dst.copy()
            dst[-1] = -1
        elif change == "counts":
            counts = np.append(counts, 1)
        else:
            mod = ad.Tensor(np.ones((len(src), 3)))
        with pytest.raises(ContractError if change == "counts" else ShapeError):
            attend_raw(params, table, mod, src, dst, counts)
