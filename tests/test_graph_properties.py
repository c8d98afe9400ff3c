"""Property tests: the position map, run-form segment ops on the batch layout
and numpy validation agree with their per-edge reference implementations on
random graphs, and the graph file format round-trips every graph bit for bit."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (
    incoming_segments,
    ref_edge_violation,
    ref_segment_reduce,
    ref_segment_softmax,
    segment_softmax,
    segment_sum,
)
from heatnet import autodiff as ad
from heatnet.autodiff import Tensor
from heatnet.errors import GraphLookupError, GraphValidationError
from heatnet.hetgraph import (
    HeteroGraph,
    batch_graphs,
    from_json_dict,
    remove_node,
    to_json_dict,
    validate,
)
from heatnet.testing import random_labeled_graph

PROPERTY = settings(max_examples=80, deadline=None)


def _with_edges(g, src, dst, attrs):
    return HeteroGraph(types=g.types, node_ids=g.node_ids, node_types=g.node_types,
                       features=g.features, edge_src=src, edge_dst=dst, edge_attrs=attrs,
                       label=g.label, coords=g.coords)


@st.composite
def graphs(draw):
    """Valid graphs with scattered, unsorted node ids and shuffled edges.

    Every node keeps a self-loop, so every target segment is nonempty.
    """
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_labeled_graph(rng, n_nodes=n, feature_dim=2,
                                extra_edge_prob=draw(st.sampled_from([0.0, 0.3, 0.8])))
    ids = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n, unique=True))
    relabel = np.asarray(ids, dtype=np.intp)
    perm = rng.permutation(base.n_edges)
    g = HeteroGraph(types=base.types, node_ids=tuple(ids), node_types=base.node_types,
                    features=base.features, edge_src=relabel[base.edge_src[perm]],
                    edge_dst=relabel[base.edge_dst[perm]], edge_attrs=base.edge_attrs[perm],
                    label=base.label, coords=base.coords)
    for _ in range(draw(st.integers(0, n - 1))):
        g = remove_node(g, draw(st.sampled_from(g.node_ids)))
    return g


def _unknown_id(g, k=0):
    return max(g.node_ids) + 1 + k


@PROPERTY
@given(graphs())
def test_edge_pos_matches_per_edge_pos(g):
    src_pos, dst_pos = g.edge_pos
    assert src_pos.tolist() == [g.pos(s) for s in g.edge_src.tolist()]
    assert dst_pos.tolist() == [g.pos(t) for t in g.edge_dst.tolist()]
    assert not src_pos.flags.writeable and not dst_pos.flags.writeable
    assert g.edge_pos is g.edge_pos


@PROPERTY
@given(graphs(), st.data())
def test_unknown_endpoint_raises_lookup_error(g, data):
    row = data.draw(st.integers(0, g.n_edges - 1))
    src, dst = g.edge_src.copy(), g.edge_dst.copy()
    end = data.draw(st.sampled_from([src, dst]))
    end[row] = data.draw(st.sampled_from([_unknown_id(g), min(g.node_ids) - 1]))
    bad = _with_edges(g, src, dst, g.edge_attrs)
    with pytest.raises(GraphLookupError, match=f"unknown node id {end[row]}"):
        bad.edge_pos


VALUE_KINDS = ["normal", "binade", "pairs", "subnormal", "wide", "ties"]


def _values(kind, rng, shape):
    """Adversarial float64 inputs for the exactly rounded segment sums.

    binade: one binade, so every rounding error is exactly half an ulp;
    pairs: x/-x pairs and signed zeros; subnormal: multiples of 2**-1074
    below 2**-1054; wide: magnitudes from 2**-1000 to 2**1000; ties: ones,
    half-ulps of 1 and 2**-1000, whose sums are often a tie broken by the
    tiny remainder, which the summation kernel cannot certify and hands to
    math.fsum.
    """
    if kind == "normal":
        return rng.standard_normal(shape) * 4.0
    if kind == "binade":
        return rng.choice([-1.0, 1.0], shape) * (1.0 + rng.integers(0, 2**52, shape) * 2.0**-52)
    if kind == "pairs":
        return rng.choice([1.5, -1.5, 2.0**-30, -2.0**-30, 0.0, -0.0], shape)
    if kind == "subnormal":
        return rng.integers(-2**20, 2**20, shape) * 2.0**-1074
    if kind == "wide":
        return (rng.choice([-1.0, 1.0], shape)
                * np.ldexp(rng.random(shape) + 0.5, rng.integers(-1000, 1000, shape)))
    return rng.choice([1.0, 2.0**-53, 2.0**-1000], shape)


@PROPERTY
@given(graphs(), st.integers(1, 3), st.sampled_from(["mean", "sum"]),
       st.sampled_from(VALUE_KINDS), st.sampled_from([0, 200, 257]), st.integers(0, 2**32 - 1))
def test_segment_ops_match_list_form_bitwise(g, cols, mode, kind, extra, seed):
    """Values and gradients equal the fsum loops byte for byte (so -0.0 != 0.0).

    Segments are the runs of a one-graph batch's target-sorted edge rows;
    ``extra`` rows all join one target's run, after its edges. Without them
    every segment is a node's in-edges, often a single self-loop.
    """
    rng = np.random.default_rng(seed)
    batch = batch_graphs([g])
    counts, segs = batch.targets.counts.copy(), incoming_segments(batch)
    if extra:
        big = int(rng.integers(g.n_nodes))
        end = int(segs[big][-1]) + 1
        counts[big] += extra
        segs = [np.where(seg >= end, seg + extra, seg) for seg in segs]
        segs[big] = np.concatenate([segs[big], np.arange(end, end + extra)])
    x = _values(kind, rng, (int(counts.sum()), cols))
    upstream = _values(kind, rng, x.shape)

    xt = Tensor(x.copy(), requires_grad=True)
    w = segment_softmax(xt, counts)
    ad.backward(ad.reduce_sum(ad.mul(w, Tensor(upstream))))
    ref_w, ref_dx = ref_segment_softmax(x, segs, grad=upstream)
    assert w.data.tobytes() == ref_w.tobytes()
    assert xt.grad.tobytes() == ref_dx.tobytes()

    upstream = rng.standard_normal((g.n_nodes, cols))
    xt = Tensor(x.copy(), requires_grad=True)
    out = ad.segment_reduce(xt, ad.Runs(counts)) if mode == "mean" else segment_sum(xt, counts)
    ad.backward(ad.reduce_sum(ad.mul(out, Tensor(upstream))))
    ref_out, ref_dx = ref_segment_reduce(x, segs, mode, grad=upstream)
    assert out.data.tobytes() == ref_out.tobytes()
    assert xt.grad.tobytes() == ref_dx.tobytes()


def _inject_faults(g, data, kinds):
    """Insert duplicate edges and/or unknown endpoints at random rows."""
    src, dst, attrs = g.edge_src.tolist(), g.edge_dst.tolist(), g.edge_attrs.tolist()
    for k in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(kinds))
        if kind == "duplicate":
            j = data.draw(st.integers(0, len(src) - 1))
            row = data.draw(st.integers(0, len(src)))
            src.insert(row, src[j])
            dst.insert(row, dst[j])
            attrs.insert(row, attrs[j])
        else:
            row = data.draw(st.integers(0, len(src) - 1))
            (src if kind == "src" else dst)[row] = _unknown_id(g, k)
    return _with_edges(g, np.asarray(src), np.asarray(dst), np.asarray(attrs))


def _check_first_fault(bad):
    expected = ref_edge_violation(bad)
    assert expected is not None
    v = validate(bad)
    assert (v.kind, v.message, v.edge) == expected
    with pytest.raises(GraphValidationError) as exc:
        from_json_dict(to_json_dict(bad))
    parsed = exc.value.violation
    assert (parsed.kind, parsed.message, parsed.edge) == expected


@PROPERTY
@given(graphs(), st.data())
def test_validate_reports_first_fault_like_edge_loop(g, data):
    _check_first_fault(_inject_faults(g, data, ["src", "dst", "duplicate"]))


@PROPERTY
@given(graphs(), st.data())
def test_validate_reports_first_duplicate_like_edge_loop(g, data):
    _check_first_fault(_inject_faults(g, data, ["duplicate"]))


@PROPERTY
@given(graphs())
def test_valid_graphs_pass_validate(g):
    assert validate(g) is None
    assert ref_edge_violation(g) is None


# Signed zeros, the smallest and largest subnormals, and extremes of the normal range.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
                  -2.2250738585072014e-308, 0.1, -1.5]


@PROPERTY
@given(graphs(), st.integers(0, 3), st.integers(0, 3), st.sampled_from(["all", "some", "none"]),
       st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_json_round_trip_is_bit_exact(g, feature_dim, edge_dim, edges, coords, label, seed):
    rng = np.random.default_rng(seed)

    def values(shape):
        return np.where(rng.random(shape) < 0.5, rng.choice(SPECIAL_FLOATS, shape),
                        rng.standard_normal(shape))

    keep = {"all": np.ones(g.n_edges, bool), "none": np.zeros(g.n_edges, bool),
            "some": rng.random(g.n_edges) < 0.5}[edges]
    h = HeteroGraph(types=g.types, node_ids=g.node_ids, node_types=g.node_types,
                    features=values((g.n_nodes, feature_dim)), edge_src=g.edge_src[keep],
                    edge_dst=g.edge_dst[keep], edge_attrs=values((int(keep.sum()), edge_dim)),
                    label=g.label if label else None, coords=g.coords if coords else None)
    back = from_json_dict(json.loads(json.dumps(to_json_dict(h))))
    assert back == h
    assert back.features.tobytes() == h.features.tobytes()
    assert back.edge_attrs.tobytes() == h.edge_attrs.tobytes()
