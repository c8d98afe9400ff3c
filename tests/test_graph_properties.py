"""Property tests: the position map, index-form segment ops and numpy validation
agree with their per-edge reference implementations on random graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (
    incoming_segments,
    ref_edge_violation,
    ref_segment_reduce,
    ref_segment_softmax,
)
from heatnet import autodiff as ad
from heatnet.autodiff import Tensor
from heatnet.errors import GraphLookupError, GraphValidationError
from heatnet.hetgraph import HeteroGraph, from_json_dict, remove_node, to_json_dict, validate
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


@PROPERTY
@given(graphs(), st.integers(1, 3), st.sampled_from(["mean", "sum"]), st.integers(0, 2**32 - 1))
def test_segment_ops_match_list_form_bitwise(g, cols, mode, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((g.n_edges, cols)) * 4.0
    upstream = rng.standard_normal((g.n_edges, cols))
    index, segs = g.edge_pos[1], incoming_segments(g)

    xt = Tensor(x.copy(), requires_grad=True)
    w = ad.segment_softmax(xt, index, g.n_nodes)
    ad.backward(ad.reduce_sum(ad.mul(w, Tensor(upstream))))
    ref_w, ref_dx = ref_segment_softmax(x, segs, grad=upstream)
    assert np.array_equal(w.data, ref_w)
    assert np.array_equal(xt.grad, ref_dx)

    upstream = rng.standard_normal((g.n_nodes, cols))
    xt = Tensor(x.copy(), requires_grad=True)
    out = ad.segment_reduce(xt, index, g.n_nodes, mode)
    ad.backward(ad.reduce_sum(ad.mul(out, Tensor(upstream))))
    ref_out, ref_dx = ref_segment_reduce(x, segs, mode, grad=upstream)
    assert np.array_equal(out.data, ref_out)
    assert np.array_equal(xt.grad, ref_dx)


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
