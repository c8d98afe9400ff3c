"""Property tests: row-tiled k-NN, with its block-candidate selection, and the
batched Pearson kernel agree with the dense k-NN and the per-edge Pearson loop
they replaced; subgraphs carry the edge positions a lookup would give."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import _reference
from _reference import _similarity_matrix, ref_edge_attrs, ref_knn_edges
from heatnet import builder
from heatnet.builder import AugmentConfig, BuildConfig, PatchRecord, augment, build_graph, knn_edges
from heatnet.hetgraph import HeteroGraph, remove_node
from heatnet.testing import random_labeled_graph

PROPERTY = settings(max_examples=80, deadline=None)
EPS = np.finfo(np.float64).eps


@st.composite
def knn_inputs(draw):
    """Features with duplicate rows, zero rows and, half the time, integer values.

    Rows are drawn from a pool smaller than n, so duplicates are common;
    integer-valued features make exact similarity ties common too.
    """
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool_size = draw(st.integers(1, n))
    if draw(st.booleans()):
        pool = rng.integers(-2, 3, (pool_size, d)).astype(np.float64)
    else:
        pool = rng.standard_normal((pool_size, d))
    feats = pool[rng.integers(0, pool_size, n)]
    feats[rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    k = draw(st.integers(1, n - 1))
    return feats, k


@st.composite
def large_knn_inputs(draw):
    """Up to 600 nodes from small integer pools, with zero rows.

    Duplicate rows and few distinct values tie block maxima as well as
    similarities, so rows take both the candidate and the whole-row path.
    """
    n = draw(st.integers(2, 600))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool_size = draw(st.integers(1, n))
    span = draw(st.sampled_from([2, 5, 50]))
    pool = rng.integers(-span, span + 1, (pool_size, d)).astype(np.float64)
    feats = pool[rng.integers(0, pool_size, n)]
    feats[rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.3]))] = 0.0
    k = draw(st.integers(1, min(n - 1, 40)))
    return feats, k


def _stacked_tiles(feats):
    return np.vstack([sims for _, _, sims in builder._similarity_tiles(feats)])


def _assert_same_edges(got, want):
    """The same (E, 2) intp edge array: shape, dtype and every entry."""
    np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("n, rows, expected", [
    (9, 3, [(0, 3), (3, 6), (6, 9)]),
    (10, 3, [(0, 3), (3, 6), (6, 10)]),         # a 1-row remainder folds back
    (11, 3, [(0, 3), (3, 6), (6, 11)]),         # a 2-row remainder folds back
    (12, 5, [(0, 5), (5, 12)]),
    (13, 5, [(0, 5), (5, 10), (10, 13)]),
    (4, 1, [(0, 4)]),                           # never fewer than three rows
    (2, 100, [(0, 2)]),
])
def test_row_tiles_fold_short_remainders(n, rows, expected, monkeypatch):
    monkeypatch.setattr(builder, "_TILE_BYTES", 8 * n * rows)
    assert builder._row_tiles(n) == expected


@PROPERTY
@given(knn_inputs())
def test_one_tile_is_the_dense_matrix(inputs):
    """Below the budget the whole matrix is one tile: the dense product, bit for bit."""
    feats, k = inputs
    assert len(builder._row_tiles(len(feats))) == 1
    assert _stacked_tiles(feats).tobytes() == _similarity_matrix(feats).tobytes()
    _assert_same_edges(knn_edges(feats, k), ref_knn_edges(feats, k))


def test_candidates_select_like_dense(monkeypatch):
    """Rows narrowed to block candidates select what the dense per-row sort selects.

    Up to 1024 nodes the matrix is one tile, the dense product itself. Each
    ``_top_k`` call is recorded as candidates (fewer columns than nodes) or
    whole rows, and both paths must have run.
    """
    taken = set()
    top_k = builder._top_k

    def recording_top_k(vals, k):
        taken.add("candidates" if vals.shape[1] < recording_top_k.n else "whole rows")
        return top_k(vals, k)

    monkeypatch.setattr(builder, "_top_k", recording_top_k)

    @settings(max_examples=60, deadline=None)
    @given(large_knn_inputs())
    def check(inputs):
        feats, k = inputs
        assert len(builder._row_tiles(len(feats))) == 1
        recording_top_k.n = len(feats)
        _assert_same_edges(knn_edges(feats, k), ref_knn_edges(feats, k))

    check()
    assert taken == {"candidates", "whole rows"}


@PROPERTY
@given(knn_inputs(), st.integers(3, 5))
@example((np.ones((10, 2)), 4), 3)
@example((np.arange(22.0).reshape(11, 2) % 3, 2), 3)
def test_tiles_select_like_dense(inputs, rows):
    """Several tiles select what the dense per-row sort selects on the same values.

    The dense oracle is handed the stacked tiles as its similarity matrix,
    so ties (duplicate rows, zero vectors, integer features) are decided by
    the tiled partition and by the per-row lexsort on identical numbers.
    """
    feats, k = inputs
    n = len(feats)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builder, "_TILE_BYTES", 8 * n * rows)
        mp.setattr(_reference, "_similarity_matrix", _stacked_tiles)
        _assert_same_edges(knn_edges(feats, k), ref_knn_edges(feats, k))


@PROPERTY
@given(knn_inputs(), st.integers(3, 5))
def test_tiles_match_dense_within_rounding(inputs, rows):
    """Each tile holds its own rows of the dense matrix, up to BLAS rounding."""
    feats, _ = inputs
    n, d = feats.shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builder, "_TILE_BYTES", 8 * n * rows)
        cos = _stacked_tiles(feats)
    np.testing.assert_allclose(cos, _similarity_matrix(feats), rtol=0, atol=4 * d * EPS)


def test_knn_memory_is_tiled():
    feats = np.random.default_rng(0).standard_normal((8000, 4))
    tracemalloc.start()
    try:
        knn_edges(feats, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense similarity matrix alone would take 8000^2 * 8 bytes = 488 MiB;
    # two 8 MiB tiles, and no whole-tile copy for the selection, fit in 24
    assert peak < 24 * 2**20


@PROPERTY
@given(knn_inputs())
def test_build_attrs_match_per_edge_loop(inputs):
    """Batched Pearson attributes equal the per-edge loop's: exactly for 0 and
    +-1 (constant, equal and negated rows, self-loops), otherwise to rounding."""
    feats, k = inputs
    n, d = feats.shape
    if d < 2:
        feats = np.hstack([feats, feats[:, ::-1] * 2.0 - 1.0])
        d = feats.shape[1]
    feats[::3] = -feats[::3]
    patches = [PatchRecord(f"p{i}", i, 0, f, type_label="dead") for i, f in enumerate(feats)]
    g = build_graph(patches, BuildConfig(k=k))
    src, dst = g.edge_src, g.edge_dst
    expected = ref_edge_attrs(feats, list(zip(src.tolist(), dst.tolist())))[:, 0]
    got = g.edge_attrs[:, 0]
    centred = feats - feats.mean(axis=1, keepdims=True)
    a, b = centred[src], centred[dst]
    special = ((src == dst) | (a == b).all(axis=1) | (a == -b).all(axis=1)
               | (a == 0.0).all(axis=1) | (b == 0.0).all(axis=1))
    assert got[special].tobytes() == expected[special].tobytes()
    np.testing.assert_allclose(got, expected, rtol=0, atol=4 * d * EPS)


@st.composite
def spaced_graphs(draw):
    """Random graphs whose node ids are distinct, unsorted and far apart."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_labeled_graph(rng, n_nodes=draw(st.integers(1, 20)), feature_dim=3,
                             extra_edge_prob=draw(st.sampled_from([0.0, 0.2, 0.6])))
    ids = rng.choice(10**6, g.n_nodes, replace=False)
    return HeteroGraph(**{**{f.name: getattr(g, f.name) for f in fields(g)},
                          "node_ids": tuple(ids.tolist()),
                          "edge_src": ids[g.edge_src], "edge_dst": ids[g.edge_dst]}), rng


def _assert_carries_lookup(sub):
    """``sub.edge_pos`` was seeded, and equals the lookup on a copy with
    identical fields and an empty cache: values, dtype and read-only flags."""
    assert "edge_pos" in vars(sub)
    fresh = HeteroGraph(**{f.name: getattr(sub, f.name) for f in fields(sub)})
    assert "edge_pos" not in vars(fresh)
    for carried, looked in zip(sub.edge_pos, fresh.edge_pos):
        assert carried.dtype == looked.dtype == np.intp
        assert not carried.flags.writeable and not looked.flags.writeable
        assert carried.tobytes() == looked.tobytes()


@PROPERTY
@given(spaced_graphs(),
       st.sampled_from([0.0, 0.3, 0.9, 1.0]),     # at 1.0 only the largest draw survives
       st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from([0.0, 0.1]), st.sampled_from([0.0, 0.1]))
def test_augment_carries_edge_positions(case, node_drop, edge_drop, feature_noise, edge_noise):
    g, rng = case
    cfg = AugmentConfig(edge_drop_prob=edge_drop, node_drop_prob=node_drop,
                        feature_noise_sigma=feature_noise, edge_noise_sigma=edge_noise)
    assume(not cfg.is_identity)
    out = augment(g, cfg, rng)
    assert out.n_nodes >= 1
    _assert_carries_lookup(out)


@PROPERTY
@given(spaced_graphs(), st.data())
def test_remove_node_carries_edge_positions(case, data):
    g, _ = case
    _assert_carries_lookup(remove_node(g, data.draw(st.sampled_from(g.node_ids))))
