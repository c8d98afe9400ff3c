"""Property tests: row-tiled k-NN and the batched Pearson kernel agree with the
dense k-NN and the per-edge Pearson loop they replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference
from _reference import _similarity_matrix, ref_edge_attrs, ref_knn_edges
from heatnet import builder
from heatnet.builder import BuildConfig, PatchRecord, build_graph, knn_edges

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


def _stacked_tiles(feats, metric):
    return np.vstack([sims for _, _, sims in builder._similarity_tiles(feats, metric)])


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
@given(knn_inputs(), st.sampled_from(["cosine", "euclidean"]), st.booleans())
def test_one_tile_is_the_dense_matrix(inputs, metric, symmetric):
    """Below the budget the whole matrix is one tile: the dense product, bit for bit."""
    feats, k = inputs
    assert len(builder._row_tiles(len(feats))) == 1
    assert _stacked_tiles(feats, metric).tobytes() == _similarity_matrix(feats, metric).tobytes()
    assert knn_edges(feats, k, metric, symmetric) == ref_knn_edges(feats, k, metric, symmetric)


@PROPERTY
@given(knn_inputs(), st.integers(3, 5), st.sampled_from(["cosine", "euclidean"]), st.booleans())
@example((np.ones((10, 2)), 4), 3, "cosine", True)
@example((np.arange(22.0).reshape(11, 2) % 3, 2), 3, "euclidean", False)
def test_tiles_select_like_dense(inputs, rows, metric, symmetric):
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
        assert knn_edges(feats, k, metric, symmetric) == ref_knn_edges(feats, k, metric, symmetric)


@PROPERTY
@given(knn_inputs(), st.integers(3, 5))
def test_tiles_match_dense_within_rounding(inputs, rows):
    """Each tile holds its own rows of the dense matrix, up to BLAS rounding."""
    feats, _ = inputs
    n, d = feats.shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builder, "_TILE_BYTES", 8 * n * rows)
        cos = _stacked_tiles(feats, "cosine")
        euc = _stacked_tiles(feats, "euclidean")
    np.testing.assert_allclose(cos, _similarity_matrix(feats, "cosine"), rtol=0, atol=4 * d * EPS)
    sq = np.sum(feats ** 2, axis=1)
    scale = sq[:, None] + sq[None, :]
    np.testing.assert_array_less(np.abs(euc ** 2 - _similarity_matrix(feats, "euclidean") ** 2),
                                 8 * (d + 2) * EPS * scale + 1e-300)


def test_knn_memory_is_tiled():
    feats = np.random.default_rng(0).standard_normal((8000, 4))
    tracemalloc.start()
    try:
        knn_edges(feats, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense similarity matrix alone would take 8000^2 * 8 bytes = 488 MiB
    assert peak < 64 * 2**20


@PROPERTY
@given(knn_inputs(), st.booleans())
def test_build_attrs_match_per_edge_loop(inputs, self_loops):
    """Batched Pearson attributes equal the per-edge loop's: exactly for 0 and
    +-1 (constant, equal and negated rows, self-loops), otherwise to rounding."""
    feats, k = inputs
    n, d = feats.shape
    if d < 2:
        feats = np.hstack([feats, feats[:, ::-1] * 2.0 - 1.0])
        d = feats.shape[1]
    feats[::3] = -feats[::3]
    patches = [PatchRecord(f"p{i}", i, 0, f, type_label="dead") for i, f in enumerate(feats)]
    g = build_graph(patches, BuildConfig(k=k, add_self_loops=self_loops))
    src, dst = g.edge_src, g.edge_dst
    expected = ref_edge_attrs(feats, list(zip(src.tolist(), dst.tolist())))[:, 0]
    got = g.edge_attrs[:, 0]
    centred = feats - feats.mean(axis=1, keepdims=True)
    a, b = centred[src], centred[dst]
    special = ((src == dst) | (a == b).all(axis=1) | (a == -b).all(axis=1)
               | (a == 0.0).all(axis=1) | (b == 0.0).all(axis=1))
    assert got[special].tobytes() == expected[special].tobytes()
    np.testing.assert_allclose(got, expected, rtol=0, atol=4 * d * EPS)
