"""Straight-line reference implementations used as oracles.

These recompute the layer, pooling, and full-model forward passes with
plain Python loops over raw numpy parameter arrays, independently of the
autodiff path they are checked against. The slow paths that the package
replaced (per-edge id lookups, list-of-segments segment ops, the per-edge
validation loops, the dense k-NN and the per-edge Pearson loop of graph
construction, the unfused attention composition ``ref_attend``, the
earlier exact-sum kernel ``ref_segment_fsum`` with its grid scale
``ref_grid_scale``, the per-name Adam update
``ref_adam_step`` with its per-name moments ``RefAdamState``, and the
zero-padded pooling head ``ref_pooled_logits``) are kept here as oracles
for the fast ones. The tape ops only those oracles
and the tests use (``add``, ``reshape``, ``reduce_sum`` along an axis,
``segment_softmax`` and ``segment_sum``) are built here on
``autodiff._make``, and
``pearson_pair`` applies the package's Pearson kernel to one pair of
vectors. ``from_lists``
builds the small hand-written graphs of the tests from per-node and
per-edge tuples; ``float_column`` and ``set_float_column`` decode and
re-encode a graph document's base64 float column. ``forced_blocks``
shrinks every row block of the blocked autodiff ops to a given number of
rows.
"""

import base64
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from heatnet import autodiff as ad
from heatnet.builder import _pearson
from heatnet.errors import ConfigError, ShapeError, TrainingError
from heatnet.hetgraph import HeteroGraph
from heatnet.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def from_lists(types, nodes, edges, label=None):
    """Build a graph from per-node/per-edge tuples.

    nodes: (id, type_name, feature[, (x, y)]); edges: (src, dst, attr).
    """
    ids = [n[0] for n in nodes]
    type_idx = [types.index(n[1]) for n in nodes]
    feats = np.asarray([n[2] for n in nodes], dtype=np.float64)
    if feats.ndim == 1 and len(nodes):
        feats = feats.reshape(len(nodes), -1)
    coords = None
    if nodes and len(nodes[0]) > 3 and nodes[0][3] is not None:
        coords = np.asarray([n[3] for n in nodes], dtype=np.int64)
    src = np.asarray([e[0] for e in edges], dtype=np.intp)
    dst = np.asarray([e[1] for e in edges], dtype=np.intp)
    attrs = np.asarray([e[2] for e in edges], dtype=np.float64)
    if attrs.ndim == 1 and len(edges):
        attrs = attrs.reshape(len(edges), -1)
    if len(edges) == 0:
        src = np.zeros(0, dtype=np.intp)
        dst = np.zeros(0, dtype=np.intp)
        attrs = np.zeros((0, 1), dtype=np.float64)
    if len(nodes) == 0:
        feats = np.zeros((0, 0), dtype=np.float64)
        type_idx = np.zeros(0, dtype=np.intp)
    return HeteroGraph(types, tuple(ids), np.asarray(type_idx, dtype=np.intp), feats,
                       src, dst, attrs, label=label, coords=coords)


_FLOAT_COLUMNS = {"feat": ("nodes", "feature_dim"), "attr": ("edges", "edge_dim")}


def float_column(doc, key):
    """A graph document's ``feat`` or ``attr`` column as a writable (rows, width) array."""
    table, dim = _FLOAT_COLUMNS[key]
    raw = base64.b64decode(doc[table][key])
    return np.frombuffer(raw, dtype="<f8").reshape(-1, doc[dim]).copy()


def set_float_column(doc, key, a):
    """Store ``a`` as a graph document's ``feat`` or ``attr`` column: the
    base64 of its row-major, little-endian float64 bytes."""
    table, _ = _FLOAT_COLUMNS[key]
    doc[table][key] = base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


@contextmanager
def forced_blocks(rows):
    """Inside the block, every product block of ``autodiff`` holds ``rows``
    rows and every attention block whole segments of at most ``rows`` rows
    (or one longer segment); ``rows=None`` keeps the module's budgets."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(ad, "_block_rows", lambda budget, row_bytes: rows)
        yield


def head_blocks(w, names, heads):
    """Split a stacked (T, heads * d_k, d_in) projection into per-head blocks.

    Returns {names[a]: [head 0 block, head 1 block, ...]}, each block a
    (d_k, d_in) view into the tensor's data, so writing into it edits the
    parameter.
    """
    return {name: np.split(w.data[a], heads) for a, name in enumerate(names)}


def ref_layer_forward(feats, type_idx, edges, attrs, w_node, w_edge, heads,
                      aggregation="mean", type_names=None):
    """One attention layer, edge by edge and target by target.

    feats: (n, d_in); type_idx: (n,) into type_names; edges: list of
    (src_pos, dst_pos); attrs: (E, d_e); w_node: {type_name: [per-head
    (d_k, d_in)]}; w_edge: (d_k, d_e) or None (all-ones modulation).
    Returns (H_out (n, d_out), new_attrs (E, d_k)).
    """
    n = feats.shape[0]
    n_edges = len(edges)
    some_w = next(iter(w_node.values()))
    d_k = some_w[0].shape[0]
    d_out = d_k * heads

    def w_for(pos, head):
        if type_names is None:
            return some_w[head]
        return w_node[type_names[type_idx[pos]]][head]

    keys = np.zeros((n_edges, heads, d_k))
    queries = np.zeros((n_edges, heads, d_k))
    values = np.zeros((n_edges, heads, d_k))
    eproj = np.zeros((n_edges, d_k))
    scores = np.zeros((n_edges, heads))
    for e, (s, t) in enumerate(edges):
        for i in range(heads):
            keys[e, i] = w_for(s, i) @ feats[s]
            values[e, i] = w_for(s, i) @ feats[s]
            queries[e, i] = w_for(t, i) @ feats[t]
        eproj[e] = np.ones(d_k) if w_edge is None else w_edge @ attrs[e]
        for i in range(heads):
            scores[e, i] = float(np.sum(keys[e, i] * eproj[e] * queries[e, i])) / math.sqrt(d_k)

    att = np.zeros((n_edges, heads))
    for t in range(n):
        rows = [e for e, (_, dst) in enumerate(edges) if dst == t]
        assert rows, f"target {t} has no incoming edges"
        for i in range(heads):
            block = np.array([scores[e, i] for e in rows])
            ex = np.exp(block - block.max())
            w = ex / ex.sum()
            for r, e in enumerate(rows):
                att[e, i] = w[r]

    h_out = np.zeros((n, d_out))
    for t in range(n):
        rows = [e for e, (_, dst) in enumerate(edges) if dst == t]
        agg = np.zeros(d_out)
        for e in rows:
            per_edge = np.concatenate([values[e, i] * att[e, i] for i in range(heads)])
            agg += per_edge
        if aggregation == "mean":
            agg /= len(rows)
        h_out[t] = agg
    return h_out, eproj


def ref_pl_pool(feats, type_idx, n_types, readout=None):
    """Per-type mean then optional (d, d) linear map; empty types -> zeros."""
    n, d = feats.shape
    out = np.zeros((n_types, d))
    for a in range(n_types):
        rows = [i for i in range(n) if type_idx[i] == a]
        if not rows:
            continue
        mean = np.mean([feats[i] for i in rows], axis=0)
        out[a] = mean if readout is None else readout[a] @ mean
    return out


def ref_pooled_logits(means, cells, readout, weight, bias):
    """``ad.pooled_logits`` as the composition of tape ops it replaced:
    per-type maps (``typed_matmul``), a zero row gathered for every absent
    (graph, type) cell, the mean over each graph's ``n_types`` rows, and
    ``linear``."""
    cells, n_types = cells.cells, cells.n_types
    n_graphs = int(cells[-1]) // n_types + 1
    if readout is not None:
        means = ad.typed_matmul(means, readout, ad.Index(cells % n_types, n_types))
    # Absent cells read the zero row appended after the present ones.
    rows = np.full(n_graphs * n_types, len(cells), dtype=np.intp)
    rows[cells] = np.arange(len(cells))
    padded = ad.gather_rows(ad.concat([means, ad.Tensor(np.zeros((1, means.shape[1])))]),
                            ad.Index(rows, len(cells) + 1))
    return ad.linear(ad.segment_reduce(padded, ad.Runs(np.full(n_graphs, n_types))), weight, bias)


def ref_graph_logits(pooled, classifier_w, classifier_b):
    return classifier_w @ pooled.mean(axis=0) + classifier_b


def ref_mean_pool_logits(feats, classifier_w, classifier_b):
    return classifier_w @ feats.mean(axis=0) + classifier_b


def leaky(x, slope=0.01):
    return np.where(x > 0, x, slope * x)


def ref_model_forward(g, model):
    """Eval-mode logits recomputed from the model's raw parameter arrays."""
    cfg = model.config
    type_names = None if cfg.type_blind else g.types.names
    pos = {nid: i for i, nid in enumerate(g.node_ids)}
    edges = [(pos[int(s)], pos[int(t)]) for s, t in zip(g.edge_src, g.edge_dst)]
    feats = g.features.copy()
    attrs = g.edge_attrs.copy()
    for li, layer in enumerate(model.layers):
        names = ("shared",) if cfg.type_blind else g.types.names
        w_node = head_blocks(layer.w_node, names, layer.heads)
        w_edge = None if layer.w_edge is None else layer.w_edge.data
        feats, attrs = ref_layer_forward(feats, g.node_types, edges, attrs,
                                         w_node, w_edge, layer.heads,
                                         aggregation=layer.aggregation,
                                         type_names=type_names)
        if li < len(model.layers) - 1:
            feats = leaky(feats)
    pool = model.pool
    if cfg.pooling == "pl":
        readout = None
        if pool.readout is not None:
            readout = list(pool.readout.data)
        pooled = ref_pl_pool(feats, g.node_types, len(g.types), readout)
        return ref_graph_logits(pooled, pool.classifier_w.data, pool.classifier_b.data)
    return ref_mean_pool_logits(feats, pool.classifier_w.data, pool.classifier_b.data)


def add(a, b):
    """Broadcasting sum of two tensors, as a tape op."""
    a, b = ad._lift(a), ad._lift(b)

    def vjp(g):
        return (ad._unbroadcast(g, a.data.shape), ad._unbroadcast(g, b.data.shape))

    return ad._make(a.data + b.data, (a, b), vjp, "add")


def reshape(a, shape):
    """A tensor's entries in a new shape, as a tape op."""
    orig = a.data.shape

    def vjp(g):
        return (g.reshape(orig),)

    return ad._make(a.data.reshape(shape).copy(), (a,), vjp, "reshape")


def reduce_sum(a, axis):
    """numpy's sum of a tensor along ``axis``, as a tape op."""

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy(),)

    return ad._make(a.data.sum(axis=axis), (a,), vjp, "sum")


def segment_softmax(x, counts):
    """Per-column softmax over each run of ``counts[s]`` rows of a 2-D tensor,
    as a tape op, from the kernels ``ad.edge_attention`` normalizes with."""
    if x.data.ndim != 2:
        raise ShapeError(f"segment_softmax expects a 2-D tensor, got {x.data.shape}")
    runs = ad.Runs(counts)
    runs.check(x.data.shape[0], "segment_softmax")
    w = ad._softmax_runs(x.data, runs)

    def vjp(g):
        return (ad._softmax_runs_vjp(g, w, runs),)

    return ad._make(w, (x,), vjp, "segment_softmax")


def segment_sum(x, counts):
    """Exactly rounded column sums of each run of ``counts[s]`` rows of a
    2-D tensor, as a tape op, from the kernel ``ad.segment_reduce`` means with."""
    if x.data.ndim != 2:
        raise ShapeError(f"segment_sum expects a 2-D tensor, got {x.data.shape}")
    runs = ad.Runs(counts)
    runs.check(x.data.shape[0], "segment_sum")

    def vjp(g):
        return (np.repeat(g, runs.counts, axis=0),)

    return ad._make(ad._segment_fsum(x.data, runs), (x,), vjp, "segment_sum")


def ref_attend(params, node_proj, eproj, src, dst, counts):
    """``layers.attend`` as a composition of a dozen tape ops.

    Gathers keys (also the values) and queries into (E, heads, d_k) blocks,
    multiplies in the modulation, sums, scales, runs ``segment_softmax`` and
    aggregates the weighted values with ``segment_reduce`` (mean) or
    ``segment_sum``, where the package records one op. Returns the output
    tensor and the weight tensor.
    """
    heads, d_k = params.heads, params.d_k

    def blocks(t):
        return reshape(t, (-1, heads, d_k))

    node_proj = blocks(node_proj)
    keys = ad.gather_rows(node_proj, ad.Index(src, node_proj.shape[0]))
    queries = ad.gather_rows(node_proj, ad.Index(dst, node_proj.shape[0]))
    modulated = ad.mul(ad.mul(keys, reshape(eproj, (-1, 1, d_k))), queries)
    scores = ad.scale(reduce_sum(modulated, axis=2), 1.0 / math.sqrt(d_k))
    att = segment_softmax(scores, counts)
    weighted = reshape(ad.mul(keys, reshape(att, (-1, heads, 1))), (-1, params.d_out))
    if params.aggregation == "mean":
        return ad.segment_reduce(weighted, ad.Runs(counts)), att
    return segment_sum(weighted, counts), att


def ref_plain_attention(feats, w, edges, aggregation="sum"):
    """Textbook single-head scaled dot-product graph attention.

    score(s, t) = (W h_s) . (W h_t) / sqrt(d_k); softmax over each target's
    incoming edges; output aggregates attention-weighted W h_s.
    """
    n = feats.shape[0]
    d_k = w.shape[0]
    proj = feats @ w.T
    out = np.zeros((n, d_k))
    for t in range(n):
        srcs = [s for s, dst in edges if dst == t]
        scores = np.array([proj[s] @ proj[t] / math.sqrt(d_k) for s in srcs])
        ex = np.exp(scores - scores.max())
        alpha = ex / ex.sum()
        agg = np.zeros(d_k)
        for a, s in zip(alpha, srcs):
            agg += a * proj[s]
        if aggregation == "mean":
            agg /= len(srcs)
        out[t] = agg
    return out


def incoming_segments(batch):
    """Edge-row indices of a GraphBatch grouped by target position, edge by
    edge, one group per node.

    Empty groups are legal at this level (the layer enforces the
    nonempty-neighborhood contract).
    """
    segs = [[] for _ in range(batch.n_nodes)]
    for e, t in enumerate(batch.dst.rows.tolist()):
        segs[t].append(e)
    return [np.asarray(s, dtype=np.intp) for s in segs]


def edge_list(batch):
    """The batch's edges as (src_pos, dst_pos) pairs, in its row order."""
    return list(zip(batch.src.rows.tolist(), batch.dst.rows.tolist()))


def ref_segment_softmax(x, segments, grad=None):
    """List-of-segments softmax of an (rows, c) array, per column.

    Returns the weights, or with ``grad`` the input gradient as well.
    """
    out = np.empty_like(x)
    for seg in segments:
        ex = np.exp(x[seg] - x[seg].max(axis=0))
        for c in range(ex.shape[1]):
            out[seg, c] = ex[:, c] / math.fsum(ex[:, c].tolist())
    if grad is None:
        return out
    dx = np.empty_like(x)
    for seg in segments:
        w, gb = out[seg], grad[seg]
        for c in range(w.shape[1]):
            dx[seg, c] = w[:, c] * (gb[:, c] - math.fsum((gb[:, c] * w[:, c]).tolist()))
    return out, dx


def ref_segment_reduce(x, segments, mode="mean", grad=None):
    """List-of-segments row sums or means; with ``grad`` also the input gradient."""
    out = np.empty((len(segments), x.shape[1]))
    for i, seg in enumerate(segments):
        out[i] = [math.fsum(col) for col in x[seg].T.tolist()]
        if mode == "mean":
            out[i] /= len(seg)
    if grad is None:
        return out
    dx = np.zeros_like(x)
    for i, seg in enumerate(segments):
        dx[seg] = grad[i] / len(seg) if mode == "mean" else grad[i]
    return out, dx


def ref_grid_scale(counts):
    """The least ``scale`` with 2**scale >= every count + 2: the exact-sum
    grid scale that ``autodiff.Runs`` computes from its longest run."""
    return int(np.max(counts, initial=0) + 1).bit_length()


def ref_segment_fsum(xs, starts, counts):
    """Exactly rounded column sums of row segments, as math.fsum: the
    two-pass extraction kernel that ``ad._segment_fsum`` replaced.

    Each pass computes its own grid from the largest magnitude of the
    values it extracts, and the certificate is always evaluated.
    """
    scale = ref_grid_scale(counts)

    def extract(rest):
        mu = np.maximum.reduceat(np.abs(rest), starts, axis=0)
        sigma = np.repeat(np.ldexp(2.0 ** scale, np.frexp(mu)[1]), counts, axis=0)
        q = (sigma + rest) - sigma
        return np.add.reduceat(q, starts, axis=0), rest - q

    with np.errstate(over="ignore", invalid="ignore"):
        tau0, rest = extract(xs)
        tau1, rest = extract(rest)
        hi = tau0 + tau1
        z = hi - tau0
        lo = (tau0 - (hi - z)) + (tau1 - z)
        r_abs = np.add.reduceat(np.abs(rest), starts, axis=0)
        bound = np.abs(lo) + r_abs * (1.0 + 2.0 ** (scale - 51))
        mag = np.abs(hi)
        gap = mag - np.nextafter(mag, 0.0)
        ok = np.isfinite(hi) & ((r_abs == 0.0) | (bound < gap * (0.5 - 2.0 ** -51)))
    for s, c in zip(*np.nonzero(~ok)):
        hi[s, c] = math.fsum(xs[starts[s]:starts[s] + counts[s], c].tolist())
    return hi


def ref_edge_violation(g):
    """First missing-endpoint or duplicate-edge fault, found edge by edge.

    Returns (kind, message, edge) or None; endpoints are checked over all
    edges before duplicates, as ``validate`` does.
    """
    known = set(g.node_ids)
    for s, t in zip(g.edge_src.tolist(), g.edge_dst.tolist()):
        if s not in known:
            return ("missing-endpoint", f"edge source {s} is not a node", (s, t))
        if t not in known:
            return ("missing-endpoint", f"edge target {t} is not a node", (s, t))
    pairs = set()
    for s, t in zip(g.edge_src.tolist(), g.edge_dst.tolist()):
        if (s, t) in pairs:
            return ("duplicate-edge", f"edge ({s}, {t}) appears twice", (s, t))
        pairs.add((s, t))
    return None


def _similarity_matrix(feats: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(feats, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = feats / safe[:, None]
    sims = unit @ unit.T
    # zero vectors are defined to have similarity 0 with everything
    zero = norms == 0.0
    sims[zero, :] = 0.0
    sims[:, zero] = 0.0
    return sims


def ref_knn_edges(features: Sequence[np.ndarray] | np.ndarray, k: int) -> np.ndarray:
    """Symmetric cosine k-NN edges over node positions 0..n-1.

    For each node v the k most similar other nodes u are selected (ties
    broken by lower node index) and both u -> v and v -> u are inserted,
    duplicates collapsed. Returns the (E, 2) array of (src, dst) rows
    sorted by (src, dst).
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ShapeError(f"features must be (n, d), got {feats.shape}")
    n = feats.shape[0]
    if k >= n:
        raise ConfigError(f"k={k} must be smaller than the node count {n}")
    sims = _similarity_matrix(feats)
    idx = np.arange(n)
    pairs: set[tuple[int, int]] = set()
    for v in range(n):
        row = sims[v].copy()
        row[v] = -np.inf
        # highest similarity first, ties by lower node index
        order = np.lexsort((idx, -row))
        for u in order[:k]:
            pairs.add((int(u), v))
            pairs.add((v, int(u)))
    return np.asarray(sorted(pairs), dtype=np.intp).reshape(-1, 2)


def ref_pearson_edge_attr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sample Pearson correlation of two feature vectors as a length-1 attr.

    The coordinates are treated as paired samples. Constant vectors have
    undefined correlation and map to 0; the result is clamped to [-1, 1].
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 1 or x.shape[0] < 2:
        raise ShapeError(f"pearson needs 1-D vectors with at least 2 entries, got {x.shape}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        return np.array([0.0])
    # exact +-1 for (anti)proportional centered vectors, sidestepping sqrt ulps
    if np.array_equal(dx, dy):
        return np.array([1.0])
    if np.array_equal(dx, -dy):
        return np.array([-1.0])
    r = float(dx @ dy) / (sx * sy)
    return np.array([min(1.0, max(-1.0, r))])


def pearson_pair(x, y) -> float:
    """``builder._pearson`` of one pair of feature vectors."""
    return float(_pearson(np.stack([x, y]), np.array([0]), np.array([1]))[0])


def ref_edge_attrs(feats, pairs):
    """Pearson attribute of each (s, t) pair, edge by edge; self-loops carry 1.0."""
    attr_cache: dict[tuple[int, int], float] = {}
    attrs = np.empty((len(pairs), 1), dtype=np.float64)
    for i, (s, t) in enumerate(pairs):
        if s == t:
            attrs[i, 0] = 1.0
            continue
        key = (min(s, t), max(s, t))
        if key not in attr_cache:
            attr_cache[key] = float(ref_pearson_edge_attr(feats[s], feats[t])[0])
        attrs[i, 0] = attr_cache[key]
    return attrs


@dataclass
class RefAdamState:
    """Adam's step count and one pair of moment arrays per parameter name."""

    t: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def init(cls, params: dict[str, ad.Tensor]) -> "RefAdamState":
        return cls(
            t=0,
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
        )


def ref_adam_step(params, grads, state, cfg) -> None:
    """One bias-corrected Adam update in place, parameter by parameter:
    the update that ``train.adam_step`` packs into one buffer.

    Decoupled weight decay shrinks parameters before the moment update.
    """
    bad = [k for k, g in grads.items() if not np.all(np.isfinite(g))]
    if bad:
        raise TrainingError(f"non-finite gradients for parameters: {sorted(bad)}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    lr, wd = cfg.learning_rate, cfg.weight_decay
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if wd:
            p.data = p.data * (1.0 - lr * wd)
        m = state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** state.t)
        v_hat = v / (1.0 - b2 ** state.t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
