"""Straight-line reference implementations used as oracles.

These recompute the layer, pooling, and full-model forward passes with
plain Python loops over raw numpy parameter arrays, independently of the
autodiff path they are checked against. The slow paths that the package
replaced (per-edge id lookups, list-of-segments segment ops, the per-edge
validation loops) are kept here as oracles for the fast ones.
"""

import math

import numpy as np


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


def ref_graph_logits(pooled, classifier_w, classifier_b, final="mean"):
    z = pooled.mean(axis=0) if final == "mean" else pooled.sum(axis=0)
    return classifier_w @ z + classifier_b


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
        if cfg.type_blind:
            w_node = {"shared": [w.data for w in next(iter(layer.w_node.values()))]}
        else:
            w_node = {name: [w.data for w in layer.w_node[name]] for name in g.types.names}
        w_edge = None if layer.w_edge is None else layer.w_edge.data
        feats, attrs = ref_layer_forward(feats, g.node_types, edges, attrs,
                                         w_node, w_edge, layer.heads,
                                         aggregation=layer.aggregation,
                                         type_names=type_names)
        if li < len(model.layers) - 1:
            feats = leaky(feats, cfg.leaky_slope)
    pool = model.pool
    if cfg.pooling == "pl":
        readout = None
        if pool.readout is not None:
            readout = [pool.readout[name].data for name in g.types.names]
        pooled = ref_pl_pool(feats, g.node_types, len(g.types), readout)
        return ref_graph_logits(pooled, pool.classifier_w.data, pool.classifier_b.data,
                                final=pool.final)
    return ref_mean_pool_logits(feats, pool.classifier_w.data, pool.classifier_b.data)


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


def incoming_segments(g):
    """Edge-row indices grouped by target node, one group per node position.

    Empty groups are legal at this level (the layer enforces the
    nonempty-neighborhood contract).
    """
    segs = [[] for _ in range(g.n_nodes)]
    for e, t in enumerate(g.edge_dst.tolist()):
        segs[g.pos(t)].append(e)
    return [np.asarray(s, dtype=np.intp) for s in segs]


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
