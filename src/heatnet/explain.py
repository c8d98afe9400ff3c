"""Leave-one-node-out causal attribution and heatmap export.

A node's causal contribution is the loss difference
delta(v) = L(y, f(G)) - L(y, f(G without v)), with L the cross-entropy on
the true label and the same trained model for both evaluations. Positive
delta means removing the node lowers the loss, i.e. the node was impeding
the prediction; negative delta marks nodes the prediction relies on.
Ranking uses |delta|.

``causal_contribution`` is the definition: two full forwards. Removing v
changes layer l's output only at the nodes within l hops downstream of v
(v excluded): they lose v's edges, or a source or their own query changed
one layer earlier. So ``explain_graph`` runs one full forward that keeps
each layer's node and edge projections. Then, for a chunk of removals at a
time, ``recompute_removals`` recomputes each layer with one
``layers.attend`` call over the chunk's (removed node, target) pairs: a
pair's segment is the target's incoming edges (a range of the forward's
target-sorted edge rows) minus v's, the rows changed one layer earlier are
projected anew, and every other row is read from the cache. Pooling never
touches the unchanged rows: the full graph's column sums per pooling type
are kept once as exact float expansions, and ``removal_logits`` sums, for
each (removed node, type) cell, those terms, the negated old rows of v and
of its changed nodes, and their new rows, in one exactly rounded segment
sum for the chunk; ``Model.head`` then maps, averages and classifies the
cell means with the forward's own pooling op. A chunk
holds removals whose downstream regions are bounded by ``_CHUNK_ROWS``
final rows in all. Two inputs that no built graph produces take the
definition instead, one forward per removal: a graph in which some
removal leaves a node without incoming edges (no self-loops), whose first
such removal raises the error its forward raises, and final rows that no
finite exact-sum grid bounds.

This equals a forward on G without v bit for bit: products are
row-invariant, every other op is elementwise, and every segment sum is
exactly rounded, so an output row depends only on the exact real sum of
the values it reduces, never on which other rows share the call. The cost
is O(n * region) layer and pooling work, with region the mean downstream
region (about 20 nodes on kNN patch graphs with k = 4, whatever n): a
chunk's projection table holds only the cached rows its edges read and
its new rows. n full forwards cost O(n * (n + E)).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import AttributionError, ConfigError, ExportError
from .hetgraph import GraphBatch, HeteroGraph, _write_json, remove_node
from .layers import LayerOutput, attend, project_nodes
from .model import Model

# Bound on the final rows the removals of one chunk change (see ``reach``
# in ``_removal_losses``); the layer recompute and the pooled segments of a
# chunk grow with it, not with the graph.
_CHUNK_ROWS = 1 << 12


@dataclass(frozen=True)
class NodeAttribution:
    node_id: int
    x: int | None
    y: int | None
    delta: float | None
    error: str | None = None


@dataclass(frozen=True)
class Attribution:
    """Per-node contributions for one graph, sorted by descending |delta|.

    Nodes whose removal could not be evaluated (e.g. removing the only
    node) appear as error entries after the scored ones.
    """

    graph_id: str | None
    model_id: str | None
    label: int
    full_loss: float
    entries: tuple[NodeAttribution, ...]
    n_forward_evals: int


def _eval_loss(model: Model, g: HeteroGraph, label: int) -> float:
    with ad.no_grad():
        return ad.cross_entropy(model.forward([g]), [label]).item()


def causal_contribution(model: Model, g: HeteroGraph, label: int, node_id: int) -> float:
    """delta(v) = loss(full graph) - loss(graph without v)."""
    if g.n_nodes <= 1:
        raise AttributionError(f"removing node {node_id} would empty the graph")
    full = _eval_loss(model, g, label)
    reduced = _eval_loss(model, remove_node(g, node_id), label)
    return full - reduced


def _members(starts: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (j, r) for every row r in ``starts[k]:starts[k + 1]``, k = ``groups[j]``,
    j ascending."""
    counts = starts[groups + 1] - starts[groups]
    j = np.repeat(np.arange(len(groups)), counts)
    return j, starts[groups][j] + np.arange(j.size) - (np.cumsum(counts) - counts)[j]


def _table_rows(changed: np.ndarray, keys: np.ndarray, cached: np.ndarray,
                first_new: int) -> np.ndarray:
    """Projection-table row of each (removal, node) key: ``first_new`` plus
    its index among the sorted ``changed`` keys, else its ``cached`` row."""
    at = np.searchsorted(changed, keys)
    hit = at < len(changed)
    hit[hit] = changed[at[hit]] == keys[hit]
    return np.where(hit, first_new + at, cached)


def _distinct(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``rows`` (all below n), and a length-n map that
    sends the k-th of them to k. The work grows with len(rows), not n: no
    sort, and the map is left unset where ``rows`` has no value."""
    at = np.arange(len(rows))
    slot = np.empty(n, dtype=np.intp)
    slot[rows] = at
    distinct = rows[slot[rows] == at]
    slot[distinct] = np.arange(len(distinct))
    return distinct, slot


def recompute_removals(model: Model, batch: GraphBatch, layer_outputs: list[LayerOutput],
                       removed: np.ndarray, by_source: np.ndarray, out_starts: np.ndarray,
                       in_starts: np.ndarray) -> tuple[np.ndarray, Tensor]:
    """The final-layer rows that removing each node in ``removed`` changes:
    their sorted (removal v, node t) keys v * n + t, and the rows.

    ``layer_outputs`` ran on the one-graph ``batch``. Node t's outgoing edges
    are rows ``by_source[out_starts[t]:out_starts[t + 1]]``, its incoming
    ones rows ``in_starts[t]:in_starts[t + 1]``."""
    n = batch.n_nodes
    src, dst = batch.src.rows, batch.dst.rows
    changed = np.empty(0, dtype=np.intp)
    h_changed = Tensor(np.empty((0, model.layers[0].d_in)))
    for i, (layer, cached) in enumerate(zip(model.layers, layer_outputs)):
        # Targets: the nodes that v or a changed node feeds, v excluded.
        v, s = np.divmod(np.concatenate([removed * (n + 1), changed]), n)
        j, r = _members(out_starts, s)
        e = by_source[r]
        keep = dst[e] != v[j]
        targets = np.unique(v[j][keep] * n + dst[e][keep])
        # Each target's segment: its incoming edge rows minus v's.
        tv, tt = np.divmod(targets, n)
        seg, e = _members(in_starts, tt)
        keep = src[e] != tv[seg]
        seg, e = seg[keep], e[keep]
        source = src[e]
        # The chunk's table: the cached rows its edges could read (every
        # source and target), then the new rows.
        old, slot = _distinct(np.concatenate([source, tt]), n)
        types = ad.Index(batch.node_types.rows[changed % n], batch.node_types.bound)
        table = ad.concat([ad.gather_rows(cached.node_proj, ad.Index(old, n)),
                           project_nodes(layer, h_changed, types)])
        rows = len(old) + len(changed)
        h, _ = attend(layer, table, ad.gather_rows(cached.edge_attrs, ad.Index(e, batch.n_edges)),
                      ad.Index(_table_rows(changed, tv[seg] * n + source, slot[source], len(old)),
                               rows),
                      ad.Index(_table_rows(changed, targets, slot[tt], len(old))[seg], rows),
                      ad.Runs(np.bincount(seg, minlength=len(targets))))
        if i < len(model.layers) - 1:
            h = model.activate(h)
        changed, h_changed = targets, h
    return changed, h_changed


@dataclass(frozen=True)
class TypeSums:
    """The full graph's final rows and each pooling type's exact column sums.

    The pooling types are the cells of ``Model.pool_cells`` on the one-graph
    batch: the node types under per-type pooling, one type under mean pooling.
    ``terms[term_starts[a]:term_starts[a + 1]]`` sum, exactly, to type a's
    column sums; a type without nodes has no terms.
    """

    rows: np.ndarray
    types: np.ndarray
    count: np.ndarray
    terms: np.ndarray
    term_starts: np.ndarray


def _type_sums(model: Model, rows: np.ndarray, batch: GraphBatch) -> TypeSums | None:
    """The ``TypeSums`` of the final ``rows``, None when no finite grid
    bounds their expansion."""
    # The forward built these cells; in a one-graph batch a cell is a pool type.
    pool = model.pool_cells(batch)
    terms = ad._segment_expansion(rows[pool.order.rows], pool.runs)
    if terms is None:
        return None
    present = pool.cells.cells
    count = np.zeros(pool.cells.n_types, dtype=np.intp)
    count[present] = pool.runs.counts
    # A type keeps its nonzero terms, and its first so that no segment is empty.
    keep = terms.any(axis=2).T
    keep[:, 0] = True
    term_count = np.zeros_like(count)
    term_count[present] = keep.sum(axis=1)
    return TypeSums(rows, pool.cell, count, terms.transpose(1, 0, 2)[keep],
                    np.concatenate([[0], np.cumsum(term_count)]))


def removal_logits(model: Model, full: TypeSums, removed: np.ndarray, changed: np.ndarray,
                   h_changed: np.ndarray) -> Tensor:
    """Logits (len(removed), C) of the graphs G without v, v in ``removed``
    (ascending), from the full graph's ``TypeSums`` and the changed final
    rows ``recompute_removals`` gives for them.

    Cell (b, a) is type a of G without ``removed[b]``. Its segment holds
    a's expansion terms, the negated old rows of the removed node and of
    its changed nodes of type a, and those nodes' new rows: the reduced
    graph's exact sum, so its correctly rounded value is what
    ``segment_reduce`` gives over the reduced graph's rows.
    """
    n, n_types = len(full.rows), len(full.count)
    b, v_type = np.arange(len(removed)), full.types[removed]
    left = np.tile(full.count, (len(removed), 1))
    left[b, v_type] -= 1
    cells = np.flatnonzero(left)
    # Segment rows as (cell, row) pairs, added or negated; rows index the
    # full graph's rows, then the changed rows, then the terms.
    j, r = _members(full.term_starts, cells % n_types)
    cv, ct = np.divmod(changed, n)
    c_cell = np.searchsorted(removed, cv) * n_types + full.types[ct]
    ok = left[b, v_type] > 0
    added = [(cells[j], n + len(changed) + r), (c_cell, n + np.arange(len(changed)))]
    negated = [(b[ok] * n_types + v_type[ok], removed[ok]), (c_cell, ct)]
    cell, row = (np.concatenate(p) for p in zip(*added, *negated))
    flip = np.arange(len(row)) >= sum(len(c) for c, _ in added)
    order = np.argsort(cell, kind="stable")
    row, flip = row[order], flip[order]
    vals = np.empty((len(row), full.rows.shape[1]))
    old = row < n
    vals[old] = full.rows[row[old]]
    vals[~old] = np.concatenate([h_changed, full.terms])[row[~old] - n]
    vals[flip] = -vals[flip]
    sums = ad._segment_fsum(vals, ad.Runs(np.bincount(cell, minlength=left.size)[cells]))
    return model.head(Tensor(sums / left.ravel()[cells][:, None]), ad.Cells(cells, n_types))


def _removal_losses(model: Model, g: HeteroGraph, batch: GraphBatch,
                    layer_outputs: list[LayerOutput], label: int) -> list[float]:
    """loss(G without v) for every node position v, from the full forward's
    layer outputs on the one-graph ``batch``, for chunks of removals at a
    time; or, when some removal leaves a node without incoming edges or the
    type sums have no grid, the definition's losses, whose first failing
    removal raises the GraphValidationError its forward raises."""
    n = g.n_nodes
    src, dst = batch.src.rows, batch.dst.rows
    pairs, count = np.unique(src * n + dst, return_counts=True)
    s, t = np.divmod(pairs, n)
    stranding = (count == batch.targets.counts[t]) & (s != t)
    full = _type_sums(model, layer_outputs[-1].node_features.data, batch)
    if full is None or stranding.any():
        return [_eval_loss(model, remove_node(g, v), label) for v in g.node_ids]
    by_source = np.argsort(src, kind="stable")
    out_starts = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    in_starts = np.append(batch.targets.starts, batch.targets.n_rows)
    # reach[v] bounds the final rows removing v changes: the nodes at the
    # end of walks of up to n_layers edges from v.
    reach = np.zeros(n)
    for _ in model.layers:
        reach = np.minimum(np.bincount(src, weights=1.0 + reach[dst], minlength=n), n - 1)
    cost = 1.0 + reach
    chunk = (np.cumsum(cost) - cost) // _CHUNK_ROWS
    losses: list[float] = []
    for removed in np.split(np.arange(n), np.flatnonzero(np.diff(chunk)) + 1):
        changed, h_changed = recompute_removals(model, batch, layer_outputs, removed,
                                                by_source, out_starts, in_starts)
        logits = removal_logits(model, full, removed, changed, h_changed.data)
        losses.extend(ad.cross_entropy(logits, np.full(len(removed), label)).data.tolist())
    return losses


def explain_graph(model: Model, g: HeteroGraph, label: int | None = None,
                  graph_id: str | None = None, model_id: str | None = None) -> Attribution:
    """Score every node: |V| removal evaluations plus one full pass, all
    from one full forward (see the module docstring)."""
    y = g.label if label is None else label
    if y is None:
        raise ConfigError("graph has no label and none was given")
    y = int(y)
    layer_outputs: list[LayerOutput] = []
    batch = model.batch([g])
    with ad.no_grad():
        full = ad.cross_entropy(model.forward(batch, layer_outputs=layer_outputs), [y]).item()
        reduced = _removal_losses(model, g, batch, layer_outputs, y) if g.n_nodes > 1 else None
    scored: list[NodeAttribution] = []
    failed: list[NodeAttribution] = []
    for i, nid in enumerate(g.node_ids):
        x, yy = (int(g.coords[i][0]), int(g.coords[i][1])) if g.coords is not None else (None, None)
        if reduced is None:
            failed.append(NodeAttribution(nid, x, yy, None,
                                          error="removal would empty the graph"))
        else:
            scored.append(NodeAttribution(nid, x, yy, full - reduced[i]))
    scored.sort(key=lambda e: (-abs(e.delta), e.node_id))
    failed.sort(key=lambda e: e.node_id)
    return Attribution(
        graph_id=graph_id,
        model_id=model_id,
        label=y,
        full_loss=full,
        entries=tuple(scored) + tuple(failed),
        n_forward_evals=1 + len(scored),
    )


def top_k_ids(attr: Attribution, k: int) -> list[int]:
    """Ids of the k largest-|delta| nodes (entries are already sorted)."""
    return [e.node_id for e in attr.entries if e.delta is not None][:k]


def export_heatmap(attr: Attribution, csv_path, json_path=None, *,
                   top_k: int = 10, provenance: dict | None = None) -> None:
    """Write node_id,x,y,delta rows plus a JSON summary sidecar.

    Every scored node must carry grid coordinates. Error entries are not
    written to the CSV; they are listed in the sidecar.
    """
    scored = [e for e in attr.entries if e.delta is not None]
    missing = [e.node_id for e in scored if e.x is None or e.y is None]
    if missing:
        raise ExportError(f"nodes without grid coordinates: {missing}")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node_id", "x", "y", "delta"])
        for e in scored:
            writer.writerow([e.node_id, e.x, e.y, repr(e.delta)])
    if json_path is None:
        return
    deltas = [e.delta for e in scored]
    summary = {
        "graph_id": attr.graph_id,
        "model_id": attr.model_id,
        "label": attr.label,
        "full_loss": attr.full_loss,
        "n_nodes": len(attr.entries),
        "min": min(deltas) if deltas else None,
        "max": max(deltas) if deltas else None,
        "top_k": top_k_ids(attr, top_k),
        "errors": [{"node_id": e.node_id, "error": e.error}
                   for e in attr.entries if e.error is not None],
        "provenance": provenance or {},
    }
    _write_json(json_path, summary)
