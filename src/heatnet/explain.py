"""Leave-one-node-out causal attribution and heatmap export.

A node's causal contribution is the loss difference
delta(v) = L(y, f(G)) - L(y, f(G without v)), with L the cross-entropy on
the true label and the same trained model for both evaluations. Positive
delta means removing the node lowers the loss, i.e. the node was impeding
the prediction; negative delta marks nodes the prediction relies on.
Ranking uses |delta|.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from . import autodiff as ad
from .errors import AttributionError, ExportError
from .hetgraph import HeteroGraph, _write_json, remove_node
from .model import Model


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
        return ad.cross_entropy(model.forward(g, training=False), label).item()


def causal_contribution(model: Model, g: HeteroGraph, label: int, node_id: int) -> float:
    """delta(v) = loss(full graph) - loss(graph without v)."""
    if g.n_nodes <= 1:
        raise AttributionError(f"removing node {node_id} would empty the graph")
    full = _eval_loss(model, g, label)
    reduced = _eval_loss(model, remove_node(g, node_id), label)
    return full - reduced


def explain_graph(model: Model, g: HeteroGraph, label: int | None = None,
                  graph_id: str | None = None, model_id: str | None = None) -> Attribution:
    """Score every node with exactly |V| removal evaluations plus one full pass."""
    y = g.label if label is None else label
    if y is None:
        raise AttributionError("graph has no label and none was given")
    y = int(y)
    full = _eval_loss(model, g, y)
    evals = 1
    scored: list[NodeAttribution] = []
    failed: list[NodeAttribution] = []
    for i, nid in enumerate(g.node_ids):
        x, yy = (int(g.coords[i][0]), int(g.coords[i][1])) if g.coords is not None else (None, None)
        if g.n_nodes <= 1:
            failed.append(NodeAttribution(nid, x, yy, None,
                                          error="removal would empty the graph"))
            continue
        reduced = _eval_loss(model, remove_node(g, nid), y)
        evals += 1
        scored.append(NodeAttribution(nid, x, yy, full - reduced))
    scored.sort(key=lambda e: (-abs(e.delta), e.node_id))
    failed.sort(key=lambda e: e.node_id)
    return Attribution(
        graph_id=graph_id,
        model_id=model_id,
        label=y,
        full_loss=full,
        entries=tuple(scored) + tuple(failed),
        n_forward_evals=evals,
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


def parse_heatmap_csv(path) -> list[tuple[int, int, int, float]]:
    """Read back (node_id, x, y, delta) rows; the format is lossless."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["node_id", "x", "y", "delta"]:
            raise ExportError(f"unexpected heatmap header: {header}")
        for row in reader:
            rows.append((int(row[0]), int(row[1]), int(row[2]), float(row[3])))
    return rows
