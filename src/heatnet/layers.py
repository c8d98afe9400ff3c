"""Edge-attribute graph attention with per-node-type projections.

For an edge (s, t) and head i, the source node is projected with its own
type's matrix into a key vector, which is also the value, the target with
its type's matrix into a query, and the edge attribute through a shared
linear map into a modulation vector e'. The attention score is the
edge-modulated inner product sum_j key_j * e'_j * query_j / sqrt(d_k); scores are
normalized per head across each target's incoming edges; the per-edge
output concatenates the attention-scaled value vectors over heads, and
edges are aggregated per target (mean by default). The projected edge
attribute e' becomes the edge's attribute for the next layer.
``layer_forward`` computes this for all edges of a ``GraphBatch`` (one
graph, or several stacked as a disjoint union) at once: one
``typed_matmul`` projects all nodes with all heads into (n, heads * d_k)
rows (``project_nodes``), and ``attend`` scores, normalizes and
aggregates edge rows given as index arrays into that table as one tape op
(``autodiff.edge_attention``), so no op loops over types, heads or edges.
A layer records at most three tape ops: the projection, the edge map
``autodiff.linear`` and the attention op. The batch holds the checked
indices and runs the ops read (``src``, ``dst``, ``node_types``, and
``targets``: a target's incoming edges are one run of its rows). The
leave-one-out attribution calls ``attend`` directly on the edges around
each removed node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, ShapeError
from .hetgraph import GraphBatch, TypeSet


@dataclass
class HeatLayerParams:
    """Stacked per-type projections plus the shared edge map of one layer.

    ``w_node`` has shape (T, heads * d_k, d_in) with d_k = d_out / heads:
    ``w_node[a]`` projects the nodes of type a, and its row block i (rows
    i * d_k up to (i + 1) * d_k) is head i. ``shared_projection`` makes all
    node types use one projection (the type-blind baseline); T is then 1.
    ``w_edge`` has shape (d_k, d_e) and is shared across heads; None means
    the edge modulation is identically all-ones (score degrades to plain
    scaled dot product). Key, query and value share ``w_node``, as the
    update rule is written.
    """

    types: TypeSet
    heads: int
    d_in: int
    d_out: int
    d_edge: int
    w_node: Tensor
    w_edge: Tensor | None
    aggregation: str = "mean"
    shared_projection: bool = False

    def __post_init__(self):
        if self.d_out % self.heads != 0:
            raise ConfigError(f"d_out={self.d_out} not divisible by heads={self.heads}")
        if self.aggregation not in ("mean", "sum"):
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")
        shape = (1 if self.shared_projection else len(self.types), self.d_out, self.d_in)
        if self.w_node.shape != shape:
            raise ShapeError(f"node projection has shape {self.w_node.shape}, expected {shape}")

    @property
    def d_k(self) -> int:
        return self.d_out // self.heads

    @classmethod
    def init(cls, types: TypeSet, d_in: int, d_out: int, heads: int, d_edge: int,
             rng: np.random.Generator, *, aggregation: str = "mean",
             edge_identity: bool = False, shared_projection: bool = False) -> "HeatLayerParams":
        """Glorot-normal initialization in a fixed order: type, head, row."""
        if d_out % heads != 0:
            raise ConfigError(f"d_out={d_out} not divisible by heads={heads}")
        d_k = d_out // heads
        n_types = 1 if shared_projection else len(types)

        def glorot(rows, cols, shape):
            std = math.sqrt(2.0 / (rows + cols))
            return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)

        w_node = glorot(d_k, d_in, (n_types, d_out, d_in))
        w_edge = None if edge_identity else glorot(d_k, d_edge, (d_k, d_edge))
        return cls(types=types, heads=heads, d_in=d_in, d_out=d_out, d_edge=d_edge,
                   w_node=w_node, w_edge=w_edge,
                   aggregation=aggregation, shared_projection=shared_projection)


@dataclass(frozen=True)
class LayerOutput:
    node_features: Tensor          # (n, d_out)
    edge_attrs: Tensor             # (E, d_k) edge projections, input attrs for the next layer
    node_proj: Tensor              # (n, heads * d_k) key, query and value projections
    attention: np.ndarray | None   # (E, heads) normalized weights, if requested


def project_nodes(params: HeatLayerParams, feats: Tensor, node_types: ad.Index) -> Tensor:
    """Row v is W[type(v)] @ feats[v], (m, heads * d_k) with head i in
    columns i * d_k up to (i + 1) * d_k; a shared projection reads no type."""
    if params.shared_projection:
        node_types = ad.Index(np.zeros(feats.shape[0], dtype=np.intp), 1)
    return ad.typed_matmul(feats, params.w_node, node_types)


def attend(params: HeatLayerParams, node_proj: Tensor, eproj: Tensor, src: ad.Index,
           dst: ad.Index, runs: ad.Runs) -> tuple[Tensor, np.ndarray]:
    """Score, normalize and aggregate edge rows into one output row per segment.

    Edge row r takes its key and value from projection row ``src.rows[r]``,
    its query from row ``dst.rows[r]`` and its modulation from ``eproj`` row
    r; segment s is run s of ``runs``. Returns the
    (len(runs), d_out) outputs and the (rows, heads) attention weights,
    from one ``autodiff.edge_attention`` op. Every row is computed from its
    own inputs and every segment sum is exactly rounded, so an output row
    depends only on the set of its segment's edge rows.
    """
    return ad.edge_attention(node_proj, eproj, src, dst, runs, params.heads,
                             params.aggregation)


def layer_forward(batch: GraphBatch, params: HeatLayerParams,
                  features: Tensor | None = None,
                  edge_attrs: Tensor | None = None,
                  return_attention: bool = False) -> LayerOutput:
    """Run the attention layer over a batch of graphs, differentiably.

    A graph g runs as ``batch_graphs([g])``; edge rows are in the batch's
    order, and the batch gives every index and run the ops read.
    ``features``/``edge_attrs`` default to the batch's own arrays (as
    constants); pass tensors to chain layers.
    """
    if not isinstance(batch, GraphBatch):
        raise ContractError(f"layer_forward takes a GraphBatch, got {type(batch).__name__}")
    n = batch.n_nodes
    if n == 0:
        raise ContractError("layer_forward on an empty graph")
    feats = features if features is not None else Tensor(batch.features)
    attrs = edge_attrs if edge_attrs is not None else Tensor(batch.edge_attrs)
    if feats.shape != (n, params.d_in):
        raise ShapeError(f"features {feats.shape} do not match layer d_in={params.d_in}")
    if attrs.shape != (batch.n_edges, params.d_edge):
        raise ShapeError(f"edge attrs {attrs.shape} do not match layer d_edge={params.d_edge}")
    if not params.shared_projection and batch.types.names != params.types.names:
        raise ConfigError("graph type set does not match layer parameters")

    node_proj = project_nodes(params, feats, batch.node_types)
    if params.w_edge is None:
        eproj = Tensor(np.ones((batch.n_edges, params.d_k)))
    else:
        eproj = ad.linear(attrs, params.w_edge)
    h_out, att = attend(params, node_proj, eproj, batch.src, batch.dst, batch.targets)
    return LayerOutput(
        node_features=h_out,
        edge_attrs=eproj,
        node_proj=node_proj,
        attention=att.copy() if return_attention else None,
    )


def layer_parameters(params: HeatLayerParams, prefix: str) -> dict[str, Tensor]:
    """Flat name -> tensor registry for one layer, in a stable order."""
    out = {f"{prefix}.node": params.w_node}
    if params.w_edge is not None:
        out[f"{prefix}.edge"] = params.w_edge
    return out
