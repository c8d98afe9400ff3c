"""Edge-attribute graph attention with per-node-type projections.

For an edge (s, t) and head i, the source node is projected with its own
type's matrix into key and value vectors, the target with its type's
matrix into a query, and the edge attribute through a shared linear map
into a modulation vector e'. The attention score is the edge-modulated
inner product sum_j key_j * e'_j * query_j / sqrt(d_k); scores are
normalized per head across each target's incoming edges; the per-edge
output concatenates the attention-scaled value vectors over heads, and
edges are aggregated per target (mean by default). The projected edge
attribute e' becomes the edge's attribute for the next layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, ShapeError
from .hetgraph import HeteroGraph, TypeSet

SHARED_TYPE_KEY = "__shared__"


@dataclass
class HeatLayerParams:
    """Per-type, per-head projections plus the shared edge map of one layer.

    ``w_node[type][head]`` has shape (d_k, d_in) with d_k = d_out / heads.
    ``w_edge`` has shape (d_k, d_e) and is shared across heads; None means
    the edge modulation is identically all-ones (score degrades to plain
    scaled dot product). ``w_value`` optionally decouples the value
    projection from the key projection (an ablation; by default key and
    value share one matrix, as the update rule is written).
    ``shared_projection`` makes all node types use one projection (the
    type-blind baseline).
    """

    types: TypeSet
    heads: int
    d_in: int
    d_out: int
    d_edge: int
    w_node: dict[str, list[Tensor]]
    w_edge: Tensor | None
    w_value: dict[str, list[Tensor]] | None = None
    aggregation: str = "mean"
    shared_projection: bool = False

    def __post_init__(self):
        if self.d_out % self.heads != 0:
            raise ConfigError(f"d_out={self.d_out} not divisible by heads={self.heads}")
        if self.aggregation not in ("mean", "sum"):
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")
        keys = {SHARED_TYPE_KEY} if self.shared_projection else set(self.types.names)
        if set(self.w_node) != keys:
            raise ConfigError("w_node must hold exactly one projection list per node type")

    @property
    def d_k(self) -> int:
        return self.d_out // self.heads

    def projection_for(self, type_name: str, head: int) -> Tensor:
        key = SHARED_TYPE_KEY if self.shared_projection else type_name
        try:
            return self.w_node[key][head]
        except KeyError:
            raise ConfigError(f"no projection registered for node type {type_name!r}") from None

    def value_projection_for(self, type_name: str, head: int) -> Tensor:
        if self.w_value is None:
            return self.projection_for(type_name, head)
        key = SHARED_TYPE_KEY if self.shared_projection else type_name
        return self.w_value[key][head]

    @classmethod
    def init(cls, types: TypeSet, d_in: int, d_out: int, heads: int, d_edge: int,
             rng: np.random.Generator, *, aggregation: str = "mean",
             edge_identity: bool = False, shared_projection: bool = False,
             decouple_key_value: bool = False) -> "HeatLayerParams":
        """Glorot-normal initialization in a fixed parameter order."""
        if d_out % heads != 0:
            raise ConfigError(f"d_out={d_out} not divisible by heads={heads}")
        d_k = d_out // heads

        def glorot(rows, cols):
            std = math.sqrt(2.0 / (rows + cols))
            return Tensor(rng.normal(0.0, std, size=(rows, cols)), requires_grad=True)

        names = (SHARED_TYPE_KEY,) if shared_projection else types.names
        w_node = {name: [glorot(d_k, d_in) for _ in range(heads)] for name in names}
        w_value = None
        if decouple_key_value:
            w_value = {name: [glorot(d_k, d_in) for _ in range(heads)] for name in names}
        w_edge = None if edge_identity else glorot(d_k, d_edge)
        return cls(types=types, heads=heads, d_in=d_in, d_out=d_out, d_edge=d_edge,
                   w_node=w_node, w_edge=w_edge, w_value=w_value,
                   aggregation=aggregation, shared_projection=shared_projection)


@dataclass(frozen=True)
class EdgeProjection:
    """Per-head key/query/value vectors and the projected edge attribute."""

    keys: tuple[np.ndarray, ...]
    queries: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    edge: np.ndarray


@dataclass(frozen=True)
class LayerOutput:
    node_features: Tensor          # (n, d_out)
    edge_attrs: Tensor             # (E, d_k), input attrs for the next layer
    attention: np.ndarray | None   # (E, heads) normalized weights, if requested


def project(params: HeatLayerParams, src_feat: np.ndarray, dst_feat: np.ndarray,
            src_type: str, dst_type: str, edge_attr: np.ndarray) -> EdgeProjection:
    """Project one edge's endpoints and attribute (inspection/reference API).

    Key and value both use the source type's projection; the query uses the
    target type's. The edge map is shared across heads.
    """
    keys, queries, values = [], [], []
    for i in range(params.heads):
        wk = params.projection_for(src_type, i).data
        wq = params.projection_for(dst_type, i).data
        wv = params.value_projection_for(src_type, i).data
        keys.append(wk @ src_feat)
        queries.append(wq @ dst_feat)
        values.append(wv @ src_feat)
    if params.w_edge is None:
        eproj = np.ones(params.d_k)
    else:
        eproj = params.w_edge.data @ np.asarray(edge_attr, dtype=np.float64)
    return EdgeProjection(tuple(keys), tuple(queries), tuple(values), eproj)


def att_score(key: np.ndarray, edge_mod: np.ndarray, query: np.ndarray) -> float:
    """Edge-modulated scaled dot product: sum(key * e' * query) / sqrt(d_k)."""
    key = np.asarray(key, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    edge_mod = np.asarray(edge_mod, dtype=np.float64)
    if not (key.shape == query.shape == edge_mod.shape) or key.ndim != 1:
        raise ShapeError(
            f"key/edge/query must share a 1-D shape, got {key.shape}/{edge_mod.shape}/{query.shape}")
    return float(np.sum(key * edge_mod * query) / math.sqrt(key.shape[0]))


def attention_softmax(scores: np.ndarray) -> np.ndarray:
    """Normalize an (m, heads) score block per head across the m edges."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] == 0:
        raise ContractError("attention requires a nonempty incoming-edge set "
                            "(the builder must add self-loops)")
    ex = np.exp(scores - scores.max(axis=0))
    return ex / ex.sum(axis=0)


def layer_forward(g: HeteroGraph, params: HeatLayerParams,
                  features: Tensor | None = None,
                  edge_attrs: Tensor | None = None,
                  return_attention: bool = False) -> LayerOutput:
    """Run the attention layer over a graph, differentiably.

    ``features``/``edge_attrs`` default to the graph's own arrays (as
    constants); pass tensors to chain layers. Every node must have at
    least one incoming edge.
    """
    n = g.n_nodes
    if n == 0:
        raise ContractError("layer_forward on an empty graph")
    feats = features if features is not None else Tensor(g.features)
    attrs = edge_attrs if edge_attrs is not None else Tensor(g.edge_attrs)
    if feats.shape != (n, params.d_in):
        raise ShapeError(f"features {feats.shape} do not match layer d_in={params.d_in}")
    if attrs.shape != (g.n_edges, params.d_edge):
        raise ShapeError(f"edge attrs {attrs.shape} do not match layer d_edge={params.d_edge}")
    if not params.shared_projection and g.types.names != params.types.names:
        raise ConfigError("graph type set does not match layer parameters")

    pos_src, pos_dst = g.edge_pos
    in_degree = np.bincount(pos_dst, minlength=n)
    if not in_degree.all():
        raise ContractError(f"node {g.node_ids[int(np.argmin(in_degree))]} has no incoming "
                            "edges; self-loops are required")

    # Per-node, per-head projection P_i[v] = W_{type(v)}^i @ H_v, computed
    # blockwise per type and reassembled in node order.
    type_idx = g.node_types
    if params.shared_projection:
        groups = [(SHARED_TYPE_KEY, np.arange(n, dtype=np.intp))]
    else:
        groups = []
        for a, name in enumerate(params.types.names):
            rows = np.nonzero(type_idx == a)[0]
            if len(rows):
                groups.append((name, rows))
    order = np.concatenate([rows for _, rows in groups])
    inv = np.empty(n, dtype=np.intp)
    inv[order] = np.arange(n, dtype=np.intp)

    def per_node(projection_of):
        out = []
        for i in range(params.heads):
            blocks = [ad.matmul(ad.gather_rows(feats, rows), ad.transpose(projection_of(name, i)))
                      for name, rows in groups]
            stacked = blocks[0] if len(blocks) == 1 else ad.concat(blocks, axis=0)
            out.append(ad.gather_rows(stacked, inv))
        return out

    proj = per_node(params.projection_for)
    vproj = proj if params.w_value is None else per_node(params.value_projection_for)

    if params.w_edge is None:
        eproj = Tensor(np.ones((g.n_edges, params.d_k)))
    else:
        eproj = ad.matmul(attrs, ad.transpose(params.w_edge))

    inv_sqrt = 1.0 / math.sqrt(params.d_k)
    head_scores = []
    keys_per_head = []
    for i in range(params.heads):
        k = ad.gather_rows(proj[i], pos_src)
        q = ad.gather_rows(proj[i], pos_dst)
        keys_per_head.append(k)
        s = ad.reduce_sum(ad.mul(ad.mul(k, eproj), q), axis=1, keepdims=True)
        head_scores.append(ad.scale(s, inv_sqrt))
    scores = head_scores[0] if params.heads == 1 else ad.concat(head_scores, axis=1)
    att = ad.segment_softmax(scores, pos_dst, n)

    weighted = []
    for i in range(params.heads):
        if params.w_value is None:
            v = keys_per_head[i]
        else:
            v = ad.gather_rows(vproj[i], pos_src)
        weighted.append(ad.mul(v, ad.slice_cols(att, i, i + 1)))
    per_edge = weighted[0] if params.heads == 1 else ad.concat(weighted, axis=1)
    h_out = ad.segment_reduce(per_edge, pos_dst, n, params.aggregation)

    return LayerOutput(
        node_features=h_out,
        edge_attrs=eproj,
        attention=att.data.copy() if return_attention else None,
    )


def layer_parameters(params: HeatLayerParams, prefix: str) -> dict[str, Tensor]:
    """Flat name -> tensor registry for one layer, in a stable order."""
    out: dict[str, Tensor] = {}
    for name in sorted(params.w_node):
        for i, w in enumerate(params.w_node[name]):
            out[f"{prefix}.node.{name}.head{i}"] = w
    if params.w_value is not None:
        for name in sorted(params.w_value):
            for i, w in enumerate(params.w_value[name]):
                out[f"{prefix}.value.{name}.head{i}"] = w
    if params.w_edge is not None:
        out[f"{prefix}.edge"] = params.w_edge
    return out
