"""Typed, attributed directed graphs and their manipulation primitives.

A graph holds typed nodes with float64 feature vectors and directed edges
with float64 attribute vectors. Graphs are immutable after construction;
mutation-style operations return new graphs. Edges name their endpoints by
node id; ``HeteroGraph.edge_pos`` maps them to node positions once per
graph, and that cached pair of arrays is what the layers index with. The
JSON file format is versioned and round-trips floats exactly; ``validate``
is the one checker of graph-wide invariants, the parser included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, GraphLookupError, GraphValidationError

GRAPH_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TypeSet:
    """Ordered, fixed set of node type names for one experiment."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise ConfigError("type set must not be empty")
        if len(set(self.names)) != len(self.names):
            raise ConfigError("duplicate node type names")

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ConfigError(f"unknown node type {name!r}; known: {list(self.names)}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index


DEFAULT_TYPE_NAMES = (
    "no-label",
    "neoplastic",
    "inflammatory",
    "connective",
    "dead",
    "non-neoplastic-epithelial",
)
DEFAULT_TYPES = TypeSet(DEFAULT_TYPE_NAMES)


@dataclass(frozen=True)
class Violation:
    """First invariant violation found by validate(); None means ok."""

    kind: str
    message: str
    node_id: int | None = None
    edge: tuple[int, int] | None = None

    def __str__(self) -> str:
        where = ""
        if self.node_id is not None:
            where = f" (node {self.node_id})"
        elif self.edge is not None:
            where = f" (edge {self.edge[0]}->{self.edge[1]})"
        return f"{self.kind}: {self.message}{where}"


@dataclass(frozen=True, eq=False)
class HeteroGraph:
    """Immutable typed graph: nodes with features, directed attributed edges.

    ``node_types`` are indices into ``types``; edges reference node ids
    (which need not be contiguous after node removal).
    """

    types: TypeSet
    node_ids: tuple[int, ...]
    node_types: np.ndarray      # (n,) intp
    features: np.ndarray        # (n, d) float64
    edge_src: np.ndarray        # (E,) intp, node ids
    edge_dst: np.ndarray        # (E,) intp, node ids
    edge_attrs: np.ndarray      # (E, d_e) float64
    label: int | None = None
    coords: np.ndarray | None = None   # (n, 2) int64 grid positions

    def __post_init__(self):
        object.__setattr__(self, "node_ids", tuple(int(i) for i in self.node_ids))
        object.__setattr__(self, "node_types", np.ascontiguousarray(self.node_types, dtype=np.intp))
        object.__setattr__(self, "features", np.ascontiguousarray(self.features, dtype=np.float64))
        object.__setattr__(self, "edge_src", np.ascontiguousarray(self.edge_src, dtype=np.intp))
        object.__setattr__(self, "edge_dst", np.ascontiguousarray(self.edge_dst, dtype=np.intp))
        object.__setattr__(self, "edge_attrs", np.ascontiguousarray(self.edge_attrs, dtype=np.float64))
        if self.coords is not None:
            object.__setattr__(self, "coords", np.ascontiguousarray(self.coords, dtype=np.int64))
        if self.label is not None:
            object.__setattr__(self, "label", int(self.label))
        for arr in (self.node_types, self.features, self.edge_src, self.edge_dst, self.edge_attrs, self.coords):
            if arr is not None:
                arr.setflags(write=False)

    # -- shape helpers -----------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return int(self.edge_src.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def edge_dim(self) -> int:
        return int(self.edge_attrs.shape[1])

    @cached_property
    def _id_to_pos(self) -> dict[int, int]:
        return {nid: i for i, nid in enumerate(self.node_ids)}

    def pos(self, node_id: int) -> int:
        try:
            return self._id_to_pos[node_id]
        except KeyError:
            raise GraphLookupError(f"unknown node id {node_id}") from None

    @cached_property
    def edge_pos(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as node positions (src_pos, dst_pos), read-only.

        Built once per graph by sorting the node ids; an endpoint that is
        not a node raises GraphLookupError.
        """
        ids = np.asarray(self.node_ids, dtype=np.intp)
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]

        def lookup(end: np.ndarray) -> np.ndarray:
            at = np.searchsorted(sorted_ids, end)
            hit = at < len(ids)
            hit[hit] = sorted_ids[at[hit]] == end[hit]
            if not hit.all():
                raise GraphLookupError(f"unknown node id {int(end[np.argmin(hit)])}")
            pos = order[at]
            pos.setflags(write=False)
            return pos

        return lookup(self.edge_src), lookup(self.edge_dst)

    def has_node(self, node_id: int) -> bool:
        return node_id in self._id_to_pos

    def type_name(self, node_id: int) -> str:
        return self.types.names[self.node_types[self.pos(node_id)]]

    def nodes(self) -> Iterator[tuple[int, str, np.ndarray]]:
        for i, nid in enumerate(self.node_ids):
            yield nid, self.types.names[self.node_types[i]], self.features[i]

    def __eq__(self, other) -> bool:
        """Structural equality with bit-identical floats."""
        if not isinstance(other, HeteroGraph):
            return NotImplemented
        if self.types.names != other.types.names or self.node_ids != other.node_ids:
            return False
        if self.label != other.label:
            return False
        if (self.coords is None) != (other.coords is None):
            return False
        same = (
            np.array_equal(self.node_types, other.node_types)
            and self.features.shape == other.features.shape
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.edge_src, other.edge_src)
            and np.array_equal(self.edge_dst, other.edge_dst)
            and self.edge_attrs.shape == other.edge_attrs.shape
            and np.array_equal(self.edge_attrs, other.edge_attrs)
        )
        if same and self.coords is not None:
            same = np.array_equal(self.coords, other.coords)
        return same

    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def from_lists(cls, types: TypeSet,
                   nodes: Sequence[tuple],
                   edges: Sequence[tuple],
                   label: int | None = None) -> "HeteroGraph":
        """Build a graph from per-node/per-edge tuples (test/demo helper).

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
        return cls(types, tuple(ids), np.asarray(type_idx, dtype=np.intp), feats,
                   src, dst, attrs, label=label, coords=coords)


def validate(g: HeteroGraph) -> Violation | None:
    """Check every graph invariant; returns the first violation or None."""
    if len(set(g.node_ids)) != len(g.node_ids):
        seen = set()
        for nid in g.node_ids:
            if nid in seen:
                return Violation("duplicate-node-id", f"node id {nid} appears twice", node_id=nid)
            seen.add(nid)
    if g.node_types.shape != (g.n_nodes,):
        return Violation("shape", "node_types length does not match node count")
    if g.n_nodes and (g.node_types.min() < 0 or g.node_types.max() >= len(g.types)):
        bad = int(np.argmax((g.node_types < 0) | (g.node_types >= len(g.types))))
        return Violation("unknown-type", "node type index out of range", node_id=g.node_ids[bad])
    if g.features.ndim != 2 or g.features.shape[0] != g.n_nodes:
        return Violation("shape", f"features must be (n, d), got {g.features.shape}")
    if not np.all(np.isfinite(g.features)):
        bad = int(np.nonzero(~np.isfinite(g.features).all(axis=1))[0][0])
        return Violation("non-finite", "node feature contains NaN/Inf", node_id=g.node_ids[bad])
    if g.coords is not None and g.coords.shape != (g.n_nodes, 2):
        return Violation("shape", f"coords must be (n, 2), got {g.coords.shape}")
    if not (g.edge_src.shape == g.edge_dst.shape == (g.n_edges,)):
        return Violation("shape", "edge endpoint arrays malformed")
    if g.edge_attrs.ndim != 2 or g.edge_attrs.shape[0] != g.n_edges:
        return Violation("shape", f"edge attrs must be (E, d_e), got {g.edge_attrs.shape}")
    ids = np.asarray(g.node_ids, dtype=np.intp)
    src_ok, dst_ok = np.isin(g.edge_src, ids), np.isin(g.edge_dst, ids)
    if not (src_ok.all() and dst_ok.all()):
        bad = int(np.argmin(src_ok & dst_ok))
        s, t = int(g.edge_src[bad]), int(g.edge_dst[bad])
        if not src_ok[bad]:
            return Violation("missing-endpoint", f"edge source {s} is not a node", edge=(s, t))
        return Violation("missing-endpoint", f"edge target {t} is not a node", edge=(s, t))
    if not np.all(np.isfinite(g.edge_attrs)):
        bad = int(np.nonzero(~np.isfinite(g.edge_attrs).all(axis=1))[0][0])
        s, t = int(g.edge_src[bad]), int(g.edge_dst[bad])
        return Violation("non-finite", "edge attribute contains NaN/Inf", edge=(s, t))
    # lexsort is stable: each pair's first occurrence sorts first, so the
    # lowest-indexed flagged row is the first edge that repeats an earlier one.
    order = np.lexsort((g.edge_dst, g.edge_src))
    s_sorted, t_sorted = g.edge_src[order], g.edge_dst[order]
    repeat = (s_sorted[1:] == s_sorted[:-1]) & (t_sorted[1:] == t_sorted[:-1])
    if repeat.any():
        bad = int(order[1:][repeat].min())
        s, t = int(g.edge_src[bad]), int(g.edge_dst[bad])
        return Violation("duplicate-edge", f"edge ({s}, {t}) appears twice", edge=(s, t))
    if g.label is not None and g.label < 0:
        return Violation("label", f"label must be a nonnegative class index, got {g.label}")
    return None


def remove_node(g: HeteroGraph, node_id: int) -> HeteroGraph:
    """Return a new graph without the node and all its incident edges."""
    p = g.pos(node_id)
    keep_nodes = np.ones(g.n_nodes, dtype=bool)
    keep_nodes[p] = False
    keep_edges = (g.edge_src != node_id) & (g.edge_dst != node_id)
    ids = tuple(nid for nid in g.node_ids if nid != node_id)
    return HeteroGraph(
        types=g.types,
        node_ids=ids,
        node_types=g.node_types[keep_nodes],
        features=g.features[keep_nodes],
        edge_src=g.edge_src[keep_edges],
        edge_dst=g.edge_dst[keep_edges],
        edge_attrs=g.edge_attrs[keep_edges],
        label=g.label,
        coords=None if g.coords is None else g.coords[keep_nodes],
    )


def incoming(g: HeteroGraph, node_id: int) -> list[tuple[int, int, np.ndarray]]:
    """All edges (s, t, attr) with t == node_id, in ascending source id."""
    g.pos(node_id)  # raises on unknown id
    rows = np.nonzero(g.edge_dst == node_id)[0]
    order = rows[np.argsort(g.edge_src[rows], kind="stable")]
    return [(int(g.edge_src[i]), int(g.edge_dst[i]), g.edge_attrs[i].copy()) for i in order]


def with_label(g: HeteroGraph, label: int | None) -> HeteroGraph:
    return replace(g, label=label)


# ---------------------------------------------------------------------------
# serialization (versioned JSON, lossless float round trip)
# ---------------------------------------------------------------------------

def to_json_dict(g: HeteroGraph) -> dict:
    nodes = []
    for i, nid in enumerate(g.node_ids):
        x, y = (int(g.coords[i][0]), int(g.coords[i][1])) if g.coords is not None else (None, None)
        nodes.append({
            "id": nid,
            "type": g.types.names[g.node_types[i]],
            "x": x,
            "y": y,
            "feat": g.features[i].tolist(),
        })
    edges = [
        {"src": s, "dst": t, "attr": a}
        for s, t, a in zip(g.edge_src.tolist(), g.edge_dst.tolist(), g.edge_attrs.tolist())
    ]
    return {
        "version": GRAPH_FORMAT_VERSION,
        "types": list(g.types.names),
        "nodes": nodes,
        "edges": edges,
        "label": g.label,
    }


def _integral(v) -> int:
    """A JSON number with an int64 integer value as int; else ValueError/TypeError/OverflowError."""
    n = int(v)
    if n != v or not -2**63 <= n < 2**63:
        raise ValueError(f"{v!r} is not a 64-bit integer")
    return n


def from_json_dict(d: dict) -> HeteroGraph:
    """Parse the graph format; unknown top-level keys are ignored.

    Record-level problems (malformed records, unknown types, mixed feature
    or attribute dimensions, partial coordinates) are reported here; the
    graph-wide ones (duplicate ids, edges to missing nodes, duplicate
    edges) by ``validate``. Either raises GraphValidationError carrying the
    violation.
    """
    if not isinstance(d, dict):
        raise GraphValidationError(Violation("format", "graph document must be a JSON object"))
    if d.get("version") != GRAPH_FORMAT_VERSION:
        raise GraphValidationError(Violation("format", f"unsupported graph format version {d.get('version')!r}"))
    try:
        types = TypeSet(tuple(str(t) for t in d["types"]))
        raw_nodes = d["nodes"]
        raw_edges = d["edges"]
        label = d.get("label")
        label = None if label is None else _integral(label)
    except (KeyError, ConfigError, TypeError, ValueError, OverflowError) as exc:
        raise GraphValidationError(Violation("format", f"malformed graph document: {exc}")) from exc
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise GraphValidationError(Violation("format", "graph nodes and edges must be JSON lists"))

    ids: list[int] = []
    type_idx: list[int] = []
    feats: list[list[float]] = []
    coords: list[tuple[int, int] | None] = []
    feat_dim: int | None = None
    for nd in raw_nodes:
        try:
            nid = _integral(nd["id"])
            tname = nd["type"]
            feat = [float(v) for v in nd["feat"]]
            x, y = nd.get("x"), nd.get("y")
            xy = (_integral(x), _integral(y)) if x is not None and y is not None else None
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise GraphValidationError(Violation("format", f"malformed node record: {exc}")) from exc
        if tname not in types:
            raise GraphValidationError(Violation("unknown-type", f"node type {tname!r} not in type set", node_id=nid))
        if feat_dim is None:
            feat_dim = len(feat)
        elif len(feat) != feat_dim:
            raise GraphValidationError(Violation(
                "mixed-feature-dim",
                f"node feature has dimension {len(feat)}, expected {feat_dim}",
                node_id=nid))
        coords.append(xy)
        ids.append(nid)
        type_idx.append(types.index(tname))
        feats.append(feat)
    has_coords = [c is not None for c in coords]
    if any(has_coords) and not all(has_coords):
        bad = ids[has_coords.index(False)]
        raise GraphValidationError(Violation("coords", "either all nodes carry (x, y) or none", node_id=bad))

    srcs: list[int] = []
    dsts: list[int] = []
    attrs: list[list[float]] = []
    attr_dim: int | None = None
    for ed in raw_edges:
        try:
            s, t = _integral(ed["src"]), _integral(ed["dst"])
            attr = [float(v) for v in ed["attr"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise GraphValidationError(Violation("format", f"malformed edge record: {exc}")) from exc
        if attr_dim is None:
            attr_dim = len(attr)
        elif len(attr) != attr_dim:
            raise GraphValidationError(Violation(
                "mixed-attr-dim", f"edge attribute has dimension {len(attr)}, expected {attr_dim}", edge=(s, t)))
        srcs.append(s)
        dsts.append(t)
        attrs.append(attr)

    n = len(ids)
    g = HeteroGraph(
        types=types,
        node_ids=tuple(ids),
        node_types=np.asarray(type_idx, dtype=np.intp),
        features=np.asarray(feats, dtype=np.float64).reshape(n, feat_dim or 0),
        edge_src=np.asarray(srcs, dtype=np.intp),
        edge_dst=np.asarray(dsts, dtype=np.intp),
        edge_attrs=np.asarray(attrs, dtype=np.float64).reshape(len(srcs), attr_dim or 0),
        label=label,
        coords=np.asarray(coords, dtype=np.int64) if n and all(has_coords) else None,
    )
    v = validate(g)
    if v is not None:
        raise GraphValidationError(v)
    return g


def save_graph(g: HeteroGraph, path, extra: dict | None = None) -> None:
    """Write the graph file; ``extra`` adds top-level keys (e.g. provenance)."""
    doc = to_json_dict(g)
    if extra:
        for k, v in extra.items():
            if k in doc:
                raise ConfigError(f"extra key {k!r} collides with the graph schema")
            doc[k] = v
    _write_json(path, doc)


def _write_json(path, doc) -> None:
    """Write ``doc`` as key-sorted, compact JSON and a newline; all JSON artifacts use this.

    ``json.dumps`` runs the C encoder; ``json.dump`` streams through the
    pure-Python one, which writes the same bytes about 2.5 times slower.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_graph(path) -> HeteroGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
