"""Typed, attributed directed graphs and their manipulation primitives.

A graph holds typed nodes with float64 feature vectors and directed edges
with float64 attribute vectors. Graphs are immutable after construction;
``remove_node``, the one mutation-style operation, returns a new graph.
Edges name their endpoints by node id; ``HeteroGraph.edge_pos`` maps them
to node positions once per graph. ``batch_graphs`` stacks graphs into one
disjoint union (``GraphBatch``), which the model runs on, and lays out its
index arrays once: the edge endpoint indices, the target runs (its edge
rows sorted by target, the runs the layers' segment ops reduce; a node
without incoming edges is a GraphValidationError that names it) and the
node-type index, each checked once, and the pooling cells of either mode
on first use. Every op of a
step reads that one batch object instead of re-deriving or re-checking
the layout. The JSON file format is versioned and stores one column per
node or edge field: ids, types and coordinates as JSON lists, and the
float64 feature and attribute tables each as one base64 string of their
row-major, little-endian bytes, so floats round-trip exactly and are never
printed as text. ``validate`` is the one checker of graph-wide invariants,
the parser included.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, GraphLookupError, GraphValidationError

GRAPH_FORMAT_VERSION = 3
_NUMBER_TYPES = {int, float}


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


@dataclass(frozen=True, eq=False)
class PoolCells:
    """One pooling mode's cells of stacked rows: row r, of pool type p in
    graph b, is in cell ``cell[r]`` = b * n_types + p."""

    cell: np.ndarray    # (N,) each row's cell
    order: ad.Index     # the rows in (graph, pool type) order, a permutation
    runs: ad.Runs       # each present cell's rows, one run each in that order
    cells: ad.Cells     # the present cells, ascending


def _pool_cells(pool_type: np.ndarray, n_types: int, graph: np.ndarray) -> PoolCells:
    """The cells of rows with pool types in [0, ``n_types``) and graph
    indices, unchecked; each of the graphs 0..B-1 must have rows."""
    # Rows gathered in (graph, type) order make each present cell one run.
    cell = graph * n_types + pool_type
    count = np.bincount(cell)
    present = np.flatnonzero(count)
    return PoolCells(cell, ad.Index.sorting(cell), ad.Runs(count[present]),
                     ad.Cells(present, n_types))


@dataclass(frozen=True, eq=False)
class GraphBatch:
    """Graphs stacked as one disjoint union, the graph the model runs on,
    with its index layout built and checked once by ``batch_graphs``; every
    op of a step reads it instead of re-deriving it.

    Node rows follow graph order and ``graph`` names each node's graph;
    ``node_types`` indexes each node's type among the T. Edge rows
    (``edge_attrs``, and the endpoints ``src``/``dst`` among the N node
    rows) are stably sorted by target: ``targets`` holds node t's incoming
    edges as run t, in their graph's order, and every node has one.
    Components exchange no messages. ``node_ids`` keeps every graph's own
    ids, so an error names a node as its graph does. The pooling cells of
    either mode (``pool``) are built on first use.
    """

    types: TypeSet
    node_ids: tuple[int, ...]
    features: np.ndarray        # (N, d) float64
    edge_attrs: np.ndarray      # (E, d_e) float64, target-sorted rows
    src: ad.Index               # (E,) source node rows
    dst: ad.Index               # (E,) target node rows, nondecreasing
    targets: ad.Runs
    node_types: ad.Index
    graph: np.ndarray           # (N,) graph index of each node
    _pool: dict[bool, PoolCells] = field(default_factory=dict, init=False, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return int(self.edge_attrs.shape[0])

    def pool(self, per_type: bool) -> PoolCells:
        """The cells of per-type pooling (``per_type``) or of mean pooling,
        whose one pool type holds a graph's every row; the batch's types and
        graph indices need no second check."""
        if per_type not in self._pool:
            types, n_types = ((self.node_types.rows, self.node_types.bound) if per_type
                              else (np.zeros_like(self.graph), 1))
            self._pool[per_type] = _pool_cells(types, n_types, self.graph)
        return self._pool[per_type]


def batch_graphs(graphs: Sequence[HeteroGraph]) -> GraphBatch:
    """The disjoint union of a nonempty sequence of graphs, edges sorted by
    target (types from the first; the caller checks that the graphs agree
    on dimensions). A node without incoming edges raises
    GraphValidationError naming it by its graph's id."""
    if not graphs:
        raise ConfigError("cannot batch an empty sequence of graphs")
    sizes = [g.n_nodes for g in graphs]
    n = sum(sizes)
    offsets = np.cumsum(sizes) - sizes
    src, dst = (np.concatenate([g.edge_pos[end] + off for g, off in zip(graphs, offsets)])
                for end in (0, 1))
    # Graphs hold increasing positions: the sort keeps each one's rows together.
    order = np.argsort(dst, kind="stable")
    node_ids = tuple(nid for g in graphs for nid in g.node_ids)
    in_degree = np.bincount(dst, minlength=n)
    # Attention normalizes over a node's incoming edges. Built graphs have
    # self-loops, so only a graph made elsewhere (a graph file), or a
    # removal from one, can fail: an input error, not a numeric one.
    if not in_degree.all():
        nid = node_ids[int(np.argmin(in_degree))]
        raise GraphValidationError(Violation(
            "no-incoming-edge", f"node {nid} has no incoming edges; self-loops are required"))
    return GraphBatch(
        types=graphs[0].types,
        node_ids=node_ids,
        features=np.concatenate([g.features for g in graphs]),
        edge_attrs=np.concatenate([g.edge_attrs for g in graphs])[order],
        src=ad.Index(src[order], n),
        dst=ad.Index(dst[order], n),
        targets=ad.Runs(in_degree),
        node_types=ad.Index(np.concatenate([g.node_types for g in graphs]), len(graphs[0].types)),
        graph=np.repeat(np.arange(len(graphs)), sizes),
    )


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
    keep = np.ones(g.n_nodes, dtype=bool)
    keep[g.pos(node_id)] = False
    edges = np.nonzero((g.edge_src != node_id) & (g.edge_dst != node_id))[0]
    return _subgraph(g, keep, edges, g.features[keep], g.edge_attrs[edges])


def _subgraph(g: HeteroGraph, keep: np.ndarray, edges: np.ndarray,
              features: np.ndarray, edge_attrs: np.ndarray) -> HeteroGraph:
    """The graph of ``g``'s nodes where the mask ``keep`` holds, in their
    order, and its edge rows ``edges`` (ascending indices, both endpoints
    kept), with the given ``features`` and ``edge_attrs`` rows.

    Its ``edge_pos`` is carried over, not looked up: a kept node's new
    position is the count of kept nodes before it.
    """
    sub = HeteroGraph(
        types=g.types,
        node_ids=tuple(compress(g.node_ids, keep)),
        node_types=g.node_types[keep],
        features=features,
        edge_src=g.edge_src[edges],
        edge_dst=g.edge_dst[edges],
        edge_attrs=edge_attrs,
        label=g.label,
        coords=None if g.coords is None else g.coords[keep],
    )
    new_pos = np.cumsum(keep, dtype=np.intp) - 1
    carried = tuple(new_pos[end[edges]] for end in g.edge_pos)
    for pos in carried:
        pos.setflags(write=False)
    sub.__dict__["edge_pos"] = carried  # the cached_property's slot
    return sub


# ---------------------------------------------------------------------------
# serialization (versioned JSON, lossless float round trip)
# ---------------------------------------------------------------------------

def _float64_base64(a: np.ndarray) -> str:
    """Padded base64 of ``a``'s row-major, little-endian float64 bytes."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def to_json_dict(g: HeteroGraph) -> dict:
    """The graph as one JSON column per node and edge field (format version 3)."""
    x, y = (None, None) if g.coords is None else g.coords.T.tolist()
    return {
        "version": GRAPH_FORMAT_VERSION,
        "types": list(g.types.names),
        "label": g.label,
        "feature_dim": g.feature_dim,
        "edge_dim": g.edge_dim,
        "nodes": {
            "id": list(g.node_ids),
            "type": [g.types.names[t] for t in g.node_types.tolist()],
            "x": x,
            "y": y,
            "feat": _float64_base64(g.features),
        },
        "edges": {"src": g.edge_src.tolist(), "dst": g.edge_dst.tolist(),
                  "attr": _float64_base64(g.edge_attrs)},
    }


def _integral(v) -> int:
    """A JSON number with an int64 integer value as int; else ValueError/TypeError/OverflowError."""
    if isinstance(v, bool):
        raise TypeError(f"{str(v).lower()} is not a 64-bit integer")
    n = int(v)
    if n != v or not -2**63 <= n < 2**63:
        raise ValueError(f"{v!r} is not a 64-bit integer")
    return n


def _format(message: str) -> GraphValidationError:
    return GraphValidationError(Violation("format", message))


def _column(table, name: str, key: str, length: int | None) -> list:
    """``table[key]`` as a list of ``length`` entries (any length if None)."""
    if not isinstance(table, dict):
        raise _format(f"graph {name} must be a JSON object of columns")
    col = table.get(key)
    if not isinstance(col, list):
        raise _format(f"{name}.{key} must be a JSON list")
    if length is not None and len(col) != length:
        raise _format(f"{name}.{key} has {len(col)} entries, expected {length}")
    return col


def _int_column(col: list, name: str) -> np.ndarray:
    """The column as int64; an entry that is not a 64-bit integer is a format violation."""
    ints = set(map(type, col)) <= {int}
    try:
        return np.asarray(col if ints else [_integral(v) for v in col], dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _format(f"{name}: {exc}") from exc


def _non_number(values: list) -> str | None:
    """JSON text of the first entry of ``values`` that is not a number (a
    boolean, string, null or list), or None if every entry is an int or float."""
    if set(map(type, values)) <= _NUMBER_TYPES:
        return None
    return json.dumps(next(v for v in values if type(v) not in _NUMBER_TYPES))


def _float_column(table: dict, name: str, key: str, rows: int, width: int) -> np.ndarray:
    """``table[key]``, the base64 of a row-major, little-endian float64 array,
    as a (rows, width) array; anything else is a format violation."""
    col = table.get(key)
    if not isinstance(col, str):
        raise _format(f"{name}.{key} must be a base64 string")
    try:
        raw = base64.b64decode(col, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise _format(f"{name}.{key} is not base64: {exc}") from exc
    if len(raw) != 8 * rows * width:
        raise _format(f"{name}.{key} has {len(raw)} bytes, expected {8 * rows * width} "
                      f"for {rows} rows of {width} float64")
    try:
        return np.frombuffer(raw, dtype="<f8").reshape(rows, width)
    except ValueError as exc:  # zero rows of a width beyond numpy's array size
        raise _format(f"{name}.{key}: {exc}") from exc


def from_json_dict(d: dict) -> HeteroGraph:
    """Parse the graph format; unknown top-level keys are ignored.

    Column-level problems (malformed or misaligned columns, float payloads
    of the wrong size, unknown types, partial coordinates) are reported
    here; the graph-wide ones (duplicate ids, edges to missing nodes,
    duplicate edges, non-finite floats) by ``validate``. Either raises
    GraphValidationError carrying the violation.
    """
    if not isinstance(d, dict):
        raise _format("graph document must be a JSON object")
    if d.get("version") != GRAPH_FORMAT_VERSION:
        raise _format(f"unsupported graph format version {d.get('version')!r}, "
                      f"expected {GRAPH_FORMAT_VERSION}")
    types = d.get("types")
    if not (isinstance(types, list) and all(isinstance(t, str) for t in types)):
        raise _format("types must be a JSON list of strings")
    try:
        types = TypeSet(tuple(types))
        label = d.get("label")
        label = None if label is None else _integral(label)
        feature_dim, edge_dim = _integral(d["feature_dim"]), _integral(d["edge_dim"])
        if feature_dim < 0 or edge_dim < 0:
            raise ValueError(f"negative dimension {min(feature_dim, edge_dim)}")
    except (KeyError, ConfigError, TypeError, ValueError, OverflowError) as exc:
        raise _format(f"malformed graph document: {exc}") from exc
    nodes, edges = d.get("nodes"), d.get("edges")

    ids = _int_column(_column(nodes, "nodes", "id", None), "nodes.id")
    n = len(ids)
    names = _column(nodes, "nodes", "type", n)
    try:
        type_idx = np.asarray([types._index[t] for t in names], dtype=np.intp)
    except (KeyError, TypeError):
        bad = next(i for i, t in enumerate(names) if not isinstance(t, str) or t not in types)
        raise GraphValidationError(Violation(
            "unknown-type", f"node type {names[bad]!r} not in type set", node_id=int(ids[bad]))) from None
    feats = _float_column(nodes, "nodes", "feat", n, feature_dim)
    coords = None
    if nodes.get("x") is not None or nodes.get("y") is not None:
        x, y = _column(nodes, "nodes", "x", n), _column(nodes, "nodes", "y", n)
        if None in x or None in y:
            bad = next(i for i in range(n) if x[i] is None or y[i] is None)
            raise GraphValidationError(Violation(
                "coords", "either all nodes carry (x, y) or none", node_id=int(ids[bad])))
        coords = np.stack([_int_column(x, "nodes.x"), _int_column(y, "nodes.y")], axis=1)

    src = _int_column(_column(edges, "edges", "src", None), "edges.src")
    dst = _int_column(_column(edges, "edges", "dst", len(src)), "edges.dst")
    attrs = _float_column(edges, "edges", "attr", len(src), edge_dim)

    g = HeteroGraph(
        types=types,
        node_ids=tuple(ids.tolist()),
        node_types=type_idx,
        features=feats,
        edge_src=src,
        edge_dst=dst,
        edge_attrs=attrs,
        label=label,
        coords=coords,
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


def _parse_json(text: str):
    """``json.loads``, where input nested too deeply for the parser's
    recursion raises JSONDecodeError like any other malformed JSON; every
    JSON file and patch-table line is read with this."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("JSON nested too deeply", text, 0) from None


def load_graph(path) -> HeteroGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(_parse_json(fh.read()))
