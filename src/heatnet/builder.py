"""Graph construction from ingested patch records.

Patches arrive with a precomputed feature embedding and either per-patch
nucleus-type counts or a direct type label. Nodes are typed by majority
vote over the counts, edges come from feature-space k-NN, and each edge
carries the Pearson correlation of its endpoint features as a scalar
attribute. Training-time augmentation (edge/node dropping, Gaussian
feature noise) and the unsupervised k-means typing fallback live here too.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractError, PatchTableError, ShapeError
from .hetgraph import DEFAULT_TYPES, HeteroGraph, TypeSet, validate


@dataclass(frozen=True)
class AugmentConfig:
    """Strengths for training-time graph augmentation; zeros = identity."""

    edge_drop_prob: float = 0.0
    node_drop_prob: float = 0.0
    feature_noise_sigma: float = 0.0
    edge_noise_sigma: float = 0.0

    def __post_init__(self):
        for name in ("edge_drop_prob", "node_drop_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        for name in ("feature_noise_sigma", "edge_noise_sigma"):
            v = getattr(self, name)
            if v < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {v}")

    @property
    def is_identity(self) -> bool:
        return (self.edge_drop_prob == 0.0 and self.node_drop_prob == 0.0
                and self.feature_noise_sigma == 0.0 and self.edge_noise_sigma == 0.0)


@dataclass(frozen=True)
class BuildConfig:
    """Graph construction knobs.

    k-NN uses cosine similarity by default (scale-robust for pretrained
    embeddings); "euclidean" switches to negative Euclidean distance.
    """

    k: int = 4
    metric: str = "cosine"
    add_self_loops: bool = True
    symmetric_edges: bool = True
    typing: str = "counts"          # "counts" | "kmeans"
    kmeans_k: int = 4
    augmentation: AugmentConfig = field(default_factory=AugmentConfig)
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.metric not in ("cosine", "euclidean"):
            raise ConfigError(f"unknown similarity metric {self.metric!r}")
        if self.typing not in ("counts", "kmeans"):
            raise ConfigError(f"unknown typing mode {self.typing!r}")
        if self.kmeans_k < 1:
            raise ConfigError(f"kmeans_k must be >= 1, got {self.kmeans_k}")


@dataclass(frozen=True)
class PatchRecord:
    """One ingested patch: id, grid coordinates, embedding, and typing info.

    Exactly one of ``type_counts`` (nucleus-type tallies) or ``type_label``
    (a direct type name) should be provided; with neither, the patch is
    typed "no-label".
    """

    id: str
    x: int
    y: int
    feature: np.ndarray
    type_counts: dict[str, int] | None = None
    type_label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "feature", np.asarray(self.feature, dtype=np.float64))
        if self.type_counts is not None:
            for name, c in self.type_counts.items():
                if c < 0:
                    raise ConfigError(f"patch {self.id}: negative count for type {name!r}")


NO_LABEL = "no-label"


def majority_vote_type(counts: dict[str, int] | None, types: TypeSet = DEFAULT_TYPES) -> str:
    """Most frequent type in the tallies; ties go to the earlier type.

    Empty or all-zero counts map to "no-label". Tie breaking uses the fixed
    enumeration order of the type set.
    """
    if counts:
        for name in counts:
            types.index(name)  # unknown type name -> ConfigError
    if not counts or all(c == 0 for c in counts.values()):
        if NO_LABEL not in types:
            raise ConfigError('count-based typing requires a "no-label" type in the type set')
        return NO_LABEL
    best_name, best_count, best_rank = None, -1, len(types)
    for name, c in counts.items():
        rank = types.index(name)
        if c > best_count or (c == best_count and rank < best_rank):
            best_name, best_count, best_rank = name, c, rank
    return best_name


# Byte budget of one row tile of the similarity matrix: knn_edges holds a
# few tiles at a time, so its memory is O(tile * n) instead of O(n^2).
_TILE_BYTES = 8 * 2**20


def _row_tiles(n: int) -> list[tuple[int, int]]:
    """Row ranges [a, b) of at least three rows, covering 0..n-1 in order.

    A matrix that fits the budget is one tile. BLAS computes a one-row
    product with gemv, which rounds differently from the matrix kernels of
    taller tiles, so a last tile of one or two rows is folded into the
    previous one.
    """
    rows = max(3, _TILE_BYTES // (8 * n))
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] < 3:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _similarity_tiles(feats: np.ndarray, metric: str):
    """Yield (a, b, sims) with sims the rows a..b-1 of the n x n similarity matrix.

    Cosine similarity of unit vectors, with zero vectors at similarity 0 to
    everything; "euclidean" is the negative Euclidean distance. Each tile
    is the dense expression restricted to its rows.
    """
    if metric == "cosine":
        norms = np.linalg.norm(feats, axis=1)
        zero = norms == 0.0
        unit = feats / np.where(zero, 1.0, norms)[:, None]
        for a, b in _row_tiles(len(feats)):
            sims = unit[a:b] @ unit.T
            sims[zero[a:b], :] = 0.0
            sims[:, zero] = 0.0
            yield a, b, sims
        return
    sq = np.sum(feats ** 2, axis=1)
    for a, b in _row_tiles(len(feats)):
        prod = feats[a:b] @ feats.T
        prod *= 2.0
        d2 = sq[a:b, None] + sq[None, :]
        d2 -= prod
        del prod
        np.maximum(d2, 0.0, out=d2)
        np.sqrt(d2, out=d2)
        yield a, b, np.negative(d2, out=d2)


def knn_edges(features: Sequence[np.ndarray] | np.ndarray, k: int,
              metric: str = "cosine", symmetric: bool = True) -> list[tuple[int, int]]:
    """Directed k-NN edges over node positions 0..n-1, by exact brute force.

    For each node v the k most similar other nodes u are selected (ties
    broken by lower node index, also at the k-th place) and an edge u -> v
    is added, so v aggregates from the neighbors it chose. With
    ``symmetric`` both directions are inserted and duplicates collapsed.
    The edge list is sorted by (src, dst).

    Similarities are computed one row tile at a time (``_TILE_BYTES`` per
    tile) and each row's k-th largest value is found with a partition, so
    memory is O(tile * n) rather than the dense n x n matrix. Up to 1024
    nodes the matrix is one tile, the dense product itself; with several
    tiles BLAS may round some entries differently in the last bits, so an
    exact tie there can be broken differently than the dense product would.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ShapeError(f"features must be (n, d), got {feats.shape}")
    n = feats.shape[0]
    if k >= n:
        raise ConfigError(f"k={k} must be smaller than the node count {n}")
    keys = []
    for a, b, sims in _similarity_tiles(feats, metric):
        diag = np.arange(b - a)
        sims[diag, a + diag] = -np.inf
        kth = np.partition(sims, n - k, axis=1)[:, n - k, None]
        take = sims > kth
        tied = sims == kth
        # the tied values fill the places left after the strictly larger ones
        need = k - take.sum(axis=1)
        over = np.nonzero(tied.sum(axis=1) > need)[0]
        if len(over):
            tied[over] &= np.cumsum(tied[over], axis=1) <= need[over, None]
        take |= tied
        rows, cols = np.nonzero(take)
        keys.append(cols * n + (a + rows))
    keys = np.concatenate(keys)
    if symmetric:
        keys = np.concatenate([keys, (keys % n) * n + keys // n])
    keys = np.unique(keys)
    return list(zip((keys // n).tolist(), (keys % n).tolist()))


def _pearson(feats: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Sample Pearson correlation of rows ``src[i]`` and ``dst[i]`` of ``feats``, per i.

    A constant row has undefined correlation and maps to 0; rows whose
    centred values are equal (or negated) give exactly 1 (or -1); every
    other value is clamped to [-1, 1]. Edges go in chunks of
    ``_TILE_BYTES`` per gathered row block.
    """
    centred = feats - feats.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(centred * centred, axis=1))
    r = np.empty(len(src))
    step = max(1, _TILE_BYTES // (8 * feats.shape[1]))
    for i in range(0, len(src), step):
        s, t = src[i:i + step], dst[i:i + step]
        a, b = centred[s], centred[t]
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.clip(np.sum(a * b, axis=1) / (norms[s] * norms[t]), -1.0, 1.0)
        c[(a == b).all(axis=1)] = 1.0
        c[(a == -b).all(axis=1)] = -1.0
        c[(norms[s] == 0.0) | (norms[t] == 0.0)] = 0.0
        r[i:i + step] = c
    return r


def pearson_edge_attr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
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
    return _pearson(np.stack([x, y]), np.array([0]), np.array([1]))


def build_graph(patches: Sequence[PatchRecord], cfg: BuildConfig,
                types: TypeSet = DEFAULT_TYPES) -> HeteroGraph:
    """Assemble a validated graph from patch records.

    Node ids are 0..n-1 in patch order. Self-loops (when enabled) carry the
    attribute [1.0], the correlation of a non-constant vector with itself.
    Features must be finite and of one shape (ConfigError, ShapeError).
    """
    if not patches:
        raise ConfigError("cannot build a graph from zero patches")
    shape = patches[0].feature.shape
    if len(shape) != 1:
        raise ShapeError(f"patch {patches[0].id}: feature must be a vector, got shape {shape}")
    for p in patches:
        if p.feature.shape != shape:
            raise ShapeError(f"patch {p.id}: feature shape {p.feature.shape} differs from "
                             f"{shape} of patch {patches[0].id}")
    feats = np.asarray([p.feature for p in patches], dtype=np.float64)
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        raise ConfigError(f"patch {patches[int(np.argmin(finite))].id}: feature is not finite")

    if cfg.typing == "kmeans":
        labels = kmeans_typing(feats, cfg.kmeans_k, cfg.seed)
        types = TypeSet(tuple(f"cluster-{i}" for i in range(cfg.kmeans_k)))
        type_idx = np.asarray(labels, dtype=np.intp)
    else:
        names = []
        for p in patches:
            if p.type_label is not None:
                types.index(p.type_label)
                names.append(p.type_label)
            else:
                names.append(majority_vote_type(p.type_counts, types))
        type_idx = np.asarray([types.index(nm) for nm in names], dtype=np.intp)

    n = len(patches)
    pairs = np.array(knn_edges(feats, cfg.k, cfg.metric, cfg.symmetric_edges) if n > 1 else [],
                     dtype=np.int64).reshape(-1, 2)
    keys = pairs[:, 0] * n + pairs[:, 1]
    if cfg.add_self_loops:
        keys = np.union1d(keys, np.arange(n) * (n + 1))
    src, dst = keys // n, keys % n

    attrs = np.ones((len(keys), 1), dtype=np.float64)
    off = src != dst
    if off.any():
        if feats.shape[1] < 2:
            raise ShapeError(f"pearson needs at least 2 feature entries, got {feats.shape[1]}")
        attrs[off, 0] = _pearson(feats, src[off], dst[off])

    g = HeteroGraph(
        types=types,
        node_ids=tuple(range(n)),
        node_types=type_idx,
        features=feats,
        edge_src=src.astype(np.intp),
        edge_dst=dst.astype(np.intp),
        edge_attrs=attrs,
        label=None,
        coords=np.asarray([(p.x, p.y) for p in patches], dtype=np.int64),
    )
    v = validate(g)
    if v is not None:
        raise ContractError(f"built graph failed validation: {v}")
    return g


def augment(g: HeteroGraph, cfg: AugmentConfig, rng: np.random.Generator) -> HeteroGraph:
    """Randomly drop nodes/edges and add Gaussian noise; training only.

    Self-loop edges are never dropped (they keep every target's incoming
    set nonempty) and at least one node always survives: if the draws
    would drop everything, the node with the largest draw is kept. Draw
    order is fixed (node drops, edge drops, feature noise, edge noise), so
    output is deterministic given the rng state.
    """
    if cfg.is_identity:
        return g

    n = g.n_nodes
    u_nodes = rng.random(n)
    keep = u_nodes >= cfg.node_drop_prob
    if not keep.any():
        keep[int(np.argmax(u_nodes))] = True
    kept_ids = {nid for nid, k in zip(g.node_ids, keep) if k}

    edge_alive = np.array(
        [s in kept_ids and t in kept_ids for s, t in zip(g.edge_src.tolist(), g.edge_dst.tolist())],
        dtype=bool,
    )
    alive_idx = np.nonzero(edge_alive)[0]
    is_self = g.edge_src[alive_idx] == g.edge_dst[alive_idx]
    u_edges = rng.random(len(alive_idx))
    drop = (~is_self) & (u_edges < cfg.edge_drop_prob)
    final_edges = alive_idx[~drop]

    feats = g.features[keep].copy()
    if cfg.feature_noise_sigma > 0.0:
        feats += cfg.feature_noise_sigma * rng.standard_normal(feats.shape)
    attrs = g.edge_attrs[final_edges].copy()
    if cfg.edge_noise_sigma > 0.0:
        attrs += cfg.edge_noise_sigma * rng.standard_normal(attrs.shape)

    return HeteroGraph(
        types=g.types,
        node_ids=tuple(nid for nid, k in zip(g.node_ids, keep) if k),
        node_types=g.node_types[keep],
        features=feats,
        edge_src=g.edge_src[final_edges],
        edge_dst=g.edge_dst[final_edges],
        edge_attrs=attrs,
        label=g.label,
        coords=None if g.coords is None else g.coords[keep],
    )


def kmeans_typing(features: Sequence[np.ndarray] | np.ndarray, k: int, seed: int,
                  max_iter: int = 100, tol: float = 1e-6) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; returns a cluster id per node."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ShapeError(f"features must be (n, d), got {feats.shape}")
    n = feats.shape[0]
    if k > n:
        raise ConfigError(f"kmeans k={k} exceeds node count {n}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, feats.shape[1]))
    chosen = [int(rng.integers(n))]
    centroids[0] = feats[chosen[0]]
    for c in range(1, k):
        d2 = np.min(
            np.sum((feats[:, None, :] - centroids[None, :c, :]) ** 2, axis=2), axis=1)
        total = d2.sum()
        if total == 0.0:
            nxt = next(i for i in range(n) if i not in chosen)
        else:
            nxt = int(rng.choice(n, p=d2 / total))
            if nxt in chosen:  # possible only with duplicate points
                nxt = next(i for i in range(n) if i not in chosen)
        chosen.append(nxt)
        centroids[c] = feats[nxt]

    labels = np.zeros(n, dtype=np.intp)
    for _ in range(max_iter):
        d2 = np.sum((feats[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)  # ties resolve to the lower index
        new_centroids = centroids.copy()
        for c in range(k):
            members = feats[labels == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
            else:
                farthest = int(np.argmax(np.min(d2, axis=1)))
                new_centroids[c] = feats[farthest]
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break
    d2 = np.sum((feats[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1).astype(np.intp)


# ---------------------------------------------------------------------------
# patch-table ingestion (JSON Lines or CSV)
# ---------------------------------------------------------------------------

def _record_from_json(obj: dict, line: int) -> PatchRecord:
    try:
        rid = str(obj["id"])
        x = int(obj["x"])
        y = int(obj["y"])
        feat = [float(v) for v in obj["feat"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise PatchTableError(line, f"bad patch record: {exc}") from exc
    counts = obj.get("type_counts")
    label = obj.get("type")
    if counts is not None and label is not None:
        raise PatchTableError(line, "record carries both type_counts and type")
    if counts is not None:
        try:
            counts = {str(k): int(v) for k, v in counts.items()}
        except (AttributeError, TypeError, ValueError) as exc:
            raise PatchTableError(line, f"bad type_counts: {exc}") from exc
    try:
        return PatchRecord(rid, x, y, np.asarray(feat), type_counts=counts,
                           type_label=None if label is None else str(label))
    except ConfigError as exc:
        raise PatchTableError(line, str(exc)) from exc


def load_patch_table(path) -> list[PatchRecord]:
    """Read a patch table: JSON Lines, or CSV with header id,x,y,type,feat_0..

    Parse failures raise PatchTableError citing the 1-based line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise PatchTableError(lineno, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise PatchTableError(lineno, "each line must be a JSON object")
            records.append(_record_from_json(obj, lineno))
        if not records:
            raise PatchTableError(1, "patch table is empty")
        return records
    return _load_patch_csv(text)


def _load_patch_csv(text: str) -> list[PatchRecord]:
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise PatchTableError(1, "patch table is empty") from None
    expected_prefix = ["id", "x", "y", "type"]
    if [h.strip() for h in header[:4]] != expected_prefix:
        raise PatchTableError(1, f"CSV header must start with {','.join(expected_prefix)}")
    feat_cols = header[4:]
    if not feat_cols:
        raise PatchTableError(1, "CSV header has no feature columns")
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4 + len(feat_cols):
            raise PatchTableError(lineno, f"expected {4 + len(feat_cols)} fields, got {len(row)}")
        try:
            feat = np.asarray([float(v) for v in row[4:]])
            records.append(PatchRecord(row[0], int(row[1]), int(row[2]), feat,
                                       type_label=row[3]))
        except ValueError as exc:
            raise PatchTableError(lineno, f"bad value: {exc}") from exc
    if not records:
        raise PatchTableError(1, "patch table has no data rows")
    return records
