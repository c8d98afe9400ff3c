"""Per-type pooling and the graph-level classification head.

Node features are pooled within each node type (mean over that type's
rows, then an optional trainable per-type linear map) into a fixed
(|types| x d) matrix S, by one segment mean over the node-type index and
one ``typed_matmul``; types with no nodes contribute a zero row. The
graph feature is the mean (or sum) over S's rows, followed by a linear
classifier (one ``linear`` op). ``pl_pool`` returns the S of B graphs as
their B * |types| rows stacked, the layout ``graph_logits`` reduces, so
no op reshapes them. A plain mean-over-all-nodes pooling is kept as the
ablation baseline. Every function takes the rows of B graphs stacked with a
per-row graph index, one graph being a stack of one. Every reduction is
an exactly rounded segment sum and every product is row-invariant, so
each graph of a stack gets the logits it gets alone, bit for bit.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .hetgraph import TypeSet


@dataclass
class PoolParams:
    """Stacked per-type readout maps plus the classifier.

    ``readout`` has shape (T, d, d) and ``readout[a]`` maps the mean of the
    type-a nodes; None disables the trainable maps (pure mean readout).
    ``classifier_w`` is (C, d), ``classifier_b`` is (C,).
    """

    types: TypeSet
    readout: Tensor | None
    classifier_w: Tensor
    classifier_b: Tensor
    final: str = "mean"

    def __post_init__(self):
        if self.final not in ("mean", "sum"):
            raise ConfigError(f"unknown final readout {self.final!r}")
        if self.classifier_w.ndim != 2:
            raise ShapeError("classifier weight must be (C, d)")
        shape = (len(self.types), self.dim, self.dim)
        if self.readout is not None and self.readout.shape != shape:
            raise ShapeError(f"readout has shape {self.readout.shape}, expected {shape}")
        if self.classifier_b.shape != (self.classifier_w.shape[0],):
            raise ShapeError("classifier bias length must equal the class count")

    @property
    def n_classes(self) -> int:
        return self.classifier_w.shape[0]

    @property
    def dim(self) -> int:
        return self.classifier_w.shape[1]

    @classmethod
    def init(cls, types: TypeSet, dim: int, n_classes: int, rng: np.random.Generator,
             *, trainable_readout: bool = True, final: str = "mean") -> "PoolParams":
        """Readout maps start at identity; classifier is Glorot/zeros."""
        if n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {n_classes}")
        readout = None
        if trainable_readout:
            readout = Tensor(np.tile(np.eye(dim), (len(types), 1, 1)), requires_grad=True)
        std = float(np.sqrt(2.0 / (dim + n_classes)))
        return cls(
            types=types,
            readout=readout,
            classifier_w=Tensor(rng.normal(0.0, std, size=(n_classes, dim)), requires_grad=True),
            classifier_b=Tensor(np.zeros(n_classes), requires_grad=True),
            final=final,
        )


def pl_pool(features: Tensor, type_idx: np.ndarray, params: PoolParams,
            graph: np.ndarray) -> Tensor:
    """Pool the rows of B stacked graphs into one row per (graph, type):
    (B * T, d), graph b's T rows in type order after graph b - 1's.

    ``graph[r]`` names the graph of row r, and B = max(graph) + 1. Each
    graph is pooled exactly as on its own; its empty types give zero rows.
    """
    n, d = features.shape
    if d != params.dim:
        raise ShapeError(f"features dim {d} does not match pool dim {params.dim}")
    n_types = len(params.types)
    n_graphs = int(graph.max()) + 1
    # Rows gathered in (graph, type) order make each present cell one run.
    cell = graph * n_types + type_idx
    present, counts = np.unique(cell, return_counts=True)
    pooled = ad.segment_reduce(ad.gather_rows(features, np.argsort(cell, kind="stable")),
                               counts, "mean")
    if params.readout is not None:
        pooled = ad.typed_matmul(pooled, params.readout, present % n_types)
    # Absent cells read the zero row appended after the present ones.
    rows = np.full(n_graphs * n_types, len(present), dtype=np.intp)
    rows[present] = np.arange(len(present))
    return ad.gather_rows(ad.concat([pooled, Tensor(np.zeros((1, d)))], axis=0), rows)


def _logits(rows: Tensor, counts: np.ndarray, mode: str, params: PoolParams) -> Tensor:
    """Reduce each run of ``counts[b]`` rows to one vector (mean or sum) and
    apply the linear head: logits (len(counts), C)."""
    return ad.linear(ad.segment_reduce(rows, counts, mode),
                     params.classifier_w, params.classifier_b)


def graph_logits(pooled: Tensor, params: PoolParams) -> Tensor:
    """Collapse the (B * T, d) rows of ``pl_pool``, T per graph, to graph
    vectors and classify them: logits (B, C)."""
    n_types = len(params.types)
    if pooled.ndim != 2 or pooled.shape[1] != params.dim or pooled.shape[0] % n_types:
        raise ShapeError(f"pooled rows {pooled.shape} are not {n_types} rows of dim "
                         f"{params.dim} per graph")
    return _logits(pooled, np.full(pooled.shape[0] // n_types, n_types), params.final, params)


def mean_pool_logits(features: Tensor, params: PoolParams, graph: np.ndarray) -> Tensor:
    """Plain mean pooling over all nodes (type-blind ablation head): logits
    (B, C) for the rows of B stacked graphs, ``graph`` nondecreasing."""
    return _logits(features, np.bincount(graph), "mean", params)


def pool_parameters(params: PoolParams, prefix: str = "pool") -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}
    if params.readout is not None:
        out[f"{prefix}.readout"] = params.readout
    out["classifier.weight"] = params.classifier_w
    out["classifier.bias"] = params.classifier_b
    return out
