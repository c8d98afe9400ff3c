"""Per-type pooling and the graph-level classification head.

Node features are pooled within each node type (mean over that type's
rows, then an optional trainable per-type linear map) into a fixed
(|types| x d) matrix S, by one segment mean over the node-type index and
one ``typed_matmul``; types with no nodes contribute a zero row. The
graph feature is the mean (or sum) over S's rows, followed by a linear
classifier. A plain mean-over-all-nodes pooling is kept as the ablation
baseline.
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


def pl_pool(features: Tensor, type_idx: np.ndarray, params: PoolParams) -> Tensor:
    """Pool node features into one row per type; empty types give zeros."""
    n, d = features.shape
    if d != params.dim:
        raise ShapeError(f"features dim {d} does not match pool dim {params.dim}")
    present, segment = np.unique(type_idx, return_inverse=True)
    pooled = ad.segment_reduce(features, segment, len(present), "mean")
    if params.readout is not None:
        pooled = ad.typed_matmul(pooled, params.readout, present)
    # Absent types read the zero row appended after the present ones.
    rows = np.full(len(params.types), len(present), dtype=np.intp)
    rows[present] = np.arange(len(present))
    return ad.gather_rows(ad.concat([pooled, Tensor(np.zeros((1, d)))], axis=0), rows)


def graph_logits(pooled: Tensor, params: PoolParams) -> Tensor:
    """Collapse the per-type matrix to a graph vector and classify it."""
    if pooled.ndim != 2 or pooled.shape[1] != params.dim:
        raise ShapeError(f"pooled matrix {pooled.shape} does not match pool dim {params.dim}")
    if params.final == "mean":
        z = ad.mean_rows(pooled)
    else:
        z = ad.reduce_sum(pooled, axis=0, keepdims=True)
    logits = ad.add(ad.matmul(z, ad.transpose(params.classifier_w)), params.classifier_b)
    return ad.reshape(logits, (params.n_classes,))


def mean_pool_logits(features: Tensor, params: PoolParams) -> Tensor:
    """Plain mean pooling over all nodes (type-blind ablation head)."""
    z = ad.mean_rows(features)
    logits = ad.add(ad.matmul(z, ad.transpose(params.classifier_w)), params.classifier_b)
    return ad.reshape(logits, (params.n_classes,))


def pool_parameters(params: PoolParams, prefix: str = "pool") -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}
    if params.readout is not None:
        out[f"{prefix}.readout"] = params.readout
    out["classifier.weight"] = params.classifier_w
    out["classifier.bias"] = params.classifier_b
    return out
