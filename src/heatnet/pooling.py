"""Per-type pooling and the graph-level classification head.

Node features are pooled within each pool type (mean over the type's rows,
then a trainable per-type linear map), the graph vector is the mean of the
T type vectors, and a linear classifier gives the logits. An absent type
adds nothing to the sum and still counts in T, as a zero row would. Mean
pooling, the ablation baseline, is one pool type and no maps
(``Model.pool_types``). Every reduction is an exactly rounded segment sum
and every product is row-invariant, so each graph of a stack gets the
logits it gets alone, bit for bit.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .hetgraph import PoolCells, TypeSet


@dataclass
class PoolParams:
    """Stacked per-type readout maps plus the classifier.

    ``readout`` has shape (T, d, d) and ``readout[a]`` maps the mean of the
    type-a nodes; None means no maps (mean pooling has none).
    ``classifier_w`` is (C, d), ``classifier_b`` is (C,). The pooling op
    checks these shapes on every call.
    """

    readout: Tensor | None
    classifier_w: Tensor
    classifier_b: Tensor

    @classmethod
    def init(cls, types: TypeSet, dim: int, n_classes: int, rng: np.random.Generator,
             *, readout_maps: bool = True) -> "PoolParams":
        """Readout maps (none without ``readout_maps``) start at identity;
        classifier is Glorot/zeros."""
        if n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {n_classes}")
        readout = None
        if readout_maps:
            readout = Tensor(np.tile(np.eye(dim), (len(types), 1, 1)), requires_grad=True)
        std = float(np.sqrt(2.0 / (dim + n_classes)))
        return cls(
            readout=readout,
            classifier_w=Tensor(rng.normal(0.0, std, size=(n_classes, dim)), requires_grad=True),
            classifier_b=Tensor(np.zeros(n_classes), requires_grad=True),
        )


def pl_pool(features: Tensor, cells: PoolCells, params: PoolParams) -> Tensor:
    """Logits (B, C) of B stacked graphs from their (n, d) node rows.

    ``cells`` (``hetgraph.pool_cells``, or a batch's ``plan.pool``) groups
    the rows by (graph, pool type). One gather into that order and one
    segment mean give the present cells' means, and
    ``autodiff.pooled_logits`` maps, averages and classifies them.
    """
    if cells.order.bound != features.shape[0]:
        raise ShapeError(f"pooling cells of {cells.order.bound} rows for "
                         f"{features.shape[0]} feature rows")
    means = ad.segment_reduce(ad.gather_rows(features, cells.order), cells.runs)
    return ad.pooled_logits(means, cells.cells, params.readout, params.classifier_w,
                            params.classifier_b)


def pool_parameters(params: PoolParams, prefix: str = "pool") -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}
    if params.readout is not None:
        out[f"{prefix}.readout"] = params.readout
    out["classifier.weight"] = params.classifier_w
    out["classifier.bias"] = params.classifier_b
    return out
