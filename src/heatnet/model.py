"""The full graph classifier: attention stack, pooling, classification head.

A model is a stack of edge-attribute attention layers with leaky-ReLU and
dropout between them, followed by per-type pooling (or plain mean pooling)
and a linear head. The type-blind baseline variant shares one projection
across all node types, forces the edge modulation to all-ones, and uses
plain mean pooling — isolating exactly what node/edge heterogeneity adds.
Training, evaluation (``readout``) and attribution (``head``) classify
through one pooling op, which ``pool_types`` alone adapts to the mode.

``Model.forward`` takes a sequence of graphs and runs them as one disjoint
union (``hetgraph.GraphBatch``): stacked rows, offset edge positions, and a
per-node graph index that the readout pools by, giving (B, C) logits. A
single graph is a batch of one; there is no other path. Every product is
row-invariant and every sum exactly rounded, so each graph's logits are
bit-equal to those of its own one-graph batch, and in training each
graph's dropout mask comes from its own generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .hetgraph import (DEFAULT_TYPE_NAMES, GraphBatch, HeteroGraph, PoolCells, TypeSet,
                       batch_graphs)
from .layers import HeatLayerParams, LayerOutput, layer_forward, layer_parameters
from .pooling import PoolParams, pl_pool, pool_parameters
from .seeding import rng_for


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int | None = None
    types: tuple[str, ...] = DEFAULT_TYPE_NAMES
    hidden_dim: int = 8
    heads: int = 2
    n_layers: int = 2
    n_classes: int = 2
    edge_attr_dim: int = 1
    dropout: float = 0.2
    aggregation: str = "mean"
    pooling: str = "pl"             # "pl" | "mean"
    type_blind: bool = False

    def __post_init__(self):
        for name, low in (("hidden_dim", 1), ("heads", 1), ("n_classes", 2), ("edge_attr_dim", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.feature_dim is not None and self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be at least 1, got {self.feature_dim}")
        if self.hidden_dim % self.heads != 0:
            raise ConfigError(f"hidden_dim={self.hidden_dim} not divisible by heads={self.heads}")
        if self.n_layers < 1:
            raise ConfigError("need at least one layer")
        if self.pooling not in ("pl", "mean"):
            raise ConfigError(f"unknown pooling {self.pooling!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


def baseline_config(cfg: ModelConfig) -> ModelConfig:
    """The type-blind ablation twin of a config (shared projections,
    all-ones edge modulation, plain mean pooling)."""
    return replace(cfg, type_blind=True, pooling="mean")


class Model:
    """Parameter container plus the differentiable forward pass."""

    def __init__(self, config: ModelConfig, layers: list[HeatLayerParams], pool: PoolParams):
        if config.feature_dim is None:
            raise ConfigError("model config must have feature_dim resolved")
        self.config = config
        self.layers = layers
        self.pool = pool
        self.types = TypeSet(config.types)

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator | int) -> "Model":
        if isinstance(rng, (int, np.integer)):
            rng = rng_for(int(rng), "init")
        if config.feature_dim is None:
            raise ConfigError("model config must have feature_dim resolved")
        types = TypeSet(config.types)
        d_k = config.hidden_dim // config.heads
        layers = []
        for layer_i in range(config.n_layers):
            d_in = config.feature_dim if layer_i == 0 else config.hidden_dim
            d_edge = config.edge_attr_dim if layer_i == 0 else d_k
            layers.append(HeatLayerParams.init(
                types, d_in, config.hidden_dim, config.heads, d_edge, rng,
                aggregation=config.aggregation,
                edge_identity=config.type_blind,
                shared_projection=config.type_blind,
            ))
        pool = PoolParams.init(types, config.hidden_dim, config.n_classes, rng,
                               readout_maps=config.pooling == "pl")
        return cls(config, layers, pool)

    def parameters(self) -> dict[str, Tensor]:
        """Flat, stably ordered name -> tensor registry."""
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer_parameters(layer, f"layer{i}"))
        out.update(pool_parameters(self.pool))
        return out

    def batch(self, graphs: Sequence[HeteroGraph]) -> GraphBatch:
        """The graphs as one disjoint union, after checking that each fits
        the model (nonempty, feature and edge dimensions, type set)."""
        for g in graphs:
            if g.n_nodes == 0:
                raise ShapeError("cannot run the model on an empty graph")
            if g.feature_dim != self.config.feature_dim:
                raise ShapeError(
                    f"graph feature dim {g.feature_dim} does not match model {self.config.feature_dim}")
            if g.edge_dim != self.config.edge_attr_dim:
                raise ShapeError(
                    f"graph edge attr dim {g.edge_dim} does not match model {self.config.edge_attr_dim}")
            # Type-blind layers with one pool type read no type name.
            blind = self.config.type_blind and self.pool_types(g.node_types)[1] == 1
            if not blind and g.types.names != self.types.names:
                raise ConfigError("graph type set does not match the model's")
        return batch_graphs(graphs)

    def forward(self, graphs: Sequence[HeteroGraph] | GraphBatch, training: bool = False,
                rngs: Sequence[np.random.Generator] | None = None,
                layer_outputs: list[LayerOutput] | None = None) -> Tensor:
        """Graphs -> logits (B, C), all B graphs run as one disjoint union.

        ``graphs`` is a sequence of graphs or the ``batch`` made of them.
        Graph b's logits equal those of a batch of graph b alone, bit for
        bit. Dropout is active only in training mode, where ``rngs[b]``
        draws graph b's mask. ``layer_outputs``, if given, receives each
        layer's output over the union with its node and edge projections
        (what ``explain`` reuses).
        """
        batch = graphs if isinstance(graphs, GraphBatch) else self.batch(graphs)
        blocks = np.bincount(batch.graph).tolist()
        h: Tensor = Tensor(batch.features)
        attrs: Tensor = Tensor(batch.edge_attrs)
        for i, layer in enumerate(self.layers):
            out = layer_forward(batch, layer, features=h, edge_attrs=attrs)
            if layer_outputs is not None:
                layer_outputs.append(out)
            h, attrs = out.node_features, out.edge_attrs
            if i < len(self.layers) - 1:
                h = self.activate(h, training, rngs, blocks)
        return self.readout(h, batch.plan.pool(self.config.pooling == "pl"))

    def activate(self, h: Tensor, training: bool = False,
                 rngs: Sequence[np.random.Generator] | None = None,
                 blocks: Sequence[int] | None = None) -> Tensor:
        """The leaky ReLU and dropout between two attention layers; in
        training, ``rngs[i]`` draws the mask of row block ``blocks[i]``."""
        h = ad.leaky_relu(h)
        return ad.dropout(h, self.config.dropout, rngs, training, blocks)

    def pool_types(self, node_types: np.ndarray) -> tuple[np.ndarray, int]:
        """Each row's pool type and the pool-type count: the node types and
        T under per-type pooling, zeros and 1 under mean pooling."""
        if self.config.pooling == "pl":
            return node_types, len(self.types)
        return np.zeros_like(node_types), 1

    def readout(self, h: Tensor, cells: PoolCells) -> Tensor:
        """Final node features of B stacked graphs -> logits (B, C), pooled
        by this mode's ``cells`` of their batch plan."""
        return pl_pool(h, cells, self.pool)

    def head(self, means: Tensor, cells: ad.Cells) -> Tensor:
        """The classification head of ``readout`` on pooled means made
        elsewhere: logits (B, C). Row k of ``means`` is the mean of cell k
        of ``cells`` (graph * T + pool type, ascending)."""
        p = self.pool
        return ad.pooled_logits(means, cells, p.readout, p.classifier_w, p.classifier_b)

    def loss(self, graphs: Sequence[HeteroGraph], training: bool = False,
             rngs: Sequence[np.random.Generator] | None = None) -> Tensor:
        """Per-graph cross-entropy on the graphs' own labels: (B,)."""
        if any(g.label is None for g in graphs):
            raise ConfigError("graph has no label")
        return ad.cross_entropy(self.forward(graphs, training=training, rngs=rngs),
                                [g.label for g in graphs])

    def predict_proba(self, graphs: Sequence[HeteroGraph]) -> np.ndarray:
        """Class probabilities (B, C) in eval mode (no tape, no dropout)."""
        with ad.no_grad():
            return ad.softmax_rows(self.forward(graphs)).data

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters().items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise ConfigError(f"parameter names mismatch (missing={sorted(missing)}, extra={sorted(extra)})")
        for name, t in params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ShapeError(f"parameter {name} has shape {arr.shape}, expected {t.data.shape}")
            t.data = arr.copy()
