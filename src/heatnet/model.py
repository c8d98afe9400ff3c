"""The full graph classifier: attention stack, pooling, classification head.

A model is a stack of edge-attribute attention layers with leaky-ReLU and
dropout between them, followed by per-type pooling (or plain mean pooling)
and a linear head. The type-blind baseline variant shares one projection
across all node types, forces the edge modulation to all-ones, and uses
plain mean pooling — isolating exactly what node/edge heterogeneity adds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .hetgraph import DEFAULT_TYPE_NAMES, HeteroGraph, TypeSet
from .layers import HeatLayerParams, LayerOutput, layer_forward, layer_parameters
from .pooling import PoolParams, graph_logits, mean_pool_logits, pl_pool, pool_parameters
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
    leaky_slope: float = 0.01
    aggregation: str = "mean"
    pooling: str = "pl"             # "pl" | "mean"
    type_blind: bool = False
    decouple_key_value: bool = False
    trainable_readout: bool = True
    final_readout: str = "mean"

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
                decouple_key_value=config.decouple_key_value,
            ))
        pool = PoolParams.init(types, config.hidden_dim, config.n_classes, rng,
                               trainable_readout=config.trainable_readout and config.pooling == "pl",
                               final=config.final_readout)
        return cls(config, layers, pool)

    def parameters(self) -> dict[str, Tensor]:
        """Flat, stably ordered name -> tensor registry."""
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer_parameters(layer, f"layer{i}"))
        out.update(pool_parameters(self.pool))
        return out

    def forward(self, g: HeteroGraph, training: bool = False,
                rng: np.random.Generator | None = None,
                layer_outputs: list[LayerOutput] | None = None) -> Tensor:
        """Graph -> logits (C,). Dropout is active only in training mode.

        ``layer_outputs``, if given, receives each layer's output with its
        node and edge projections (what ``explain`` reuses).
        """
        if g.n_nodes == 0:
            raise ShapeError("cannot run the model on an empty graph")
        if g.feature_dim != self.config.feature_dim:
            raise ShapeError(
                f"graph feature dim {g.feature_dim} does not match model {self.config.feature_dim}")
        if not self.config.type_blind and g.types.names != self.types.names:
            raise ConfigError("graph type set does not match the model's")
        h: Tensor = Tensor(g.features)
        attrs: Tensor = Tensor(g.edge_attrs)
        for i, layer in enumerate(self.layers):
            out = layer_forward(g, layer, features=h, edge_attrs=attrs)
            if layer_outputs is not None:
                layer_outputs.append(out)
            h, attrs = out.node_features, out.edge_attrs
            if i < len(self.layers) - 1:
                h = self.activate(h, training, rng)
        return self.readout(h, g.node_types)

    def activate(self, h: Tensor, training: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        """The leaky ReLU and dropout between two attention layers."""
        h = ad.leaky_relu(h, self.config.leaky_slope)
        return ad.dropout(h, self.config.dropout, rng, training)

    def readout(self, h: Tensor, node_types: np.ndarray,
                graph: np.ndarray | None = None) -> Tensor:
        """Final node features -> logits: (C,) for one graph, or (B, C) for
        the rows of B graphs stacked with ``graph`` naming each row's graph."""
        if self.config.pooling == "pl":
            return graph_logits(pl_pool(h, node_types, self.pool, graph), self.pool)
        return mean_pool_logits(h, self.pool, graph)

    def loss(self, g: HeteroGraph, label: int | None = None, training: bool = False,
             rng: np.random.Generator | None = None) -> Tensor:
        y = g.label if label is None else label
        if y is None:
            raise ConfigError("graph has no label and none was given")
        return ad.cross_entropy(self.forward(g, training=training, rng=rng), int(y))

    def predict_proba(self, g: HeteroGraph) -> np.ndarray:
        """Class probabilities in eval mode (no tape, no dropout)."""
        with ad.no_grad():
            logits = self.forward(g, training=False)
            probs = ad.softmax_rows(ad.reshape(logits, (1, -1)))
        return probs.data[0].copy()

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
