"""Heterogeneous-graph learning on typed patch features.

Builds typed k-NN graphs from ingested patch embeddings, classifies them
with an edge-attribute attention network pooled per node type, and
attributes predictions to nodes via leave-one-node-out loss differences.
Includes a self-contained float64 autodiff engine, a training/CV harness,
a synthetic-data generator with exactly computable planted rules, and a
CLI for reproducible runs.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, backward, grad_check  # noqa: F401
from .builder import (  # noqa: F401
    AugmentConfig,
    BuildConfig,
    PatchRecord,
    augment,
    build_graph,
    kmeans_typing,
    knn_edges,
    load_patch_table,
    majority_vote_type,
)
from .explain import Attribution, causal_contribution, explain_graph, export_heatmap  # noqa: F401
from .hetgraph import (  # noqa: F401
    DEFAULT_TYPES,
    HeteroGraph,
    TypeSet,
    load_graph,
    remove_node,
    save_graph,
    validate,
)
from .layers import HeatLayerParams, layer_forward  # noqa: F401
from .metrics import metric_auc, metric_macro_f1, welch_ttest  # noqa: F401
from .model import Model, ModelConfig, baseline_config  # noqa: F401
from .pooling import PoolParams, pl_pool  # noqa: F401
from .synth import SyntheticSpec, planted_label, synth_generate  # noqa: F401
from .train import TrainConfig, adam_step, evaluate, kfold_split, run_cv, train  # noqa: F401
