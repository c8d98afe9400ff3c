"""Optimization, cross-validation, checkpoints, and evaluation.

Training follows the fixed recipe: Adam with decoupled weight decay and
fixed moment constants (``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``),
minibatches of graphs, each run as one disjoint union with one forward,
one mean loss and one backward, per-epoch augmentation of training
graphs, early stopping on validation loss, and the best-validation
parameters returned as the checkpoint. Evaluation batches its graphs the
same way, in chunks of bounded size.

When training starts, the model's parameter arrays are packed into one
contiguous float64 buffer, each leaf's ``data`` a reshaped view of it, so
an Adam step is a handful of elementwise passes over that buffer and its
two flat moment vectors, bit-equal to updating the arrays one by one.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .builder import AugmentConfig, augment
from .errors import ConfigError, NonFiniteError, TrainingError
from .hetgraph import HeteroGraph, _non_number, _parse_json, _write_json
from .metrics import accuracy, metric_auc_macro, metric_macro_f1
from .model import Model, ModelConfig
from .schema import build_dataclass, to_jsonable
from .seeding import rng_for

CHECKPOINT_VERSION = 3

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Evaluation runs one forward per chunk of graphs; a chunk's node and edge
# rows, one hidden_dim-wide float64 row each, fill at most this many bytes,
# so the forward's temporaries stay bounded however large the slides are.
_EVAL_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class TrainConfig:
    """Optimization defaults: lr 5e-5, weight decay 1e-5, batch 2,
    at most 150 epochs with early stopping, dropout 0.2, 5 folds."""

    learning_rate: float = 5e-5
    weight_decay: float = 1e-5
    max_epochs: int = 150
    batch_size: int = 2
    patience: int = 20
    dropout: float = 0.2
    folds: int = 5
    seed: int = 0
    augmentation: AugmentConfig = field(default_factory=lambda: AugmentConfig(
        edge_drop_prob=0.1, node_drop_prob=0.05,
        feature_noise_sigma=0.01, edge_noise_sigma=0.01))

    def __post_init__(self):
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ConfigError("learning rate and weight decay must be >= 0")
        if self.max_epochs < 1 or self.batch_size < 1 or self.folds < 1:
            raise ConfigError("max_epochs, batch_size and folds must be positive")
        if not 0 <= self.patience <= self.max_epochs:
            raise ConfigError("patience must lie in [0, max_epochs]")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


def _pack(params: dict[str, ad.Tensor], theta: np.ndarray | None = None) -> np.ndarray:
    """Copy the leaves' values, in ``params`` order, into one float64
    buffer (``theta`` if given) and rebind each leaf's ``data`` to its
    reshaped slice of it."""
    if theta is None:
        theta = np.empty(sum(p.data.size for p in params.values()))
    start = 0
    for p in params.values():
        shape, stop = p.data.shape, start + p.data.size
        theta[start:stop] = p.data.reshape(-1)
        p.data = theta[start:stop].reshape(shape)
        start = stop
    return theta


@dataclass
class AdamState:
    """Adam's step count and moments over ``theta``, the parameters packed
    into one contiguous buffer whose slices are the leaves' ``data``."""

    t: int
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def init(cls, params: dict[str, ad.Tensor]) -> "AdamState":
        """Pack ``params`` (see ``_pack``) with zero moments."""
        theta = _pack(params)
        return cls(t=0, theta=theta, m=np.zeros_like(theta), v=np.zeros_like(theta))


def adam_step(params: dict[str, ad.Tensor], grads: dict[str, np.ndarray],
              state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update of the packed parameters in place.

    The gradients are gathered in ``params`` order, zeros for a leaf
    without one, and each stage below is one elementwise pass over the
    whole buffer: every value sees the float operations of a per-array
    update, in the same order. Decoupled weight decay shrinks parameters
    before the moment update. A leaf whose ``data`` was rebound since the
    packing is packed again first.
    """
    theta = state.theta
    if any(p.data.base is not theta for p in params.values()):
        _pack(params, theta)
    g = np.concatenate([grads[k].reshape(-1) if k in grads else np.zeros(p.data.size)
                        for k, p in params.items()])
    if not np.isfinite(g).all():
        bad = [k for k, x in grads.items() if not np.isfinite(x).all()]
        raise TrainingError(f"non-finite gradients for parameters: {sorted(bad)}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    lr, wd = cfg.learning_rate, cfg.weight_decay
    m, v = state.m, state.v
    if wd:
        theta *= 1.0 - lr * wd
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    g2 = (1.0 - b2) * g
    g2 *= g
    v += g2
    den = np.sqrt(v / (1.0 - b2 ** state.t))
    den += ADAM_EPS
    step = m / (1.0 - b1 ** state.t)
    step *= lr
    step /= den
    theta -= step


def kfold_split(ids: Sequence, folds: int = 5, seed: int = 0) -> list[tuple[list, list, list]]:
    """Deterministic shuffled partition into (train, val, test) per fold.

    Fold i is the test set and fold (i+1) mod folds the validation set;
    the remaining folds train. Folds are disjoint and cover the ids.
    """
    items = list(ids)
    n = len(items)
    if folds < 3:
        raise ConfigError("need at least 3 folds so the training split is nonempty")
    if n < folds:
        raise ConfigError(f"cannot split {n} items into {folds} folds")
    perm = rng_for(seed, "shuffle").permutation(n)
    parts = np.array_split(perm, folds)
    splits = []
    for i in range(folds):
        test = [items[j] for j in parts[i]]
        val = [items[j] for j in parts[(i + 1) % folds]]
        train = [items[j] for f, part in enumerate(parts)
                 if f not in (i, (i + 1) % folds) for j in part]
        splits.append((train, val, test))
    return splits


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    train_loss: float
    val_loss: float
    val_auc: float
    lr: float
    seconds: float


@dataclass
class TrainResult:
    model: Model
    best_epoch: int
    best_val_loss: float
    log: list[EpochLog]
    stopped_early: bool
    aborted: bool


def _eval_chunks(graphs: Sequence[HeteroGraph], width: int) -> list[list[HeteroGraph]]:
    """Consecutive runs of graphs within ``_EVAL_CHUNK_BYTES`` at ``width``
    values per row; a graph larger than that runs alone."""
    chunks: list[list[HeteroGraph]] = [[]]
    size = 0
    for g in graphs:
        cost = (g.n_nodes + g.n_edges) * width * 8
        if chunks[-1] and size + cost > _EVAL_CHUNK_BYTES:
            chunks.append([])
            size = 0
        chunks[-1].append(g)
        size += cost
    return chunks


def evaluate(graphs: Sequence[HeteroGraph], model: Model) -> dict:
    """Loss and metrics over labeled graphs (eval mode, no augmentation):
    one batched forward per chunk of graphs."""
    if not graphs:
        raise ConfigError("cannot evaluate on an empty set")
    n_classes = model.config.n_classes
    for g in graphs:
        if g.label is None:
            raise ConfigError("evaluation graphs must carry labels")
        if not 0 <= g.label < n_classes:
            raise ConfigError(f"label {g.label} out of range for {n_classes} classes")
    labels = np.array([g.label for g in graphs], dtype=np.intp)
    probs = np.concatenate([model.predict_proba(chunk)
                            for chunk in _eval_chunks(graphs, model.config.hidden_dim)])
    losses = -np.log(np.maximum(probs[np.arange(len(graphs)), labels], 1e-300))
    preds = probs.argmax(axis=1)
    metrics = {
        "loss": float(np.mean(losses)),
        "accuracy": accuracy(preds, labels),
        "macro_f1": metric_macro_f1(preds, labels, n_classes),
        "n": len(graphs),
    }
    try:
        metrics["auc"] = metric_auc_macro(probs, labels)
    except ConfigError:
        metrics["auc"] = float("nan")  # single-class evaluation set
    return metrics


def train(train_graphs: Sequence[HeteroGraph], val_graphs: Sequence[HeteroGraph],
          model: Model, cfg: TrainConfig, deterministic: bool = True) -> TrainResult:
    """Fit the model, returning the best-validation parameters and a log.

    Divergence (non-finite loss or gradients) aborts the run and the
    last-good (best validation so far) parameters are restored.
    """
    if not train_graphs:
        raise ConfigError("training set is empty")
    if not val_graphs:
        raise ConfigError("validation set is empty")
    params = model.parameters()
    state = AdamState.init(params)
    best_state = model.state_arrays()
    best_val = float("inf")
    best_epoch = 0
    bad_epochs = 0
    log: list[EpochLog] = []
    stopped_early = False
    aborted = False
    order_base = np.arange(len(train_graphs))

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng_for(cfg.seed, "shuffle", epoch).permutation(order_base)
        epoch_losses: list[float] = []
        try:
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size].tolist()
                graphs = [train_graphs[i] for i in batch]
                if not cfg.augmentation.is_identity:
                    graphs = [augment(g, cfg.augmentation, rng_for(cfg.seed, "augment", epoch, i))
                              for g, i in zip(graphs, batch)]
                # At dropout 0 no mask is drawn, so no generator is built.
                rngs = ([rng_for(cfg.seed, "dropout", epoch, i) for i in batch]
                        if model.config.dropout > 0 else None)
                losses = model.loss(graphs, training=True, rngs=rngs)
                epoch_losses.extend(losses.data.tolist())
                grads = ad.backward(ad.scale(ad.reduce_sum(losses), 1.0 / len(batch)))
                adam_step(params, {name: grads[p] for name, p in params.items() if p in grads},
                          state, cfg)
            val = evaluate(val_graphs, model)
        except (NonFiniteError, TrainingError):
            aborted = True
            break
        seconds = 0.0 if deterministic else time.perf_counter() - t0
        log.append(EpochLog(
            epoch=epoch,
            train_loss=float(np.mean(epoch_losses)),
            val_loss=val["loss"],
            val_auc=val["auc"],
            lr=cfg.learning_rate,
            seconds=seconds,
        ))
        if val["loss"] < best_val:
            best_val = val["loss"]
            best_epoch = epoch
            best_state = model.state_arrays()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= max(1, cfg.patience):
                stopped_early = True
                break

    model.load_state(best_state)
    return TrainResult(model=model, best_epoch=best_epoch,
                       best_val_loss=best_val if best_val != float("inf") else float("nan"),
                       log=log, stopped_early=stopped_early, aborted=aborted)


# ---------------------------------------------------------------------------
# checkpoints and logs
# ---------------------------------------------------------------------------

def checkpoint_dict(model: Model, provenance: dict | None, epoch: int,
                    val_loss: float) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "model_config": to_jsonable(model.config),
        "params": {
            name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
            for name, arr in sorted(model.state_arrays().items())
        },
        "epoch": epoch,
        "val_loss": val_loss,
        "provenance": provenance or {},
    }


def save_checkpoint(path, model: Model, provenance: dict | None = None,
                    epoch: int = 0, val_loss: float = float("nan")) -> None:
    doc = checkpoint_dict(model, provenance, epoch, val_loss)
    _write_json(path, doc)


def load_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild a model from a checkpoint; eval logits are bit-identical."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = _parse_json(fh.read())
    if not isinstance(doc, dict):
        raise ConfigError("checkpoint must be a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {doc.get('version')!r}")
    mc = doc.get("model_config")
    if not isinstance(mc, dict):
        raise ConfigError("checkpoint has no model_config object")
    names = {f.name for f in fields(ModelConfig)}
    if set(mc) != names:
        raise ConfigError(f"checkpoint model_config keys mismatch (missing={sorted(names - set(mc))}, "
                          f"unknown={sorted(set(mc) - names)})")
    config = build_dataclass(ModelConfig, mc, "model_config")
    model = Model.init(config, rng=np.random.default_rng(0))
    if not isinstance(doc.get("params"), dict):
        raise ConfigError("checkpoint has no params object")
    state = {}
    for name, entry in doc["params"].items():
        if not (isinstance(entry, dict) and "shape" in entry and "data" in entry):
            raise ConfigError(f"checkpoint parameter {name!r} needs shape and data")
        data = entry["data"]
        bad = _non_number(data) if isinstance(data, list) else json.dumps(data)
        if bad is not None:
            raise ConfigError(f"checkpoint parameter {name!r} data must be a list of numbers, "
                              f"found {bad}")
        # json reads NaN, Infinity and -Infinity (1e400 too); an int may exceed float64
        bad = next((v for v in data if not -sys.float_info.max <= v <= sys.float_info.max), None)
        if bad is not None:
            raise ConfigError(f"checkpoint parameter {name!r} data must be finite, "
                              f"found {json.dumps(bad)}")
        try:
            state[name] = np.asarray(data, dtype=np.float64).reshape(entry["shape"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"checkpoint parameter {name!r} data does not fit its shape: {exc}") from exc
    model.load_state(state)
    return model, doc


def write_train_log(path, log: Sequence[EpochLog], provenance: dict | None = None) -> None:
    """CSV with one column per ``EpochLog`` field, in field order, each value
    its ``repr``. A leading '#' comment line carries the provenance block.
    """
    names = [f.name for f in fields(EpochLog)]
    lines = []
    if provenance is not None:
        lines.append("# provenance: " + json.dumps(provenance, sort_keys=True, separators=(",", ":")))
    lines.append(",".join(names))
    lines.extend(",".join(repr(getattr(row, name)) for name in names) for row in log)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# cross-validation protocol
# ---------------------------------------------------------------------------

def fold_split(n: int, fold: int, cfg: TrainConfig) -> tuple[list, list, list]:
    """The (train, val, test) indices of CV fold ``fold`` over ``n`` items,
    as ``kfold_split`` makes them under ``cfg.folds`` and ``cfg.seed``."""
    if not 0 <= fold < cfg.folds:
        raise ConfigError(f"fold {fold} is out of range [0, {cfg.folds})")
    return kfold_split(range(n), cfg.folds, cfg.seed)[fold]


def train_fold(dataset: Sequence[HeteroGraph], fold: int, model_cfg: ModelConfig,
               cfg: TrainConfig, deterministic: bool = True
               ) -> tuple[TrainResult, list[HeteroGraph]]:
    """Train CV fold ``fold``'s model: a model initialized from
    ``cfg.seed`` and the fold (``feature_dim`` taken from the data when
    unset), fit on the fold's training graphs with early stopping on its
    validation graphs. Returns the result and the fold's test graphs."""
    train_idx, val_idx, test_idx = fold_split(len(dataset), fold, cfg)
    if model_cfg.feature_dim is None:
        model_cfg = replace(model_cfg, feature_dim=dataset[0].feature_dim)
    model = Model.init(model_cfg, rng_for(cfg.seed, "init", fold))
    result = train([dataset[i] for i in train_idx], [dataset[i] for i in val_idx],
                   model, cfg, deterministic=deterministic)
    return result, [dataset[i] for i in test_idx]


def _run_fold(args) -> dict:
    fold, dataset, model_cfg, cfg, deterministic = args
    result, test = train_fold(dataset, fold, model_cfg, cfg, deterministic)
    test_metrics = evaluate(test, result.model)
    return {
        "fold": fold,
        "auc": test_metrics["auc"],
        "accuracy": test_metrics["accuracy"],
        "macro_f1": test_metrics["macro_f1"],
        "loss": test_metrics["loss"],
        "n_test": test_metrics["n"],
        "best_epoch": result.best_epoch,
        "epochs_run": len(result.log),
        "aborted": result.aborted,
    }


def run_cv(dataset: Sequence[HeteroGraph], model_cfg: ModelConfig, cfg: TrainConfig,
           deterministic: bool = True, jobs: int = 1) -> dict:
    """K-fold cross-validation; returns mean metrics plus per-fold detail.

    ``auc`` averages the folds with a defined AUC (a single-class test set
    has none); ``auc_folds`` counts them.
    """
    args = [(fold, list(dataset), model_cfg, cfg, deterministic) for fold in range(cfg.folds)]
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1:
        # Loaded here so that importing heatnet does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            fold_results = list(pool.map(_run_fold, args))
    else:
        fold_results = [_run_fold(a) for a in args]
    aucs = [f["auc"] for f in fold_results if not np.isnan(f["auc"])]
    return {
        "auc": float(np.mean(aucs)) if aucs else float("nan"),
        "auc_folds": len(aucs),
        "accuracy": float(np.mean([f["accuracy"] for f in fold_results])),
        "macro_f1": float(np.mean([f["macro_f1"] for f in fold_results])),
        "per_fold": fold_results,
    }
