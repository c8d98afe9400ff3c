"""Optimization, cross-validation, checkpoints, and evaluation.

Training follows the fixed recipe: Adam (decoupled weight decay by
default), minibatches of graphs with ordered gradient accumulation,
per-epoch augmentation of training graphs, early stopping on validation
loss, and the best-validation parameters returned as the checkpoint.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .builder import AugmentConfig, augment
from .errors import ConfigError, NonFiniteError, TrainingError
from .hetgraph import HeteroGraph, _write_json
from .metrics import accuracy, metric_auc_macro, metric_macro_f1
from .model import Model, ModelConfig
from .seeding import rng_for

CHECKPOINT_VERSION = 1


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    decoupled_weight_decay: bool = True
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


@dataclass
class AdamState:
    t: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def init(cls, params: dict[str, ad.Tensor]) -> "AdamState":
        return cls(
            t=0,
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
        )


def adam_step(params: dict[str, ad.Tensor], grads: dict[str, np.ndarray],
              state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update in place (beta1=0.9, beta2=0.999, bias-corrected).

    Decoupled weight decay shrinks parameters before the moment update;
    the coupled alternative adds wd * theta to the gradient instead.
    """
    bad = [k for k, g in grads.items() if not np.all(np.isfinite(g))]
    if bad:
        raise TrainingError(f"non-finite gradients for parameters: {sorted(bad)}")
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    lr, wd = cfg.learning_rate, cfg.weight_decay
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if wd:
            if cfg.decoupled_weight_decay:
                p.data = p.data * (1.0 - lr * wd)
            else:
                g = g + wd * p.data
        m = state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** state.t)
        v_hat = v / (1.0 - b2 ** state.t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


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


def _named_grads(loss: ad.Tensor, registry: dict[str, ad.Tensor]) -> dict[str, np.ndarray]:
    by_id = {id(t): name for name, t in registry.items()}
    out: dict[str, np.ndarray] = {}
    for tensor, grad in ad.backward(loss).items():
        name = by_id.get(id(tensor))
        if name is not None:
            out[name] = grad
    return out


def evaluate(graphs: Sequence[HeteroGraph], model: Model) -> dict:
    """Loss and metrics over labeled graphs (eval mode, no augmentation)."""
    if not graphs:
        raise ConfigError("cannot evaluate on an empty set")
    n_classes = model.config.n_classes
    probs = np.empty((len(graphs), n_classes))
    labels = np.empty(len(graphs), dtype=np.intp)
    losses = []
    for i, g in enumerate(graphs):
        if g.label is None:
            raise ConfigError("evaluation graphs must carry labels")
        probs[i] = model.predict_proba(g)
        labels[i] = g.label
        losses.append(-float(np.log(max(probs[i][g.label], 1e-300))))
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
                batch = order[start:start + cfg.batch_size]
                merged: dict[str, np.ndarray] = {}
                for idx in batch:
                    g = train_graphs[int(idx)]
                    if not cfg.augmentation.is_identity:
                        g = augment(g, cfg.augmentation, rng_for(cfg.seed, "augment", epoch, int(idx)))
                    loss = model.loss(g, training=True,
                                      rng=rng_for(cfg.seed, "dropout", epoch, int(idx)))
                    epoch_losses.append(loss.item())
                    for name, grad in _named_grads(loss, params).items():
                        acc = merged.get(name)
                        merged[name] = grad if acc is None else acc + grad
                scale = 1.0 / len(batch)
                merged = {name: g * scale for name, g in merged.items()}
                adam_step(params, merged, state, cfg)
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
    cfg = model.config
    return {
        "version": CHECKPOINT_VERSION,
        "model_config": {**asdict(cfg), "types": list(cfg.types)},
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
        doc = json.load(fh)
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
    try:
        config = ModelConfig(**{**mc, "types": tuple(mc["types"])})
    except TypeError as exc:
        raise ConfigError(f"checkpoint model_config is malformed: {exc}") from exc
    model = Model.init(config, rng=np.random.default_rng(0))
    if not isinstance(doc.get("params"), dict):
        raise ConfigError("checkpoint has no params object")
    state = {}
    for name, entry in doc["params"].items():
        if not (isinstance(entry, dict) and "shape" in entry and "data" in entry):
            raise ConfigError(f"checkpoint parameter {name!r} needs shape and data")
        try:
            state[name] = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"checkpoint parameter {name!r} data does not fit its shape: {exc}") from exc
    model.load_state(state)
    return model, doc


def write_train_log(path, log: Sequence[EpochLog], provenance: dict | None = None) -> None:
    """CSV with columns epoch,train_loss,val_loss,val_auc,lr,seconds.

    A leading '#' comment line carries the provenance block.
    """
    lines = []
    if provenance is not None:
        lines.append("# provenance: " + json.dumps(provenance, sort_keys=True, separators=(",", ":")))
    lines.append("epoch,train_loss,val_loss,val_auc,lr,seconds")
    for row in log:
        lines.append(f"{row.epoch},{row.train_loss!r},{row.val_loss!r},"
                     f"{row.val_auc!r},{row.lr!r},{row.seconds!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# cross-validation protocol
# ---------------------------------------------------------------------------

def _run_fold(args) -> dict:
    fold, dataset, model_cfg, cfg, deterministic = args
    splits = kfold_split(list(range(len(dataset))), cfg.folds, cfg.seed)
    train_idx, val_idx, test_idx = splits[fold]
    model = Model.init(model_cfg, rng_for(cfg.seed, "init", fold))
    result = train([dataset[i] for i in train_idx], [dataset[i] for i in val_idx],
                   model, cfg, deterministic=deterministic)
    test_metrics = evaluate([dataset[i] for i in test_idx], result.model)
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
           deterministic: bool = True, jobs: int = 1,
           fold_hook: Callable[[dict], None] | None = None) -> dict:
    """K-fold cross-validation; returns mean metrics plus per-fold detail."""
    if model_cfg.feature_dim is None:
        model_cfg = replace(model_cfg, feature_dim=dataset[0].feature_dim)
    args = [(fold, list(dataset), model_cfg, cfg, deterministic) for fold in range(cfg.folds)]
    if jobs > 1 and not deterministic:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            fold_results = list(pool.map(_run_fold, args))
    else:
        fold_results = [_run_fold(a) for a in args]
    if fold_hook:
        for fr in fold_results:
            fold_hook(fr)
    return {
        "auc": float(np.mean([f["auc"] for f in fold_results])),
        "accuracy": float(np.mean([f["accuracy"] for f in fold_results])),
        "macro_f1": float(np.mean([f["macro_f1"] for f in fold_results])),
        "per_fold": fold_results,
    }
