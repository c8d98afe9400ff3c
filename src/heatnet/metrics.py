"""Evaluation metrics and the significance test used to compare runs."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError


def metric_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability that a random positive outranks a random negative.

    Mann-Whitney formulation with ties counted 0.5, computed via average
    ranks. Requires both classes to be present and no NaN score.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ConfigError("scores and labels must be 1-D and equally long")
    if np.isnan(s).any():
        raise ConfigError("scores must not be NaN")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos + n_neg != len(y):
        raise ConfigError("labels must be 0/1")
    if n_pos == 0 or n_neg == 0:
        raise ConfigError("AUC is undefined with a single class")
    rank_sum = float(_average_ranks(s)[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _average_ranks(s: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given their mean rank, as ``rankdata``.

    A run of equal values (``==``, so -0.0 ties 0.0) at sorted positions
    first..last gets ``(first + last + 1) / 2``; half-integers are exact.
    """
    order = np.argsort(s, kind="stable")
    v = s[order]
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    ends = np.r_[starts[1:], len(v)]
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def metric_auc_macro(probs: np.ndarray, labels: Sequence[int]) -> float:
    """Unweighted one-vs-rest average AUC for multiclass scores.

    ``probs`` is (n, C). Classes that do not appear in the labels (or that
    cover all of them) have undefined one-vs-rest AUC and are skipped.
    """
    probs = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[0] != len(y):
        raise ConfigError("probs must be (n, C) aligned with labels")
    if probs.shape[1] == 2:
        return metric_auc(probs[:, 1], (y == 1).astype(int))
    per_class = []
    for c in range(probs.shape[1]):
        pos = (y == c).astype(int)
        if 0 < pos.sum() < len(y):
            per_class.append(metric_auc(probs[:, c], pos))
    if not per_class:
        raise ConfigError("AUC is undefined: labels contain a single class")
    return float(np.mean(per_class))


def accuracy(preds: Sequence[int], labels: Sequence[int]) -> float:
    p = np.asarray(preds)
    y = np.asarray(labels)
    if p.shape != y.shape or p.ndim != 1 or len(p) == 0:
        raise ConfigError("preds and labels must be nonempty 1-D and equally long")
    return float((p == y).mean())


def metric_macro_f1(preds: Sequence[int], labels: Sequence[int], n_classes: int) -> float:
    """Unweighted mean of per-class F1 = 2PR/(P+R).

    A class with no predicted and no actual instances contributes F1 = 0
    (the conservative convention; keeps the mean over all C classes).
    """
    p = np.asarray(preds)
    y = np.asarray(labels)
    if p.shape != y.shape or p.ndim != 1:
        raise ConfigError("preds and labels must be 1-D and equally long")
    if len(p) and (min(p.min(), y.min()) < 0 or max(p.max(), y.max()) >= n_classes):
        raise ConfigError(f"preds/labels must lie in [0, {n_classes})")
    f1s = []
    for c in range(n_classes):
        tp = int(((p == c) & (y == c)).sum())
        fp = int(((p == c) & (y != c)).sum())
        fn = int(((p != c) & (y == c)).sum())
        if tp == 0:
            f1s.append(0.0)
            continue
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1s.append(2.0 * precision * recall / (precision + recall))
    return float(np.mean(f1s))


class WelchResult(NamedTuple):
    t: float
    p: float


def welch_ttest(a: Sequence[float], b: Sequence[float]) -> WelchResult:
    """Welch's unequal-variance two-sample t-test, two-sided.

    The p-value uses the Student-t distribution with Welch-Satterthwaite
    degrees of freedom. Samples must be finite, and at least one must have
    nonzero variance.
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if not (np.isfinite(xa).all() and np.isfinite(xb).all()):
        raise ConfigError("samples must be finite")
    if len(xa) < 2 or len(xb) < 2:
        raise ConfigError("both samples need at least 2 observations")
    va = float(xa.var(ddof=1))
    vb = float(xb.var(ddof=1))
    if va == 0.0 and vb == 0.0:
        raise ConfigError("both samples have zero variance; t is undefined")
    na, nb = len(xa), len(xb)
    se2 = va / na + vb / nb
    t = (float(xa.mean()) - float(xb.mean())) / math.sqrt(se2)
    df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    # Loaded here so that importing heatnet does not load scipy.
    from scipy.special import stdtr

    p = 2.0 * float(stdtr(df, -abs(t)))
    return WelchResult(t=t, p=p)
