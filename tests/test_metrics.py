"""Metrics: AUC vs pair counting and bit-equal to scipy's rankdata form,
macro-F1, Welch's t-test vs scipy (its p-value byte-equal to ``t.sf``)."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from heatnet.errors import ConfigError
from heatnet.metrics import (
    accuracy,
    metric_auc,
    metric_auc_macro,
    metric_macro_f1,
    welch_ttest,
)


def pair_counting_auc(scores, labels):
    """Exhaustive oracle: mean over (pos, neg) pairs of 1/0.5/0."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def rankdata_auc(scores, labels):
    """The average-rank formula with scipy's ``rankdata`` as the ranker."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = len(y) - n_pos
    return (float(stats.rankdata(s)[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# Coarse tied grids, signed zeros and infinities, plus arbitrary finite floats.
AUC_SCORE = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.inf, -np.inf]),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=False),
)
SCORED_LABELS = st.lists(st.tuples(AUC_SCORE, st.integers(0, 1)), min_size=2, max_size=40).filter(
    lambda rows: 0 < sum(y for _, y in rows) < len(rows))


class TestAuc:
    def test_perfect_ranking(self):
        assert metric_auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_reversed_ranking(self):
        assert metric_auc([0.2, 0.3, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_known_value(self):
        assert metric_auc([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_ties_count_half(self):
        assert metric_auc([0.5, 0.5], [1, 0]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            metric_auc([0.1, 0.9], [1, 1])

    def test_nan_score_rejected_infinities_rank(self):
        with pytest.raises(ConfigError, match="NaN"):
            metric_auc([1.0, np.nan, 0.5, 1.0], [1, 0, 0, 1])
        assert metric_auc([np.inf, -np.inf, 0.0], [1, 0, 1]) == 1.0

    def test_matches_pair_counting_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse score grid forces plenty of ties
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            assert metric_auc(scores, labels) == pytest.approx(
                pair_counting_auc(scores, labels), abs=1e-12)

    def test_matches_pair_counting_on_all_small_label_patterns(self):
        rng = np.random.default_rng(1)
        for n in range(2, 7):
            scores = rng.standard_normal(n)
            for labels in itertools.product([0, 1], repeat=n):
                if 0 < sum(labels) < n:
                    assert metric_auc(scores, list(labels)) == pytest.approx(
                        pair_counting_auc(scores, labels), abs=1e-12)

    @settings(max_examples=400, deadline=None)
    @given(SCORED_LABELS)
    @example([(0.0, 1), (-0.0, 0)])
    @example([(-0.0, 1), (0.0, 0), (0.0, 0), (1.0, 1)])
    @example([(np.inf, 1), (np.inf, 0), (-np.inf, 0), (-np.inf, 1), (0.0, 0)])
    @example([(0.5, 1)] + [(s, 0) for s in (0.0, 0.5, 0.5, 1.0)])
    @example([(0.5, 0)] + [(s, 1) for s in (-np.inf, 0.5, 0.5, 1.0)])
    def test_bit_equal_to_rankdata_formula(self, rows):
        scores = [s for s, _ in rows]
        labels = [y for _, y in rows]
        assert metric_auc(scores, labels) == rankdata_auc(scores, labels)

    def test_macro_ovr_multiclass(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(3), size=30)
        labels = rng.integers(0, 3, size=30)
        got = metric_auc_macro(probs, labels)
        expected = np.mean([
            pair_counting_auc(probs[:, c], (labels == c).astype(int))
            for c in range(3)])
        assert got == pytest.approx(expected, abs=1e-12)


class TestMacroF1:
    def test_perfect(self):
        assert metric_macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_all_wrong_binary(self):
        assert metric_macro_f1([1, 0], [0, 1], 2) == 0.0

    def test_known_value(self):
        # class 0: P=1/2 R=1 -> 2/3; class 1: P=1 R=1/2 -> 2/3
        assert metric_macro_f1([0, 0, 1], [0, 1, 1], 2) == pytest.approx(2.0 / 3.0)

    def test_absent_class_contributes_zero(self):
        assert metric_macro_f1([0, 0], [0, 0], 2) == pytest.approx(0.5)

    def test_matches_direct_formula_on_random_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = int(rng.integers(2, 5))
            n = int(rng.integers(3, 20))
            preds = rng.integers(0, c, size=n)
            labels = rng.integers(0, c, size=n)
            f1s = []
            for cls in range(c):
                tp = np.sum((preds == cls) & (labels == cls))
                fp = np.sum((preds == cls) & (labels != cls))
                fn = np.sum((preds != cls) & (labels == cls))
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f1s.append(2 * p * r / (p + r) if p + r else 0.0)
            assert metric_macro_f1(preds, labels, c) == pytest.approx(
                float(np.mean(f1s)), abs=1e-12)


class TestAccuracy:
    def test_basic(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75


class TestWelch:
    def test_identical_samples(self):
        t, p = welch_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0 and p == pytest.approx(1.0)

    def test_extreme_separation(self):
        t, p = welch_ttest([0.0, 0.0, 0.0], [10.0, 10.0, 10.0001])
        assert p < 1e-6

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(6).tolist()
        b = (rng.standard_normal(6) + 0.5).tolist()
        ra = welch_ttest(a, b)
        rb = welch_ttest(b, a)
        assert ra.t == pytest.approx(-rb.t, abs=1e-12)
        assert ra.p == pytest.approx(rb.p, abs=1e-12)

    def test_both_degenerate_rejected(self):
        with pytest.raises(ConfigError):
            welch_ttest([1.0, 1.0], [2.0, 2.0])

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            welch_ttest([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            welch_ttest([1.0, bad, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConfigError, match="finite"):
            welch_ttest([1.0, 2.0, 3.0], [bad, 2.0])

    def test_p_value_byte_equal_to_t_sf(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            na, nb = int(rng.integers(2, 30)), int(rng.integers(2, 30))
            a = rng.normal(0.0, rng.uniform(0.1, 3.0), size=na)
            b = rng.normal(rng.uniform(-3, 3), rng.uniform(0.1, 3.0), size=nb)
            va, vb = float(a.var(ddof=1)), float(b.var(ddof=1))
            se2 = va / na + vb / nb
            df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
            res = welch_ttest(a, b)
            assert res.p == 2.0 * float(stats.t.sf(abs(res.t), df))

    def test_matches_scipy_on_random_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            na, nb = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            a = rng.normal(0.0, 1.0, size=na)
            b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=nb)
            mine = welch_ttest(a, b)
            ref = stats.ttest_ind(a, b, equal_var=False)
            assert mine.t == pytest.approx(ref.statistic, rel=1e-10)
            assert mine.p == pytest.approx(ref.pvalue, rel=1e-10)
