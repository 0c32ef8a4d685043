"""Metric oracles: rank AUC vs the O(n^2) pairwise count, F1/accuracy vs a
confusion-matrix oracle, and Welch's t-test vs textbook/scipy values."""

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from mvrd.diffcore import ParameterError, ValidationError
from mvrd.metrics import (
    Metrics,
    WelchResult,
    auc_pairwise,
    auc_rank,
    compute_metrics,
    regularized_incomplete_beta,
    welch_ttest,
)


class TestAUC:
    def test_perfectly_separable(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert auc_rank(labels, scores) == 1.0

    def test_constant_scores_give_half(self):
        labels = np.array([0, 1, 0, 1, 1, 0])
        scores = np.zeros(6)
        assert auc_rank(labels, scores) == 0.5

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            n = int(rng.integers(2, 301))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.uniform(0, 1, size=n), 2)
            assert auc_rank(labels, scores) == auc_pairwise(labels, scores)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0])),
            min_size=1,
            max_size=300,
        )
    )
    def test_heavy_ties_match_pairwise_oracle(self, rows):
        labels = np.array([label for label, _ in rows])
        scores = np.array([score for _, score in rows])
        assert auc_rank(labels, scores) == auc_pairwise(labels, scores)

    def test_reversed_scores_complement(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 2, size=100)
        labels[0], labels[1] = 0, 1
        scores = rng.normal(size=100)
        a = auc_rank(labels, scores)
        b = auc_rank(labels, -scores)
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestComputeMetrics:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 0, 1])
        logits = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, -1.0], [-1.0, 3.0]])
        m = compute_metrics(labels, logits)
        assert m.accuracy == 1.0 and m.f1_fake == 1.0 and m.f1_real == 1.0 and m.auc == 1.0

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(4, 200))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            logits = rng.normal(size=(n, 2))
            m = compute_metrics(labels, logits)
            preds = logits.argmax(axis=1)

            def f1_for(positive):
                tp = int(((preds == positive) & (labels == positive)).sum())
                fp = int(((preds == positive) & (labels != positive)).sum())
                fn = int(((preds != positive) & (labels == positive)).sum())
                precision = tp / (tp + fp) if tp + fp else 0.0
                recall = tp / (tp + fn) if tp + fn else 0.0
                return 2 * precision * recall / (precision + recall) if precision + recall else 0.0

            assert m.accuracy == (preds == labels).mean()
            assert m.f1_fake == f1_for(1)
            assert m.f1_real == f1_for(0)

    def test_zero_over_zero_convention(self):
        # classifier never predicts fake: f1_fake must be 0, not NaN
        labels = np.array([0, 1, 1])
        logits = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        m = compute_metrics(labels, logits)
        assert m.f1_fake == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics(np.array([]), np.zeros((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected(self, bad):
        logits = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, bad]])
        with pytest.raises(ValidationError, match="non-finite"):
            compute_metrics(np.array([1, 0, 1]), logits)

    def test_metric_ranges_enforced(self):
        with pytest.raises(ValidationError):
            Metrics(accuracy=1.2, f1_fake=0.0, f1_real=0.0, auc=0.5)


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0

    def test_matches_scipy_on_grid(self):
        for a in (0.5, 1.0, 2.5, 7.0):
            for b in (0.5, 1.5, 4.0):
                for x in np.linspace(0.01, 0.99, 21):
                    mine = regularized_incomplete_beta(float(x), a, b)
                    ref = float(scipy.special.betainc(a, b, x))
                    assert mine == pytest.approx(ref, abs=1e-12)


class TestWelch:
    def test_textbook_example(self):
        result = welch_ttest([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert result.t == pytest.approx(-1.0, abs=1e-12)
        assert result.dof == pytest.approx(8.0, abs=1e-12)
        assert result.p == pytest.approx(0.3466, abs=1e-3)

    def test_identical_samples(self):
        result = welch_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t == 0.0
        assert result.p == 1.0

    def test_swap_negates_t_preserves_p(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(2, 12)))
            b = rng.normal(loc=0.3, size=int(rng.integers(2, 12)))
            r1 = welch_ttest(a, b)
            r2 = welch_ttest(b, a)
            assert r1.t == -r2.t
            assert r1.p == r2.p

    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = rng.normal(size=int(rng.integers(2, 20)))
            b = rng.normal(loc=rng.uniform(-1, 1), scale=2.0, size=int(rng.integers(2, 20)))
            mine = welch_ttest(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert mine.t == pytest.approx(ref.statistic, abs=1e-10)
            assert mine.p == pytest.approx(ref.pvalue, abs=1e-10)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ParameterError, match="tie"):
            welch_ttest([2.0, 2.0, 2.0], [2.0, 2.0])

    @pytest.mark.parametrize(
        "a, b",
        [([1.0, float("nan")], [2.0, 3.0]), ([1.0, 2.0], [float("inf"), 3.0])],
        ids=["nan", "inf"],
    )
    def test_non_finite_value_rejected(self, a, b):
        with pytest.raises(ValidationError, match="finite"):
            welch_ttest(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [([5e153, -5e153], [1.0, 2.0]), ([1.0, 2.0, 3.5], [4.0, 5.0, 7.0, 9.0])],
        ids=["huge-variance", "ordinary"],
    )
    def test_t_dof_p_match_scipy(self, a, b):
        # the dof comes from se2's shares, so a variance above ~1e154 does not
        # overflow it; scipy squares se2 and falls back to df = 1 on the overflow
        mine = welch_ttest(a, b)
        with np.errstate(over="ignore"):
            ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert mine.t == pytest.approx(ref.statistic, rel=1e-12)
        assert mine.dof == pytest.approx(ref.df, rel=1e-12)
        assert mine.p == pytest.approx(ref.pvalue, rel=1e-12)

    @pytest.mark.parametrize("a", [[1e308, -1e308], [1e308, 1e308, 0.0]], ids=["var", "mean"])
    def test_overflowing_variance_rejected(self, a):
        with pytest.raises(ValidationError, match="variance"):
            welch_ttest(a, [2.0, 3.0])

    def test_too_few_values_rejected(self):
        with pytest.raises(ParameterError):
            welch_ttest([1.0], [1.0, 2.0])

    def test_result_type(self):
        result = welch_ttest([1.0, 2.0], [3.0, 4.0])
        assert isinstance(result, WelchResult)
        assert 0.0 <= result.p <= 1.0
