"""Evaluation metrics and the significance test.

Conventions: fake is class 1 and is the positive class for f1_fake; real is
the positive class for f1_real; 0/0 ratios are defined as 0. AUC uses the
rank-statistic form with average ranks for ties, which agrees exactly with
the O(n^2) pairwise count (ties worth 1/2).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .diffcore import ParameterError, ValidationError


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    f1_fake: float
    f1_real: float
    auc: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{f.name}={v} outside [0, 1]")

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def auc_rank(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for tied scores."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    n_fake = int((labels == 1).sum())
    n_real = int((labels == 0).sum())
    if n_fake == 0 or n_real == 0:
        return 0.5
    # 1-based rank of each distinct score, averaged over its ties
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    rank_sum = ranks[labels == 1].sum()
    u = rank_sum - n_fake * (n_fake + 1) / 2.0
    return float(u / (n_fake * n_real))


def auc_pairwise(labels: np.ndarray, scores: np.ndarray) -> float:
    """Brute-force ordered-pair count; the independent oracle for auc_rank."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    fake = scores[labels == 1]
    real = scores[labels == 0]
    if len(fake) == 0 or len(real) == 0:
        return 0.5
    wins = (fake[:, None] > real[None, :]).sum() + 0.5 * (fake[:, None] == real[None, :]).sum()
    return float(wins) / (len(fake) * len(real))


def compute_metrics(labels, logits) -> Metrics:
    """Accuracy/F1 from argmax predictions, AUC from the fake-class probability."""
    labels = np.asarray(labels, dtype=np.int64)
    logits = np.asarray(logits, dtype=np.float64)
    if labels.size == 0:
        raise ValidationError("cannot compute metrics on an empty set")
    if not np.isfinite(logits).all():
        raise ValidationError("cannot compute metrics on non-finite logits")
    preds = logits.argmax(axis=-1)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    fake_score = probs[:, 1] / probs.sum(axis=-1)

    accuracy = float((preds == labels).mean())
    tp_f = int(((preds == 1) & (labels == 1)).sum())
    fp_f = int(((preds == 1) & (labels == 0)).sum())
    fn_f = int(((preds == 0) & (labels == 1)).sum())
    tp_r = int(((preds == 0) & (labels == 0)).sum())
    fp_r = fn_f
    fn_r = fp_f
    auc = auc_rank(labels, fake_score)
    if labels.size <= 500:
        oracle = auc_pairwise(labels, fake_score)
        if auc != oracle:
            raise AssertionError(f"rank AUC {auc!r} disagrees with pairwise oracle {oracle!r}")
    return Metrics(
        accuracy=accuracy,
        f1_fake=_f1(tp_f, fp_f, fn_f),
        f1_real=_f1(tp_r, fp_r, fn_r),
        auc=auc,
    )


# ---------------------------------------------------------------------------
# Welch's t-test


@dataclass(frozen=True)
class WelchResult:
    t: float
    dof: float
    p: float


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) via the symmetric continued-fraction evaluation."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, dof: float) -> float:
    """Two-sided p-value for Student's t with ``dof`` degrees of freedom."""
    if dof <= 0:
        raise ParameterError(f"degrees of freedom must be positive, got {dof}")
    return regularized_incomplete_beta(dof / (dof + t * t), dof / 2.0, 0.5)


def welch_ttest(runs_a, runs_b) -> WelchResult:
    """Unequal-variance t statistic, Welch-Satterthwaite dof, two-sided p."""
    a = np.asarray(runs_a, dtype=np.float64)
    b = np.asarray(runs_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ParameterError("welch_ttest needs at least 2 values per sample")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("welch_ttest needs finite values")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        var_a = a.var(ddof=1)
        var_b = b.var(ddof=1)
        sa, sb = var_a / a.size, var_b / b.size
        se2 = sa + sb
        if se2 <= 0.0:
            raise ParameterError(
                "degenerate variance: both samples are constant; compare the exact tie counts instead"
            )
        t = (a.mean() - b.mean()) / math.sqrt(se2)
        # from se2's shares: squaring se2 itself overflows once se2 passes ~1e154
        ra, rb = sa / se2, sb / se2
        dof = 1.0 / (ra * ra / (a.size - 1) + rb * rb / (b.size - 1))
    if not (math.isfinite(t) and math.isfinite(dof)):
        raise ValidationError("welch_ttest: the variances are too large for float64")
    return WelchResult(t=float(t), dof=float(dof), p=t_sf_two_sided(float(t), float(dof)))
