"""Checks of the program's outputs, computed apart from the program.

Each check raises ``CheckFailed`` with a message naming what disagreed. The
checks take plain numbers and arrays, not package objects, so that they can
be tested on deliberately wrong inputs without training anything
(``test_checks.py``).
"""

from __future__ import annotations

import math
import statistics

import numpy as np
from scipy.special import softmax
from scipy.stats import mannwhitneyu

# Relative tolerance for a float recomputed in another order (a mean, a U
# statistic scaled to [0, 1]); exact agreement is demanded everywhere else.
REL_TOL = 1e-12


class CheckFailed(AssertionError):
    """The program's output disagrees with an independent computation."""


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def classification_metrics(labels, logits) -> dict[str, float]:
    """Accuracy and F1 on the fake class (1) from the argmax, and AUC as the
    Mann-Whitney U statistic of the fake-class probability over n_fake * n_real."""
    labels = np.asarray(labels)
    logits = np.asarray(logits, dtype=np.float64)
    preds = logits.argmax(axis=1)
    fake_score = softmax(logits, axis=1)[:, 1]
    u = mannwhitneyu(fake_score[labels == 1], fake_score[labels == 0]).statistic
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    n_fake = int(np.sum(labels == 1))
    return {
        "accuracy": float(np.mean(preds == labels)),
        "f1_fake": f1,
        "auc": float(u) / (n_fake * (len(labels) - n_fake)),
    }


def check_reported_metrics(labels, logits, reported: dict) -> None:
    """The reported accuracy, F1-fake and AUC equal an independent recomputation
    from the logits."""
    mine = classification_metrics(labels, logits)
    for key, value in mine.items():
        if not _close(value, reported[key]):
            raise CheckFailed(f"{key}: program reports {reported[key]!r}, recomputed {value!r}")


def check_loss_decreases(epoch_losses: list[dict]) -> None:
    first, last = epoch_losses[0]["total"], epoch_losses[-1]["total"]
    if not last < first:
        raise CheckFailed(f"mean total loss did not fall: first epoch {first!r}, last {last!r}")


def check_accuracy_floor(accuracy: float, floor: float) -> None:
    if not accuracy >= floor:
        raise CheckFailed(f"held-out accuracy {accuracy!r} is below the floor {floor}")


def check_finite(named_arrays) -> None:
    bad = [name for name, values in named_arrays if not np.all(np.isfinite(values))]
    if bad:
        raise CheckFailed(f"non-finite parameters: {bad}")


def check_tape_empty(length: int) -> None:
    if length != 0:
        raise CheckFailed(f"{length} records left on the autodiff tape after the job")


def check_same(label: str, first, other) -> None:
    """Two rounds of one invocation produced bit-identical results."""
    if first != other:
        raise CheckFailed(f"{label} differs between rounds of one run")


def check_ablation_rows(rows: list[dict], expected_names: list[str], n_seeds: int) -> None:
    """Rows come in the expected order, each with ``n_seeds`` per-seed entries
    whose mean and sample standard deviation match the reported ones."""
    names = [row["name"] for row in rows]
    if names != list(expected_names):
        raise CheckFailed(f"ablation rows {names} are not in the order {list(expected_names)}")
    for row in rows:
        if len(row["per_seed"]) != n_seeds:
            raise CheckFailed(f"row {row['name']}: {len(row['per_seed'])} seeds, expected {n_seeds}")
        for key, reported_mean in row["mean"].items():
            values = [entry[key] for entry in row["per_seed"]]
            mean, sd = statistics.fmean(values), statistics.stdev(values)
            if not (_close(mean, reported_mean) and _close(sd, row["sd"][key])):
                raise CheckFailed(
                    f"row {row['name']} {key}: reported {reported_mean!r} +/- "
                    f"{row['sd'][key]!r}, recomputed {mean!r} +/- {sd!r}"
                )


def check_tokens_roundtrip(generated: dict, loaded: dict) -> None:
    """Every sample's labels and token arrays came back bit for bit.

    Both arguments map sample id -> (label, corruption, {source tag: array}).
    """
    if list(generated) != list(loaded):
        raise CheckFailed("loaded sample ids differ from the generated ones")
    for sid, (label, corruption, seqs) in generated.items():
        got_label, got_corruption, got_seqs = loaded[sid]
        if (label, corruption) != (got_label, got_corruption):
            raise CheckFailed(f"sample {sid}: label/corruption changed in the round trip")
        if list(seqs) != list(got_seqs):
            raise CheckFailed(f"sample {sid}: source tags changed in the round trip")
        for tag, values in seqs.items():
            got = got_seqs[tag]
            if values.shape != got.shape or values.tobytes() != got.tobytes():
                raise CheckFailed(f"sample {sid} {tag}: tokens differ after the round trip")


def projection_matrix(d_t: int, d: int, seed: int) -> np.ndarray:
    """The teacher file's fixed random projection, as its format defines it:
    N(0, 1/d_t) entries drawn from ``default_rng(projection_seed)``."""
    return np.random.default_rng(seed).normal(0.0, 1.0 / np.sqrt(d_t), size=(d_t, d))


def check_teacher_projection(raw: dict, loaded: dict, matrix: np.ndarray) -> None:
    """Loaded embeddings equal the raw ones times the projection matrix.

    ``raw`` and ``loaded`` map sample id -> {view: 1-D array}.
    """
    if set(raw) != set(loaded):
        raise CheckFailed("teacher file sample ids differ from the generated ones")
    for sid, views in raw.items():
        for view, values in views.items():
            expected = values @ matrix
            if not np.allclose(loaded[sid][view], expected, rtol=REL_TOL, atol=REL_TOL):
                raise CheckFailed(f"teacher embedding ({sid}, {view}) is not raw @ projection")
