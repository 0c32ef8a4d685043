"""Self-tests of the benchmark's checks: each passes on a right input and
fails on a deliberately wrong one, so that a check which can never fail shows.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

import checks

VARIANTS = ["full", "drop_L_text", "no_teacher"]


def labelled_logits(n=60, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n // 2)
    logits = rng.normal(size=(n, 2))
    logits[:, 1] += 1.5 * labels  # informative, so a permutation changes the AUC
    return labels, logits


def reported(labels, logits):
    """What the program reports, by the textbook pairwise definitions."""
    preds = logits.argmax(axis=1)
    score = logits[:, 1] - logits[:, 0]
    fake, real = score[labels == 1], score[labels == 0]
    auc = ((fake[:, None] > real[None, :]).sum() + 0.5 * (fake[:, None] == real[None, :]).sum())
    tp = np.sum((preds == 1) & (labels == 1))
    return {
        "accuracy": float(np.mean(preds == labels)),
        "f1_fake": float(2 * tp / (np.sum(preds == 1) + np.sum(labels == 1))),
        "auc": float(auc) / (len(fake) * len(real)),
    }


def test_auc_oracle_accepts_the_right_logits():
    labels, logits = labelled_logits()
    checks.check_reported_metrics(labels, logits, reported(labels, logits))


def test_auc_oracle_rejects_permuted_logits():
    labels, logits = labelled_logits()
    permuted = logits[np.random.default_rng(1).permutation(len(logits))]
    # accuracy and F1 agree with the permuted logits; only the AUC is stale
    stale = {**reported(labels, permuted), "auc": reported(labels, logits)["auc"]}
    with pytest.raises(checks.CheckFailed, match="auc"):
        checks.check_reported_metrics(labels, permuted, stale)


def corpus(seed=0):
    rng = np.random.default_rng(seed)
    return {
        f"s{i}": (i % 2, "none" if i % 2 == 0 else "text-fabrication",
                  {"text-tokens": rng.normal(size=(3, 4)), "clip-text": rng.normal(size=(2, 4))})
        for i in range(4)
    }


def test_roundtrip_accepts_an_exact_copy():
    generated = corpus()
    copy = {sid: (lab, cor, {t: v.copy() for t, v in seqs.items()})
            for sid, (lab, cor, seqs) in generated.items()}
    checks.check_tokens_roundtrip(generated, copy)


def test_roundtrip_rejects_one_perturbed_token():
    generated = corpus()
    loaded = {sid: (lab, cor, {t: v.copy() for t, v in seqs.items()})
              for sid, (lab, cor, seqs) in generated.items()}
    token = loaded["s2"][2]["clip-text"]
    token[1, 3] = np.nextafter(token[1, 3], np.inf)  # one ulp: a lossy float format
    with pytest.raises(checks.CheckFailed, match="s2 clip-text"):
        checks.check_tokens_roundtrip(generated, loaded)


def table(n_seeds=3):
    rows = []
    for i, name in enumerate(VARIANTS):
        per_seed = [{"accuracy": 0.6 + 0.01 * i + 0.003 * k} for k in range(n_seeds)]
        values = [entry["accuracy"] for entry in per_seed]
        rows.append({"name": name, "per_seed": per_seed,
                     "mean": {"accuracy": float(np.mean(values))},
                     "sd": {"accuracy": float(np.std(values, ddof=1))}})
    return rows


def test_ablation_check_accepts_the_right_table():
    checks.check_ablation_rows(table(), VARIANTS, 3)


def test_ablation_check_rejects_two_swapped_rows():
    rows = table()
    rows[0], rows[1] = rows[1], rows[0]
    with pytest.raises(checks.CheckFailed, match="order"):
        checks.check_ablation_rows(rows, VARIANTS, 3)


def test_ablation_check_rejects_a_wrong_mean():
    rows = table()
    rows[2]["mean"]["accuracy"] += 1e-6
    with pytest.raises(checks.CheckFailed, match="no_teacher"):
        checks.check_ablation_rows(rows, VARIANTS, 3)


def test_projection_check_rejects_another_seed():
    rng = np.random.default_rng(3)
    raw = {"s0": {"text": rng.normal(size=8)}}
    matrix = checks.projection_matrix(8, 8, seed=11)
    checks.check_teacher_projection(raw, {"s0": {"text": raw["s0"]["text"] @ matrix}}, matrix)
    wrong = checks.projection_matrix(8, 8, seed=12)
    with pytest.raises(checks.CheckFailed):
        checks.check_teacher_projection(raw, {"s0": {"text": raw["s0"]["text"] @ wrong}}, matrix)


def test_small_checks_fail_on_wrong_inputs():
    with pytest.raises(checks.CheckFailed):
        checks.check_loss_decreases([{"total": 1.0}, {"total": 1.0}])
    with pytest.raises(checks.CheckFailed):
        checks.check_accuracy_floor(0.5, 0.65)
    with pytest.raises(checks.CheckFailed):
        checks.check_finite([("w", np.array([1.0, np.nan]))])
    with pytest.raises(checks.CheckFailed):
        checks.check_tape_empty(3)
    with pytest.raises(checks.CheckFailed):
        checks.check_same("metrics", {"accuracy": 0.9}, {"accuracy": 0.9000000000000001})
