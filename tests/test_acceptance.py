"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy training runs use the default synthetic dataset (2,000 train / 500
test, mixed corruptions) with five fixed seeds and a short-schedule training
configuration (15 epochs, batch 64); all thresholds below are asserted at
the tolerance stated with them.
"""

import dataclasses
import time

import numpy as np
import pytest

from mvrd.calibration import CalibratorParams, calibrate_views, distill_losses
from mvrd.config import TrainConfig
from mvrd.datasynth import SyntheticConfig, generate_dataset, split
from mvrd.diffcore import Tensor, backward, grad_check, linear, no_grad
from mvrd.metrics import auc_rank, compute_metrics, welch_ttest
from mvrd.model import Model, StackedDataset
from mvrd.trainer import (
    Adam,
    ablation_suite,
    evaluate,
    load_model,
    save_checkpoint,
    train,
)

from test_metrics import auc_pairwise

SEEDS = [100, 101, 102, 103, 104]
RUN_CFG = TrainConfig(epochs=15, batch_size=64, learning_rate=2e-3, master_seed=SEEDS[0])


def report(criterion, name, passed=True):
    print(f"ACCEPTANCE {criterion} ({name}): {'PASS' if passed else 'FAIL'}")


def zero_corrections(params):
    """Make every correction MLP of a calibrator the zero function."""
    for p in (params.w1, params.b1, params.w2, params.b2):
        p.tensor.values[...] = 0.0


@pytest.fixture(scope="module")
def default_data():
    ds = generate_dataset(SyntheticConfig(seed=2024))
    train_set, test_set = split(ds, (0.8, 0.2), seed=2024)
    assert len(train_set) == 2000 and len(test_set) == 500
    return train_set, test_set


@pytest.fixture(scope="module")
def efficacy_runs(default_data):
    """Five seeded full-model runs and five no-teacher runs, timed."""
    train_set, test_set = default_data
    start = time.perf_counter()
    full = []
    lam0 = []
    for seed in SEEDS:
        model, rep = train(RUN_CFG.replace(master_seed=seed), train_set, eval_dataset=test_set)
        full.append((model, rep.metrics))
        _, rep0 = train(
            RUN_CFG.replace(master_seed=seed, lambda_=0.0), train_set, eval_dataset=test_set
        )
        lam0.append(rep0.metrics)
    elapsed = time.perf_counter() - start
    return full, lam0, elapsed


def test_criterion_1_gradient_fidelity():
    # full L_total on a batch of 4 synthetic samples at d = 8, everything enabled
    synth = SyntheticConfig(
        n_samples=4, d_in=8, teacher_dim=8, len_text=3, len_image=3, len_clip=2, seed=5
    )
    samples = generate_dataset(synth)
    cfg = TrainConfig(d=8, d_h=16, heads=4, encoder_heads=2, master_seed=3)
    assert cfg.lambda_ > 0 and cfg.view_weights == (1.0, 1.0, 1.0)
    data = StackedDataset.from_samples(samples)
    model = Model(cfg, data.d_in)
    batch = data.batch(np.arange(4))

    start = time.perf_counter()
    result = grad_check(
        lambda: model.forward_loss(batch).graph, model.parameters(), h=1e-5, tol=1e-4
    )
    elapsed = time.perf_counter() - start

    assert result.deterministic
    assert result.max_rel_error < 1e-4, result.worst[:3]
    assert elapsed < 60.0
    report(1, f"gradient fidelity: max rel err {result.max_rel_error:.3e} in {elapsed:.1f}s")


def test_criterion_2_loss_identities():
    # the views travel as one (3, d) tensor; each check reads the text slot's
    # loss, with the same student and teacher vector in every slot
    rng = np.random.default_rng(42)
    d = 4
    params = CalibratorParams(d=d, d_h=2 * d, master_seed=7)
    text = 0

    def distill_loss(student_values, teacher_values, y, tau, alpha):
        student = Tensor(np.tile(student_values, (3, 1)), requires_grad=True)
        teacher = np.tile(teacher_values, (3, 1))
        return distill_losses(student, teacher, y, TrainConfig(tau=tau, alpha=alpha), params)

    # (a) both LossBreakdown identities on 100 random configurations
    from mvrd.fusion import total_loss
    from mvrd.diffcore import mean

    for _ in range(100):
        lam = float(rng.uniform(0, 3))
        tau = float(rng.uniform(0.5, 5))
        alpha = float(rng.uniform(0, 1))
        distill = distill_loss(rng.normal(size=d), rng.normal(size=d), 0, tau, alpha)
        breakdown = total_loss(
            mean(Tensor(rng.uniform(0, 2, size=1), requires_grad=True)),
            mean(Tensor(rng.uniform(0, 2, size=1), requires_grad=True)),
            distill,
            TrainConfig(lambda_=lam),
        )
        err_c, err_total = breakdown.identity_errors()
        assert err_c <= 1e-12 and err_total <= 1e-12
        backward(breakdown.graph)

    # (b) distill loss vanishes when the student matches the teacher at alpha=1
    for tau in (0.5, 1.0, 2.0, 5.0):
        values = rng.normal(size=d)
        loss = distill_loss(values, values.copy(), 0, tau, 1.0)
        assert loss.values[text] == 0.0

    # (c) alpha-affinity and (d) the tau^2 scaling law vs an independent KL
    def np_softmax(x, tau):
        z = np.asarray(x) / tau
        z -= z.max()
        e = np.exp(z)
        return e / e.sum()

    def np_kl(p, q):
        q = np.maximum(q, 1e-12)
        return float(np.where(p > 0, p * (np.log(np.maximum(p, 1e-12)) - np.log(q)), 0.0).sum())

    for _ in range(100):
        s_values = rng.normal(size=d)
        t_values = rng.normal(size=d)
        tau = float(rng.uniform(0.5, 5))
        k = distill_loss(s_values, t_values, 1, tau, 1.0).values[text]
        c = distill_loss(s_values, t_values, 1, tau, 0.0).values[text]
        for alpha in (0.0, 0.25, 0.5, 1.0):
            loss = distill_loss(s_values, t_values, 1, tau, alpha).values[text]
            assert abs(loss - (alpha * k + (1 - alpha) * c)) <= 1e-10
        independent = tau * tau * np_kl(np_softmax(t_values, tau), np_softmax(s_values, tau))
        assert abs(k - independent) <= 1e-10
    report(2, "loss identities, alpha-affinity, tau^2 law")


def test_criterion_3_residual_calibration():
    # bit-exact residual recovery: inputs on a dyadic grid so addition is
    # exact; a calibrator with zero MLP weights and output bias p adds exactly p
    rng = np.random.default_rng(11)
    residual = {}
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        if n not in residual:
            residual[n] = CalibratorParams(d=n, d_h=2 * n, master_seed=0)
            zero_corrections(residual[n])
        f = np.round(rng.uniform(-2, 2, size=(3, n)) * 2**20) / 2**20
        p = np.round(rng.uniform(-2, 2, size=(3, n)) * 2**20) / 2**20
        residual[n].b2.tensor.values[...] = p
        calibrated = calibrate_views(Tensor(f), residual[n])
        assert np.array_equal(calibrated.values - p, f)

    # zero-initialized correction MLPs leave predictions bitwise identical to
    # a pipeline with calibration bypassed
    synth = SyntheticConfig(n_samples=64, d_in=8, teacher_dim=8, len_text=4, len_image=4, len_clip=2, seed=9)
    samples = generate_dataset(synth)
    data = StackedDataset.from_samples(samples)
    model = Model(TrainConfig(d=8, d_h=16, heads=4, encoder_heads=2, master_seed=1), data.d_in)
    zero_corrections(model.calibrator)
    with_calibration = model.predict_logits(samples)
    with no_grad():
        views = model.encode_batch(data)
        without = linear(model.fuse(views), *model.fusion.final_head).values
    assert np.array_equal(with_calibration, without)
    report(3, "residual identity and zero-correction equivalence")


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 301))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, size=n), 2)  # plenty of ties
        assert auc_rank(labels, scores) == auc_pairwise(labels, scores)

    for _ in range(50):
        n = int(rng.integers(4, 200))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        logits = rng.normal(size=(n, 2))
        m = compute_metrics(labels, logits)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert m.auc == auc_pairwise(labels, probs[:, 1] / probs.sum(axis=1))
        preds = logits.argmax(axis=1)
        tp = int(((preds == 1) & (labels == 1)).sum())
        fp = int(((preds == 1) & (labels == 0)).sum())
        fn = int(((preds == 0) & (labels == 1)).sum())
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert m.accuracy == (preds == labels).mean()
        assert m.f1_fake == f1
    report(4, "AUC pairwise oracle and confusion-matrix oracle, exact")


def test_criterion_5_distillation_efficacy(efficacy_runs):
    full, lam0, elapsed = efficacy_runs
    full_accs = [m["accuracy"] for _, m in full]
    lam0_accs = [m["accuracy"] for m in lam0]
    gap = float(np.mean(full_accs) - np.mean(lam0_accs))
    significance = welch_ttest(full_accs, lam0_accs)
    assert gap >= 0.03, (full_accs, lam0_accs)
    assert significance.p < 0.05
    assert elapsed < 300.0
    report(5, f"distillation gap {gap * 100:.1f} points, p={significance.p:.2e}, {elapsed:.0f}s")


def test_criterion_6_ablation_directions(default_data, efficacy_runs):
    train_set, test_set = default_data
    rows = ablation_suite(RUN_CFG, train_set, test_set, n_seeds=len(SEEDS))
    by_name = {r.name: r for r in rows}
    full_mean = by_name["full"].mean["accuracy"]
    for row in rows:
        if row.name == "full":
            continue
        assert row.mean["accuracy"] <= full_mean + 0.005, (
            row.name,
            row.mean["accuracy"],
            full_mean,
        )

    # removing the cross distillation term must hurt fake detection where the
    # only falsity is cross-modal mismatch
    cross_only = generate_dataset(
        SyntheticConfig(n_samples=500, seed=977, corruption_mix=(0.0, 0.0, 1.0))
    )
    full_models = [model for model, _ in efficacy_runs[0]]
    full_f1 = [evaluate(m, cross_only).f1_fake for m in full_models]
    drop_f1 = []
    for seed in SEEDS:
        model, _ = train(RUN_CFG.replace(master_seed=seed, ablation="drop_L_cross"), train_set)
        drop_f1.append(evaluate(model, cross_only).f1_fake)
    degradation = float(np.mean(full_f1) - np.mean(drop_f1))
    assert degradation >= 0.05, (full_f1, drop_f1)
    report(6, f"ablation directions hold; cross-only F1-Fake drop {degradation * 100:.1f} points")


def test_criterion_7_determinism_and_persistence(tmp_path):
    synth = SyntheticConfig(n_samples=300, d_in=8, teacher_dim=8, len_text=4, len_image=4, len_clip=2, seed=21)
    ds = generate_dataset(synth)
    train_set, test_set = split(ds, (0.8, 0.2), seed=21)
    cfg = TrainConfig(d=8, d_h=16, heads=4, encoder_heads=2, epochs=3, batch_size=25, master_seed=5)

    model_a, report_a = train(cfg, train_set, eval_dataset=test_set)
    _, report_b = train(cfg, train_set, eval_dataset=test_set)
    assert report_a.metrics == report_b.metrics

    path = tmp_path / "ckpt.bin"
    save_checkpoint(model_a, path)
    restored = load_model(path)
    probe = test_set[:50]
    assert np.array_equal(model_a.predict_logits(probe), restored.predict_logits(probe))
    report(7, "bit-identical metrics and checkpoint round-trip")


def test_criterion_8_welch_correctness():
    result = welch_ttest([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert result.t == pytest.approx(-1.0, abs=1e-12)
    assert result.dof == pytest.approx(8.0, abs=1e-12)
    assert abs(result.p - 0.3466) < 1e-3

    swapped = welch_ttest([2, 3, 4, 5, 6], [1, 2, 3, 4, 5])
    assert swapped.t == -result.t
    assert swapped.p == result.p

    same = welch_ttest([0.4, 0.6, 0.9], [0.4, 0.6, 0.9])
    assert same.t == 0.0 and same.p == 1.0
    report(8, "Welch t-test matches the textbook oracle")


def test_criterion_9_teacher_constancy():
    synth = SyntheticConfig(n_samples=64, d_in=8, teacher_dim=8, len_text=4, len_image=4, len_clip=2, seed=31)
    ds = generate_dataset(synth)
    cfg = TrainConfig(d=8, d_h=16, heads=4, encoder_heads=2, epochs=1, batch_size=16, master_seed=2)

    # teacher embeddings are plain arrays that training leaves as they were
    before = [s.teacher.values.copy() for s in ds]
    train(cfg, ds)
    for s, values in zip(ds, before):
        assert s.teacher.values.tobytes() == values.tobytes()

    # replacing the teacher mid-run under lambda = 0 is bitwise invisible
    cfg0 = cfg.replace(lambda_=0.0)

    def manual_run(swap):
        data = StackedDataset.from_samples(ds)
        model = Model(cfg0, data.d_in)
        optimizer = Adam(model.values, model.grads, cfg0.learning_rate)
        for step, lo in enumerate(range(0, len(ds), 16)):
            if swap and step == 2:
                data.teacher = data.teacher * -3.0 + 7.0
            batch = data.batch(np.arange(lo, min(lo + 16, len(ds))))
            optimizer.zero_grad()
            backward(model.forward_loss(batch).graph)
            optimizer.step()
        return {p.name: p.tensor.values.copy() for p in model.parameters()}

    params_plain = manual_run(swap=False)
    params_swapped = manual_run(swap=True)
    for name in params_plain:
        assert np.array_equal(params_plain[name], params_swapped[name]), name
    report(9, "teacher gradient-free; mid-run swap bitwise invisible at lambda=0")
