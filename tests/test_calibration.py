"""Calibration distillation contracts: residual identity, holistic context,
the combined KL+CE loss, and its alpha/tau structure."""

import math

import numpy as np
import pytest

from mvrd.calibration import (
    CalibratorParams,
    DistillConfig,
    calibrate,
    calibrate_views,
    concat_views,
    distill_loss,
    distill_losses,
    predict_correction,
)
from mvrd.diffcore import (
    ContractError,
    DimensionError,
    ParameterError,
    Tensor,
    backward,
    zero_grads,
)


def views_of(t, i, c, requires_grad=False):
    return {
        "text": Tensor(t, requires_grad=requires_grad),
        "image": Tensor(i, requires_grad=requires_grad),
        "cross": Tensor(c, requires_grad=requires_grad),
    }


def np_softmax(x, tau):
    z = np.asarray(x) / tau
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def np_kl(p, q):
    q = np.maximum(q, 1e-12)
    return float(np.where(p > 0, p * (np.log(np.maximum(p, 1e-12)) - np.log(q)), 0.0).sum())


class TestConcatViews:
    def test_fixed_order(self):
        out = concat_views(views_of([1.0, 2.0], [3.0, 4.0], [5.0, 6.0]))
        assert out.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_zeros(self):
        out = concat_views(views_of([0.0, 0.0], [0.0, 0.0], [0.0, 0.0]))
        assert np.array_equal(out.values, np.zeros(6))

    def test_slot_gradient_isolation(self):
        # a loss on slot 3 must flow only into the image view
        v = views_of([1.0, 2.0], [3.0, 4.0], [5.0, 6.0], requires_grad=True)
        out = concat_views(v)
        from mvrd.diffcore import matmul, reshape

        w = np.zeros((6, 1))
        w[3] = 1.0
        backward(reshape(matmul(reshape(out, (1, 6)), Tensor(w)), ()))
        assert np.array_equal(v["text"].grad, np.zeros(2))
        assert np.array_equal(v["image"].grad, np.array([0.0, 1.0]))
        assert np.array_equal(v["cross"].grad, np.zeros(2))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            concat_views(views_of([1.0, 2.0], [3.0], [5.0, 6.0]))


class TestPredictCorrection:
    def test_zero_weights_give_zero_correction(self):
        params = CalibratorParams(d=4, master_seed=0)
        params.zero_corrections()
        out = predict_correction(Tensor(np.ones(12)), params, "text")
        assert np.array_equal(out.values, np.zeros(4))

    def test_output_dimension(self):
        params = CalibratorParams(d=5, master_seed=1)
        for view in ("text", "image", "cross"):
            out = predict_correction(Tensor(np.random.default_rng(0).normal(size=15)), params, view)
            assert out.shape == (5,)

    def test_holistic_context_sensitivity(self):
        # perturbing the text slots changes the image correction: finite
        # difference of d_image^pred w.r.t. f_text is nonzero for generic weights
        params = CalibratorParams(d=4, master_seed=2)
        base = np.random.default_rng(3).normal(size=12)
        h = 1e-5
        bumped = base.copy()
        bumped[0] += h
        before = predict_correction(Tensor(base), params, "image").values
        after = predict_correction(Tensor(bumped), params, "image").values
        assert np.linalg.norm((after - before) / h) > 1e-3

    def test_unknown_view(self):
        params = CalibratorParams(d=4)
        with pytest.raises(Exception):
            predict_correction(Tensor(np.zeros(12)), params, "audio")


class TestCalibrate:
    def test_zero_correction_is_identity(self):
        f = Tensor([1.0, -2.0, 3.0])
        out = calibrate(f, Tensor(np.zeros(3)))
        assert np.array_equal(out.values, f.values)

    def test_arithmetic(self):
        out = calibrate(Tensor([1.0, 2.0]), Tensor([0.5, -2.0]))
        assert out.values.tolist() == [1.5, 0.0]

    def test_residual_identity_bit_exact(self):
        # inputs on a dyadic grid make float addition exact, so recovering the
        # original feature from (calibrated, correction) is bitwise
        rng = np.random.default_rng(4)
        for _ in range(1000):
            f = np.round(rng.uniform(-2, 2, size=6) * 2**20) / 2**20
            p = np.round(rng.uniform(-2, 2, size=6) * 2**20) / 2**20
            calibrated = calibrate(Tensor(f), Tensor(p))
            assert np.array_equal(calibrated.values - p, f)

    def test_additivity_is_bitwise(self):
        rng = np.random.default_rng(5)
        f, p = rng.normal(size=8), rng.normal(size=8)
        assert np.array_equal(calibrate(Tensor(f), Tensor(p)).values, f + p)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            calibrate(Tensor([1.0, 2.0]), Tensor([1.0]))


def head_of(params, view):
    return params.heads[view]


class TestDistillLoss:
    def test_zero_when_student_matches_teacher_at_alpha_one(self):
        params = CalibratorParams(d=4, master_seed=6)
        f = Tensor(np.array([0.3, -1.0, 2.0, 0.1]), requires_grad=True)
        t = Tensor(f.values.copy())
        for tau in (0.5, 1.0, 2.0, 5.0):
            cfg = DistillConfig(tau=tau, alpha=1.0)
            loss = distill_loss(f, t, 0, cfg, head_of(params, "text"))
            assert loss.item() == 0.0

    def test_alpha_zero_reduces_to_cross_entropy(self):
        from mvrd.diffcore import cross_entropy, linear

        params = CalibratorParams(d=4, master_seed=7)
        f = Tensor(np.array([0.5, 1.0, -0.5, 0.2]), requires_grad=True)
        t = Tensor(np.array([1.0, 0.0, 0.0, 0.0]))
        cfg = DistillConfig(tau=2.0, alpha=0.0)
        loss = distill_loss(f, t, 1, cfg, head_of(params, "text"))
        expected = cross_entropy(linear(f.detach(), *head_of(params, "text")), 1).item()
        assert loss.item() == expected

    def test_hand_value_two_dim(self):
        # tau^2 * KL([0.7311, 0.2689] || [0.2689, 0.7311]) = 0.46212
        params = CalibratorParams(d=2, d_h=2, master_seed=8)
        f_hat = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        f_teacher = Tensor(np.array([1.0, 0.0]))
        cfg = DistillConfig(tau=1.0, alpha=1.0)
        loss = distill_loss(f_hat, f_teacher, 0, cfg, head_of(params, "text"))
        p = np_softmax([1.0, 0.0], 1.0)
        q = np_softmax([0.0, 1.0], 1.0)
        assert loss.item() == pytest.approx(np_kl(p, q), abs=1e-12)
        assert loss.item() == pytest.approx(0.46211715726000974, abs=1e-10)

    def test_alpha_affinity(self):
        params = CalibratorParams(d=4, master_seed=9)
        rng = np.random.default_rng(10)
        f = Tensor(rng.normal(size=4), requires_grad=True)
        t = Tensor(rng.normal(size=4))
        k = distill_loss(f, t, 0, DistillConfig(2.0, 1.0), head_of(params, "text")).item()
        c = distill_loss(f, t, 0, DistillConfig(2.0, 0.0), head_of(params, "text")).item()
        for alpha in (0.0, 0.25, 0.5, 1.0):
            loss = distill_loss(f, t, 0, DistillConfig(2.0, alpha), head_of(params, "text")).item()
            assert abs(loss - (alpha * k + (1 - alpha) * c)) < 1e-10

    def test_tau_squared_scaling_law(self):
        params = CalibratorParams(d=5, master_seed=11)
        rng = np.random.default_rng(12)
        f_values = rng.normal(size=5)
        t_values = rng.normal(size=5)
        f = Tensor(f_values, requires_grad=True)
        t = Tensor(t_values)
        for tau in (0.5, 1.0, 2.0, 5.0):
            loss = distill_loss(f, t, 0, DistillConfig(tau, 1.0), head_of(params, "text")).item()
            independent = tau * tau * np_kl(np_softmax(t_values, tau), np_softmax(f_values, tau))
            assert abs(loss - independent) < 1e-10

    def test_gradient_reaches_student_not_teacher(self):
        params = CalibratorParams(d=4, master_seed=13)
        rng = np.random.default_rng(14)
        f = Tensor(rng.normal(size=4), requires_grad=True)
        t = Tensor(rng.normal(size=4))
        zero_grads(params.parameters())
        backward(distill_loss(f, t, 1, DistillConfig(2.0, 0.5), head_of(params, "text")))
        assert np.any(f.grad != 0)
        assert t.grad is None
        head_w, head_b = head_of(params, "text")
        assert np.any(head_w.tensor.grad != 0)
        assert np.any(head_b.tensor.grad != 0)

    def test_teacher_with_gradients_rejected(self):
        params = CalibratorParams(d=4)
        f = Tensor(np.zeros(4), requires_grad=True)
        t = Tensor(np.zeros(4), requires_grad=True)
        with pytest.raises(ContractError):
            distill_loss(f, t, 0, DistillConfig(), head_of(params, "text"))

    def test_invalid_config_rejected(self):
        with pytest.raises(ParameterError):
            DistillConfig(tau=0.0)
        with pytest.raises(ParameterError):
            DistillConfig(alpha=1.5)


class TestCalibrationForward:
    """calibrate_views then distill_losses, as Model.forward_loss runs them."""

    def make_inputs(self, d=4, seed=15):
        rng = np.random.default_rng(seed)
        v = views_of(rng.normal(size=d), rng.normal(size=d), rng.normal(size=d), requires_grad=True)
        t = {view: Tensor(rng.normal(size=d)) for view in ("text", "image", "cross")}
        return v, t

    def test_disabled_views_contribute_no_loss(self):
        params = CalibratorParams(d=4, master_seed=16)
        v, t = self.make_inputs()
        cfg = DistillConfig(enabled_views=frozenset())
        calibrated = calibrate_views(v, params)
        assert distill_losses(calibrated, t, 0, cfg, params) == {}
        # features still flow through calibration
        assert calibrated["text"].shape == (4,)

    def test_full_enablement_gives_nonnegative_kl(self):
        params = CalibratorParams(d=4, master_seed=17)
        v, t = self.make_inputs(seed=18)
        cfg = DistillConfig(tau=2.0, alpha=1.0)
        losses = distill_losses(calibrate_views(v, params), t, 0, cfg, params)
        assert set(losses) == {"text", "image", "cross"}
        for loss in losses.values():
            assert loss.item() >= -1e-12

    def test_hand_composed_toy(self):
        # chain concat -> MLP -> residual -> loss by hand on d = 2
        d = 2
        params = CalibratorParams(d=d, d_h=2, master_seed=19)
        rng = np.random.default_rng(20)
        weights = {p.name: rng.normal(size=p.tensor.shape) for p in params.parameters()}
        for p in params.parameters():
            p.tensor.values[...] = weights[p.name]
        v, t = self.make_inputs(d=d, seed=21)
        cfg = DistillConfig(tau=1.5, alpha=0.7)
        calibrated = calibrate_views(v, params)
        losses = distill_losses(calibrated, t, 1, cfg, params)

        f_concat = np.concatenate([v[view].values for view in ("text", "image", "cross")])
        for view in ("text", "image", "cross"):
            f_raw, f_teacher = v[view].values, t[view].values
            w1, b1, w2, b2 = (weights[f"calib.{view}.mlp.{n}"] for n in ("W1", "b1", "W2", "b2"))
            hw, hb = weights[f"calib.{view}.head.W"], weights[f"calib.{view}.head.b"]
            correction = np.maximum(f_concat @ w1 + b1, 0.0) @ w2 + b2
            f_hat = f_raw + correction
            assert np.allclose(calibrated[view].values, f_hat, atol=1e-12)
            kl = np_kl(np_softmax(f_teacher, 1.5), np_softmax(f_hat, 1.5))
            logits = f_hat @ hw + hb
            ce = -(logits[1] - np.log(np.exp(logits - logits.max()).sum()) - logits.max())
            expected = 0.7 * 1.5**2 * kl + 0.3 * ce
            assert losses[view].item() == pytest.approx(expected, abs=1e-10)

    def test_calibrated_views_keep_corrections(self):
        # calibrated = raw + predict_correction(holistic context), bitwise
        params = CalibratorParams(d=4, master_seed=22)
        v, _ = self.make_inputs(seed=23)
        calibrated = calibrate_views(v, params)
        f_concat = concat_views(v)
        for view, raw in v.items():
            correction = predict_correction(f_concat, params, view)
            assert np.array_equal(calibrated[view].values, raw.values + correction.values)

    def test_hidden_width_floor(self):
        with pytest.raises(Exception, match="d_h"):
            CalibratorParams(d=8, d_h=4)
