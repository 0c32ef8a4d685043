"""Calibration distillation contracts: residual identity, holistic context,
the combined KL+CE loss, and its alpha/tau structure.

The views travel as one (.., 3, d) tensor, slots in text, image, cross order;
where a test reads one view it indexes that view's slot.
"""

import math

import numpy as np
import pytest

from mvrd.calibration import CalibratorParams, calibrate_views, distill_losses
from mvrd.config import ConfigError, TrainConfig
from mvrd.diffcore import (
    ContractError,
    DimensionError,
    Tensor,
    backward,
    concat,
    linear,
    relu,
    reshape,
    zero_grads,
)
from mvrd.fusion import total_loss
from mvrd.views import VIEWS

TEXT, IMAGE, CROSS = range(3)


def views_of(t, i, c, requires_grad=False):
    return Tensor(np.stack([t, i, c]), requires_grad=requires_grad)


def np_softmax(x, tau):
    z = np.asarray(x) / tau
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def np_kl(p, q):
    q = np.maximum(q, 1e-12)
    return float(np.where(p > 0, p * (np.log(np.maximum(p, 1e-12)) - np.log(q)), 0.0).sum())


def weighted_sum(out, w):
    """sum(out * w) as a scalar tensor."""
    n = w.size
    return reshape(linear(reshape(out, (n,)), Tensor(w.reshape(n, 1)), Tensor(np.zeros(1))), ())


def residual_params(d, p=None):
    """A calibrator whose correction is the constant p (3, d): the MLP weights
    are zero, so the output layer adds only its bias."""
    params = CalibratorParams(d=d, d_h=2 * d, master_seed=0)
    params.zero_corrections()
    if p is not None:
        params.b2.tensor.values[...] = p
    return params


def correction_of(views, params):
    """What calibrate_views adds to each view slot."""
    return calibrate_views(views, params).values - views.values


class TestConcatViews:
    """The holistic context every correction reads: the three view vectors
    concatenated in the fixed order text, image, cross."""

    def test_fixed_order(self):
        # the text correction's first entry reads context entry k alone
        params = CalibratorParams(d=2, d_h=2, master_seed=0)
        params.zero_corrections()
        params.w2.tensor.values[TEXT, 0, 0] = 1.0
        v = views_of([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
        context = []
        for k in range(6):
            params.w1.tensor.values[...] = 0.0
            params.w1.tensor.values[TEXT, k, 0] = 1.0
            context.append(float(correction_of(v, params)[TEXT, 0]))
        assert context == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_zeros(self):
        # zero views with zero biases give a zero context, so zero corrections
        views = views_of([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        out = calibrate_views(views, CalibratorParams(d=2, d_h=4))
        assert np.array_equal(out.values, np.zeros((3, 2)))

    def test_slot_gradient_isolation(self):
        # a loss on entry 3 of the flattened views must flow only into the image view
        v = views_of([1.0, 2.0], [3.0, 4.0], [5.0, 6.0], requires_grad=True)
        out = calibrate_views(v, residual_params(2))
        w = np.zeros(6)
        w[3] = 1.0
        backward(weighted_sum(out, w))
        assert np.array_equal(v.grad[TEXT], np.zeros(2))
        assert np.array_equal(v.grad[IMAGE], np.array([0.0, 1.0]))
        assert np.array_equal(v.grad[CROSS], np.zeros(2))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            calibrate_views(Tensor(np.zeros((3, 1))), CalibratorParams(d=2, d_h=4))


class TestPredictCorrection:
    def test_zero_weights_give_zero_correction(self):
        params = CalibratorParams(d=4, d_h=8, master_seed=0)
        params.zero_corrections()
        out = correction_of(Tensor(np.ones((3, 4))), params)
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_output_dimension(self):
        params = CalibratorParams(d=5, d_h=10, master_seed=1)
        out = calibrate_views(Tensor(np.random.default_rng(0).normal(size=(3, 5))), params)
        for slot in range(len(VIEWS)):
            assert out.values[slot].shape == (5,)
        batched = calibrate_views(Tensor(np.zeros((7, 3, 5))), params)
        assert batched.shape == (7, 3, 5)

    def test_holistic_context_sensitivity(self):
        # perturbing the text slot changes the image correction: finite
        # difference of d_image^pred w.r.t. f_text is nonzero for generic weights
        params = CalibratorParams(d=4, d_h=8, master_seed=2)
        base = np.random.default_rng(3).normal(size=(3, 4))
        h = 1e-5
        bumped = base.copy()
        bumped[TEXT, 0] += h
        before = correction_of(Tensor(base), params)[IMAGE]
        after = correction_of(Tensor(bumped), params)[IMAGE]
        assert np.linalg.norm((after - before) / h) > 1e-3

    def test_unknown_view(self):
        # a fourth view slot (say audio) has no correction to run
        params = CalibratorParams(d=4, d_h=8)
        with pytest.raises(Exception):
            calibrate_views(Tensor(np.zeros((4, 4))), params)


class TestCalibrate:
    """The correction is an additive residual: with a constant correction p
    the calibrated views are exactly f + p."""

    def test_zero_correction_is_identity(self):
        f = Tensor(np.array([[1.0, -2.0, 3.0]] * 3))
        out = calibrate_views(f, residual_params(3))
        assert np.array_equal(out.values, f.values)

    def test_arithmetic(self):
        p = np.array([[0.5, -2.0]] * 3)
        out = calibrate_views(Tensor(np.array([[1.0, 2.0]] * 3)), residual_params(2, p))
        for slot in range(3):
            assert out.values[slot].tolist() == [1.5, 0.0]

    def test_residual_identity_bit_exact(self):
        # inputs on a dyadic grid make float addition exact, so recovering the
        # original feature from (calibrated, correction) is bitwise
        rng = np.random.default_rng(4)
        params = residual_params(6)
        for _ in range(1000):
            f = np.round(rng.uniform(-2, 2, size=(3, 6)) * 2**20) / 2**20
            p = np.round(rng.uniform(-2, 2, size=(3, 6)) * 2**20) / 2**20
            params.b2.tensor.values[...] = p
            calibrated = calibrate_views(Tensor(f), params)
            assert np.array_equal(calibrated.values - p, f)

    def test_additivity_is_bitwise(self):
        rng = np.random.default_rng(5)
        f, p = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
        assert np.array_equal(calibrate_views(Tensor(f), residual_params(8, p)).values, f + p)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            calibrate_views(Tensor(np.zeros((3, 2))), residual_params(1))


def text_loss(f, t, y, cfg, params, requires_grad=False):
    """The text slot's distillation loss, with f and t in every view slot."""
    student = Tensor(np.tile(np.asarray(f, dtype=float), (3, 1)), requires_grad=requires_grad)
    teacher = Tensor(np.tile(np.asarray(t, dtype=float), (3, 1)))
    return distill_losses(student, teacher, y, cfg, params), student, teacher


class TestDistillLoss:
    def test_zero_when_student_matches_teacher_at_alpha_one(self):
        params = CalibratorParams(d=4, d_h=8, master_seed=6)
        f = np.array([0.3, -1.0, 2.0, 0.1])
        for tau in (0.5, 1.0, 2.0, 5.0):
            cfg = TrainConfig(tau=tau, alpha=1.0)
            loss, _, _ = text_loss(f, f.copy(), 0, cfg, params, requires_grad=True)
            assert loss.values[TEXT] == 0.0
            assert np.array_equal(loss.values, np.zeros(3))

    def test_alpha_zero_reduces_to_cross_entropy(self):
        from mvrd.diffcore import cross_entropy

        params = CalibratorParams(d=4, d_h=8, master_seed=7)
        f = np.array([0.5, 1.0, -0.5, 0.2])
        t = np.array([1.0, 0.0, 0.0, 0.0])
        cfg = TrainConfig(tau=2.0, alpha=0.0)
        loss, _, _ = text_loss(f, t, 1, cfg, params, requires_grad=True)
        head_w, head_b = (p.tensor.values[TEXT] for p in params.head)
        expected = cross_entropy(linear(Tensor(f), Tensor(head_w), Tensor(head_b)), 1).item()
        assert loss.values[TEXT] == expected

    def test_hand_value_two_dim(self):
        # tau^2 * KL([0.7311, 0.2689] || [0.2689, 0.7311]) = 0.46212
        params = CalibratorParams(d=2, d_h=2, master_seed=8)
        cfg = TrainConfig(tau=1.0, alpha=1.0)
        loss, _, _ = text_loss([0.0, 1.0], [1.0, 0.0], 0, cfg, params, requires_grad=True)
        p = np_softmax([1.0, 0.0], 1.0)
        q = np_softmax([0.0, 1.0], 1.0)
        assert loss.values[TEXT] == pytest.approx(np_kl(p, q), abs=1e-12)
        assert loss.values[TEXT] == pytest.approx(0.46211715726000974, abs=1e-10)

    def test_alpha_affinity(self):
        params = CalibratorParams(d=4, d_h=8, master_seed=9)
        rng = np.random.default_rng(10)
        f, t = rng.normal(size=4), rng.normal(size=4)
        k = text_loss(f, t, 0, TrainConfig(tau=2.0, alpha=1.0), params)[0].values[TEXT]
        c = text_loss(f, t, 0, TrainConfig(tau=2.0, alpha=0.0), params)[0].values[TEXT]
        for alpha in (0.0, 0.25, 0.5, 1.0):
            loss = text_loss(f, t, 0, TrainConfig(tau=2.0, alpha=alpha), params)[0].values[TEXT]
            assert abs(loss - (alpha * k + (1 - alpha) * c)) < 1e-10

    def test_tau_squared_scaling_law(self):
        params = CalibratorParams(d=5, d_h=10, master_seed=11)
        rng = np.random.default_rng(12)
        f_values = rng.normal(size=5)
        t_values = rng.normal(size=5)
        for tau in (0.5, 1.0, 2.0, 5.0):
            loss = text_loss(f_values, t_values, 0, TrainConfig(tau=tau, alpha=1.0), params)[0]
            independent = tau * tau * np_kl(np_softmax(t_values, tau), np_softmax(f_values, tau))
            assert abs(loss.values[TEXT] - independent) < 1e-10

    def test_gradient_reaches_student_not_teacher(self):
        params = CalibratorParams(d=4, d_h=8, master_seed=13)
        rng = np.random.default_rng(14)
        loss, f, t = text_loss(
            rng.normal(size=4), rng.normal(size=4), 1, TrainConfig(tau=2.0, alpha=0.5), params,
            requires_grad=True,
        )
        zero_grads(params.parameters())
        backward(weighted_sum(loss, np.array([1.0, 0.0, 0.0])))
        assert np.any(f.grad[TEXT] != 0)
        assert t.grad is None
        head_w, head_b = params.head
        assert np.any(head_w.tensor.grad[TEXT] != 0)
        assert np.any(head_b.tensor.grad[TEXT] != 0)

    def test_teacher_with_gradients_rejected(self):
        params = CalibratorParams(d=4, d_h=8)
        f = Tensor(np.zeros((3, 4)), requires_grad=True)
        t = Tensor(np.zeros((3, 4)), requires_grad=True)
        with pytest.raises(ContractError):
            distill_losses(f, t, 0, TrainConfig(), params)

    def test_invalid_config_rejected(self):
        # tau and alpha are the run's settings, checked by TrainConfig.validate
        with pytest.raises(ConfigError, match="tau"):
            TrainConfig(tau=0.0).validate()
        with pytest.raises(ConfigError, match="alpha"):
            TrainConfig(alpha=1.5).validate()


class TestCalibrationForward:
    """calibrate_views, distill_losses and total_loss, as Model.forward_loss runs them."""

    def make_inputs(self, d=4, seed=15):
        rng = np.random.default_rng(seed)
        v = views_of(rng.normal(size=d), rng.normal(size=d), rng.normal(size=d), requires_grad=True)
        t = Tensor(rng.normal(size=(3, d)))
        return v, t

    @staticmethod
    def scalar(x):
        return Tensor(np.array(x), requires_grad=True)

    def test_disabled_views_contribute_no_loss(self):
        params = CalibratorParams(d=4, d_h=8, master_seed=16)
        v, t = self.make_inputs()
        cfg = TrainConfig(drop_L_text=True, drop_L_image=True, drop_L_cross=True)
        calibrated = calibrate_views(v, params)
        losses = distill_losses(calibrated, t, 0, cfg, params)
        breakdown = total_loss(self.scalar(0.5), self.scalar(0.25), losses, cfg.view_weights, 1.0)
        assert breakdown.distill == {}
        assert breakdown.total == breakdown.classification
        # features still flow through calibration
        assert calibrated.values[TEXT].shape == (4,)

    def test_full_enablement_gives_nonnegative_kl(self):
        params = CalibratorParams(d=4, d_h=8, master_seed=17)
        v, t = self.make_inputs(seed=18)
        cfg = TrainConfig(tau=2.0, alpha=1.0)
        losses = distill_losses(calibrate_views(v, params), t, 0, cfg, params)
        breakdown = total_loss(self.scalar(0.5), self.scalar(0.25), losses, cfg.view_weights, 1.0)
        assert set(breakdown.distill) == {"text", "image", "cross"}
        for loss in losses.values:
            assert loss >= -1e-12

    def test_hand_composed_toy(self):
        # chain concat -> MLP -> residual -> loss by hand on d = 2
        d = 2
        params = CalibratorParams(d=d, d_h=2, master_seed=19)
        rng = np.random.default_rng(20)
        weights = {p.name: rng.normal(size=p.tensor.shape) for p in params.parameters()}
        for p in params.parameters():
            p.tensor.values[...] = weights[p.name]
        v, t = self.make_inputs(d=d, seed=21)
        cfg = TrainConfig(tau=1.5, alpha=0.7)
        calibrated = calibrate_views(v, params)
        losses = distill_losses(calibrated, t, 1, cfg, params)

        f_concat = v.values.reshape(-1)
        for slot in range(len(VIEWS)):
            f_raw, f_teacher = v.values[slot], t.values[slot]
            w1, b1 = weights["calib.mlp.W1"][slot], weights["calib.mlp.b1"][slot]
            w2, b2 = weights["calib.mlp.W2"][slot], weights["calib.mlp.b2"][slot]
            hw, hb = weights["calib.head.W"][slot], weights["calib.head.b"][slot]
            correction = np.maximum(f_concat @ w1 + b1, 0.0) @ w2 + b2
            f_hat = f_raw + correction
            assert np.allclose(calibrated.values[slot], f_hat, atol=1e-12)
            kl = np_kl(np_softmax(f_teacher, 1.5), np_softmax(f_hat, 1.5))
            logits = f_hat @ hw + hb
            ce = -(logits[1] - np.log(np.exp(logits - logits.max()).sum()) - logits.max())
            expected = 0.7 * 1.5**2 * kl + 0.3 * ce
            assert losses.values[slot] == pytest.approx(expected, abs=1e-10)

    def test_calibrated_views_keep_corrections(self):
        # calibrated = raw + correction(holistic context), bitwise
        params = CalibratorParams(d=4, d_h=8, master_seed=22)
        v, _ = self.make_inputs(seed=23)
        calibrated = calibrate_views(v, params)
        context = concat([reshape(v, (1, 12))] * 3, axis=-2)
        correction = linear(relu(linear(context, params.w1, params.b1)), params.w2, params.b2)
        for slot in range(len(VIEWS)):
            raw = v.values[slot]
            assert np.array_equal(calibrated.values[slot], raw + correction.values[slot])

    def test_hidden_width_floor(self):
        with pytest.raises(ConfigError, match="d_h"):
            TrainConfig(d=8, d_h=4).validate()

    def test_stacked_slices_keep_per_view_init(self):
        # every slice is drawn from its own per-view name and seed
        from mvrd.diffcore import make_parameter, parameter_seed

        params = CalibratorParams(d=4, d_h=8, master_seed=24)
        for slot, view in enumerate(VIEWS):
            name = f"calib.{view}.mlp.W1"
            w1 = make_parameter(name, (12, 8), "xavier_uniform", parameter_seed(24, name))
            assert np.array_equal(params.w1.tensor.values[slot], w1.tensor.values)
            name = f"calib.{view}.head.W"
            head = make_parameter(name, (4, 2), "xavier_uniform", parameter_seed(24, name))
            assert np.array_equal(params.head[0].tensor.values[slot], head.tensor.values)
