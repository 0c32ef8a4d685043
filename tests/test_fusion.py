"""Fusion contracts: pooling, the stacked view set, cross-attention, and the
loss stack identities.

The views travel as one (.., 3, d) tensor, slots in text, image, cross order;
where a test reads one view it indexes that view's slot.
"""

import math

import numpy as np
import pytest

from mvrd.config import ConfigError, TrainConfig
from mvrd.datasynth import Sample
from mvrd.diffcore import Tensor, backward, linear, mean, reshape, zero_grads
from mvrd.fusion import (
    FusionParams,
    classification_losses,
    cross_attention_fuse,
    total_loss,
)
from mvrd.model import Model, StackedDataset
from mvrd.views import SOURCE_TAGS

TEXT, IMAGE, CROSS = range(3)


def weighted_sum(out, w):
    """sum(out * w) as a scalar tensor, through reshape and a linear map."""
    n = w.size
    return reshape(linear(reshape(out, (1, n)), w.reshape(n, 1), np.zeros(1)), ())


def views_of(t, i, c, requires_grad=False):
    return Tensor(np.stack([t, i, c]), requires_grad=requires_grad)


def pool(views):
    """Model.fuse with attention off: the mean over the view axis."""
    cfg = TrainConfig(d=4, d_h=8, heads=1, encoder_heads=1, ablation="no_attention")
    return Model(cfg, {tag: 4 for tag in SOURCE_TAGS}).fuse(views)


def encode_constant(model, t, i, c):
    """Model.encode_batch on one sample whose every token is t (text), i
    (image) or c (both clip sequences)."""
    rows = {"text-tokens": t, "image-patches": i, "clip-text": c, "clip-image": c}
    sample = Sample("x", 0, "none", {tag: np.tile(rows[tag], (2, 1)) for tag in SOURCE_TAGS})
    return model.encode_batch(StackedDataset.from_samples([sample]))


def raw_pooling_model(d):
    cfg = TrainConfig(d=d, d_h=2 * d, heads=1, encoder_heads=1, ablation="no_feature_extractors")
    return Model(cfg, {tag: d for tag in SOURCE_TAGS})


class TestPoolViews:
    def test_identical_views(self):
        v = [1.0, -2.0, 0.5, 3.0]
        out = pool(views_of(v, v, v))
        assert np.allclose(out.values, v, atol=1e-15)

    def test_arithmetic(self):
        out = pool(views_of([1.0, 0.0], [0.0, 1.0], [2.0, 2.0]))
        assert out.values.tolist() == [1.0, 1.0]

    def test_gradient_splits_equally(self):
        c = views_of([1.0, 2.0], [3.0, 4.0], [5.0, 6.0], requires_grad=True)
        backward(weighted_sum(pool(c), np.array([1.0, 0.0])))
        for f in c.grad:
            assert np.allclose(f, [1.0 / 3.0, 0.0], atol=1e-15)


class TestBuildViewSet:
    """Model.encode_batch stacks the views into one (B, 3, d) tensor."""

    def test_rows_read_back(self):
        t, i, c = [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]
        out = encode_constant(raw_pooling_model(2), t, i, c)
        assert out.shape == (1, 3, 2)
        assert np.array_equal(out.values[0], np.array([t, i, c]))

    def test_zeros(self):
        out = encode_constant(raw_pooling_model(3), [0.0] * 3, [0.0] * 3, [0.0] * 3)
        assert np.array_equal(out.values[0], np.zeros((3, 3)))

    def test_row_gradient_isolation(self):
        cfg = TrainConfig(d=2, d_h=4, heads=1, encoder_heads=1)
        model = Model(cfg, {tag: 2 for tag in SOURCE_TAGS})
        enc = model.encoder
        zero_grads(model.parameters())
        out = encode_constant(model, [1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
        w = np.zeros((1, 3, 2))
        w[0, IMAGE, 0] = 1.0  # touch only the image row
        backward(weighted_sum(out, w))
        groups = {
            TEXT: [*enc.text_attn, *enc.text_proj],
            IMAGE: [*enc.image_attn, *enc.image_proj],
            CROSS: [*enc.cross_i2t, *enc.cross_t2i, *enc.cross_proj],
        }
        assert all(np.array_equal(p.tensor.grad, np.zeros_like(p.tensor.grad)) for p in groups[TEXT])
        assert np.array_equal(enc.image_proj[0].tensor.grad[:, 1], np.zeros(2))
        assert np.array_equal(enc.image_proj[1].tensor.grad, np.array([1.0, 0.0]))
        assert all(np.array_equal(p.tensor.grad, np.zeros_like(p.tensor.grad)) for p in groups[CROSS])


class TestCrossAttentionFuse:
    def test_identical_rows_ignore_query(self):
        d = 8
        params = FusionParams(d=d, heads=4, master_seed=0)
        rng = np.random.default_rng(1)
        row = rng.normal(size=d)
        kv = Tensor(np.tile(row, (3, 1)))
        out_a = cross_attention_fuse(Tensor(rng.normal(size=d)), kv, params)
        out_b = cross_attention_fuse(Tensor(rng.normal(size=d)), kv, params)
        w_v, w_o = (p.tensor.values for p in params.attn[2:])
        expected = (row @ w_v) @ w_o
        assert np.allclose(out_a.values, expected, atol=1e-12)
        assert np.allclose(out_a.values, out_b.values, atol=1e-12)

    def test_uniform_weights_on_identical_views(self):
        # with three identical calibrated views the per-head weights are 1/3
        d = 8
        params = FusionParams(d=d, heads=4, master_seed=2)
        rng = np.random.default_rng(3)
        row = rng.normal(size=d)
        kv = np.tile(row, (3, 1))
        q = rng.normal(size=(1, d))
        w_q, w_k = (p.tensor.values for p in params.attn[:2])
        qp = q @ w_q
        kp = kv @ w_k
        d_k = d // 4
        for h in range(4):
            cols = slice(h * d_k, (h + 1) * d_k)
            scores = qp[:, cols] @ kp[:, cols].T * (1.0 / np.sqrt(d_k))
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            weights = e / e.sum(axis=-1, keepdims=True)
            assert np.all(np.abs(weights - 1.0 / 3.0) <= 1e-12)

    def test_hand_unrolled_single_head(self):
        d = 2
        params = FusionParams(d=d, heads=1, master_seed=4)
        rng = np.random.default_rng(5)
        mats = {p.name: rng.normal(size=p.tensor.shape) for p in params.attn}
        for p in params.attn:
            p.tensor.values[...] = mats[p.name]
        q = rng.normal(size=d)
        kv = rng.normal(size=(3, d))

        scores = (q @ mats["fusion.attn.W_Q"]) @ (kv @ mats["fusion.attn.W_K"]).T / np.sqrt(2.0)
        e = np.exp(scores - scores.max())
        weights = e / e.sum()
        expected = (weights @ (kv @ mats["fusion.attn.W_V"])) @ mats["fusion.attn.W_O"]

        out = cross_attention_fuse(Tensor(q), Tensor(kv), params)
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_softmax_saturation_picks_one_row(self):
        d = 4
        params = FusionParams(d=d, heads=1, master_seed=6)
        # identity projections isolate the softmax behaviour
        for p in params.attn:
            p.tensor.values[...] = np.eye(d)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        kv = np.array(
            [[60.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
        )
        out = cross_attention_fuse(Tensor(q), Tensor(kv), params)
        assert np.allclose(out.values, kv[0], atol=1e-9)

    def test_head_divisibility(self):
        # the fusion head count is the run's setting, checked by TrainConfig.validate
        with pytest.raises(ConfigError, match="heads"):
            TrainConfig(d=8, d_h=16, heads=3).validate()


class TestClassificationLosses:
    def test_zero_initialized_heads_give_log2(self):
        d = 4
        params = FusionParams(d=d, heads=2, master_seed=7)
        for w, b in [params.final_head, params.branch_head]:
            w.tensor.values[...] = 0.0
            b.tensor.values[...] = 0.0
        rng = np.random.default_rng(8)
        views = views_of(rng.normal(size=d), rng.normal(size=d), rng.normal(size=d))
        f_final = Tensor(rng.normal(size=d))
        loss_final, loss_branch = classification_losses(f_final, views, 0, params)
        assert abs(loss_final.item() - math.log(2.0)) < 1e-15
        assert abs(loss_branch.item() - 3.0 * math.log(2.0)) < 1e-15

    def test_hand_set_heads(self):
        d = 2
        params = FusionParams(d=d, heads=1, master_seed=9)
        rng = np.random.default_rng(10)
        weights = {}
        for w, b in [params.final_head, params.branch_head]:
            weights[w.name] = rng.normal(size=w.tensor.shape)
            weights[b.name] = rng.normal(size=b.tensor.shape)
            w.tensor.values[...] = weights[w.name]
            b.tensor.values[...] = weights[b.name]
        views_np = rng.normal(size=(3, d))
        f_final_np = rng.normal(size=d)

        def np_ce(logits, y):
            m = logits.max()
            return float(m + np.log(np.exp(logits - m).sum()) - logits[y])

        y = 1
        expected_final = np_ce(f_final_np @ weights["fusion.final.W"] + weights["fusion.final.b"], y)
        expected_branch = sum(
            np_ce(views_np[v] @ weights["fusion.branch.W"][v] + weights["fusion.branch.b"][v], y)
            for v in (TEXT, IMAGE, CROSS)
        )
        views = views_of(views_np[TEXT], views_np[IMAGE], views_np[CROSS])
        loss_final, loss_branch = classification_losses(Tensor(f_final_np), views, y, params)
        assert loss_final.item() == pytest.approx(expected_final, abs=1e-12)
        assert loss_branch.item() == pytest.approx(expected_branch, abs=1e-12)

    def test_label_out_of_range(self):
        d = 2
        params = FusionParams(d=d, heads=1, master_seed=11)
        views = views_of(np.zeros(d), np.zeros(d), np.zeros(d))
        with pytest.raises(IndexError):
            classification_losses(Tensor(np.zeros(d)), views, 2, params)


class TestTotalLoss:
    """total_loss takes the (3,) per-view distillation vector and reads lambda
    and the 0/1 view weights off the config; a view a test drops has weight 0."""

    def scalar(self, x):
        return mean(Tensor(np.array([x]), requires_grad=True))

    def vector(self, text=0.0, image=0.0, cross=0.0):
        return Tensor(np.array([text, image, cross]), requires_grad=True)

    def test_lambda_zero_equals_classification(self):
        cfg = TrainConfig(lambda_=0.0, ablation="drop_L_image")
        distill = self.vector(text=5.0, image=7.0, cross=3.0)
        breakdown = total_loss(self.scalar(0.7), self.scalar(1.1), distill, cfg)
        assert breakdown.total == breakdown.classification
        assert breakdown.classification == pytest.approx(1.8, abs=1e-15)
        # the dropped view is not reported; the others are, for the record
        assert breakdown.distill == {"text": 5.0, "cross": 3.0}

    def test_zero_distill_terms(self):
        cfg = TrainConfig(lambda_=3.0)
        breakdown = total_loss(self.scalar(0.7), self.scalar(1.1), self.vector(), cfg)
        assert breakdown.total == breakdown.classification

    def test_arithmetic(self):
        breakdown = total_loss(
            self.scalar(0.4),
            self.scalar(0.6),
            self.vector(text=0.1, image=9.9, cross=0.3),
            TrainConfig(lambda_=0.5, ablation="drop_L_image"),
        )
        assert breakdown.total == pytest.approx(1.2, abs=1e-12)
        assert set(breakdown.distill) == {"text", "cross"}

    def test_identities_within_tolerance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            lam = float(rng.uniform(0, 3))
            distill = self.vector(*rng.uniform(0, 2, size=3))
            breakdown = total_loss(
                self.scalar(float(rng.uniform(0, 2))),
                self.scalar(float(rng.uniform(0, 2))),
                distill,
                TrainConfig(lambda_=lam),
            )
            err_c, err_total = breakdown.identity_errors()
            assert err_c <= 1e-12
            assert err_total <= 1e-12

    def test_graph_backpropagates(self):
        final = self.scalar(0.5)
        branch = self.scalar(0.25)
        breakdown = total_loss(final, branch, None, TrainConfig())
        backward(breakdown.graph)
