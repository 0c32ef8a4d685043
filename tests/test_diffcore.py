"""Op contracts: hand-derived values, error discipline, determinism."""

import math

import numpy as np
import pytest

from mvrd import diffcore
from mvrd.diffcore import (
    ContractError,
    DimensionError,
    ParameterError,
    Tensor,
    add,
    attention,
    backward,
    concat,
    cross_entropy,
    linear,
    make_parameter,
    mean,
    no_grad,
    relu,
    reshape,
    scale,
    tempered_kl,
)


def total(x):
    """Sum of all entries as a scalar, through reshape and a linear map onto ones."""
    n = int(np.prod(x.shape))
    return reshape(linear(reshape(x, (1, n)), np.ones((n, 1)), np.zeros(1)), ())


class TestStackedLinear:
    @pytest.mark.parametrize("slots", [1, 3])
    @pytest.mark.parametrize("lead", [(), (5,), (2, 4)])
    def test_matches_per_slot_loop(self, slots, lead):
        rng = np.random.default_rng(slots * 10 + len(lead))
        x = rng.normal(size=lead + (slots, 4))
        w = rng.normal(size=(slots, 4, 3))
        b = rng.normal(size=(slots, 3))
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        assert out.shape == lead + (slots, 3)
        assert out.values.flags["C_CONTIGUOUS"]
        for v in range(slots):
            expected = x[..., v, :] @ w[v] + b[v]
            assert np.allclose(out.values[..., v, :], expected, rtol=0, atol=1e-12)

    def test_one_slot_equals_plain_weight(self):
        rng = np.random.default_rng(7)
        x, w, b = rng.normal(size=(6, 1, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        stacked = linear(Tensor(x), Tensor(w[None]), Tensor(b[None]))
        plain = linear(Tensor(x[:, 0]), Tensor(w), Tensor(b))
        assert np.array_equal(stacked.values[:, 0], plain.values)

    @pytest.mark.parametrize(
        "x_shape, w_shape, b_shape",
        [
            ((2, 3, 4), (3, 4, 2), (2,)),  # bias not stacked
            ((2, 3, 4), (3, 4, 2), (2, 2)),  # bias slot count differs
            ((2, 3, 4), (3, 4, 2), (3, 3)),  # bias width differs
            ((2, 2, 4), (3, 4, 2), (3, 2)),  # x has 2 slots, W has 3
            ((2, 3, 5), (3, 4, 2), (3, 2)),  # x width differs from n_in
            ((4,), (3, 4, 2), (3, 2)),  # no slot axis
            ((2, 3, 4), (1, 3, 4, 2), (1, 3, 2)),  # 4-D weight
        ],
    )
    def test_shape_mismatch_rejected(self, x_shape, w_shape, b_shape):
        with pytest.raises(DimensionError):
            linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))


def softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def student_softmax(student, teacher, tau):
    """softmax(student/tau) of one row, read back from tempered_kl's gradient
    (q - p) / tau as tau * grad + p."""
    x = Tensor(student, requires_grad=True)
    backward(tempered_kl(x, teacher, tau))
    return tau * x.grad + softmax(teacher / tau)


class TestSoftmaxTemp:
    """The temperature softmax that both sides of ``tempered_kl`` go through."""

    def test_uniform_on_constant(self):
        # a constant row is the uniform distribution at any temperature
        out = tempered_kl(Tensor([5.0, 5.0, 5.0]), np.zeros(3), 3.7)
        assert out.item() == 0.0
        assert np.allclose(student_softmax([5.0, 5.0, 5.0], np.zeros(3), 3.7), 1.0 / 3.0, atol=1e-15)

    def test_hand_value(self):
        # teacher softmax([1, 2]) against a uniform student: sum p ln p + ln 2
        p0 = 0.2689414213699951
        expected = p0 * math.log(p0) + (1.0 - p0) * math.log(1.0 - p0) + math.log(2.0)
        out = tempered_kl(Tensor([0.0, 0.0]), np.array([1.0, 2.0]), 1.0)
        assert abs(out.item() - expected) < 1e-12
        q = student_softmax([1.0, 2.0], np.zeros(2), 1.0)
        assert abs(q[0] - p0) < 1e-12

    def test_high_temperature_limit(self):
        # both sides go uniform, so the divergence vanishes as 1/tau^2
        out = tempered_kl(Tensor([2.0, 1.0]), np.array([1.0, 2.0]), 1000.0)
        assert 0.0 < out.item() < 1.0 / 1000.0**2

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            x, t = rng.normal(scale=50.0, size=(2, n))
            q = student_softmax(x, t, float(rng.uniform(0.1, 10)))
            assert abs(q.sum() - 1.0) <= 1e-12
            assert np.all(q > -1e-12) and np.all(q <= 1.0 + 1e-12)

    def test_nonpositive_tau_rejected(self):
        for tau in (0.0, -1.0, float("nan")):
            with pytest.raises(ParameterError):
                tempered_kl(Tensor([1.0, 2.0]), np.zeros(2), tau)


def attention_reference(q, k, v, heads):
    """Per-head softmax(Q_h K_h^T / sqrt(d_k)) V_h in plain numpy, heads
    concatenated: the full (.., L_q, W) block, one row per query."""
    d_k = q.shape[-1] // heads
    outs = []
    for h in range(heads):
        cols = slice(h * d_k, (h + 1) * d_k)
        scores = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / math.sqrt(d_k)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        outs.append(e / e.sum(axis=-1, keepdims=True) @ v[..., cols])
    return np.concatenate(outs, axis=-1)


def attend(q, k, v, heads):
    """The attention op over given Q, K and V, which returns the block's mean over
    the queries: x_kv holds K and V side by side, W_K and W_V select them, and
    W_Q and W_O are identities."""
    width = q.shape[-1]
    eye, zero = np.eye(width), np.zeros((width, width))
    return attention(
        Tensor(q), Tensor(np.concatenate([k, v], axis=-1)),
        eye, np.vstack([eye, zero]), np.vstack([zero, eye]), eye, heads,
    )


def softmax_grad(s, g):
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def per_head_attention(x_q, x_kv, w_q, w_k, w_v, w_o, heads, g):
    """The attention op as a loop over the heads, each on contiguous copies of
    its columns, applied to Tensors: returns the output and adds the gradients
    for the upstream gradient g into the Tensors' grad buffers. The batched op
    must reproduce it bit for bit."""
    width = w_q.shape[1]
    lead, l_q = x_q.shape[:-2], x_q.shape[-2]
    q = np.matmul(x_q.values, w_q.values)
    k = np.matmul(x_kv.values, w_k.values)
    v = np.matmul(x_kv.values, w_v.values)
    d_k = width // heads
    inv_scale = float(1.0 / np.sqrt(d_k))
    cols = [np.s_[..., lo:lo + d_k] for lo in range(0, width, d_k)]
    saved = []
    for col in cols:
        q_h = q[col].copy()
        k_t = np.swapaxes(k[col], -1, -2).copy()
        v_h = v[col].copy()
        s = softmax(np.matmul(q_h, k_t) * inv_scale)
        saved.append((q_h, k_t, v_h, s, s.mean(axis=-2, keepdims=True)))
    pooled = np.concatenate([np.matmul(s_bar, v_h) for _, _, v_h, _, s_bar in saved], axis=-1)
    pooled = pooled.reshape(-1, width)

    def swap(a):
        return np.swapaxes(a, -1, -2)

    g = g.reshape(-1, w_o.shape[1])
    w_o.grad += pooled.T @ g
    g_heads = (g @ w_o.values.T).reshape(lead + (1, width))
    g_q, g_k, g_v = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    for col, (q_h, k_t, v_h, s, s_bar) in zip(cols, saved):
        g_h = g_heads[col]
        g_v[col] = np.matmul(swap(s_bar), g_h)
        g_scores = softmax_grad(s, np.matmul(g_h, swap(v_h)) / l_q) * inv_scale
        g_q[col] = np.matmul(g_scores, swap(k_t))
        g_k[col] = swap(np.matmul(swap(q_h), g_scores))
    for x, w, g_proj in ((x_kv, w_v, g_v), (x_kv, w_k, g_k), (x_q, w_q, g_q)):
        x.grad += np.matmul(g_proj, swap(w.values))
        w.grad += x.values.reshape(-1, w.shape[0]).T @ g_proj.reshape(-1, w.shape[1])
    return (pooled @ w_o.values).reshape(lead + (w_o.shape[1],))


class TestAttentionBitwise:
    """The op against ``per_head_attention`` at the shapes the model runs."""

    @pytest.mark.parametrize(
        "rows, l_q, l_kv, heads, self_attention",
        [(64, 8, 8, 4, True), (64, 4, 4, 4, False), (64, 1, 3, 8, False),
         (256, 8, 8, 4, True), (256, 1, 3, 8, False)],
        ids=["self-attention", "co-attention", "fusion", "predict-self", "predict-fusion"],
    )
    def test_equals_per_head_loop(self, rows, l_q, l_kv, heads, self_attention):
        rng = np.random.default_rng(rows + 10 * l_q + l_kv)
        width = 32
        x_q = rng.normal(size=(rows, l_q, width))
        x_kv = x_q if self_attention else rng.normal(size=(rows, l_kv, width))
        weights = [rng.uniform(-0.3, 0.3, size=(width, width)) for _ in range(4)]
        g = rng.normal(size=(rows, width))

        def tensors():
            tq = Tensor(x_q, requires_grad=True)
            tkv = tq if self_attention else Tensor(x_kv, requires_grad=True)
            return [tq, tkv] + [Tensor(w, requires_grad=True) for w in weights]

        ref = tensors()
        expected = per_head_attention(*ref, heads, g)
        got = tensors()
        out = attention(*got, heads)
        # sum(out * g) as a linear map onto g: the op's upstream gradient is g exactly
        n = out.values.size
        backward(reshape(linear(reshape(out, (1, n)), g.reshape(n, 1), np.zeros(1)), ()))
        assert np.array_equal(out.values, expected)
        names = ["x_q", "x_kv", "W_Q", "W_K", "W_V", "W_O"]
        for name, a, b in zip(names, got, ref):
            assert np.array_equal(a.grad, b.grad), name


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("l_q, l_kv", [(1, 3), (4, 2), (3, 3)])
    def test_matches_numpy_reference(self, heads, lead, l_q, l_kv):
        rng = np.random.default_rng(heads * 100 + l_q * 10 + l_kv + len(lead))
        q = rng.normal(size=lead + (l_q, 8))
        k = rng.normal(size=lead + (l_kv, 8))
        v = rng.normal(size=lead + (l_kv, 8))
        out = attend(q, k, v, heads)
        assert out.shape == lead + (8,)
        expected = attention_reference(q, k, v, heads).mean(axis=-2)
        assert np.allclose(out.values, expected, rtol=0, atol=1e-12)

    def test_projections_match_numpy_reference(self):
        # co-attention widths: d_q != d_kv, and a non-square W_O
        rng = np.random.default_rng(5)
        x_q, x_kv = rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 4, 6))
        w_q, w_k, w_v = rng.normal(size=(5, 4)), rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        w_o = rng.normal(size=(4, 7))
        out = attention(x_q, x_kv, w_q, w_k, w_v, w_o, 2)
        expected = (attention_reference(x_q @ w_q, x_kv @ w_k, x_kv @ w_v, 2) @ w_o).mean(axis=-2)
        assert out.shape == (2, 7)
        assert np.allclose(out.values, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("heads", [3, 0, 16, 2.0])
    def test_heads_must_divide_width(self, heads):
        x, w = Tensor(np.zeros((2, 8))), np.eye(8)
        with pytest.raises(DimensionError, match="heads"):
            attention(x, x, w, w, w, w, heads)

    @pytest.mark.parametrize(
        "x_q, x_kv, w_q, w_k, w_v, w_o, match",
        [
            ((2, 2, 8), (3, 3, 8), (8, 8), (8, 8), (8, 8), (8, 8), "inputs"),
            ((2, 8), (2, 3, 8), (8, 8), (8, 8), (8, 8), (8, 8), "inputs"),
            ((8,), (8,), (8, 8), (8, 8), (8, 8), (8, 8), "inputs"),
            ((2, 8), (3, 8), (8, 8), (8, 8), (8, 4), (8, 8), "weights"),
            ((2, 8), (3, 8), (8, 8), (8, 4), (8, 4), (8, 8), "weights"),
            ((2, 8), (3, 8), (8, 8), (8, 8), (6, 8), (8, 8), "weights"),
            ((2, 8), (3, 8), (8, 8), (8, 8), (8, 8), (4, 8), "weights"),
            ((2, 8), (3, 8), (8, 8), (8, 8), (8, 8), (1, 8, 8), "weights"),
            ((2, 6), (3, 8), (8, 8), (8, 8), (8, 8), (8, 8), "query dim 6"),
            ((2, 8), (3, 4), (8, 8), (8, 8), (8, 8), (8, 8), "key/value dim 4"),
        ],
        ids=[
            "leading-axes-differ", "one-side-batched", "no-position-axis", "k-v-widths-differ",
            "q-k-widths-differ", "k-v-rows-differ", "w_o-rows-differ", "w_o-not-2d",
            "x_q-width", "x_kv-width",
        ],
    )
    def test_shape_mismatch_rejected(self, x_q, x_kv, w_q, w_k, w_v, w_o, match):
        shapes = (x_q, x_kv, w_q, w_k, w_v, w_o)
        with pytest.raises(DimensionError, match=match):
            attention(*(Tensor(np.zeros(shape)) for shape in shapes), 1)

    def test_default_step_records_38_nodes(self):
        # each of the five attention blocks, projections and the mean over its
        # queries included, records a single attention node, the per-view
        # layers run once over the (B, 3, d) view tensor, and the tempered KL
        # is one node
        from mvrd.config import TrainConfig
        from mvrd.datasynth import SyntheticConfig, generate_dataset
        from mvrd.model import Model, StackedDataset

        dataset = generate_dataset(SyntheticConfig(n_samples=64, seed=1))
        batch = StackedDataset.from_samples(dataset)
        model = Model(TrainConfig(), batch.d_in)
        before = len(diffcore._state.tape)
        breakdown = model.forward_loss(batch)
        assert len(diffcore._state.tape) - before == 38
        backward(breakdown.graph)
        assert len(diffcore._state.tape) == 0


def numpy_kl(student, teacher, tau):
    """KL(softmax(teacher/tau) || softmax(student/tau)) row by row, from probabilities."""
    p, q = softmax(np.asarray(teacher) / tau), softmax(np.asarray(student) / tau)
    return (p * np.log(p / q)).sum(axis=-1)


class TestKLDivergence:
    def test_identical_distributions_exact_zero(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(scale=5.0, size=(4, 3, 8))
        out = tempered_kl(Tensor(logits), logits.copy(), 2.0)
        assert out.shape == (4, 3)
        assert np.array_equal(out.values, np.zeros((4, 3)))

    def test_hand_value(self):
        # p = (0.5, 0.5), q = (0.25, 0.75): 0.5*ln(0.5/0.25) + 0.5*ln(0.5/0.75)
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        out = tempered_kl(Tensor([0.0, 2.0 * math.log(3.0)]), np.zeros(2), 2.0)
        assert abs(out.item() - expected) < 1e-15
        assert abs(out.item() - 0.14384103622589045) < 1e-12

    def test_matches_numpy_kl(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, t = rng.normal(scale=3.0, size=(2, 5, 3, 6))
            tau = float(rng.uniform(0.5, 4.0))
            expected = numpy_kl(x, t, tau)
            assert np.allclose(tempered_kl(Tensor(x), t, tau).values, expected, rtol=1e-10, atol=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, t = rng.normal(scale=10.0, size=(2, 5))
            assert tempered_kl(Tensor(x), t, float(rng.uniform(0.1, 10.0))).item() >= 0.0

    def test_zero_times_log_zero(self):
        # logits 1,000 apart: the teacher's first probability underflows to 0
        # and adds exactly 0, and the value and gradient stay finite
        x = Tensor([0.0, 0.0], requires_grad=True)
        out = tempered_kl(x, np.array([0.0, 1000.0]), 1.0)
        assert abs(out.item() - math.log(2.0)) < 1e-12
        backward(out)
        assert np.array_equal(x.grad, [0.5, -0.5])
        far = Tensor([1000.0, -1000.0], requires_grad=True)
        out = tempered_kl(far, np.array([-1000.0, 1000.0]), 1.0)
        backward(out)
        assert out.item() == 2000.0
        assert np.array_equal(far.grad, [1.0, -1.0])

    def test_length_mismatch(self):
        for student, teacher in (([1.0], [0.5, 0.5]), (np.zeros((2, 3)), np.zeros((3, 2))), ([], [])):
            with pytest.raises(DimensionError):
                tempered_kl(Tensor(student), np.asarray(teacher), 1.0)


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert abs(cross_entropy(Tensor([0.0, 0.0]), 0).item() - math.log(2.0)) < 1e-15

    def test_hand_value(self):
        # -log(e^10 / (e^10 + e^-10)) = log(1 + e^-20)
        out = cross_entropy(Tensor([10.0, -10.0]), 0)
        assert out.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-6)
        assert out.item() == pytest.approx(2.061e-9, rel=1e-3)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            logits = rng.normal(size=4)
            c = rng.normal()
            a = cross_entropy(Tensor(logits), 2).item()
            b = cross_entropy(Tensor(logits + c), 2).item()
            assert abs(a - b) < 1e-10

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor([0.0, 1.0]), 2)
        with pytest.raises(IndexError):
            cross_entropy(Tensor([0.0, 1.0]), -1)

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 3))
        y = rng.integers(0, 3, size=6)
        batched = cross_entropy(Tensor(logits), y).values
        singles = [cross_entropy(Tensor(row), int(label)).item() for row, label in zip(logits, y)]
        assert np.array_equal(batched, np.array(singles))


class TestLinear:
    def test_identity(self):
        x = Tensor([1.5, -2.0])
        out = linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        assert np.array_equal(out.values, x.values)

    def test_hand_value(self):
        out = linear(Tensor([1.0, 1.0]), Tensor(np.eye(2)), Tensor([2.0, 3.0]))
        assert out.values.tolist() == [3.0, 4.0]

    def test_zero_input_gives_bias(self):
        b = np.array([1.0, -1.0, 0.5])
        out = linear(Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 3))), Tensor(b))
        assert np.array_equal(out.values, np.tile(b, (4, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            linear(Tensor([1.0, 2.0, 3.0]), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


class TestElementwiseOps:
    def test_add_identity_and_zero(self):
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(add(Tensor(x), Tensor(np.zeros(3))).values, x)
        assert np.array_equal(add(Tensor(x), Tensor(-x)).values, np.zeros(3))

    def test_add_hand_value(self):
        assert add(Tensor([1.0, 2.0]), Tensor([0.25, -4.0])).values.tolist() == [1.25, -2.0]

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_scale(self):
        x = np.array([1.0, -2.0])
        assert np.array_equal(scale(Tensor(x), 1.0).values, x)
        assert np.array_equal(scale(Tensor(x), 0.0).values, np.zeros(2))
        assert scale(Tensor(x), -2.5).values.tolist() == [-2.5, 5.0]

    def test_relu(self):
        assert relu(Tensor([1.0, 2.0])).values.tolist() == [1.0, 2.0]
        assert relu(Tensor([-1.0, -0.5])).values.tolist() == [0.0, 0.0]
        assert relu(Tensor([-3.0, 0.0, 2.0])).values.tolist() == [0.0, 0.0, 2.0]

    def test_concat(self):
        out = concat([Tensor([1.0, 2.0]), Tensor([3.0])])
        assert out.values.tolist() == [1.0, 2.0, 3.0]
        single = concat([Tensor([4.0, 5.0])])
        assert single.values.tolist() == [4.0, 5.0]
        with pytest.raises(DimensionError):
            concat([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2)))], axis=-1)

    def test_mean_and_sum(self):
        x = np.arange(6.0).reshape(2, 3)
        assert mean(Tensor(x)).item() == x.mean()
        assert np.array_equal(mean(Tensor(x), axis=0).values, x.mean(axis=0))

    def test_reshape_round_trip(self):
        x = np.arange(12.0).reshape(3, 4)
        out = reshape(reshape(Tensor(x), (2, 6)), (3, 4))
        assert np.array_equal(out.values, x)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        backward(total(x))
        assert np.array_equal(x.grad, np.ones(4))

    def test_dot_analytic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(reshape(linear(reshape(x, (1, 2)), reshape(x, (2, 1)), np.zeros(1)), ()))
        assert x.grad.tolist() == [2.0, 4.0]

    def test_detached_loss_leaves_grads_zero(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = total(Tensor([5.0, 6.0]))
        backward(loss)
        assert np.array_equal(x.grad, np.zeros(2))

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(add(x, x))

    def test_accumulation_across_backwards(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(total(x))
        backward(total(x))
        assert np.array_equal(x.grad, 2.0 * np.ones(2))

    def test_no_grad_disables_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            out = total(scale(x, 3.0))
        assert not out.requires_grad
        backward(total(x))  # only this graph exists
        assert np.array_equal(x.grad, np.ones(2))


class TestDeterminism:
    def test_ops_bit_identical_across_runs(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))

        def run():
            t = Tensor(x, requires_grad=True)
            out = linear(relu(t), w, np.zeros(2))
            loss = mean(tempered_kl(out, np.full((3, 2), 0.5), 2.0))
            backward(loss)
            return out.values.copy(), t.grad.copy(), loss.item()

        a, b = run(), run()
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert a[2] == b[2]


class TestParameter:
    def test_init_determined_by_scheme_seed_shape(self):
        p1 = make_parameter("w", (4, 3), "xavier_uniform", 123)
        p2 = make_parameter("w", (4, 3), "xavier_uniform", 123)
        assert np.array_equal(p1.tensor.values, p2.tensor.values)
        p3 = make_parameter("w", (4, 3), "xavier_uniform", 124)
        assert not np.array_equal(p1.tensor.values, p3.tensor.values)

    def test_xavier_bounds(self):
        p = make_parameter("w", (10, 6), "xavier_uniform", 0)
        limit = np.sqrt(6.0 / 16.0)
        assert np.all(np.abs(p.tensor.values) <= limit)

    def test_zeros_scheme(self):
        p = make_parameter("b", (5,), "zeros", 7)
        assert np.array_equal(p.tensor.values, np.zeros(5))

    def test_unknown_scheme(self):
        with pytest.raises(ParameterError):
            make_parameter("w", (2, 2), "orthogonal", 0)

    def test_name_keyed_seed_is_stable(self):
        assert diffcore.parameter_seed(0, "a.b") == diffcore.parameter_seed(0, "a.b")
        assert diffcore.parameter_seed(0, "a.b") != diffcore.parameter_seed(1, "a.b")
        assert diffcore.parameter_seed(0, "a.b") != diffcore.parameter_seed(0, "a.c")


class TestFiniteness:
    def test_every_op_finite_on_finite_inputs(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(scale=2.0, size=(4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        out = tempered_kl(relu(linear(x, w, b)), rng.normal(size=(4, 3)), 0.5)
        loss = mean(cross_entropy(linear(x, w, b), np.array([0, 1, 2, 0])))
        backward(loss)
        for t in (x, w, b, out):
            assert np.all(np.isfinite(t.values))
            if t.grad is not None:
                assert np.all(np.isfinite(t.grad))
