"""Backward-vs-central-difference checks for every op, plus grad_check itself.

The finite-difference comparison is the module's independent oracle: each
trial perturbs one input entry at a time and recomputes the forward pass.
Trials use fixed seeds, so the suite is deterministic; 100 random trials per
op at h = 1e-5 must stay under relative error 1e-4, or within a few rounding
floors of the central difference where the gradient is too small to resolve.
"""

import zlib

import numpy as np
import pytest

from mvrd.diffcore import (
    ParameterError,
    Tensor,
    add,
    attention,
    backward,
    concat,
    cross_entropy,
    grad_check,
    linear,
    make_parameter,
    mean,
    no_grad,
    relu,
    reshape,
    scale,
    tempered_kl,
)

H = 1e-5
TOL = 1e-4
N_TRIALS = 100
# A central difference inherits the rounding of its two forward values: at one
# ulp each it is off by up to eps * (|f+| + |f-|) / (2h). The forward pass
# rounds at several ops (the op under test, then scalarize's weighted sum),
# not once, so an entry may also differ from the analytic gradient by this
# many such floors; a tempered-KL entry has been seen 3.05 floors off. A small
# analytic gradient is otherwise held to a relative bound finer than the
# difference itself can resolve.
FD_ROUNDING_OPS = 8


def scalarize(out, seed=0):
    """Reduce an op output to a scalar with fixed random weights."""
    n = int(np.prod(out.shape)) if out.shape else 1
    w = np.random.default_rng(seed).normal(size=n)
    row = reshape(out, (1, n))
    return reshape(linear(row, w.reshape(n, 1), np.zeros(1)), ())


def assert_grads_match_fd(build, tensors, tol=TOL):
    for t in tensors:
        t.zero_grad()
    backward(build())
    for t in tensors:
        values = t.values.reshape(-1)
        grads = t.grad.reshape(-1)
        for i in range(values.size):
            saved = values[i]
            values[i] = saved + H
            with no_grad():
                f_plus = build().item()
            values[i] = saved - H
            with no_grad():
                f_minus = build().item()
            values[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * H)
            floor = np.finfo(float).eps * (abs(f_plus) + abs(f_minus)) / (2.0 * H)
            bound = tol * max(abs(grads[i]), abs(numeric), 1e-8) + FD_ROUNDING_OPS * floor
            assert abs(grads[i] - numeric) < bound, f"entry {i}: analytic {grads[i]} vs fd {numeric}"


def trials(test_id):
    """100 deterministic rngs per op test, seeded from the test id's CRC-32
    (``hash`` of a str changes with each process's hash seed)."""
    base = zlib.crc32(test_id.encode())
    return [np.random.default_rng((base, k)) for k in range(N_TRIALS)]


def u(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


def test_linear_gradients():
    for rng in trials("linear"):
        x = Tensor(u(rng, 3, 4), requires_grad=True)
        w = Tensor(u(rng, 4, 3), requires_grad=True)
        b = Tensor(u(rng, 3), requires_grad=True)
        assert_grads_match_fd(lambda: scalarize(linear(x, w, b)), [x, w, b])


@pytest.mark.parametrize("slots", [1, 3])
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
def test_stacked_linear_gradients(slots, lead):
    # W (V, n_in, n_out) maps slot v of x's axis -2 through W[v] and b[v]
    for rng in trials(f"stacked-linear-{slots}-{lead}")[:30]:
        x = Tensor(u(rng, *lead, slots, 4), requires_grad=True)
        w = Tensor(u(rng, slots, 4, 3), requires_grad=True)
        b = Tensor(u(rng, slots, 3), requires_grad=True)
        assert_grads_match_fd(lambda: scalarize(linear(x, w, b)), [x, w, b])


def test_add_gradients():
    for rng in trials("add"):
        a = Tensor(u(rng, 2, 5), requires_grad=True)
        b = Tensor(u(rng, 2, 5), requires_grad=True)
        assert_grads_match_fd(lambda: scalarize(add(a, b)), [a, b])


def test_scale_gradients():
    for rng in trials("scale"):
        x = Tensor(u(rng, 4, 3), requires_grad=True)
        c = float(rng.uniform(-3, 3))
        assert_grads_match_fd(lambda: scalarize(scale(x, c)), [x])


def test_relu_gradients():
    for rng in trials("relu"):
        # keep inputs away from the kink, where central differences are invalid
        raw = u(rng, 4, 4)
        raw = np.where(np.abs(raw) < 1e-3, raw + np.sign(raw + 0.5) * 1e-2, raw)
        x = Tensor(raw, requires_grad=True)
        assert_grads_match_fd(lambda: scalarize(relu(x)), [x])


def test_concat_gradients():
    for rng in trials("concat"):
        a = Tensor(u(rng, 2, 3), requires_grad=True)
        b = Tensor(u(rng, 2, 4), requires_grad=True)
        assert_grads_match_fd(lambda: scalarize(concat([a, b], axis=-1)), [a, b])


def test_reshape_gradients():
    for rng in trials("reshape"):
        x = Tensor(u(rng, 2, 6), requires_grad=True)
        assert_grads_match_fd(lambda: scalarize(reshape(x, (3, 4))), [x])


def test_mean_gradients():
    for k, rng in enumerate(trials("mean")):
        x = Tensor(u(rng, 3, 4), requires_grad=True)
        axis = (None, 0, 1)[k % 3]
        assert_grads_match_fd(lambda: scalarize(mean(x, axis=axis)), [x])


def test_tempered_kl_gradients():
    # the student's temperature softmax, batched: one KL per row
    for rng in trials("softmax"):
        x = Tensor(u(rng, 2, 3, 5), requires_grad=True)
        teacher = u(rng, 2, 3, 5)
        tau = float(rng.uniform(0.3, 5.0))
        assert_grads_match_fd(lambda: scalarize(tempered_kl(x, teacher, tau)), [x])


# (heads, leading axes, L_q, L_kv, width); fusion attends with L_q = 1 over L_kv = 3
ATTENTION_CASES = [
    (1, (), 3, 3, 4),
    (2, (2,), 1, 3, 4),
    (4, (2,), 2, 3, 8),
    (2, (), 3, 1, 6),
    (4, (), 1, 3, 4),
]


def test_attention_gradients():
    # Q, K and V given directly: x_kv holds K and V side by side, W_K and W_V
    # select them, and W_Q and W_O are identities
    for k, rng in enumerate(trials("attention")):
        heads, lead, l_q, l_kv, width = ATTENTION_CASES[k % len(ATTENTION_CASES)]
        q = Tensor(u(rng, *lead, l_q, width), requires_grad=True)
        kk = Tensor(u(rng, *lead, l_kv, width), requires_grad=True)
        v = Tensor(u(rng, *lead, l_kv, width), requires_grad=True)
        eye, zero = np.eye(width), np.zeros((width, width))
        w_k, w_v = np.vstack([eye, zero]), np.vstack([zero, eye])

        def build():
            return scalarize(attention(q, concat([kk, v], axis=-1), eye, w_k, w_v, eye, heads))

        assert_grads_match_fd(build, [q, kk, v])


def test_attention_self_gradients():
    # one tensor as x_q and x_kv, identity projections: the Q, K and V
    # gradient paths accumulate
    eye = np.eye(4)
    for k, rng in enumerate(trials("attention-self")[:30]):
        x = Tensor(u(rng, 2, 3, 4), requires_grad=True)
        heads = (1, 2, 4)[k % 3]
        assert_grads_match_fd(lambda: scalarize(attention(x, x, eye, eye, eye, eye, heads)), [x])


@pytest.mark.parametrize("lead", [(), (2,)])
def test_attention_projection_gradients(lead):
    # co-attention widths (d_q = 3 != d_kv = 5) and a non-square W_O; every
    # input and all four weights get gradients
    for k, rng in enumerate(trials(f"attention-projections-{lead}")[:20]):
        heads = (1, 2)[k % 2]
        x_q = Tensor(u(rng, *lead, 2, 3), requires_grad=True)
        x_kv = Tensor(u(rng, *lead, 4, 5), requires_grad=True)
        # weights in [-0.5, 0.5]: scores of a few units keep the softmax off
        # saturation, where gradients shrink to the size of the FD roundoff
        w_q, w_k, w_v, w_o = (
            Tensor(u(rng, *shape) / 4.0, requires_grad=True)
            for shape in ((3, 4), (5, 4), (5, 4), (4, 6))
        )
        tensors = [x_q, x_kv, w_q, w_k, w_v, w_o]
        assert_grads_match_fd(lambda: scalarize(attention(*tensors, heads)), tensors)


def test_cross_entropy_gradients():
    for rng in trials("xent"):
        x = Tensor(u(rng, 4), requires_grad=True)
        y = int(rng.integers(0, 4))
        assert_grads_match_fd(lambda: cross_entropy(x, y), [x])


def test_kl_gradients_through_softmax():
    # the teacher side is a plain array; the gradient goes into the student
    for rng in trials("kl-q"):
        teacher = u(rng, 4)
        x = Tensor(u(rng, 4), requires_grad=True)
        tau = float(rng.uniform(0.5, 4.0))
        assert_grads_match_fd(lambda: tempered_kl(x, teacher, tau), [x])


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_quadratic_form():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4))
    p = make_parameter("theta", (4, 1), "xavier_uniform", 3)

    def f():
        # theta^T A theta; reshaping the (4, 1) column to (1, 4) is its transpose
        row = linear(reshape(p.tensor, (1, 4)), a, np.zeros(4))
        return reshape(linear(row, p.tensor, np.zeros(1)), ())

    report = grad_check(f, [p], h=1e-5, tol=1e-4)
    # central differences are exact for quadratics up to roundoff
    assert report.max_rel_error < 1e-8
    assert report.passed


def test_grad_check_constant_function():
    p = make_parameter("theta", (3, 1), "xavier_uniform", 8)

    def f():
        return mean(Tensor(np.array([2.0])))

    report = grad_check(f, [p], h=1e-5)
    assert report.max_rel_error == 0.0
    assert report.deterministic


def test_grad_check_flags_nondeterministic_f():
    p = make_parameter("theta", (2, 1), "xavier_uniform", 1)
    state = {"calls": 0}

    def f():
        state["calls"] += 1
        return mean(scale(p.tensor, float(state["calls"])))

    report = grad_check(f, [p], h=1e-5)
    assert not report.deterministic
    assert not report.passed


def test_grad_check_rejects_bad_step():
    p = make_parameter("theta", (2, 1), "xavier_uniform", 1)
    with pytest.raises(ParameterError):
        grad_check(lambda: mean(p.tensor), [p], h=1e-2)
    with pytest.raises(ParameterError):
        grad_check(lambda: mean(p.tensor), [p], h=1e-9)


def test_grad_check_restores_parameter_values():
    p = make_parameter("theta", (3, 2), "xavier_uniform", 4)
    before = p.tensor.values.copy()
    grad_check(lambda: mean(linear(p.tensor, reshape(p.tensor, (2, 3)), np.zeros(3))), [p])
    assert np.array_equal(p.tensor.values, before)
