"""Property tests for the attention op and stacked ``linear`` over drawn shapes.

Shapes are drawn, not fixed: 0-2 lead axes, L_q and L_kv from 1 to 20 (so
below 8, 8 and above 8 all occur), a block width that is a multiple of the
head count up to 32, and 1-4 slots for a stacked ``linear``. Values come from
a drawn seed; attention's queries are sometimes scaled up a hundredfold, which
drives its softmax into saturation. Each op is checked against a plain-numpy
oracle and its gradients against central differences with
``assert_grads_match_fd``; the difference checks draw narrower widths, since
they run two forward passes per input entry.

Attention is also checked bit for bit against the per-head loop of
``test_diffcore.py``, at head widths d_k >= 4, which covers every head width
the model's defaults use. Below that the two differ in the last bits: with two
or more heads, d_k <= 3 and L_kv >= 4, numpy rounds the pooled product S V
over the strided (.., heads, L_kv, d_k) view of V differently from the same
product over a contiguous copy of each head.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvrd.diffcore import Tensor, attention, backward, linear, reshape

from test_diffcore import attention_reference, per_head_attention
from test_diffcore_gradients import assert_grads_match_fd, scalarize

OPS = settings(max_examples=60, deadline=None)
FD = settings(max_examples=12, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def attention_shapes(draw, max_width=32, max_lead=3, min_d_k=1):
    """(lead, l_q, l_kv, d_q, d_kv, width, n_out, heads, self_attention); the
    block width is heads * d_k with d_k >= min_d_k."""
    lead = tuple(draw(st.lists(st.integers(1, max_lead), max_size=2)))
    heads = draw(st.integers(1, min(8, max_width // min_d_k)))
    width = heads * draw(st.integers(min_d_k, max_width // heads))
    l_q, d_q, n_out = draw(st.integers(1, 20)), draw(st.integers(1, max_width)), draw(st.integers(1, max_width))
    self_attention = draw(st.booleans())
    l_kv, d_kv = (l_q, d_q) if self_attention else (draw(st.integers(1, 20)), draw(st.integers(1, max_width)))
    return lead, l_q, l_kv, d_q, d_kv, width, n_out, heads, self_attention


def attention_inputs(shape, seed, magnitude=1.0):
    """x_q, x_kv (x_q itself under self-attention) and (W_Q, W_K, W_V, W_O);
    weights in [-0.5, 0.5] keep the unscaled softmax off saturation."""
    lead, l_q, l_kv, d_q, d_kv, width, n_out, _, self_attention = shape
    rng = np.random.default_rng(seed)
    x_q = magnitude * rng.uniform(-2.0, 2.0, size=lead + (l_q, d_q))
    x_kv = x_q if self_attention else rng.uniform(-2.0, 2.0, size=lead + (l_kv, d_kv))
    weights = [rng.uniform(-0.5, 0.5, size=s) for s in ((d_q, width), (d_kv, width), (d_kv, width), (width, n_out))]
    return x_q, x_kv, weights


def as_tensors(x_q, x_kv, weights, self_attention):
    tq = Tensor(x_q, requires_grad=True)
    tkv = tq if self_attention else Tensor(x_kv, requires_grad=True)
    return [tq, tkv] + [Tensor(w, requires_grad=True) for w in weights]


MAGNITUDES = st.sampled_from([1.0, 100.0])


@OPS
@given(shape=attention_shapes(), seed=SEEDS, magnitude=MAGNITUDES)
def test_attention_matches_reference(shape, seed, magnitude):
    heads, self_attention = shape[-2:]
    x_q, x_kv, weights = attention_inputs(shape, seed, magnitude)
    w_q, w_k, w_v, w_o = weights
    block = attention_reference(x_q @ w_q, x_kv @ w_k, x_kv @ w_v, heads)
    expected = block.mean(axis=-2) @ w_o
    out = attention(*as_tensors(x_q, x_kv, weights, self_attention), heads)
    assert out.shape == expected.shape
    np.testing.assert_allclose(out.values, expected, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(expected).max()))


@OPS
@given(shape=attention_shapes(min_d_k=4), seed=SEEDS, magnitude=MAGNITUDES)
def test_attention_equals_per_head_loop_bitwise(shape, seed, magnitude):
    # forward and every gradient, for one upstream gradient g
    heads, self_attention = shape[-2:]
    x_q, x_kv, weights = attention_inputs(shape, seed, magnitude)
    got = as_tensors(x_q, x_kv, weights, self_attention)
    out = attention(*got, heads)
    g = np.random.default_rng(seed + 1).normal(size=out.shape)
    ref = as_tensors(x_q, x_kv, weights, self_attention)
    assert np.array_equal(out.values, per_head_attention(*ref, heads, g))
    n = out.values.size
    backward(reshape(linear(reshape(out, (1, n)), g.reshape(n, 1), np.zeros(1)), ()))
    for name, a, b in zip(["x_q", "x_kv", "W_Q", "W_K", "W_V", "W_O"], got, ref):
        assert np.array_equal(a.grad, b.grad), name


@FD
@given(shape=attention_shapes(max_width=8, max_lead=2), seed=SEEDS)
def test_attention_gradients_match_central_differences(shape, seed):
    heads, self_attention = shape[-2:]
    tensors = as_tensors(*attention_inputs(shape, seed), self_attention)
    distinct = tensors[1:] if self_attention else tensors
    assert_grads_match_fd(lambda: scalarize(attention(*tensors, heads), seed % 1000), distinct)


@st.composite
def linear_shapes(draw, max_width=32):
    """(lead, slots, n_in, n_out) of a stacked linear."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    return lead, draw(st.integers(1, 4)), draw(st.integers(1, max_width)), draw(st.integers(1, max_width))


def linear_inputs(shape, seed):
    lead, slots, n_in, n_out = shape
    rng = np.random.default_rng(seed)
    return (Tensor(rng.uniform(-2.0, 2.0, size=s), requires_grad=True)
            for s in (lead + (slots, n_in), (slots, n_in, n_out), (slots, n_out)))


@OPS
@given(shape=linear_shapes(), seed=SEEDS)
def test_stacked_linear_matches_per_slot_products(shape, seed):
    x, w, b = linear_inputs(shape, seed)
    expected = np.einsum("...vi,vio->...vo", x.values, w.values) + b.values
    out = linear(x, w, b)
    assert out.shape == expected.shape
    np.testing.assert_allclose(out.values, expected, rtol=1e-12, atol=1e-12 * shape[2])


@FD
@given(shape=linear_shapes(max_width=8), seed=SEEDS)
def test_stacked_linear_gradients_match_central_differences(shape, seed):
    x, w, b = linear_inputs(shape, seed)
    assert_grads_match_fd(lambda: scalarize(linear(x, w, b), seed % 1000), [x, w, b])
