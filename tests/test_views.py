"""View encoder contracts: shapes, symmetry, hand-unrolled attention oracle.

The encoders run only batched, through ``Model.encode_batch``, which returns
one (B, 3, d) tensor with the views in text, image, cross slots; the oracles
below read one slot for a one-row batch, or call the building blocks directly:
``diffcore.attention``, which returns each block's mean over its queries, and
the ``linear`` projection that follows it.
"""

import numpy as np
import pytest

from mvrd.config import TrainConfig
from mvrd.datasynth import Sample
from mvrd.diffcore import (
    DimensionError, Tensor, ValidationError, attention, backward, linear, mean, zero_grads,
)
from mvrd.model import Model, StackedDataset, check_fit
from mvrd.views import SOURCE_TAGS, EmbeddedSequence, ViewEncoderParams

TEXT, IMAGE, CROSS = range(3)


def make_model(d=6, heads=2, seed=0, d_in=8, **overrides):
    cfg = TrainConfig(d=d, d_h=2 * d, heads=1, encoder_heads=heads, master_seed=seed, **overrides)
    return Model(cfg, {tag: d_in for tag in SOURCE_TAGS})


def sample_of(text, image, clip_text, clip_image, sample_id="x"):
    seqs = [EmbeddedSequence(Tensor(tokens)) for tokens in (text, image, clip_text, clip_image)]
    return Sample(sample_id, 0, "none", *seqs)


def rand_sample(rng, d_in=8, lt=5, li=4, lc=3, sample_id="x"):
    return sample_of(
        rng.normal(size=(lt, d_in)),
        rng.normal(size=(li, d_in)),
        rng.normal(size=(lc, d_in)),
        rng.normal(size=(lc, d_in)),
        sample_id,
    )


def encode(model, samples):
    return model.encode_batch(StackedDataset.from_samples(samples))


def encode_text(model, tokens):
    """The text view of (..., L, d_in) tokens, through the encoder blocks."""
    enc = model.encoder
    x = Tensor(tokens)
    return linear(attention(x, x, *enc.text_attn, enc.heads), *enc.text_proj)


class TestEmbeddedSequence:
    def test_rejects_empty_or_flat(self):
        with pytest.raises(Exception):
            EmbeddedSequence(Tensor(np.zeros((0, 4))))
        with pytest.raises(Exception):
            EmbeddedSequence(Tensor(np.zeros(4)))


class TestSelfAttentionPool:
    def test_shape_contract_across_lengths(self):
        model = make_model()
        for length in (1, 2, 7, 64):
            rng = np.random.default_rng(length)
            out = encode_text(model, rng.normal(size=(3, length, 8)))
            assert out.shape == (3, 6)

    def test_single_position_is_projection_chain(self):
        # with L = 1 the attention weights are [1], so the output is the
        # projection chain applied to the single token
        model = make_model()
        enc = model.encoder
        rng = np.random.default_rng(1)
        token = rng.normal(size=(1, 8))
        out = encode_text(model, token)

        wq, wk, wv, wo = (p.tensor.values for p in enc.text_attn)
        w, b = enc.text_proj[0].tensor.values, enc.text_proj[1].tensor.values
        expected = ((token @ wv) @ wo)[0] @ w + b  # weights=[1] make W_Q/W_K irrelevant
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_identical_tokens_match_single_position(self):
        model = make_model()
        rng = np.random.default_rng(2)
        token = rng.normal(size=(1, 8))
        repeated = np.tile(token, (5, 1))
        out_rep = encode_text(model, repeated)
        out_one = encode_text(model, token)
        assert np.allclose(out_rep.values, out_one.values, atol=1e-12)

    def test_hand_unrolled_single_head(self):
        model = make_model(d=2, heads=1, d_in=2)
        enc = model.encoder
        wq = np.array([[1.0, 0.0], [0.0, 1.0]])
        wk = np.array([[0.5, -1.0], [2.0, 0.0]])
        wv = np.array([[1.0, 1.0], [-1.0, 0.5]])
        wo = np.array([[2.0, 0.0], [0.0, -1.0]])
        pw = np.array([[1.0, 2.0], [3.0, -1.0]])
        pb = np.array([0.1, -0.2])
        for p, v in zip(enc.text_attn, (wq, wk, wv, wo)):
            p.tensor.values[...] = v
        enc.text_proj[0].tensor.values[...] = pw
        enc.text_proj[1].tensor.values[...] = pb

        x = np.array([[1.0, 2.0], [-1.0, 0.5]])
        scores = (x @ wq) @ (x @ wk).T / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)
        expected = ((weights @ (x @ wv)) @ wo).mean(axis=0) @ pw + pb

        other = np.zeros((1, 2))
        views = encode(model, [sample_of(x, other, other, other)])
        assert np.allclose(views.values[0, TEXT], expected, atol=1e-12)

    def test_permutation_invariance(self):
        model = make_model()
        rng = np.random.default_rng(3)
        tokens = rng.normal(size=(7, 8))
        base = encode_text(model, tokens).values
        for _ in range(5):
            perm = rng.permutation(7)
            out = encode_text(model, tokens[perm]).values
            assert np.allclose(out, base, atol=1e-10)

    def test_d_in_mismatch_rejected(self):
        model = make_model()
        with pytest.raises(DimensionError, match="5"):
            encode_text(model, np.zeros((2, 5)))


class TestCoAttention:
    def test_single_identical_token_symmetry(self):
        # with one identical token on both sides and shared direction params,
        # both directional outputs equal the same pooled vector
        model = make_model(d=3, heads=1, d_in=4)
        enc = model.encoder
        for p_i2t, p_t2i in zip(enc.cross_i2t, enc.cross_t2i):
            p_t2i.tensor.values[...] = p_i2t.tensor.values
        token = np.random.default_rng(5).normal(size=(1, 4))
        out = encode(model, [sample_of(token, token, token, token)]).values[:, CROSS]

        wv, wo = (p.tensor.values for p in enc.cross_i2t[2:])
        pooled = ((token @ wv) @ wo)[0]
        w, b = enc.cross_proj[0].tensor.values, enc.cross_proj[1].tensor.values
        expected = np.concatenate([pooled, pooled]) @ w + b
        assert np.allclose(out[0], expected, atol=1e-12)

    def test_single_key_gives_unit_weight(self):
        # one position on the text side: image->text attention must output that
        # single value row for every query regardless of content, so their
        # mean is that row too
        model = make_model(d=3, heads=2, d_in=4)
        enc = model.encoder
        rng = np.random.default_rng(6)
        img = rng.normal(size=(3, 4))
        txt = rng.normal(size=(1, 4))
        attended = attention(Tensor(img), Tensor(txt), *enc.cross_i2t, enc.heads)
        wv, wo = (p.tensor.values for p in enc.cross_i2t[2:])
        expected = ((txt @ wv) @ wo)[0]
        assert attended.shape == expected.shape
        assert np.allclose(attended.values, expected, atol=1e-12)

    def test_hand_unrolled(self):
        model = make_model(d=2, heads=1, d_in=2)
        enc = model.encoder
        rng = np.random.default_rng(7)
        mats = {p.name: rng.normal(size=p.tensor.shape) for p in enc.parameters()}
        for p in enc.parameters():
            p.tensor.values[...] = mats[p.name]

        a = np.array([[0.3, -1.2], [2.0, 0.1]])  # clip-image
        b = np.array([[1.0, 0.5], [-0.4, 0.9]])  # clip-text

        def direction(q_tokens, kv_tokens, block):
            wq, wk, wv, wo = (p.tensor.values for p in block)
            q, k, v = q_tokens @ wq, kv_tokens @ wk, kv_tokens @ wv
            scores = q @ k.T / np.sqrt(2.0)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights = e / e.sum(axis=1, keepdims=True)
            return ((weights @ v) @ wo).mean(axis=0)

        pooled = np.concatenate(
            [direction(a, b, enc.cross_i2t), direction(b, a, enc.cross_t2i)]
        )
        expected = pooled @ enc.cross_proj[0].tensor.values + enc.cross_proj[1].tensor.values
        other = np.zeros((1, 2))
        out = encode(model, [sample_of(other, other, b, a)]).values[:, CROSS]
        assert np.allclose(out[0], expected, atol=1e-12)


class TestEncodeViews:
    def test_output_dims(self):
        model = make_model(d=6)
        rng = np.random.default_rng(8)
        views = encode(model, [rand_sample(rng) for _ in range(3)])
        assert views.shape == (3, 3, 6)
        for slot in (TEXT, IMAGE, CROSS):
            assert views.values[:, slot].shape == (3, 6)

    def test_image_patch_permutation_invariance(self):
        model = make_model(d=6, heads=1)
        rng = np.random.default_rng(9)
        s = rand_sample(rng)
        base = encode(model, [s]).values[:, IMAGE]
        perm = rng.permutation(s.image_seq.tokens.shape[0])
        permuted = sample_of(
            s.text_seq.tokens.values,
            s.image_seq.tokens.values[perm],
            s.clip_text_seq.tokens.values,
            s.clip_image_seq.tokens.values,
        )
        out = encode(model, [permuted]).values[:, IMAGE]
        assert np.allclose(out, base, atol=1e-10)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(10)
        tokens = {tag: rng.normal(size=(3, 8)) for tag in SOURCE_TAGS}
        s = sample_of(*(tokens[tag] for tag in SOURCE_TAGS))

        def run():
            views = encode(make_model(d=6, seed=42), [s])
            return [views.values[:, slot] for slot in (TEXT, IMAGE, CROSS)]

        a, b = run(), run()
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_every_parameter_gets_gradient(self):
        model = make_model(d=6)
        params = model.encoder.parameters()
        rng = np.random.default_rng(11)
        zero_grads(params)
        views = encode(model, [rand_sample(rng) for _ in range(8)])  # a generic batch
        backward(mean(views))
        total = sum(int(np.prod(p.tensor.shape)) for p in params)
        nonzero = sum(int((p.tensor.grad != 0).sum()) for p in params)
        assert nonzero / total >= 0.99

    @pytest.mark.parametrize("no_attention", [False, True])
    def test_batch_equals_its_rows(self, no_attention):
        # GEMM results for a row may differ in the last bits with the row count
        model = make_model(d=6, ablation="no_attention" if no_attention else "full")
        rng = np.random.default_rng(13)
        samples = [rand_sample(rng, sample_id=f"s{i}") for i in range(5)]
        batched = encode(model, samples)
        for i, s in enumerate(samples):
            row = encode(model, [s])
            for slot in (TEXT, IMAGE, CROSS):
                assert np.allclose(batched.values[i, slot], row.values[0, slot],
                                   rtol=0, atol=1e-12)


def test_head_divisibility_enforced():
    # every encoder attention block has its input's width
    d_in = {tag: 8 for tag in SOURCE_TAGS}
    for heads, widths in ((3, d_in), (0, d_in), (4, {**d_in, "clip-image": 6})):
        with pytest.raises(ValidationError, match="heads"):
            check_fit(TrainConfig(d=6, encoder_heads=heads), widths)


@pytest.mark.parametrize(
    "change",
    [{"audio": 5}, {"clip-image": 0}, {"clip-image": True}],
    ids=["extra-source", "zero-width", "bool-width"],
)
def test_d_in_must_name_exactly_the_source_tags(change):
    d_in = {**{tag: 8 for tag in SOURCE_TAGS}, **change}
    with pytest.raises(ValidationError, match="exactly the source tags"):
        ViewEncoderParams(d_in, d=8)
