"""Student multi-view encoders.

Three views are produced from a sample's four embedded sequences, always as a
stacked batch of (B, L, d_in) token arrays:

* text view: multi-head self-attention over token embeddings, mean-pooled,
  projected
* image view: the same over patch embeddings
* cross view: bidirectional co-attention between the two aligned (clip-style)
  sequences, each direction mean-pooled, concatenated, projected

``Model.encode_batch`` composes the pieces: one ``diffcore.attention`` block
per sequence, which returns the block's mean over its query positions, then a
``linear`` projection to d (the cross view projects the concatenation of its
two directions, image first). The attention-free ablation mean-pools the raw
tokens instead. Each block's (W_Q, W_K, W_V, W_O) tuple comes from
``attention_params``. Both co-attention directions read the un-attended clip
tokens. No positional encodings are used, so attention + mean pooling is
permutation invariant over positions.

From the end of ``Model.encode_batch`` to the losses, the views travel as one
(B, 3, d) tensor, slots in ``VIEWS`` order; the per-view layers downstream
each hold one ``stacked_parameter`` with a slice per view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import (
    DimensionError,
    Parameter,
    Tensor,
    ValidationError,
    make_parameter,
    parameter_seed,
)

VIEWS = ("text", "image", "cross")
SOURCE_TAGS = ("text-tokens", "image-patches", "clip-text", "clip-image")


def check_d_in(d_in, error: type[Exception] = ValidationError, what: str = "d_in") -> None:
    """The one d_in rule: a dict whose keys are exactly ``SOURCE_TAGS``, each
    mapped to an int >= 1 (not a bool). ``error`` names ``what`` otherwise."""
    if not (
        isinstance(d_in, dict)
        and set(d_in) == set(SOURCE_TAGS)
        and all(type(v) is int and v >= 1 for v in d_in.values())
    ):
        raise error(f"{what} must map exactly the source tags {list(SOURCE_TAGS)} to ints >= 1, got {d_in!r}")


def stacked_parameter(slice_name: str, shape: tuple[int, ...], scheme: str, master_seed: int) -> Parameter:
    """One (3, *shape) parameter with a slice per view, in ``VIEWS`` order, named
    ``slice_name`` without its ``{view}.`` part. Slice v is initialised as the
    parameter ``slice_name.format(view=v)`` of ``shape`` would be."""
    names = [slice_name.format(view=view) for view in VIEWS]
    slices = [make_parameter(n, shape, scheme, parameter_seed(master_seed, n)).tensor.values for n in names]
    return Parameter(slice_name.replace("{view}.", ""), Tensor(np.stack(slices), requires_grad=True))


def per_view_labels(y) -> np.ndarray:
    """Labels (..) repeated for each view slot, (.., 3), to match per-view logits."""
    return np.repeat(np.asarray(y)[..., None], len(VIEWS), axis=-1)


@dataclass
class EmbeddedSequence:
    """One embedded input sequence: L positions, each a d_in-dim vector. Its
    source is the ``SOURCE_TAGS`` key it is held under."""

    tokens: Tensor

    def __post_init__(self):
        if self.tokens.ndim != 2 or self.tokens.shape[0] < 1:
            raise DimensionError(
                f"sequence tokens must be (L >= 1, d_in), got {self.tokens.shape}"
            )


def attention_params(prefix: str, d_q: int, d_kv: int, master_seed: int) -> tuple[Parameter, ...]:
    """(W_Q, W_K, W_V, W_O) of one attention block, named ``{prefix}.W_Q`` and so
    on, in the order ``diffcore.attention`` takes them. The block's width is
    d_q, so its output has the query's width."""

    def param(name, shape):
        full = f"{prefix}.{name}"
        return make_parameter(full, shape, "xavier_uniform", parameter_seed(master_seed, full))

    return (
        param("W_Q", (d_q, d_q)),
        param("W_K", (d_kv, d_q)),
        param("W_V", (d_kv, d_q)),
        param("W_O", (d_q, d_q)),
    )


class ViewEncoderParams:
    """All learnable parts of the three view encoders. Without ``attention``
    the four attention blocks are empty tuples, without ``projections`` so
    are the three projections, and so are both for a view not in ``views``:
    an ablation that skips a group or a view builds none of its parameters."""

    def __init__(
        self, d_in: dict[str, int], d: int, heads: int = 4, master_seed: int = 0,
        attention: bool = True, projections: bool = True, views: tuple[str, ...] = VIEWS,
    ):
        check_d_in(d_in)
        self.d_in = dict(d_in)
        self.d = d
        self.heads = heads
        self.views = views

        def proj(name, n_in):
            if not projections or name not in views:
                return ()
            w_name, b_name = f"views.{name}.proj.W", f"views.{name}.proj.b"
            w = make_parameter(w_name, (n_in, d), "xavier_uniform", parameter_seed(master_seed, w_name))
            b = make_parameter(b_name, (d,), "zeros", parameter_seed(master_seed, b_name))
            return w, b

        def attn(view, block, d_q, d_kv):
            if not attention or view not in views:
                return ()
            return attention_params(f"views.{view}.{block}", d_q, d_kv, master_seed)

        w_text = d_in["text-tokens"]
        w_image = d_in["image-patches"]
        w_ct, w_ci = d_in["clip-text"], d_in["clip-image"]
        self.text_attn = attn("text", "attn", w_text, w_text)
        self.image_attn = attn("image", "attn", w_image, w_image)
        # co-attention pair: image side queries text, and vice versa
        self.cross_i2t = attn("cross", "i2t", w_ci, w_ct)
        self.cross_t2i = attn("cross", "t2i", w_ct, w_ci)
        self.text_proj = proj("text", w_text)
        self.image_proj = proj("image", w_image)
        self.cross_proj = proj("cross", w_ci + w_ct)

    def parameters(self) -> list[Parameter]:
        return [
            *self.text_attn, *self.image_attn, *self.cross_i2t, *self.cross_t2i,
            *self.text_proj, *self.image_proj, *self.cross_proj,
        ]
