"""Full student model: encoders -> calibration -> fusion -> losses.

There is one forward path, and it is batched: a ``StackedDataset`` holds
one (B, L, d_in) token array per source, keyed by ``SOURCE_TAGS``, the
samples' ``Sample.tokens`` arrays stacked under the same keys;
``Model.encode_batch`` turns them into one (B, 3, d) tensor of mean-pooled
view features (slots in ``VIEWS`` order), ``calibrate_views`` adds the
predicted corrections, and ``Model.fuse`` pools over the view axis and
attends over the calibrated views. The views stay on that one tensor axis
down to the losses. Training slices minibatches out of one stacked dataset.
Prediction stacks one ``PREDICT_CHUNK`` of samples at a time, so a large
evaluation set never holds a second, stacked copy of itself in memory.

The model owns three parameter groups (view encoders, calibrator, fusion),
whose values and gradients live in two flat arrays, ``Model.values`` and
``Model.grads``, in ``parameters()`` order, and implements the run's
``TrainConfig.ablation`` (``config.ABLATIONS`` says what each row removes):
``encode_batch`` zeroes a dropped view's slot and skips the extractors or
the attention, and ``fuse`` skips the attention. A skipped attention block or
projection, and a dropped view's whole encoder, is never built or run, so
Adam and the checkpoint carry only parameters the run uses. At
``lambda_ == 0`` (the ``no_teacher`` row) the distillation subgraph is never
recorded, so teacher values provably cannot influence gradients.

``one_shape`` holds the one shape rule, which ``StackedDataset.from_samples``
and ``save_features_file`` apply: each source's token arrays, and the
teachers, share one shape across the samples.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .calibration import CalibratorParams, calibrate_views, distill_losses
from .config import ConfigError, TrainConfig
from .diffcore import (
    DimensionError, Parameter, Tensor, ValidationError, add, attention, concat, linear, mean,
    no_grad, pack_parameters, reshape, scale,
)
from .fusion import (
    FusionParams,
    LossBreakdown,
    classification_losses,
    cross_attention_fuse,
    total_loss,
)
from .views import SOURCE_TAGS, VIEWS, ViewEncoderParams

PREDICT_CHUNK = 256
# the ablations whose encoders mean-pool the raw tokens, with no attention
_ATTENTION_FREE = ("no_feature_extractors", "no_attention")
_NO_TEACHER = "lambda > 0 needs teacher embeddings; attach a teacher file or train with lambda = 0"


def check_fit(cfg: TrainConfig, d_in: dict[str, int], data: StackedDataset | None = None) -> None:
    """The rules that need both a run's config and its corpus: the encoder
    heads divide every input width, the ``no_feature_extractors`` ablation
    needs d_in == d, and, given the stacked corpus ``data`` and unless the run
    swaps its teacher out (``no_reasoning_prompts``), lambda > 0 needs a
    teacher and the teacher is d wide."""
    widths = sorted(set(d_in.values()))
    if cfg.encoder_heads < 1 or any(w % cfg.encoder_heads for w in widths):
        raise ValidationError(
            f"encoder heads={cfg.encoder_heads} must divide every input width {widths}"
        )
    if cfg.ablation == "no_feature_extractors":
        bad = {tag: dim for tag, dim in d_in.items() if dim != cfg.d}
        if bad:
            raise ConfigError(f"no_feature_extractors needs d_in == d == {cfg.d}, got {bad}")
    if data is None or cfg.ablation == "no_reasoning_prompts":
        return
    if data.teacher is None:
        if cfg.lambda_ > 0:
            raise ConfigError(_NO_TEACHER)
        return
    if data.teacher.shape[-1] != cfg.d:
        raise DimensionError(f"the teacher embeddings are {data.teacher.shape[-1]} wide, but d={cfg.d}")


def one_shape(what: str, shapes) -> tuple[int, ...]:
    """The shape of every sample's ``what``; none, or two, raise ``ValidationError``."""
    distinct = sorted(set(shapes))
    if not distinct:
        raise ValidationError("cannot stack an empty sample list")
    if len(distinct) > 1:
        raise ValidationError(f"every sample's {what} must have one shape, got {distinct}")
    return distinct[0]


def _stack(what: str, arrays: list[np.ndarray]) -> np.ndarray:
    one_shape(what, [a.shape for a in arrays])
    return np.stack(arrays)


@dataclass
class StackedDataset:
    """Samples stacked into arrays; ``batch`` slices rows out.

    ``tokens`` maps each of ``SOURCE_TAGS`` to the samples' (N, L, d_in)
    token array. ``teacher`` is the samples' (3, d) teacher arrays stacked
    into one (N, 3, d) array, view slots in ``VIEWS`` order, or None unless
    every sample has a teacher. ``from_samples`` checks the list with
    ``one_shape``: each source's sequences, and the teachers, must share one
    shape. Training stacks its whole set once; prediction stacks one
    ``PREDICT_CHUNK`` at a time, to keep its peak memory flat.
    """

    tokens: dict[str, np.ndarray]
    labels: np.ndarray
    teacher: np.ndarray | None

    @property
    def d_in(self) -> dict[str, int]:
        return {tag: a.shape[-1] for tag, a in self.tokens.items()}

    @classmethod
    def from_samples(cls, samples) -> "StackedDataset":
        tokens = {tag: _stack(tag, [s.tokens[tag] for s in samples]) for tag in SOURCE_TAGS}
        teachers = [s.teacher.values for s in samples if s.teacher is not None]
        teacher = _stack("teacher", teachers) if len(teachers) == len(samples) else None
        return cls(tokens, np.array([s.label for s in samples], dtype=np.int64), teacher)

    def batch(self, idx: np.ndarray) -> "StackedDataset":
        """The rows ``idx``, copied."""
        return StackedDataset(
            {tag: a[idx] for tag, a in self.tokens.items()},
            self.labels[idx],
            None if self.teacher is None else self.teacher[idx],
        )


class Model:
    """The trainable student, built from a TrainConfig and the dataset's d_in map."""

    def __init__(self, cfg: TrainConfig, d_in: dict[str, int]):
        check_fit(cfg.validate(), d_in)
        self.cfg = cfg
        self.d_in = dict(d_in)
        # only the groups the run's ablation uses are built; each parameter is
        # seeded by its own name, so the others start as in the full model
        self.encoder = ViewEncoderParams(
            d_in, cfg.d, cfg.encoder_heads, cfg.master_seed,
            attention=cfg.ablation not in _ATTENTION_FREE,
            projections=cfg.ablation != "no_feature_extractors",
            views=tuple(v for v in VIEWS if cfg.ablation != f"drop_{v}_view"),
        )
        self.calibrator = CalibratorParams(cfg.d, cfg.d_h, cfg.master_seed)
        self.fusion = FusionParams(
            cfg.d, cfg.heads, cfg.master_seed, attention=cfg.ablation != "no_attention"
        )
        self.values, self.grads = pack_parameters(self.parameters())

    def parameters(self) -> list[Parameter]:
        return self.encoder.parameters() + self.calibrator.parameters() + self.fusion.parameters()

    # -- forward ------------------------------------------------------------

    def encode_batch(self, batch: StackedDataset) -> Tensor:
        """The (B, 3, d) view features of a stacked batch, slots in ``VIEWS``
        order; a dropped view's slot is zeros, and its encoder never runs."""
        n, d = len(batch.labels), self.cfg.d
        tokens = {tag: Tensor(batch.tokens[tag]) for tag in SOURCE_TAGS}
        views = [self._encode_view(view, tokens) if view in self.encoder.views
                 else Tensor(np.zeros((n, d))) for view in VIEWS]
        return reshape(concat(views, axis=-1), (n, len(VIEWS), d))

    def _encode_view(self, view: str, tokens: dict[str, Tensor]) -> Tensor:
        """One view's (B, d) features: its sequences attended (or mean-pooled
        when the ablation is attention-free), then projected."""
        enc, ablation = self.encoder, self.cfg.ablation
        pool = ablation in _ATTENTION_FREE
        if view == "cross":
            clip_t, clip_i = tokens["clip-text"], tokens["clip-image"]
            pair = [mean(clip_i, axis=-2), mean(clip_t, axis=-2)] if pool else [
                attention(clip_i, clip_t, *enc.cross_i2t, enc.heads),
                attention(clip_t, clip_i, *enc.cross_t2i, enc.heads),
            ]
            if ablation == "no_feature_extractors":
                return scale(add(*pair), 0.5)
            return linear(concat(pair, axis=-1), *enc.cross_proj)
        x = tokens["text-tokens" if view == "text" else "image-patches"]
        block, proj = (enc.text_attn, enc.text_proj) if view == "text" else (enc.image_attn, enc.image_proj)
        x = mean(x, axis=-2) if pool else attention(x, x, *block, enc.heads)
        return x if ablation == "no_feature_extractors" else linear(x, *proj)

    def forward_loss(self, batch: StackedDataset) -> LossBreakdown:
        lam = self.cfg.lambda_
        if lam > 0 and batch.teacher is None:
            raise ConfigError(_NO_TEACHER)
        views = self.encode_batch(batch)
        calibrated = calibrate_views(views, self.calibrator)
        distill = None
        if batch.teacher is not None:
            # at lambda = 0 the values are report-only: computed outside the
            # tape so the teacher can never touch the parameter trajectory
            with no_grad() if lam == 0 else nullcontext():
                distill = distill_losses(
                    calibrated, batch.teacher, batch.labels, self.cfg, self.calibrator
                )
        f_final = self.fuse(calibrated)
        loss_final, loss_branch = classification_losses(f_final, views, batch.labels, self.fusion)
        return total_loss(loss_final, loss_branch, distill, self.cfg)

    def fuse(self, calibrated: Tensor) -> Tensor:
        """(B, 3, d) calibrated views to the (B, d) fused vector."""
        pooled = mean(calibrated, axis=-2)
        if self.cfg.ablation == "no_attention":
            return pooled
        return cross_attention_fuse(pooled, calibrated, self.fusion)

    # -- inference ----------------------------------------------------------

    def predict_logits(self, samples) -> np.ndarray:
        """Final-classifier logits, (N, 2), stacked ``PREDICT_CHUNK`` samples at a
        time; teacher embeddings are never needed."""
        if not samples:
            raise ValidationError("cannot predict on an empty sample list")
        out = []
        with no_grad():
            for start in range(0, len(samples), PREDICT_CHUNK):
                chunk = StackedDataset.from_samples(samples[start : start + PREDICT_CHUNK])
                if chunk.d_in != self.d_in:
                    raise ValidationError(
                        f"the samples have d_in {chunk.d_in}, but the model takes {self.d_in}"
                    )
                views = self.encode_batch(chunk)
                fused = self.fuse(calibrate_views(views, self.calibrator))
                out.append(linear(fused, *self.fusion.final_head).values)
        return np.concatenate(out, axis=0)
