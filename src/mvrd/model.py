"""Full student model: encoders -> calibration -> fusion -> losses.

There is one forward path, and it is batched: a ``StackedDataset`` holds
(B, L, d_in) token arrays per source, ``Model.encode_batch`` turns them into
per-view (B, d) mean-pooled features, ``calibrate_views`` adds the predicted
corrections, and ``Model.fuse`` attends over the calibrated views. Per-view
tensors are ``dict[str, Tensor]`` keyed by ``VIEWS``. Training slices
minibatches out of one stacked dataset; prediction stacks each chunk of
samples.

The model owns three parameter groups (view encoders, calibrator, fusion) and
implements the ablation switches from TrainConfig:

* ``drop_text_view`` / ``drop_image_view``: the view feature is replaced by a
  constant zero vector right after encoding, removing it everywhere downstream
* ``no_feature_extractors_mode``: view features are raw mean-pooled input
  tokens (requires d_in == d)
* ``no_attention_mode``: the attention step is skipped: encoders mean-pool
  and project the raw tokens, and fusion returns the pooled query itself
* ``no_teacher`` / lambda == 0: the distillation subgraph is never recorded,
  so teacher values provably cannot influence gradients

Stacking requires uniform sequence lengths per source across a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibratorParams, DistillConfig, calibrate_views, distill_losses
from .config import ConfigError, TrainConfig
from .diffcore import Parameter, Tensor, ValidationError, add, linear, mean, no_grad, scale
from .fusion import (
    FusionParams,
    LossBreakdown,
    build_view_set,
    classification_losses,
    cross_attention_fuse,
    pool_views,
    total_loss,
)
from .views import (
    SOURCE_TAGS,
    VIEWS,
    ViewEncoderParams,
    co_pool_and_project,
    multi_head_attention,
    pool_and_project,
)


def infer_d_in(samples) -> dict[str, int]:
    dims: dict[str, int] = {}
    for s in samples:
        for tag, seq in s.sequences().items():
            dims.setdefault(tag, seq.dim)
            if dims[tag] != seq.dim:
                raise ValidationError(
                    f"sample {s.sample_id!r}: {tag} has d_in={seq.dim}, expected {dims[tag]}"
                )
    if set(dims) != set(SOURCE_TAGS):
        raise ValidationError(f"dataset is missing sources: {set(SOURCE_TAGS) - set(dims)}")
    return dims


@dataclass
class StackedDataset:
    """Samples stacked into (N, L, d_in) arrays; ``batch`` slices rows out.

    ``teacher`` holds one (N, d) array per view, in ``VIEWS`` order.
    """

    text: np.ndarray
    image: np.ndarray
    clip_text: np.ndarray
    clip_image: np.ndarray
    labels: np.ndarray
    teacher: tuple[np.ndarray, np.ndarray, np.ndarray] | None

    @classmethod
    def from_samples(cls, samples, include_teacher: bool) -> "StackedDataset":
        if not samples:
            raise ValidationError("cannot stack an empty sample list")
        lengths = {
            tag: {s.sequences()[tag].length for s in samples} for tag in SOURCE_TAGS
        }
        ragged = {tag: sorted(ls) for tag, ls in lengths.items() if len(ls) > 1}
        if ragged:
            raise ValidationError(
                f"batched training requires uniform sequence lengths per source, got {ragged}"
            )
        stack = lambda tag: np.stack([s.sequences()[tag].tokens.values for s in samples])
        teacher = None
        if include_teacher:
            if any(s.teacher is None for s in samples):
                raise ValidationError("some samples have no teacher embeddings attached")
            teacher = tuple(
                np.stack([s.teacher.view(v).values for s in samples]) for v in VIEWS
            )
        return cls(
            text=stack("text-tokens"),
            image=stack("image-patches"),
            clip_text=stack("clip-text"),
            clip_image=stack("clip-image"),
            labels=np.array([s.label for s in samples], dtype=np.int64),
            teacher=teacher,
        )

    def batch(self, idx: np.ndarray) -> "StackedDataset":
        """The rows ``idx``, copied."""
        return StackedDataset(
            text=self.text[idx],
            image=self.image[idx],
            clip_text=self.clip_text[idx],
            clip_image=self.clip_image[idx],
            labels=self.labels[idx],
            teacher=None if self.teacher is None else tuple(arr[idx] for arr in self.teacher),
        )


class Model:
    """The trainable student, built from a TrainConfig and the dataset's d_in map."""

    def __init__(self, cfg: TrainConfig, d_in: dict[str, int]):
        cfg.validate()
        if cfg.no_feature_extractors_mode:
            bad = {tag: dim for tag, dim in d_in.items() if dim != cfg.d}
            if bad:
                raise ConfigError(
                    f"no_feature_extractors_mode needs d_in == d == {cfg.d}, got {bad}"
                )
        self.cfg = cfg
        self.d_in = dict(d_in)
        self.encoder = ViewEncoderParams(d_in, cfg.d, cfg.encoder_heads, cfg.master_seed)
        self.calibrator = CalibratorParams(cfg.d, cfg.d_h, cfg.master_seed)
        self.fusion = FusionParams(cfg.d, cfg.heads, cfg.master_seed)
        self.distill_cfg = DistillConfig(cfg.tau, cfg.alpha, cfg.enabled_views)

    def parameters(self) -> list[Parameter]:
        return self.encoder.parameters() + self.calibrator.parameters() + self.fusion.parameters()

    # -- forward ------------------------------------------------------------

    def encode_batch(self, batch: StackedDataset) -> dict[str, Tensor]:
        """Per-view (B, d) features of a stacked batch, keyed by ``VIEWS``."""
        cfg, enc = self.cfg, self.encoder
        text = Tensor(batch.text)
        image = Tensor(batch.image)
        clip_t = Tensor(batch.clip_text)
        clip_i = Tensor(batch.clip_image)
        if cfg.no_feature_extractors_mode:
            views = {
                "text": mean(text, axis=-2),
                "image": mean(image, axis=-2),
                "cross": scale(add(mean(clip_i, axis=-2), mean(clip_t, axis=-2)), 0.5),
            }
        else:
            if not cfg.no_attention_mode:
                text = multi_head_attention(text, text, enc.text_attn)
                image = multi_head_attention(image, image, enc.image_attn)
                clip_i, clip_t = (
                    multi_head_attention(clip_i, clip_t, enc.cross_i2t),
                    multi_head_attention(clip_t, clip_i, enc.cross_t2i),
                )
            views = {
                "text": pool_and_project(text, enc.text_proj),
                "image": pool_and_project(image, enc.image_proj),
                "cross": co_pool_and_project(clip_i, clip_t, enc),
            }
        if cfg.drop_text_view:
            views["text"] = Tensor(np.zeros((len(batch.labels), cfg.d)))
        if cfg.drop_image_view:
            views["image"] = Tensor(np.zeros((len(batch.labels), cfg.d)))
        return views

    def forward_loss(self, batch: StackedDataset) -> LossBreakdown:
        lam = self.cfg.lambda_effective
        views = self.encode_batch(batch)
        calibrated = calibrate_views(views, self.calibrator)
        teacher = None
        if batch.teacher is not None:
            teacher = {view: Tensor(arr) for view, arr in zip(VIEWS, batch.teacher)}
        if lam > 0 and teacher is None:
            raise ConfigError("distillation is enabled but the batch has no teacher embeddings")
        distill = {}
        if teacher is not None:
            args = (calibrated, teacher, batch.labels, self.distill_cfg, self.calibrator)
            if lam > 0:
                distill = distill_losses(*args)
            else:
                # report-only values: computed outside the tape so the teacher
                # can never touch the parameter trajectory
                with no_grad():
                    distill = distill_losses(*args)
        f_final = self.fuse(calibrated)
        loss_final, loss_branch = classification_losses(f_final, views, batch.labels, self.fusion)
        return total_loss(loss_final, loss_branch, distill, lam)

    def fuse(self, calibrated) -> Tensor:
        pooled = pool_views(calibrated)
        if self.cfg.no_attention_mode:
            return pooled
        return cross_attention_fuse(pooled, build_view_set(calibrated), self.fusion)

    # -- inference ----------------------------------------------------------

    def predict_logits(
        self, samples, chunk_size: int = 256, use_calibration: bool = True
    ) -> np.ndarray:
        """Final-classifier logits, (N, 2); teacher embeddings are never needed."""
        out = []
        with no_grad():
            for start in range(0, len(samples), chunk_size):
                chunk = samples[start : start + chunk_size]
                views = self.encode_batch(StackedDataset.from_samples(chunk, include_teacher=False))
                target = calibrate_views(views, self.calibrator) if use_calibration else views
                logits = linear(self.fuse(target), *self.fusion.final_head)
                out.append(logits.values)
        return np.concatenate(out, axis=0)
