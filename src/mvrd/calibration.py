"""Calibration distillation.

Each view's correction vector is predicted from the *concatenation* of all
three view features (holistic context), applied as an additive residual, and
trained against the gradient-free teacher embedding with a temperature-scaled
KL term plus an auxiliary per-view classification term:

    loss_v = alpha * tau^2 * KL(softmax(teacher/tau) || softmax(student/tau))
           + (1 - alpha) * CE(head_v(student), y)

The KL direction is fixed: teacher is the reference distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diffcore import (
    ContractError,
    DimensionError,
    Parameter,
    ParameterError,
    Tensor,
    ValidationError,
    add,
    concat,
    cross_entropy,
    kl_divergence,
    linear,
    make_parameter,
    mean,
    parameter_seed,
    relu,
    scale,
    softmax_temp,
)
from .views import VIEWS


@dataclass(frozen=True)
class DistillConfig:
    """Temperature, KL/CE mix, and which views contribute a distillation term."""

    tau: float = 2.0
    alpha: float = 0.5
    enabled_views: frozenset = frozenset(VIEWS)

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ParameterError(f"tau must be positive, got {self.tau}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha}")
        unknown = set(self.enabled_views) - set(VIEWS)
        if unknown:
            raise ValidationError(f"unknown views in enabled_views: {sorted(unknown)}")


class CalibratorParams:
    """Per-view correction MLPs (3d -> d_h -> d, ReLU) and auxiliary heads (d -> 2)."""

    def __init__(self, d: int, d_h: int | None = None, master_seed: int = 0):
        d_h = 2 * d if d_h is None else d_h
        if d_h < d:
            raise ValidationError(f"hidden width d_h={d_h} must be >= d={d}")
        self.d = d
        self.d_h = d_h

        def param(name, shape, scheme):
            full = f"calib.{name}"
            return make_parameter(full, shape, scheme, parameter_seed(master_seed, full))

        self.mlps = {}
        self.heads = {}
        for view in VIEWS:
            self.mlps[view] = (
                param(f"{view}.mlp.W1", (3 * d, d_h), "xavier_uniform"),
                param(f"{view}.mlp.b1", (d_h,), "zeros"),
                param(f"{view}.mlp.W2", (d_h, d), "xavier_uniform"),
                param(f"{view}.mlp.b2", (d,), "zeros"),
            )
            self.heads[view] = (
                param(f"{view}.head.W", (d, 2), "xavier_uniform"),
                param(f"{view}.head.b", (2,), "zeros"),
            )

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for view in VIEWS:
            out.extend(self.mlps[view])
            out.extend(self.heads[view])
        return out

    def zero_corrections(self) -> None:
        """Reset every correction MLP to the zero function (predictions then
        match an uncalibrated pipeline exactly)."""
        for view in VIEWS:
            for p in self.mlps[view]:
                p.tensor.values[...] = 0.0


def concat_views(v: dict[str, Tensor]) -> Tensor:
    """Concatenate the three view vectors in the fixed order text, image, cross."""
    dims = {v[view].shape[-1] for view in VIEWS}
    if len(dims) != 1:
        raise DimensionError(f"views disagree on dimension: {sorted(dims)}")
    return concat([v[view] for view in VIEWS], axis=-1)


def predict_correction(f_concat: Tensor, params: CalibratorParams, view: str) -> Tensor:
    """Two-layer ReLU MLP from the holistic 3d context to one view's correction."""
    if view not in VIEWS:
        raise ValidationError(f"unknown view {view!r}")
    w1, b1, w2, b2 = params.mlps[view]
    return linear(relu(linear(f_concat, w1, b1)), w2, b2)


def calibrate(f_v: Tensor, correction: Tensor) -> Tensor:
    """Apply a predicted correction as an additive residual."""
    if f_v.shape != correction.shape:
        raise DimensionError(f"calibrate shapes disagree: {f_v.shape} vs {correction.shape}")
    return add(f_v, correction)


def distill_loss(f_hat: Tensor, f_teacher: Tensor, y, cfg: DistillConfig, head) -> Tensor:
    """One view's distillation loss (mean over any leading batch axis)."""
    if f_teacher.requires_grad:
        raise ContractError("teacher embeddings must be gradient-free")
    if f_hat.shape != f_teacher.shape:
        raise DimensionError(
            f"student/teacher shapes disagree: {f_hat.shape} vs {f_teacher.shape}"
        )
    kl = kl_divergence(softmax_temp(f_teacher, cfg.tau), softmax_temp(f_hat, cfg.tau))
    ce = cross_entropy(linear(f_hat, *head), y)
    if kl.ndim > 0:
        kl = mean(kl)
        ce = mean(ce)
    return add(scale(kl, cfg.alpha * cfg.tau * cfg.tau), scale(ce, 1.0 - cfg.alpha))


def calibrate_views(v: dict[str, Tensor], params: CalibratorParams) -> dict[str, Tensor]:
    """Predict all three corrections from the shared context and apply them."""
    f_concat = concat_views(v)
    return {
        view: calibrate(v[view], predict_correction(f_concat, params, view)) for view in VIEWS
    }


def distill_losses(
    c: dict[str, Tensor], t: dict[str, Tensor], y, cfg: DistillConfig, params: CalibratorParams
) -> dict[str, Tensor]:
    """Distillation loss for each enabled view; disabled views contribute nothing
    (their teacher embedding is never touched). Disabled views are still
    calibrated: ``calibrate_views`` runs for every view."""
    return {
        view: distill_loss(c[view], t[view], y, cfg, params.heads[view])
        for view in VIEWS
        if view in cfg.enabled_views
    }
