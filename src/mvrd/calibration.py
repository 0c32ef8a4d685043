"""Calibration distillation.

The views travel as one (B, 3, d) tensor, slots in ``VIEWS`` order. Each
view's correction vector is predicted from the *concatenation* of all three
view features (holistic context: that tensor reshaped to (B, 3d)), applied as
an additive residual, and trained against the gradient-free teacher
embedding with a temperature-scaled KL term plus an auxiliary per-view
classification term:

    loss_v = alpha * tau^2 * KL(softmax(teacher/tau) || softmax(student/tau))
           + (1 - alpha) * CE(head_v(student), y)

Each per-view layer is one parameter with a slice per view, so all three
views run in one pass. The KL direction is fixed: teacher is the reference
distribution. tau, alpha and the per-view weights are the run's
``TrainConfig`` settings, checked by its ``validate``.
"""

from __future__ import annotations

from .config import TrainConfig
from .diffcore import (
    ContractError,
    DimensionError,
    Parameter,
    Tensor,
    add,
    concat,
    cross_entropy,
    kl_divergence,
    linear,
    mean,
    relu,
    reshape,
    scale,
    softmax_temp,
)
from .views import VIEWS, per_view_labels, stacked_parameter


class CalibratorParams:
    """Correction MLPs (3d -> d_h -> d per view, ReLU) and auxiliary heads
    (d -> 2), each parameter stacked over the view axis: slice v is view v's."""

    def __init__(self, d: int, d_h: int, master_seed: int = 0):
        self.d = d

        def param(name, shape, scheme):
            return stacked_parameter("calib.{view}." + name, shape, scheme, master_seed)

        self.w1 = param("mlp.W1", (3 * d, d_h), "xavier_uniform")
        self.b1 = param("mlp.b1", (d_h,), "zeros")
        self.w2 = param("mlp.W2", (d_h, d), "xavier_uniform")
        self.b2 = param("mlp.b2", (d,), "zeros")
        self.head = (param("head.W", (d, 2), "xavier_uniform"), param("head.b", (2,), "zeros"))

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2, *self.head]

    def zero_corrections(self) -> None:
        """Reset every correction MLP to the zero function (predictions then
        match an uncalibrated pipeline exactly)."""
        for p in (self.w1, self.b1, self.w2, self.b2):
            p.tensor.values[...] = 0.0


def calibrate_views(views: Tensor, params: CalibratorParams) -> Tensor:
    """Predict every view's correction from the shared (.., 3d) context and add it
    to that view: (.., 3, d) in, (.., 3, d) out.

    Each view slot gets its own copy of the context, so the first layer is one
    modest GEMM per view rather than one 3x wider GEMM, which OpenBLAS would
    spread over threads that contend inside the runners' worker processes.
    """
    n, d = len(VIEWS), params.d
    if views.ndim < 2 or views.shape[-2:] != (n, d):
        raise DimensionError(f"calibrate_views needs (.., {n}, {d}) views, got {views.shape}")
    context = reshape(views, views.shape[:-2] + (1, n * d))
    hidden = relu(linear(concat([context] * n, axis=-2), params.w1, params.b1))
    return add(views, linear(hidden, params.w2, params.b2))


def distill_losses(
    calibrated: Tensor, teacher: Tensor, y, cfg: TrainConfig, params: CalibratorParams
) -> Tensor:
    """The (3,) vector of per-view distillation losses, each a mean over the batch,
    at the run's ``cfg.tau`` and ``cfg.alpha``.

    ``calibrated`` and ``teacher`` are (B, 3, d), or (3, d) for one sample. Every
    view is computed; ``total_loss`` weights out the disabled ones with
    ``cfg.view_weights``.
    """
    if teacher.requires_grad:
        raise ContractError("teacher embeddings must be gradient-free")
    if calibrated.shape != teacher.shape:
        raise DimensionError(
            f"student/teacher shapes disagree: {calibrated.shape} vs {teacher.shape}"
        )
    kl = kl_divergence(softmax_temp(teacher, cfg.tau), softmax_temp(calibrated, cfg.tau))
    ce = cross_entropy(linear(calibrated, *params.head), per_view_labels(y))
    if kl.ndim > 1:
        kl = mean(kl, axis=0)
        ce = mean(ce, axis=0)
    return add(scale(kl, cfg.alpha * cfg.tau * cfg.tau), scale(ce, 1.0 - cfg.alpha))
