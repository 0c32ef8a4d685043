"""Multi-view fusion and the loss stack.

The calibrated views arrive as one (B, 3, d) tensor, slots in ``VIEWS``
order. Their mean over the view axis queries that same tensor through one
multi-head cross-attention block; with its single query position, the
block's mean over queries, which ``diffcore.attention`` returns, is the
(B, d) fused vector, and it feeds the final classifier. One stacked branch
head supervises the *uncalibrated* view features, and the total training
objective combines classification with the weighted per-view distillation
losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .diffcore import (
    Parameter,
    Tensor,
    add,
    attention,
    cross_entropy,
    linear,
    make_parameter,
    mean,
    parameter_seed,
    reshape,
    scale,
)
from .views import VIEWS, attention_params, per_view_labels, stacked_parameter


class FusionParams:
    """Cross-attention projections, the final classifier, and the branch heads
    stacked over the view axis. Without ``attention`` the projections are an
    empty tuple, for the ablation that fuses by pooling alone."""

    def __init__(self, d: int, heads: int = 8, master_seed: int = 0, attention: bool = True):
        self.d = d
        self.heads = heads
        self.attn = attention_params("fusion.attn", d, d, master_seed) if attention else ()
        w_name, b_name = "fusion.final.W", "fusion.final.b"
        self.final_head = (
            make_parameter(w_name, (d, 2), "xavier_uniform", parameter_seed(master_seed, w_name)),
            make_parameter(b_name, (2,), "zeros", parameter_seed(master_seed, b_name)),
        )
        self.branch_head = (
            stacked_parameter("fusion.branch.{view}.W", (d, 2), "xavier_uniform", master_seed),
            stacked_parameter("fusion.branch.{view}.b", (2,), "zeros", master_seed),
        )

    def parameters(self) -> list[Parameter]:
        return [*self.attn, *self.final_head, *self.branch_head]


def cross_attention_fuse(query: Tensor, view_set: Tensor, params: FusionParams) -> Tensor:
    """Single cross-attention pass: the (.., d) query attends over the (.., 3, d) views."""
    q_seq = reshape(query, query.shape[:-1] + (1, query.shape[-1]))
    return attention(q_seq, view_set, *params.attn, params.heads)


def _mean_ce(logits: Tensor, y) -> Tensor:
    ce = cross_entropy(logits, y)
    return mean(ce) if ce.ndim > 0 else ce


def classification_losses(
    f_final: Tensor, raw_views: Tensor, y, params: FusionParams
) -> tuple[Tensor, Tensor]:
    """Final-head CE plus the branch CEs on the (.., 3, d) pre-calibration
    features, summed over views (each view's CE a mean over the batch)."""
    loss_final = _mean_ce(linear(f_final, *params.final_head), y)
    branch_logits = linear(raw_views, *params.branch_head)
    loss_branch = scale(_mean_ce(branch_logits, per_view_labels(y)), len(VIEWS))
    return loss_final, loss_branch


@dataclass
class LossBreakdown:
    """Float snapshot of one step's losses plus the live total for backward."""

    final: float
    branch: float
    classification: float
    distill: dict[str, float]
    total: float
    lambda_: float
    graph: Tensor | None = field(default=None, repr=False, compare=False)

    def identity_errors(self) -> tuple[float, float]:
        distill_sum = sum(self.distill[view] for view in VIEWS if view in self.distill)
        return (
            abs(self.classification - (self.final + self.branch)),
            abs(self.total - (self.classification + self.lambda_ * distill_sum)),
        )


def total_loss(
    loss_final: Tensor, loss_branch: Tensor, distill: Tensor | None, cfg: TrainConfig
) -> LossBreakdown:
    """Assemble the total objective: classification + ``cfg.lambda_`` * the sum
    of the (3,) per-view ``distill`` vector (None without a teacher) weighted by
    the run's 0/1 ``cfg.view_weights``. ``cfg.validate`` holds lambda's rule.

    With lambda_ == 0 the distillation values are recorded for reporting but
    the returned graph contains only the classification path, so the teacher
    can never influence gradients.
    """
    lambda_ = cfg.lambda_
    weights = np.asarray(cfg.view_weights, dtype=np.float64)
    loss_c = add(loss_final, loss_branch)
    total = loss_c
    if distill is not None and lambda_ > 0:
        weighted = linear(distill, (lambda_ * weights).reshape(-1, 1), np.zeros(1))
        total = add(loss_c, reshape(weighted, ()))
    return LossBreakdown(
        final=loss_final.item(),
        branch=loss_branch.item(),
        classification=loss_c.item(),
        distill={} if distill is None else {
            v: float(x) for v, x, w in zip(VIEWS, distill.values, weights) if w
        },
        total=total.item(),
        lambda_=lambda_,
        graph=total,
    )
