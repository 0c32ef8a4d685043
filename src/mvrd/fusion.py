"""Multi-view fusion and the loss stack.

A pooled summary of the calibrated views queries the stacked view set through
one multi-head cross-attention block; the fused vector feeds the final
classifier. Branch heads supervise the *uncalibrated* view features, and the
total training objective combines classification with the weighted per-view
distillation losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import ConfigError
from .diffcore import (
    DimensionError,
    Parameter,
    ParameterError,
    Tensor,
    add,
    concat,
    cross_entropy,
    linear,
    make_parameter,
    mean,
    parameter_seed,
    reshape,
    scale,
)
from .views import VIEWS, AttentionParams, multi_head_attention


class FusionParams:
    """Cross-attention projections, the final classifier, and branch heads."""

    def __init__(self, d: int, heads: int = 8, master_seed: int = 0):
        if heads < 1 or d % heads != 0:
            raise ConfigError(f"fusion heads={heads} must divide d={d}")
        self.d = d
        self.heads = heads
        self.attn = AttentionParams("fusion.attn", d, d, d, heads, master_seed)

        def head(name):
            w_name, b_name = f"fusion.{name}.W", f"fusion.{name}.b"
            return (
                make_parameter(w_name, (d, 2), "xavier_uniform", parameter_seed(master_seed, w_name)),
                make_parameter(b_name, (2,), "zeros", parameter_seed(master_seed, b_name)),
            )

        self.final_head = head("final")
        self.branch_heads = {view: head(f"branch.{view}") for view in VIEWS}

    def parameters(self) -> list[Parameter]:
        out = list(self.attn.parameters())
        out.extend(self.final_head)
        for view in VIEWS:
            out.extend(self.branch_heads[view])
        return out


def pool_views(calibrated: dict[str, Tensor]) -> Tensor:
    """Element-wise mean of the three calibrated view vectors."""
    f_t, f_i, f_c = (calibrated[view] for view in VIEWS)
    if not (f_t.shape == f_i.shape == f_c.shape):
        raise DimensionError(
            f"calibrated views disagree: {f_t.shape}, {f_i.shape}, {f_c.shape}"
        )
    return scale(add(add(f_t, f_i), f_c), 1.0 / 3.0)


def build_view_set(calibrated: dict[str, Tensor]) -> Tensor:
    """Stack the calibrated views into a (3, d) matrix, order text/image/cross."""
    f_t = calibrated["text"]
    stacked = concat([calibrated[view] for view in VIEWS], axis=-1)
    return reshape(stacked, f_t.shape[:-1] + (3, f_t.shape[-1]))


def cross_attention_fuse(query: Tensor, view_set: Tensor, params: FusionParams) -> Tensor:
    """Single cross-attention pass: the pooled query attends over the three views."""
    q_seq = reshape(query, query.shape[:-1] + (1, query.shape[-1]))
    fused = multi_head_attention(q_seq, view_set, params.attn)
    return reshape(fused, query.shape)


def _mean_ce(logits: Tensor, y) -> Tensor:
    ce = cross_entropy(logits, y)
    return mean(ce) if ce.ndim > 0 else ce


def classification_losses(
    f_final: Tensor, raw_views: dict[str, Tensor], y, params: FusionParams
) -> tuple[Tensor, Tensor]:
    """Final-head CE plus the summed branch CEs on the pre-calibration features."""
    loss_final = _mean_ce(linear(f_final, *params.final_head), y)
    branch_terms = [
        _mean_ce(linear(raw_views[view], *params.branch_heads[view]), y)
        for view in VIEWS
    ]
    loss_branch = add(add(branch_terms[0], branch_terms[1]), branch_terms[2])
    return loss_final, loss_branch


@dataclass
class LossBreakdown:
    """Float snapshot of one step's losses plus the live total for backward."""

    final: float
    branch: float
    classification: float
    distill: dict[str, float]
    total: float
    lambda_effective: float
    graph: Tensor | None = field(default=None, repr=False, compare=False)

    def identity_errors(self) -> tuple[float, float]:
        distill_sum = 0.0
        for view in VIEWS:
            if view in self.distill:
                distill_sum += self.distill[view]
        return (
            abs(self.classification - (self.final + self.branch)),
            abs(self.total - (self.classification + self.lambda_effective * distill_sum)),
        )


def total_loss(
    loss_final: Tensor,
    loss_branch: Tensor,
    distill_losses: dict[str, Tensor],
    lambda_: float,
) -> LossBreakdown:
    """Assemble the total objective: classification + lambda * sum of enabled
    distillation terms.

    With lambda_ == 0 the distillation values are recorded for reporting but
    the returned graph contains only the classification path, so the teacher
    can never influence gradients.
    """
    if not lambda_ >= 0:
        raise ParameterError(f"lambda must be >= 0, got {lambda_}")
    loss_c = add(loss_final, loss_branch)
    ordered = [distill_losses[v] for v in VIEWS if v in distill_losses]
    if lambda_ > 0 and ordered:
        distill_sum = ordered[0]
        for term in ordered[1:]:
            distill_sum = add(distill_sum, term)
        total = add(loss_c, scale(distill_sum, lambda_))
    else:
        total = loss_c
    return LossBreakdown(
        final=loss_final.item(),
        branch=loss_branch.item(),
        classification=loss_c.item(),
        distill={v: t.item() for v, t in distill_losses.items()},
        total=total.item(),
        lambda_effective=lambda_,
        graph=total,
    )
