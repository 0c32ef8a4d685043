"""Config-space property test: any TrainConfig on any tiny corpus is either
refused with the package's own errors or trains one epoch to finite losses
and parameters.

Drawn learning rates lie in [1e-5, 1] and temperatures in [0.05, 20], apart
from values that validation must refuse (zero, negative, NaN, infinite).
"""

import dataclasses
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvrd.config import ABLATIONS, ConfigError, TrainConfig
from mvrd.datasynth import SyntheticConfig, generate_dataset
from mvrd.diffcore import DimensionError, ParameterError, ValidationError
from mvrd.trainer import train

REFUSALS = (ConfigError, DimensionError, ParameterError, ValidationError)
# values that validation must refuse, one field at a time
BAD_VALUES = {
    "lambda_": [-1.0, math.nan, math.inf],
    "tau": [0.0, -1.0, math.nan, math.inf, 1e-308],
    "alpha": [-0.5, 1.5, math.nan],
    "heads": [0, -1],
    "encoder_heads": [0, -2],
    "d": [0],
    "d_h": [0],
    "learning_rate": [0.0, -1.0, math.nan, math.inf],
    "epochs": [0],
    "batch_size": [0],
    "master_seed": [-1],
    "ablation": ["no_heads", "", "no_attention_mode"],
}


@st.composite
def runs(draw):
    """A TrainConfig and a tiny corpus. Half the configs have one field broken;
    the rest may still clash with the corpus (encoder heads, input and teacher
    widths, and the widths some ablations need)."""
    heads, encoder_heads = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d = heads * draw(st.integers(1, 4))
    cfg = TrainConfig(
        lambda_=draw(st.just(0.0) | st.floats(0.0, 3.0)),
        tau=draw(st.floats(0.05, 20.0)),
        alpha=draw(st.floats(0.0, 1.0)),
        heads=heads,
        encoder_heads=encoder_heads,
        d=d,
        d_h=d + draw(st.integers(0, 8)),
        learning_rate=draw(st.floats(1e-5, 1.0)),
        epochs=1,
        batch_size=draw(st.integers(1, 8)),
        master_seed=draw(st.integers(0, 2**32 - 1)),
        ablation=draw(st.sampled_from(ABLATIONS)),
    )
    broken = draw(st.none() | st.sampled_from(sorted(BAD_VALUES)))
    if broken:
        cfg = cfg.replace(**{broken: draw(st.sampled_from(BAD_VALUES[broken]))})
    synth = SyntheticConfig(
        n_samples=draw(st.integers(1, 12)),
        d_in=draw(st.sampled_from([2, 2 * encoder_heads, max(d, 2)])),
        len_text=draw(st.integers(1, 3)),
        len_image=draw(st.integers(1, 3)),
        len_clip=draw(st.integers(1, 2)),
        teacher_dim=draw(st.sampled_from([max(d, 4), 5])),
        seed=draw(st.integers(0, 1000)),
    )
    samples = generate_dataset(synth)
    if not draw(st.booleans()):
        samples = [dataclasses.replace(s, teacher=None) for s in samples]
    return cfg, samples


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
def test_config_refused_or_trains_finite(run):
    cfg, samples = run
    try:
        model, report = train(cfg, samples)
    except REFUSALS:
        return
    assert len(report.epoch_losses) == 1
    assert all(math.isfinite(v) for v in report.epoch_losses[0].values())
    assert all(np.isfinite(p.tensor.values).all() for p in model.parameters())
