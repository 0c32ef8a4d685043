"""Training configuration and the flat key=value config file format.

``TrainConfig`` is the one copy of a run's settings, and holds only what a
run varies: the loss weights (``lambda_``, ``tau``, ``alpha``), the widths
(``d``, ``d_h``) and head counts (``heads``, ``encoder_heads``), the schedule
(``learning_rate``, ``epochs``, ``batch_size``), the ``master_seed``, and the
``ablation`` the run makes: "full" or one row of the paper's ablation table,
all named in ``ABLATIONS`` (the no-teacher row is ``lambda_ = 0``). A run
removes at most one mechanism. ``TrainConfig`` is also the one home of their
rules (``validate``). Everything else is fixed: the encoders mean-pool, and
Adam's moment constants live in ``trainer.Adam``.

Config files contain one ``key = value`` pair per line (``#`` comments and
blank lines allowed). Keys mirror the field names of TrainConfig and
SyntheticConfig; unknown keys are hard errors so typos cannot silently fall
back to defaults. The single exception is ``lambda``, which maps to the
``lambda_`` field because of the Python keyword.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .views import VIEWS


class ConfigError(ValueError):
    """A configuration value (or file) violates its contract."""


# "full" and the mechanism each ablation row removes: one view's distillation
# loss (drop_L_*: weight 0, not reported), one view (drop_*_view: its slot is
# zeroed after encoding), the reasoning prompts (the teacher embeds the raw
# content instead), the feature extractors (the views are the mean-pooled
# tokens; needs d_in == d) or the attention (encoders and fusion mean-pool)
ABLATIONS = (
    "full", "drop_L_text", "drop_L_image", "drop_L_cross", "drop_text_view", "drop_image_view",
    "no_reasoning_prompts", "no_feature_extractors", "no_attention",
)


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on besides the dataset itself.

    Note the defaults pair heads=8 with d=32; the head count must divide d,
    so configs that raise d to a multiple of 12 can use 12 fusion heads.
    ``ablation`` is one name from ``ABLATIONS``; a config file sets it as
    ``ablation = no_attention``.
    """

    lambda_: float = 1.0  # config key: lambda
    tau: float = 2.0
    alpha: float = 0.5
    heads: int = 8
    encoder_heads: int = 4
    d: int = 32
    d_h: int = 64
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 32
    master_seed: int = 0
    ablation: str = "full"

    def validate(self) -> "TrainConfig":
        # each check is written so that a NaN fails it
        if not 0.0 <= self.lambda_ < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lambda_}")
        # the 1e-3 floor keeps x / tau finite for any logit x below ~1e305
        if not 1e-3 <= self.tau < math.inf:
            raise ConfigError(f"tau must be finite and >= 1e-3, got {self.tau}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if self.heads < 1 or self.d % self.heads != 0:
            raise ConfigError(f"fusion heads={self.heads} must divide d={self.d}")
        if self.encoder_heads < 1:
            raise ConfigError(f"encoder_heads must be >= 1, got {self.encoder_heads}")
        if self.d_h < self.d:
            raise ConfigError(f"d_h={self.d_h} must be >= d={self.d}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(
                f"ablation must be one of {list(ABLATIONS)} (no_teacher is lambda = 0), got {self.ablation!r}"
            )
        # the content teacher is a fallback_embed of width d
        if self.ablation == "no_reasoning_prompts" and self.d < MIN_EMBED_DIM:
            raise ConfigError(f"no_reasoning_prompts needs d >= {MIN_EMBED_DIM}, got {self.d}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        return self

    @property
    def view_weights(self) -> tuple[float, ...]:
        """Each view's distillation weight in ``VIEWS`` order (text, image,
        cross): 0.0 for the view a ``drop_L_*`` ablation drops, else 1.0."""
        return tuple(float(self.ablation != f"drop_L_{view}") for view in VIEWS)

    def replace(self, **changes) -> "TrainConfig":
        return dataclasses.replace(self, **changes)


_KEY_ALIASES = {"lambda": "lambda_"}
MIN_EMBED_DIM = 8  # the narrowest teacher.fallback_embed


def _parse_value(raw: str, py_type, key: str):
    raw = raw.strip()
    if py_type is str:  # ablation; validate checks the name
        return raw
    if py_type in (int, float):
        try:
            return py_type(raw)
        except ValueError as exc:
            kind = "an integer" if py_type is int else "a number"
            raise ConfigError(f"key {key!r}: expected {kind}, got {raw!r}") from exc
    # tuple-of-floats fields (corruption_mix)
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected comma-separated numbers, got {raw!r}") from exc


def read_config_file(path) -> dict[str, str]:
    """Parse a flat key=value file into raw strings."""
    try:
        text = Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in entries:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def field_types(cls) -> dict[str, type]:
    """Each field's type, read off its default (the annotations are strings)."""
    return {f.name: type(f.default) for f in dataclasses.fields(cls)}


def build_configs(entries: dict[str, str]):
    """Split raw entries into a (TrainConfig, SyntheticConfig) pair.

    Unknown keys raise; every key must belong to exactly one of the two
    dataclasses (their field names are disjoint by construction).
    """
    from .datasynth import SyntheticConfig  # local to avoid cycles

    train_types = field_types(TrainConfig)
    synth_types = field_types(SyntheticConfig)
    train_kwargs: dict = {}
    synth_kwargs: dict = {}
    for key, raw in entries.items():
        field = _KEY_ALIASES.get(key, key)
        if field != key and field in entries:
            raise ConfigError(f"config keys {key!r} and {field!r} both set field {field!r}")
        if field in train_types:
            train_kwargs[field] = _parse_value(raw, train_types[field], key)
        elif field in synth_types:
            synth_kwargs[field] = _parse_value(raw, synth_types[field], key)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return TrainConfig(**train_kwargs).validate(), SyntheticConfig(**synth_kwargs).validate()
