"""Training configuration and the flat key=value config file format.

``TrainConfig`` is the one copy of a run's settings, and holds only what a
run varies: the loss weights (``lambda_``, ``tau``, ``alpha``), the widths
(``d``, ``d_h``) and head counts (``heads``, ``encoder_heads``), the schedule
(``learning_rate``, ``epochs``, ``batch_size``), the ``master_seed``, and the
eight ablation switches (the ninth ablation, no teacher, is ``lambda_ = 0``).
It is also the one home of their rules (``validate``). Everything else is
fixed: the encoders mean-pool, and Adam's moment constants live in
``trainer.Adam``.

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


class ConfigError(ValueError):
    """A configuration value (or file) violates its contract."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on besides the dataset itself.

    Note the defaults pair heads=8 with d=32; the head count must divide d,
    so configs that raise d to a multiple of 12 can use 12 fusion heads.
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
    drop_L_text: bool = False
    drop_L_image: bool = False
    drop_L_cross: bool = False
    drop_text_view: bool = False
    drop_image_view: bool = False
    no_reasoning_prompts_mode: bool = False
    no_feature_extractors_mode: bool = False
    no_attention_mode: bool = False

    def validate(self) -> "TrainConfig":
        # each check is written so that a NaN fails it
        if not 0.0 <= self.lambda_ < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lambda_}")
        if not 0.0 < self.tau < math.inf:
            raise ConfigError(f"tau must be finite and positive, got {self.tau}")
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
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        return self

    @property
    def view_weights(self) -> tuple[float, ...]:
        """Each view's distillation weight, 1.0 or 0.0 (``drop_L_*``), in
        ``VIEWS`` order: text, image, cross."""
        dropped = (self.drop_L_text, self.drop_L_image, self.drop_L_cross)
        return tuple(float(not off) for off in dropped)

    def replace(self, **changes) -> "TrainConfig":
        return dataclasses.replace(self, **changes)


_KEY_ALIASES = {"lambda": "lambda_"}


def _parse_value(raw: str, py_type, key: str):
    raw = raw.strip()
    if py_type is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    if py_type is int:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from exc
    if py_type is float:
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from exc
    # tuple-of-floats fields (corruption_mix)
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected comma-separated numbers, got {raw!r}") from exc


def read_config_file(path) -> dict[str, str]:
    """Parse a flat key=value file into raw strings."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text("utf-8").splitlines(), start=1):
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
        if field in train_types:
            train_kwargs[field] = _parse_value(raw, train_types[field], key)
        elif field in synth_types:
            synth_kwargs[field] = _parse_value(raw, synth_types[field], key)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return TrainConfig(**train_kwargs).validate(), SyntheticConfig(**synth_kwargs).validate()
