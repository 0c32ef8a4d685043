"""Config contracts: the key=value parser, field types, and validation of
non-finite and out-of-range values."""

import dataclasses
import math

import pytest

from mvrd.config import ConfigError, TrainConfig, build_configs, field_types, read_config_file
from mvrd.datasynth import SyntheticConfig
from mvrd.diffcore import ParameterError

RETIRED_KEYS = {
    "beta1": "0.9",
    "beta2": "0.999",
    "adam_eps": "1e-8",
    "debug_checks": "true",
    "pooling": "mean",
    "no_teacher": "true",
}


def parse(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, "utf-8")
    return build_configs(read_config_file(path))


class TestParser:
    def test_empty_file_gives_defaults(self, tmp_path):
        assert parse(tmp_path, "# nothing\n\n") == (TrainConfig(), SyntheticConfig())

    def test_lambda_alias(self, tmp_path):
        train_cfg, _ = parse(tmp_path, "lambda = 0.25\n")
        assert train_cfg.lambda_ == 0.25

    def test_typed_values(self, tmp_path):
        train_cfg, synth_cfg = parse(
            tmp_path,
            "drop_image_view = yes\ndrop_L_text = off\nepochs = 3\ntau = 1.5\n"
            "corruption_mix = 0.5, 0.25, 0.25\nn_samples = 12\n",
        )
        assert train_cfg.drop_image_view is True and train_cfg.drop_L_text is False
        assert train_cfg.epochs == 3 and type(train_cfg.epochs) is int
        assert train_cfg.tau == 1.5 and type(train_cfg.tau) is float
        assert synth_cfg.corruption_mix == (0.5, 0.25, 0.25)
        assert synth_cfg.n_samples == 12

    @pytest.mark.parametrize(
        "text", ["epochs = 3\nepochs = 4\n", "epochs 3\n", "epochs = 2.5\n", "drop_L_text = maybe\n"]
    )
    def test_malformed_lines_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError):
            parse(tmp_path, text)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key 'epochz'"):
            parse(tmp_path, "epochz = 3\n")

    @pytest.mark.parametrize("key", sorted(RETIRED_KEYS))
    def test_retired_key_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse(tmp_path, f"{key} = {RETIRED_KEYS[key]}\n")

    @pytest.mark.parametrize("cls", [TrainConfig, SyntheticConfig])
    def test_field_types_match_annotations(self, cls):
        types = field_types(cls)
        assert list(types) == [f.name for f in dataclasses.fields(cls)]
        for f in dataclasses.fields(cls):
            assert types[f.name].__name__ == f.type, f.name

    def test_train_config_fields(self):
        assert len(dataclasses.fields(TrainConfig)) == 19
        assert not set(RETIRED_KEYS) & set(field_types(TrainConfig))


class TestValidation:
    @pytest.mark.parametrize("field", ["lambda_", "tau", "alpha", "learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_train_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value}).validate()

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(d=0, heads=1, encoder_heads=1).validate()

    def test_nan_in_a_config_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="learning_rate"):
            parse(tmp_path, "learning_rate = nan\n")

    @pytest.mark.parametrize(
        "field",
        ["noise_sigma", "signal_strength", "student_corruption_snr", "clip_alignment_gain",
         "teacher_snr_ratio", "class_balance"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_synthetic_values_rejected(self, field, value):
        with pytest.raises(ParameterError):
            SyntheticConfig(**{field: value}).validate()

    def test_nan_in_corruption_mix_rejected(self):
        with pytest.raises(ParameterError):
            SyntheticConfig(corruption_mix=(math.nan, 0.5, 0.5)).validate()
