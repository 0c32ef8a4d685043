"""Config contracts: the key=value parser, field types, and validation of
non-finite and out-of-range values."""

import dataclasses
import math

import pytest

from mvrd.config import ABLATIONS, ConfigError, TrainConfig, build_configs, field_types, read_config_file
from mvrd.datasynth import SyntheticConfig
from mvrd.diffcore import ParameterError

RETIRED_KEYS = {
    "beta1": "0.9",
    "beta2": "0.999",
    "adam_eps": "1e-8",
    "debug_checks": "true",
    "pooling": "mean",
    "no_teacher": "true",
    # the eight ablation switches that one ablation name replaced
    **dict.fromkeys([
        "drop_L_text", "drop_L_image", "drop_L_cross", "drop_text_view", "drop_image_view",
        "no_reasoning_prompts_mode", "no_feature_extractors_mode", "no_attention_mode",
    ], "yes"),
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

    @pytest.mark.parametrize("text", ["lambda = 0\nlambda_ = 1.5\n", "lambda_ = 1.5\nlambda = 0\n"])
    def test_alias_and_field_name_together_rejected(self, tmp_path, text):
        # either order: neither spelling may silently win
        with pytest.raises(ConfigError, match="'lambda' and 'lambda_'"):
            parse(tmp_path, text)

    def test_typed_values(self, tmp_path):
        train_cfg, synth_cfg = parse(
            tmp_path,
            "ablation = no_attention\nepochs = 3\ntau = 1.5\n"
            "corruption_mix = 0.5, 0.25, 0.25\nn_samples = 12\n",
        )
        assert train_cfg.ablation == "no_attention"
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

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\xff\n")
        with pytest.raises(ConfigError, match="UTF-8"):
            read_config_file(path)

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
        assert len(dataclasses.fields(TrainConfig)) == 12
        assert not set(RETIRED_KEYS) & set(field_types(TrainConfig))
        # the parser has no boolean syntax, so no field may be a bool
        assert bool not in {*field_types(TrainConfig).values(), *field_types(SyntheticConfig).values()}

    @pytest.mark.parametrize("name", ABLATIONS)
    def test_every_ablation_parses(self, tmp_path, name):
        train_cfg, _ = parse(tmp_path, f"ablation = {name}\n")
        assert train_cfg.ablation == name

    @pytest.mark.parametrize(
        "name", ["no_heads", "no_teacher", "No_Attention", "drop_L_text, no_attention", ""]
    )
    def test_unknown_ablation_rejected(self, tmp_path, name):
        with pytest.raises(ConfigError, match="ablation must be one of"):
            parse(tmp_path, f"ablation = {name}\n")


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

    @pytest.mark.parametrize(
        "text, error",
        [("seed = -1\n", ParameterError), ("master_seed = -1\n", ConfigError)],
        ids=["seed", "master_seed"],
    )
    def test_negative_seed_in_a_config_file_rejected(self, tmp_path, text, error):
        with pytest.raises(error, match="seed must be >= 0"):
            parse(tmp_path, text)

    def test_content_teacher_needs_d_of_eight(self):
        cfg = TrainConfig(d=4, d_h=8, heads=4, ablation="no_reasoning_prompts")
        with pytest.raises(ConfigError, match="d >= 8"):
            cfg.validate()
        cfg.replace(ablation="full").validate()
