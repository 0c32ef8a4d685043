"""End-to-end CLI coverage: data generation, training, evaluation, the
significance test, and error reporting."""

import json
import sys
from unittest import mock

import pytest

from mvrd.cli import main
from mvrd.config import TrainConfig, build_configs, read_config_file
from mvrd.datasynth import generate_dataset, load_features_file
from mvrd.model import Model
from mvrd.teacher import load_teacher_file
from mvrd.trainer import save_checkpoint
from mvrd.views import SOURCE_TAGS

TINY_CONFIG = """
# desk-scale smoke configuration
n_samples = 48
d_in = 8
teacher_dim = 8
len_text = 4
len_image = 4
len_clip = 2
seed = 5

d = 8
d_h = 16
heads = 4
encoder_heads = 2
epochs = 2
batch_size = 16
master_seed = 1
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(TINY_CONFIG, "utf-8")
    return path


@pytest.fixture()
def data_dir(tmp_path, config_file):
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(config_file), "--out", str(out)]) == 0
    return out


class TestGenData:
    def test_writes_loadable_files(self, data_dir):
        samples = load_features_file(data_dir / "features.jsonl")
        assert len(samples) == 48
        teacher = load_teacher_file(data_dir / "teacher.jsonl")
        assert set(teacher.embeddings) == {s.sample_id for s in samples}

    def test_teacher_round_trip_gives_oracle_rows_projected(self, data_dir, config_file):
        # gen-data writes the oracle's raw rows; loading projects each one
        _, synth = build_configs(read_config_file(config_file))
        teacher = load_teacher_file(data_dir / "teacher.jsonl")
        matrix = teacher.spec.matrix()
        for s in generate_dataset(synth):
            loaded = teacher.embeddings[s.sample_id].values
            for row, raw in zip(loaded, s.teacher.values):
                assert row.tobytes() == (raw @ matrix).tobytes()


class TestTrainEval:
    def test_train_then_eval(self, data_dir, config_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main(
            [
                "train",
                "--config",
                str(config_file),
                "--features",
                str(data_dir / "features.jsonl"),
                "--teacher",
                str(data_dir / "teacher.jsonl"),
                "--out",
                str(run_dir),
            ]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(metrics) == {"accuracy", "f1_fake", "f1_real", "auc"}
        assert (run_dir / "checkpoint.bin").exists()
        assert (run_dir / "report.jsonl").exists()

        code = main(
            [
                "eval",
                "--checkpoint",
                str(run_dir / "checkpoint.bin"),
                "--features",
                str(data_dir / "features.jsonl"),
            ]
        )
        assert code == 0
        evaluated = json.loads(capsys.readouterr().out.strip())
        assert 0.0 <= evaluated["accuracy"] <= 1.0


class TestGenTeacher:
    def test_mock_mode(self, data_dir, tmp_path):
        out = tmp_path / "teacher-mock.jsonl"
        code = main(
            [
                "gen-teacher",
                "--features",
                str(data_dir / "features.jsonl"),
                "--mode",
                "mock",
                "--d-t",
                "16",
                "--student-dim",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        loaded = load_teacher_file(out)
        assert loaded.spec.d_t == 16
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        assert lines and all(json.loads(line)["chain"] for line in lines)

    def test_zero_student_dim_is_an_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "teacher-bad.jsonl"
        argv = ["gen-teacher", "--features", str(data_dir / "features.jsonl"), "--mode", "mock"]
        assert main(argv + ["--student-dim", "0", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ParameterError"
        assert "d must be an integer >= 1" in err["message"]
        assert not out.exists()


class TestTTest:
    def test_textbook_example(self, capsys):
        assert main(["ttest", "--a", "1,2,3,4,5", "--b", "2,3,4,5,6"]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["t"] == pytest.approx(-1.0, abs=1e-12)
        assert out["dof"] == pytest.approx(8.0, abs=1e-12)
        assert out["p"] == pytest.approx(0.3466, abs=1e-3)

    @pytest.mark.parametrize(
        "a, b, flag",
        [("1,nan", "2,3", "finite"), ("1e308,-1e308", "2,3", "variance"), ("1,2", "2,x", "--b")],
        ids=["nan", "overflow", "not-a-number"],
    )
    def test_bad_sample_is_validation_error(self, capsys, a, b, flag):
        assert main(["ttest", "--a", a, "--b", b]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValidationError"
        assert flag in err["message"]


class TestGradCheckCommand:
    def test_passes_on_tiny_model(self, capsys):
        assert main(["grad-check", "--d", "8", "--samples", "2", "--seed", "1"]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["passed"] is True
        assert out["max_rel_error"] < 1e-4


class TestErrors:
    def test_unknown_config_key_is_machine_parsable(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("epochz = 3\n", "utf-8")
        code = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")])
        assert code != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "epochz" in err["message"]

    def test_missing_features_file(self, capsys):
        code = main(["train", "--features", "/nonexistent.jsonl", "--out", "/tmp/x"])
        assert code != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]

    def test_nan_train_frac_is_parameter_error(self, data_dir, config_file, tmp_path, capsys):
        features = str(data_dir / "features.jsonl")
        argv = ["train", "--config", str(config_file), "--features", features]
        assert main(argv + ["--train-frac", "nan", "--out", str(tmp_path / "run")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ParameterError"
        assert "fractions" in err["message"]

    def test_eval_of_other_widths_is_validation_error(self, data_dir, tmp_path, capsys):
        # a checkpoint built for 32-wide inputs, evaluated on the 8-wide corpus
        checkpoint = tmp_path / "wide.bin"
        save_checkpoint(Model(TrainConfig(), {tag: 32 for tag in SOURCE_TAGS}), checkpoint)
        features = str(data_dir / "features.jsonl")
        assert main(["eval", "--checkpoint", str(checkpoint), "--features", features]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValidationError"
        assert "'text-tokens': 8" in err["message"] and "'text-tokens': 32" in err["message"]

    def test_bad_value_type(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("epochs = soon\n", "utf-8")
        code = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")])
        assert code != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"


class TestSweepCommand:
    def test_tau_axis(self, data_dir, config_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config",
                str(config_file),
                "--features",
                str(data_dir / "features.jsonl"),
                "--teacher",
                str(data_dir / "teacher.jsonl"),
                "--axis",
                "tau",
                "--values",
                "1.0,2.0",
                "--seeds",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "sweep_tau.jsonl").read_text("utf-8").strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "tau=1.0"

    def sweep_with_chart(self, data_dir, config_file, out):
        return main(
            [
                "sweep",
                "--config",
                str(config_file),
                "--features",
                str(data_dir / "features.jsonl"),
                "--teacher",
                str(data_dir / "teacher.jsonl"),
                "--axis",
                "tau",
                "--values",
                "2.0",
                "--seeds",
                "1",
                "--out",
                str(out),
                "--chart",
            ]
        )

    def test_chart_reaches_savefig(self, data_dir, config_file, tmp_path, capsys, monkeypatch):
        # a stand-in matplotlib: the chart is drawn and its PNG bytes land at the path
        fig = mock.MagicMock()
        fig.savefig.side_effect = lambda fh, **_: fh.write(b"png bytes")
        pyplot = mock.MagicMock()
        pyplot.subplots.return_value = (fig, mock.MagicMock())
        monkeypatch.setitem(sys.modules, "matplotlib", mock.MagicMock(pyplot=pyplot))
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
        out = tmp_path / "sweep"
        assert self.sweep_with_chart(data_dir, config_file, out) == 0
        fig.savefig.assert_called_once_with(mock.ANY, format="png", dpi=120)
        assert (out / "sweep_tau.png").read_bytes() == b"png bytes"
        assert sorted(p.name for p in out.iterdir()) == ["sweep_tau.jsonl", "sweep_tau.png"]
        pyplot.close.assert_called_once_with(fig)
        assert "skipped chart" not in capsys.readouterr().err

    def test_chart_skipped_without_matplotlib(
        self, data_dir, config_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setitem(sys.modules, "matplotlib", None)  # import raises ImportError
        out = tmp_path / "sweep"
        assert self.sweep_with_chart(data_dir, config_file, out) == 0
        assert "matplotlib unavailable; skipped chart" in capsys.readouterr().err
        assert (out / "sweep_tau.jsonl").exists()
        assert not (out / "sweep_tau.png").exists()

    def test_zero_seeds_is_parameter_error(self, data_dir, config_file, capsys):
        code = main(
            [
                "sweep",
                "--config",
                str(config_file),
                "--features",
                str(data_dir / "features.jsonl"),
                "--teacher",
                str(data_dir / "teacher.jsonl"),
                "--axis",
                "tau",
                "--values",
                "1.0",
                "--seeds",
                "0",
            ]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ParameterError"

    def test_non_numeric_value_is_validation_error(self, data_dir, config_file, capsys):
        code = main(
            [
                "sweep",
                "--config",
                str(config_file),
                "--features",
                str(data_dir / "features.jsonl"),
                "--axis",
                "tau",
                "--values",
                "1,x",
            ]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValidationError"
        assert "--values" in err["message"]


class TestAblateCommand:
    def test_empty_test_split_is_validation_error(self, data_dir, config_file, capsys, monkeypatch):
        # --train-frac 1.0 leaves no test set: refused before any job trains
        def no_training(*args, **kwargs):
            raise AssertionError("a job was trained")

        monkeypatch.setattr("mvrd.trainer.train", no_training)
        code = main(
            [
                "ablate",
                "--config",
                str(config_file),
                "--features",
                str(data_dir / "features.jsonl"),
                "--teacher",
                str(data_dir / "teacher.jsonl"),
                "--train-frac",
                "1.0",
            ]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValidationError"
