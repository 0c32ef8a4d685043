"""The three workloads: train, ablate and ingest.

Every workload makes its inputs from the workload seed alone, sets up several
times (``setup_s`` is the median; where the set-up is short it is also timed
again after every round), then runs whole rounds of the same
operations until the run's time is used, with at least ``MIN_ROUNDS``. Each
round times one job (``wall_s``), then times warm predict passes in windows
(``predict_samples_per_s``), then checks the outputs. End-to-end figures are
medians over rounds and windows.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mvrd.cli
import mvrd.datasynth
import mvrd.teacher
import mvrd.trainer
from mvrd.config import TrainConfig, build_configs, read_config_file
from mvrd.datasynth import SyntheticConfig, split
from mvrd.diffcore import ValidationError
from mvrd.fileio import FormatError
from mvrd.model import Model
from mvrd.views import SOURCE_TAGS

import checks
from layers import Tracer, tape_length

clock = time.perf_counter

MIN_ROUNDS = 2
PREDICT_WARM_PASSES = 2
PREDICT_WINDOWS = 3
# samples scored per predict window: ~0.7 s at the seed's ~22k samples/s, so
# that no timed window lasts only tens of milliseconds
PREDICT_WINDOW_SAMPLES = 15_000

# train: the acceptance suite's configuration
TRAIN_SAMPLES = 2500
TRAIN_SPLIT = (0.8, 0.2)
TRAIN_CONFIG = TrainConfig(epochs=15, batch_size=64, learning_rate=2e-3)
# set-ups before the first round, and again after every round: a 0.4 s
# set-up timed only at the start would rest on the host's speed in those
# seconds alone
TRAIN_SETUP_REPS = 2
TRAIN_SETUP_REPS_PER_ROUND = 2
# 500 held-out samples, half of them fake: a chance-level classifier scores
# 0.5 with a standard deviation of 0.022, so 0.65 is ~7 standard deviations
# above chance, while the seed scores ~0.91
TRAIN_ACCURACY_FLOOR = 0.65

# ablate: a short schedule with a large held-out split, so the table is
# practical to repeat and the full row's accuracy is steady across seeds
ABLATE_SAMPLES = 2000
ABLATE_SPLIT = (0.25, 0.75)
ABLATE_CONFIG = TrainConfig(epochs=4, batch_size=125, learning_rate=2e-2)
ABLATE_SEEDS = 3
ABLATE_SETUP_REPS = 2
ABLATE_SETUP_REPS_PER_ROUND = 2

# ingest: the file path through the CLI, on a larger corpus than train's
INGEST_CONFIG_TEXT = "n_samples = 3000\nepochs = 4\nbatch_size = 64\nlearning_rate = 0.01\n"
INGEST_TRAIN_FRAC = 0.5
INGEST_SETUP_REPS = 3


class HarnessError(RuntimeError):
    """The workload could not run at all (not a check of the program's output)."""


@dataclass
class Run:
    """One invocation: its seed, budget, tracer and counters."""

    seed: int
    seconds: float
    tracer: Tracer
    work: Path
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    setup_again: tuple = (0, None)  # (set-ups timed after each round, the set-up)
    round_walls: list[float] = field(default_factory=list)
    throughputs: list[float] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.failures.append(str(exc))

    def setup(self, reps: int, fn, reps_per_round: int = 0):
        """Time the set-up ``reps`` times now and ``reps_per_round`` times after
        every round; return the last result."""
        self.setup_again = (reps_per_round, fn)
        for _ in range(reps):
            out = self._timed_setup(fn)
        return out

    def _timed_setup(self, fn):
        with self.tracer.window("setup"):
            start = clock()
            out = fn()
            self.setup_times.append(clock() - start)
        return out

    def rounds(self, one_round) -> None:
        """Whole rounds until the next would overrun the run's time."""
        start = clock()
        n = 0
        while True:
            round_start = clock()
            one_round(n)
            reps, fn = self.setup_again
            for _ in range(reps):
                self._timed_setup(fn)
            n += 1
            last = clock() - round_start
            if n >= MIN_ROUNDS and clock() - start + last > self.seconds:
                break
        self.detail["rounds"] = n

    def timed_job(self, job):
        """Time one job inside the round's trace window."""
        start = clock()
        out = job()
        self.round_walls.append(clock() - start)
        self.tracer.note("tape_left", tape_length())
        return out

    def predict(self, model: Model, samples) -> tuple[np.ndarray, int]:
        """Warm passes, then timed windows; returns the logits and the pass count."""
        for _ in range(PREDICT_WARM_PASSES):
            logits = model.predict_logits(samples)
        passes = math.ceil(PREDICT_WINDOW_SAMPLES / len(samples))
        for _ in range(PREDICT_WINDOWS):
            start = clock()
            for _ in range(passes):
                logits = model.predict_logits(samples)
            self.throughputs.append(passes * len(samples) / (clock() - start))
        return logits, PREDICT_WARM_PASSES + PREDICT_WINDOWS * passes

    def end_to_end(self, metrics: dict) -> dict[str, float]:
        self.detail["setup_s_each"] = self.setup_times
        self.detail["round_wall_s"] = self.round_walls
        self.detail["predict_samples_per_s_each"] = self.throughputs
        return {
            "setup_s": statistics.median(self.setup_times),
            "wall_s": statistics.median(self.round_walls),
            "predict_samples_per_s": statistics.median(self.throughputs),
            "test_accuracy": metrics["accuracy"],
            "test_f1_fake": metrics["f1_fake"],
        }


# ---------------------------------------------------------------------------
# train


def train_workload(run: Run) -> dict[str, float]:
    synth = SyntheticConfig(n_samples=TRAIN_SAMPLES, seed=run.seed)
    corpus = run.setup(TRAIN_SETUP_REPS, lambda: mvrd.datasynth.generate_dataset(synth),
                       TRAIN_SETUP_REPS_PER_ROUND)
    train_set, test_set = split(corpus, TRAIN_SPLIT, seed=run.seed)
    labels = [s.label for s in test_set]
    cfg = TRAIN_CONFIG.replace(master_seed=run.seed)
    first: dict = {}

    def one_round(n: int) -> None:
        with run.tracer.window("round"):
            model, report = run.timed_job(
                lambda: mvrd.trainer.train(cfg, train_set, eval_dataset=test_set)
            )
            logits, passes = run.predict(model, test_set)
        run.attempted += 2 + passes  # the training run, its evaluation, each predict pass
        run.check(checks.check_reported_metrics, labels, logits, report.metrics)
        run.check(checks.check_loss_decreases, report.epoch_losses)
        run.check(checks.check_accuracy_floor, report.metrics["accuracy"], TRAIN_ACCURACY_FLOOR)
        run.check(checks.check_finite, [(p.name, p.tensor.values) for p in model.parameters()])
        run.check(checks.check_tape_empty, tape_length())
        if n == 0:
            first.update(metrics=report.metrics, epoch_losses=report.epoch_losses)
        run.check(checks.check_same, "metrics", first["metrics"], report.metrics)
        run.check(checks.check_same, "loss curve", first["epoch_losses"], report.epoch_losses)

    run.rounds(one_round)
    run.detail["epoch_losses"] = first["epoch_losses"]
    return run.end_to_end(first["metrics"])


# ---------------------------------------------------------------------------
# ablate


def ablate_workload(run: Run) -> dict[str, float]:
    synth = SyntheticConfig(n_samples=ABLATE_SAMPLES, seed=run.seed)
    corpus = run.setup(ABLATE_SETUP_REPS, lambda: mvrd.datasynth.generate_dataset(synth),
                       ABLATE_SETUP_REPS_PER_ROUND)
    train_set, test_set = split(corpus, ABLATE_SPLIT, seed=run.seed)
    labels = [s.label for s in test_set]
    cfg = ABLATE_CONFIG.replace(master_seed=run.seed)
    variants = mvrd.trainer.ABLATION_VARIANTS
    names = [name for name, _ in variants]

    # Direct train() runs outside the timed part: one (variant, seed) cell
    # chosen by the workload seed, the same seed with lambda = 0 for the
    # no_teacher row, and the full model whose predict throughput is timed.
    k = run.seed % ABLATE_SEEDS
    cell_name, cell_flags = variants[run.seed % len(variants)]
    seed_k = cfg.master_seed + k
    direct = {
        "cell": mvrd.trainer.train(cfg.replace(master_seed=seed_k, **cell_flags), train_set, test_set),
        "lambda0": mvrd.trainer.train(cfg.replace(master_seed=seed_k, lambda_=0.0), train_set, test_set),
        "full": mvrd.trainer.train(cfg, train_set, test_set),
    }
    full_model = direct["full"][0]
    run.detail["direct_runs"] = {
        name: {"metrics": rep.metrics, "epoch_losses": rep.epoch_losses, "seed": rep.seed}
        for name, (_, rep) in direct.items()
    }
    run.detail["checked_cell"] = {"variant": cell_name, "seed_index": k}
    first: list = []

    def one_round(n: int) -> None:
        with run.tracer.window("round"):
            table = run.timed_job(
                lambda: mvrd.trainer.ablation_suite(cfg, train_set, test_set, n_seeds=ABLATE_SEEDS)
            )
            logits, _ = run.predict(full_model, test_set)
        run.attempted += len(variants) * ABLATE_SEEDS  # each training run
        rows = [dataclasses.asdict(row) for row in table]
        by_name = {row["name"]: row for row in rows}
        run.check(checks.check_ablation_rows, rows, names, ABLATE_SEEDS)
        if len(rows) == len(names):
            run.check(checks.check_same, f"{cell_name} seed {k} against a direct train()",
                      direct["cell"][1].metrics, by_name[cell_name]["per_seed"][k])
            run.check(checks.check_same, f"no_teacher seed {k} against lambda = 0",
                      direct["lambda0"][1].metrics, by_name["no_teacher"]["per_seed"][k])
            run.check(checks.check_same, "full seed 0 against a direct train()",
                      direct["full"][1].metrics, by_name["full"]["per_seed"][0])
        run.check(checks.check_reported_metrics, labels, logits, direct["full"][1].metrics)
        run.check(checks.check_tape_empty, tape_length())
        if n == 0:
            first.extend(rows)
        run.check(checks.check_same, "ablation table", first, rows)

    run.rounds(one_round)
    run.detail["table"] = first
    full_row = next(row for row in first if row["name"] == "full")
    return run.end_to_end(full_row["mean"])


# ---------------------------------------------------------------------------
# ingest


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one ``mvrd`` command in this process; return its exit code and output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = mvrd.cli.main(argv)
    return code, out.getvalue()


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def make_probes(work: Path) -> list[tuple[str, object]]:
    """Three boundary probes on fixed inputs; each must be rejected with the
    package's own error type."""
    features = work / "probe_nan_features.jsonl"
    lines = [json.dumps({"format_version": 1, "d_in": {tag: 2 for tag in SOURCE_TAGS}})]
    for tag in SOURCE_TAGS:
        tokens = [[0.5, float("nan")]] if tag == "text-tokens" else [[0.5, 0.25]]
        lines.append(json.dumps({"sample_id": "p0", "label": 0, "corruption": "none",
                                 "source_tag": tag, "tokens": tokens}))
    features.write_text("\n".join(lines) + "\n", "utf-8")

    teacher = work / "probe_nan_teacher.jsonl"
    lines = [json.dumps({"format_version": 1, "d_t": 8, "d": 8, "projection_seed": 0})]
    for view in ("text", "image", "cross"):
        embedding = [0.125] * 8
        if view == "image":
            embedding[3] = float("nan")
        lines.append(json.dumps({"sample_id": "p0", "view": view, "chain": "",
                                 "embedding": embedding}))
    teacher.write_text("\n".join(lines) + "\n", "utf-8")

    checkpoint = work / "probe_corrupt_meta.bin"
    tiny = TrainConfig(d=8, d_h=16, heads=4, encoder_heads=2, master_seed=0)
    mvrd.trainer.save_checkpoint(Model(tiny, {tag: 8 for tag in SOURCE_TAGS}), checkpoint)
    blob = checkpoint.read_bytes()
    header_end = blob.index(b"\n", len(mvrd.trainer.CHECKPOINT_MAGIC))
    meta_end = blob.index(b"\n", header_end + 1)
    checkpoint.write_bytes(blob[: header_end + 1] + b'{"name": ' + blob[meta_end:])

    return [
        ("features file with a NaN token",
         lambda: mvrd.datasynth.load_features_file(features)),
        ("teacher file with a NaN embedding",
         lambda: mvrd.teacher.load_teacher_file(teacher)),
        ("checkpoint with a corrupt parameter meta line",
         lambda: mvrd.trainer.load_checkpoint(checkpoint)),
    ]


def run_probe(probe) -> str | None:
    """None when the input is rejected as it should be, else what happened."""
    try:
        probe()
    except (FormatError, ValidationError):
        return None
    except Exception as exc:  # any other outcome is the fault being probed
        return f"raised {type(exc).__name__}: {exc}"
    return "loaded without error"


def _as_plain(samples) -> dict:
    return {
        s.sample_id: (s.label, s.corruption,
                      {tag: seq.tokens.values for tag, seq in s.sequences().items()})
        for s in samples
    }


def ingest_workload(run: Run) -> dict[str, float]:
    work = run.work
    config = work / "ingest.cfg"
    config.write_text(INGEST_CONFIG_TEXT, "utf-8")
    _, synth = build_configs(read_config_file(config))
    synth = dataclasses.replace(synth, seed=run.seed)
    data = work / "data"
    features, teacher = data / "features.jsonl", data / "teacher.jsonl"
    heldout_path, run_dir = work / "heldout.jsonl", work / "run"
    checkpoint = run_dir / "checkpoint.bin"
    seed = str(run.seed)

    # The benchmark's own copy of the corpus, for the round-trip checks and
    # the held-out file, written once outside the timed set-up; `mvrd train`
    # splits the features file the same way.
    corpus = mvrd.datasynth.generate_dataset(synth)
    _, heldout = split(corpus, (INGEST_TRAIN_FRAC, 1.0 - INGEST_TRAIN_FRAC), run.seed)

    mvrd.datasynth.save_features_file(heldout, heldout_path)

    def setup() -> None:
        code, out = _cli(["gen-data", "--config", str(config), "--seed", seed, "--out", str(data)])
        if code != 0:
            raise HarnessError(f"mvrd gen-data failed: {out}")

    run.setup(INGEST_SETUP_REPS, setup)
    probes = make_probes(work)
    first: dict = {}
    restored: list = []

    def one_round(n: int) -> None:
        with run.tracer.window("round"):
            (train_code, train_out), (eval_code, eval_out) = run.timed_job(lambda: (
                _cli(["train", "--config", str(config), "--seed", seed,
                      "--features", str(features), "--teacher", str(teacher),
                      "--train-frac", str(INGEST_TRAIN_FRAC), "--out", str(run_dir)]),
                _cli(["eval", "--checkpoint", str(checkpoint), "--features", str(heldout_path)]),
            ))
            if n == 0:  # every round writes the same checkpoint; restore it once
                with run.tracer.paused():
                    restored.append(mvrd.trainer.load_model(checkpoint))
                    restored.append(mvrd.datasynth.load_features_file(heldout_path))
            model, samples = restored
            logits, _ = run.predict(model, samples)
        outcomes = {name: run_probe(probe) for name, probe in probes}
        run.attempted += 2 + len(probes)  # each CLI command and each probe
        run.failed += (train_code != 0) + (eval_code != 0)
        run.failed += sum(outcome is not None for outcome in outcomes.values())
        if train_code != 0 or eval_code != 0:
            raise HarnessError(f"mvrd train/eval failed: {train_out} {eval_out}")
        trained, evaluated = _last_json(train_out), _last_json(eval_out)
        run.check(checks.check_same, "eval of the restored checkpoint against train's report",
                  trained, evaluated)
        run.check(checks.check_reported_metrics, [s.label for s in samples], logits, evaluated)
        run.check(checks.check_tape_empty, tape_length())
        if n == 0:
            first.update(metrics=evaluated, probes=outcomes,
                         epoch_losses=json.loads((run_dir / "report.jsonl").read_text())["epoch_losses"])
        run.check(checks.check_same, "eval metrics", first["metrics"], evaluated)

    run.rounds(one_round)

    # round trips of the two files gen-data wrote, outside the timed part
    loaded = mvrd.datasynth.load_features_file(features)
    run.check(checks.check_tokens_roundtrip, _as_plain(corpus), _as_plain(loaded))
    teacher_file = mvrd.teacher.load_teacher_file(teacher)
    spec = teacher_file.spec
    raw = {s.sample_id: {v: s.teacher.view(v).values for v in ("text", "image", "cross")}
           for s in corpus}
    got = {sid: {v: emb.view(v).values for v in ("text", "image", "cross")}
           for sid, emb in teacher_file.embeddings.items()}
    run.check(checks.check_teacher_projection, raw, got,
              checks.projection_matrix(spec.d_t, spec.d, spec.seed))

    run.detail.update(probes=first["probes"], epoch_losses=first["epoch_losses"])
    return run.end_to_end(first["metrics"])


WORKLOADS = {"train": train_workload, "ablate": ablate_workload, "ingest": ingest_workload}
