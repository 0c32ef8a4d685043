"""Training loop, runners, and persistence.

Everything here is deterministic under (config, master seed, dataset): the
shuffle stream, parameter init, and optimizer state contain no other sources
of randomness, so repeated runs produce bit-identical metrics.

The runners (``ablation_suite``, ``sweep``) rely on that: they train their
independent seed x variant jobs in forked worker processes, one per usable
CPU, and put the results back in job order, so every row and number equals
what the same ``train`` calls give one after another in this process.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, TrainConfig, field_types
from .datasynth import Sample
from .diffcore import (
    ContractError,
    Parameter,
    ParameterError,
    ValidationError,
    backward,
    zero_grads,
)
from .fileio import FormatError, parse_record, replace_atomically
from .metrics import Metrics, compute_metrics
from .model import Model, StackedDataset, check_fit
from .teacher import TeacherEmbeddings, fallback_embed
from .views import SOURCE_TAGS

CHECKPOINT_MAGIC = b"MVRD-CKPT\n"
CHECKPOINT_VERSION = 2


class Adam:
    """Adaptive-moment optimizer with the usual constants: first-moment decay
    BETA1 = 0.9, second-moment decay BETA2 = 0.999, and EPS = 1e-8 added to
    the root of the second moment. A zero-gradient step from fresh state is a
    no-op."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Parameter], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = {p.name: np.zeros(p.tensor.shape) for p in self.params}
        self._v = {p.name: np.zeros(p.tensor.shape) for p in self.params}

    def zero_grad(self) -> None:
        zero_grads(self.params)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        for p in self.params:
            g = p.tensor.grad
            m = self._m[p.name]
            v = self._v[p.name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            p.tensor.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)


@dataclass
class RunReport:
    """Serializable record of one training run."""

    config: dict
    seed: int
    epoch_losses: list[dict]
    metrics: dict | None
    wall_time_s: float


def replace_teacher_with_content_embeddings(samples: list[Sample], d: int) -> list[Sample]:
    """Prompt-less teacher: embed a digest of each sample's raw content instead
    of view-targeted reasoning. Deterministic; strips all planted teacher
    structure while staying content-dependent."""
    view_sources = (("text-tokens",), ("image-patches",), ("clip-text", "clip-image"))
    return [
        replace(s, teacher=TeacherEmbeddings(
            np.stack([fallback_embed(s.content(*tags), d) for tags in view_sources])
        ))
        for s in samples
    ]


def train(
    cfg: TrainConfig, dataset: list[Sample], eval_dataset: list[Sample] | None = None
) -> tuple[Model, RunReport]:
    """Mini-batch Adam training of the full model on one dataset."""
    cfg.validate()
    if not dataset:
        raise ValidationError("training set is empty")
    if cfg.no_reasoning_prompts_mode:
        dataset = replace_teacher_with_content_embeddings(dataset, cfg.d)

    start = time.perf_counter()
    data = StackedDataset.from_samples(dataset)
    check_fit(cfg, data.d_in, data)
    model = Model(cfg, data.d_in)
    optimizer = Adam(model.parameters(), cfg.learning_rate)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, 17)))
    n = len(dataset)

    epoch_losses: list[dict] = []
    for _ in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        sums: dict[str, float] = {}
        n_batches = 0
        for lo in range(0, n, cfg.batch_size):
            batch = data.batch(perm[lo : lo + cfg.batch_size])
            optimizer.zero_grad()
            breakdown = model.forward_loss(batch)
            backward(breakdown.graph)
            # written so that a NaN error fails the check: a non-finite loss
            # must not reach the optimizer. The bound is relative above 1, as
            # the two sides of an identity sum in different orders.
            err_c, err_total = breakdown.identity_errors()
            tol = 1e-12 * max(1.0, abs(breakdown.total))
            if not (err_c <= tol and err_total <= tol):
                raise ContractError(
                    f"loss identities violated: |L_C err|={err_c:.3e}, |total err|={err_total:.3e}"
                )
            optimizer.step()
            for key in ("final", "branch", "classification", "total"):
                sums[key] = sums.get(key, 0.0) + getattr(breakdown, key)
            for view, value in breakdown.distill.items():
                sums[f"distill_{view}"] = sums.get(f"distill_{view}", 0.0) + value
            n_batches += 1
        epoch_losses.append({k: v / n_batches for k, v in sums.items()})

    metrics = evaluate(model, eval_dataset) if eval_dataset else None
    report = RunReport(
        config=asdict(cfg),
        seed=cfg.master_seed,
        epoch_losses=epoch_losses,
        metrics=metrics.as_dict() if metrics else None,
        wall_time_s=time.perf_counter() - start,
    )
    return model, report


def evaluate(model: Model, test_set: list[Sample]) -> Metrics:
    """Accuracy/F1/AUC on a held-out set; never touches teacher embeddings."""
    if not test_set:
        raise ValidationError("evaluation set is empty")
    logits = model.predict_logits(test_set)
    labels = np.array([s.label for s in test_set], dtype=np.int64)
    return compute_metrics(labels, logits)


# ---------------------------------------------------------------------------
# runners


@dataclass
class VariantResult:
    name: str
    mean: dict[str, float]
    sd: dict[str, float]
    per_seed: list[dict[str, float]] = field(default_factory=list)


ABLATION_VARIANTS: tuple[tuple[str, dict], ...] = (
    ("full", {}),
    ("drop_L_text", {"drop_L_text": True}),
    ("drop_L_image", {"drop_L_image": True}),
    ("drop_L_cross", {"drop_L_cross": True}),
    ("drop_text_view", {"drop_text_view": True}),
    ("drop_image_view", {"drop_image_view": True}),
    ("no_reasoning_prompts", {"no_reasoning_prompts_mode": True}),
    ("no_teacher", {"lambda_": 0.0}),
    ("no_feature_extractors", {"no_feature_extractors_mode": True}),
    ("no_attention", {"no_attention_mode": True}),
)


def _table(
    cfg: TrainConfig, variants, train_set, test_set, n_seeds: int
) -> list[VariantResult]:
    """One row per ``(name, overrides)`` variant, over seeds ``master_seed + k``.

    The jobs are listed variant-major, seed-minor and run by ``_run_jobs``,
    once every job's config has passed ``validate`` and ``check_fit`` against
    the train set.
    """
    if n_seeds < 1:
        raise ParameterError(f"a table needs n_seeds >= 1, got {n_seeds}")
    if not (train_set and test_set):
        raise ValidationError("a table needs a nonempty train set and test set")
    jobs = [
        cfg.replace(master_seed=cfg.master_seed + k, **overrides).validate()
        for _, overrides in variants
        for k in range(n_seeds)
    ]
    data = StackedDataset.from_samples(train_set)
    for job in jobs:
        check_fit(job, data.d_in, data)
    del data  # each job stacks its own copy
    metrics = _run_jobs(jobs, train_set, test_set)
    rows = []
    for i, (name, _) in enumerate(variants):
        per_seed = metrics[i * n_seeds : (i + 1) * n_seeds]
        keys = per_seed[0].as_dict().keys()
        arrays = {k: np.array([m.as_dict()[k] for m in per_seed]) for k in keys}
        mean = {k: float(v.mean()) for k, v in arrays.items()}
        sd = {k: float(v.std(ddof=1)) if len(v) > 1 else 0.0 for k, v in arrays.items()}
        rows.append(VariantResult(name, mean, sd, [m.as_dict() for m in per_seed]))
    return rows


# (train_set, test_set) of a runner's pool; set only inside its forked workers
_worker_sets: tuple[list[Sample], list[Sample]] | None = None


def _init_worker(train_set: list[Sample], test_set: list[Sample]) -> None:
    global _worker_sets
    _worker_sets = (train_set, test_set)


def _job_metrics(cfg: TrainConfig, train_set, test_set) -> Metrics:
    _, report = train(cfg, train_set, eval_dataset=test_set)
    return Metrics(**report.metrics)


def _worker_job(cfg: TrainConfig) -> Metrics:
    return _job_metrics(cfg, *_worker_sets)


def _run_jobs(jobs: list[TrainConfig], train_set, test_set) -> list[Metrics]:
    """Train and evaluate every config; the metrics come back in job order.

    Jobs are independent and ``train`` is deterministic, so running them in
    worker processes gives bit-identical numbers. The start method is "fork"
    by name (Python 3.14 defaults to forkserver): it hands the datasets to the
    workers without pickling them, so per job only the config goes out and
    only the metrics come back. The pool closes before this returns, and a
    failed job raises its own exception here. While the caller runs other
    threads, the jobs run in this process instead: a fork copies any lock such
    a thread holds, and a worker that then takes it would wait forever.
    """
    # imported here: only the runners need them, and they add ~0.9 MiB of
    # resident memory to every process that imports the trainer
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    workers = min(len(jobs), cpus)
    forkable = "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1
    if workers <= 1 or not forkable:
        return [_job_metrics(cfg, train_set, test_set) for cfg in jobs]
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(train_set, test_set),
    ) as pool:
        return list(pool.map(_worker_job, jobs))


def ablation_suite(
    cfg: TrainConfig, train_set, test_set, n_seeds: int = 5
) -> list[VariantResult]:
    """Full model plus every single-mechanism removal, mean +/- sd over seeds.

    The variant x seed runs go to forked worker processes (see ``_run_jobs``);
    rows and per-seed entries keep ``ABLATION_VARIANTS`` and seed order, and
    every number equals the one a serial ``train`` call gives.
    """
    if n_seeds < 3:
        raise ParameterError(f"ablation needs n_seeds >= 3, got {n_seeds}")
    return _table(cfg, ABLATION_VARIANTS, train_set, test_set, n_seeds)


SWEEP_AXES = {"lambda": "lambda_", "tau": "tau", "alpha": "alpha", "heads": "heads"}


def sweep(
    cfg: TrainConfig, axis: str, values, train_set, test_set, n_seeds: int = 3
) -> list[VariantResult]:
    """Metric curve along one hyperparameter axis, mean +/- sd over seeds.

    Runs like ``ablation_suite``: value x seed jobs in forked workers, rows in
    ``values`` order, numbers identical to serial ``train`` calls.
    """
    if axis not in SWEEP_AXES:
        raise ParameterError(f"sweep axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    if axis == "heads":
        # the CLI parses values as floats: 2.5 heads is an error, not 2
        bad = [v for v in values if not float(v).is_integer()]
        if bad:
            raise ConfigError(f"head counts {bad} must be whole numbers")
    field_name = SWEEP_AXES[axis]
    values = [int(v) if axis == "heads" else float(v) for v in values]
    variants = [(f"{axis}={value}", {field_name: value}) for value in values]
    return _table(cfg, variants, train_set, test_set, n_seeds)


def sweep_chart(rows: list[VariantResult], axis: str, path) -> bool:
    """Render the sweep as a chart file; returns False when matplotlib is absent."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False
    values = [row.name.split("=", 1)[1] for row in rows]
    fig, ax = plt.subplots(figsize=(6, 4))
    for key in ("accuracy", "f1_fake", "f1_real", "auc"):
        means = [row.mean[key] for row in rows]
        sds = [row.sd[key] for row in rows]
        ax.errorbar(values, means, yerr=sds, marker="o", capsize=3, label=key)
    ax.set_xlabel(axis)
    ax.set_ylabel("metric")
    ax.legend()
    fig.tight_layout()
    with replace_atomically(path, "wb") as fh:
        fig.savefig(fh, format="png", dpi=120)
    plt.close(fig)
    return True


# ---------------------------------------------------------------------------
# checkpoints


def _layout_hash(params: list[Parameter]) -> str:
    layout = [[p.name, list(p.tensor.shape)] for p in params]
    return hashlib.sha256(json.dumps(layout).encode()).hexdigest()


def save_checkpoint(model: Model, path) -> None:
    """Binary checkpoint: JSON header, then per-parameter meta + raw float64."""
    params = model.parameters()
    header = {
        "format_version": CHECKPOINT_VERSION,
        "layout_hash": _layout_hash(params),
        "train_config": asdict(model.cfg),
        "d_in": model.d_in,
    }
    with replace_atomically(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(header).encode() + b"\n")
        for p in params:
            meta = {"name": p.name, "shape": list(p.tensor.shape)}
            fh.write(json.dumps(meta).encode() + b"\n")
            fh.write(np.ascontiguousarray(p.tensor.values, dtype="<f8").tobytes())
            fh.write(b"\n")


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a checkpoint fully before returning; truncation never partially loads."""
    blob = Path(path).read_bytes()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise FormatError(f"{path}: not a checkpoint file")
    cursor = len(CHECKPOINT_MAGIC)

    def read_object(what: str) -> dict:
        nonlocal cursor
        end = blob.find(b"\n", cursor)
        if end < 0:
            raise FormatError(f"{path}: truncated checkpoint")
        obj = parse_record(blob[cursor:end], f"{path}: checkpoint {what}")
        cursor = end + 1
        return obj

    header = read_object("header")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise FormatError(
            f"{path}: unsupported checkpoint format_version {header.get('format_version')!r}"
        )
    arrays: dict[str, np.ndarray] = {}
    while cursor < len(blob):
        meta = read_object("parameter meta line")
        name, shape = meta.get("name"), meta.get("shape")
        if not isinstance(name, str) or not (
            isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
        ):
            raise FormatError(f"{path}: parameter meta line needs a name and a shape: {meta}")
        if name in arrays:
            raise FormatError(f"{path}: parameter {name!r} appears twice")
        nbytes = math.prod(shape) * 8
        if cursor + nbytes + 1 > len(blob):
            raise FormatError(f"{path}: truncated checkpoint at parameter {name!r}")
        arrays[name] = np.frombuffer(blob[cursor : cursor + nbytes], dtype="<f8").reshape(shape)
        cursor += nbytes + 1
    return header, arrays


def _check_arrays(params: list[Parameter], header: dict, arrays: dict[str, np.ndarray]) -> None:
    """The checkpoint must hold exactly the model's parameters, with the model's
    shapes, and its header must record the model's layout hash."""
    names, saved = {p.name for p in params}, set(arrays)
    if saved != names:
        raise FormatError(f"checkpoint lacks {sorted(names - saved)} and has extra {sorted(saved - names)}")
    for p in params:
        if arrays[p.name].shape != p.tensor.shape:
            raise FormatError(
                f"parameter {p.name!r}: checkpoint shape {arrays[p.name].shape} "
                f"does not match model shape {p.tensor.shape}"
            )
    if header.get("layout_hash") != _layout_hash(params):
        raise FormatError("checkpoint layout differs from the model's parameter layout")


def load_model(path) -> Model:
    """Rebuild the model architecture recorded in a checkpoint and load it."""
    header, arrays = load_checkpoint(path)
    snapshot, d_in = header.get("train_config"), header.get("d_in")
    types = field_types(TrainConfig)
    if not isinstance(snapshot, dict) or not all(
        types.get(k) is type(v) or (types.get(k) is float and type(v) is int)
        for k, v in snapshot.items()
    ):
        raise FormatError(f"{path}: checkpoint train_config is missing or malformed: {snapshot!r}")
    if not (
        isinstance(d_in, dict)
        and set(d_in) == set(SOURCE_TAGS)
        and all(type(v) is int and v >= 1 for v in d_in.values())
    ):
        raise FormatError(f"{path}: checkpoint d_in is missing or malformed: {d_in!r}")
    try:
        model = Model(TrainConfig(**snapshot), d_in)
    except (ConfigError, ValidationError) as exc:
        raise FormatError(f"{path}: checkpoint records an invalid model ({exc})") from exc
    params = model.parameters()
    _check_arrays(params, header, arrays)
    for p in params:
        p.tensor.values[...] = arrays[p.name]
    return model
