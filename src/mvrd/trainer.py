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

import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .config import ABLATIONS, ConfigError, TrainConfig, field_types
from .datasynth import Sample
from .diffcore import (
    ContractError,
    ParameterError,
    ValidationError,
    backward,
)
from .fileio import FormatError, check_format_version, parse_record, replace_atomically
from .metrics import Metrics, compute_metrics
from .model import Model, StackedDataset, check_fit
from .teacher import TeacherEmbeddings, fallback_embed
from .views import check_d_in

CHECKPOINT_MAGIC = b"MVRD-CKPT\n"
CHECKPOINT_VERSION = 3


class Adam:
    """Adaptive-moment optimizer with the usual constants: first-moment decay
    BETA1 = 0.9, second-moment decay BETA2 = 0.999, and EPS = 1e-8 added to
    the root of the second moment. A zero-gradient step from fresh state is a
    no-op. It updates a model's flat ``values`` from its flat ``grads`` in a
    few whole-array operations, each entry by the per-parameter formula, op
    for op, into scratch arrays made once."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, values: np.ndarray, grads: np.ndarray, lr: float = 1e-3):
        self.values, self.grads = values, grads
        self.lr = lr
        self.t = 0
        self._m, self._v = np.zeros_like(values), np.zeros_like(values)
        self._scratch = np.empty_like(values), np.empty_like(values)

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        g, m, v = self.grads, self._m, self._v
        a, b = self._scratch
        m *= self.BETA1
        m += np.multiply(g, 1.0 - self.BETA1, out=a)
        v *= self.BETA2
        v += np.multiply(np.multiply(g, g, out=a), 1.0 - self.BETA2, out=a)
        # values -= lr * (m / bc1) / (sqrt(v / bc2) + EPS)
        np.sqrt(np.divide(v, bc2, out=b), out=b)
        b += self.EPS
        np.multiply(np.divide(m, bc1, out=a), self.lr, out=a)
        self.values -= np.divide(a, b, out=a)


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
    """Mini-batch Adam training of the full model on one dataset. A step whose loss
    identities fail or whose gradient is non-finite raises ``ContractError`` before Adam."""
    cfg.validate()
    if not dataset:
        raise ValidationError("training set is empty")
    if cfg.ablation == "no_reasoning_prompts":
        dataset = replace_teacher_with_content_embeddings(dataset, cfg.d)

    start = time.perf_counter()
    data = StackedDataset.from_samples(dataset)
    check_fit(cfg, data.d_in, data)
    model = Model(cfg, data.d_in)
    optimizer = Adam(model.values, model.grads, cfg.learning_rate)
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
            if not np.isfinite(model.grads).all():
                name = _non_finite_parameter(model.grads, _layout(model))
                raise ContractError(f"parameter {name!r} has a non-finite gradient; Adam did not step")
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


# the paper's table: "full" and every row of ``ABLATIONS``, with the no_teacher
# row (lambda = 0) after no_reasoning_prompts
_NO_TEACHER_AT = ABLATIONS.index("no_reasoning_prompts") + 1
ABLATION_VARIANTS: tuple[tuple[str, dict], ...] = (
    *((name, {"ablation": name}) for name in ABLATIONS[:_NO_TEACHER_AT]),
    ("no_teacher", {"lambda_": 0.0}),
    *((name, {"ablation": name}) for name in ABLATIONS[_NO_TEACHER_AT:]),
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
    if cfg.ablation != "full":  # each row sets its own
        raise ConfigError(f"ablation_suite needs a base config with ablation = full, got {cfg.ablation!r}")
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


def _layout(model: Model) -> list:
    return [[p.name, list(p.tensor.shape)] for p in model.parameters()]


def _non_finite_parameter(values: np.ndarray, layout: list) -> str:
    """The parameter whose slice of the flat ``values`` holds its first non-finite entry."""
    ends = np.cumsum([math.prod(shape) for _, shape in layout])
    return layout[int(np.searchsorted(ends, np.argmin(np.isfinite(values)), side="right"))][0]


def _check_finite(values: np.ndarray, layout: list, where: str) -> None:
    """Refuse a non-finite value, naming the parameter whose slice holds the first."""
    if not np.isfinite(values).all():
        raise FormatError(f"{where}: parameter {_non_finite_parameter(values, layout)!r} holds a non-finite value")


def save_checkpoint(model: Model, path) -> None:
    """Checkpoint format 3: ``CHECKPOINT_MAGIC``; one JSON header line holding
    ``format_version``, ``layout`` (``[name, shape]`` pairs in ``parameters()``
    order), ``train_config`` and ``d_in``; then ``Model.values`` as 8 x
    sum(sizes) bytes of little-endian float64, and nothing after. A model with
    a non-finite value is refused, and a failed save keeps the previous file.
    ``load_checkpoint`` checks the file, and ``load_model`` what it means."""
    layout = _layout(model)
    _check_finite(model.values, layout, f"{path}: refusing to save")
    header = {"format_version": CHECKPOINT_VERSION, "layout": layout,
              "train_config": asdict(model.cfg), "d_in": model.d_in}
    with replace_atomically(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n")
        fh.write(model.values.astype("<f8", copy=False))  # no copy on a little-endian host


def load_checkpoint(path) -> tuple[dict, np.ndarray]:
    """A checkpoint's header and flat values, once the whole file is checked:
    the magic, the header line, ``format_version`` 3 (1 and 2 are refused), a
    layout of ``[name, [size, ...]]`` pairs, a body of exactly 8 x sum(sizes)
    bytes, and finite values. ``load_model`` checks what the header means."""
    with Path(path).open("rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint file")
        header = parse_record(fh.readline(), f"{path}: checkpoint header")
        body = fh.read()
    check_format_version(path, header, CHECKPOINT_VERSION)
    layout = header.get("layout")
    if not isinstance(layout, list) or not all(
        type(e) is list and len(e) == 2 and type(e[0]) is str and type(e[1]) is list
        and all(type(n) is int and n >= 0 for n in e[1]) for e in layout
    ):
        raise FormatError(f"{path}: checkpoint layout must list [name, [size, ...]] pairs")
    needed = 8 * sum(math.prod(shape) for _, shape in layout)
    if len(body) != needed:
        what = "truncated" if len(body) < needed else "overlong"
        raise FormatError(f"{path}: {what} checkpoint: {len(body)} body bytes, its layout needs {needed}")
    values = np.frombuffer(body, dtype="<f8")
    _check_finite(values, layout, str(path))
    return header, values


def load_model(path) -> Model:
    """Rebuild the model a checkpoint records and fill its arena. The header's
    ``train_config`` must hold every ``TrainConfig`` field with its type, and
    its layout must equal the rebuilt model's."""
    header, values = load_checkpoint(path)
    snapshot, d_in = header.get("train_config"), header.get("d_in")
    types = field_types(TrainConfig)
    if not isinstance(snapshot, dict) or set(snapshot) != set(types) or not all(
        types[k] is type(v) or (types[k] is float and type(v) is int) for k, v in snapshot.items()
    ):
        raise FormatError(f"{path}: checkpoint train_config is missing or malformed: {snapshot!r}")
    check_d_in(d_in, FormatError, f"{path}: checkpoint d_in")
    try:
        model = Model(TrainConfig(**snapshot), d_in)
    except (ConfigError, ValidationError) as exc:
        raise FormatError(f"{path}: checkpoint records an invalid model ({exc})") from exc
    layout = _layout(model)
    if header["layout"] != layout:
        saved, wanted = next((a, b) for a, b in zip_longest(header["layout"], layout) if a != b)
        raise FormatError(f"{path}: checkpoint layout has {saved} where the model has {wanted}")
    model.values[...] = values
    return model
