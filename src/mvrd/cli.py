"""Command-line interface.

Subcommands: gen-data, gen-teacher, train, eval, ablate, sweep, ttest,
grad-check. Config files are flat key=value text (see config.py); the class
convention is fake = 1 everywhere, which is what f1_fake reports.

Exit code 0 on success; on failure a single machine-parsable JSON error line
is written to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import diffcore
from .config import TrainConfig, build_configs, read_config_file
from .datasynth import (
    SyntheticConfig,
    attach_teacher,
    generate_dataset,
    load_features_file,
    save_features_file,
    split,
)
from .fileio import write_records
from .metrics import welch_ttest
from .model import Model, StackedDataset
from .teacher import (
    ProjectionSpec,
    ReasoningClient,
    ReasoningRecord,
    SamplePayload,
    default_templates,
    fallback_embed,
    fetch_chains,
    load_teacher_file,
    mock_chain,
    save_teacher_file,
)
from .trainer import (
    ablation_suite,
    evaluate,
    load_model,
    save_checkpoint,
    sweep,
    sweep_chart,
    train,
)
from .views import SOURCE_TAGS, VIEWS


def _load_configs(args) -> tuple[TrainConfig, SyntheticConfig]:
    entries = read_config_file(args.config) if args.config else {}
    train_cfg, synth_cfg = build_configs(entries)
    if args.seed is not None:
        train_cfg = train_cfg.replace(master_seed=args.seed).validate()
        synth_cfg = SyntheticConfig(**{**asdict(synth_cfg), "seed": args.seed}).validate()
    return train_cfg, synth_cfg


def _load_split(args):
    """The run's config and the train/test split of ``--features`` (with
    ``--teacher`` attached), for train, ablate and sweep."""
    train_cfg, _ = _load_configs(args)
    samples = load_features_file(args.features)
    if args.teacher:
        attach_teacher(samples, load_teacher_file(args.teacher).embeddings)
    fractions = (args.train_frac, 1.0 - args.train_frac)
    train_set, test_set = split(samples, fractions, train_cfg.master_seed)
    return train_cfg, train_set, test_set


def _numbers(text: str, flag: str) -> list[float]:
    """A flag's comma-separated list of numbers."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise diffcore.ValidationError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _print_rows(rows) -> None:
    keys = ("accuracy", "f1_fake", "f1_real", "auc")
    width = max(len(r.name) for r in rows) + 2
    print("variant".ljust(width) + "  ".join(k.rjust(17) for k in keys))
    for row in rows:
        cells = [f"{row.mean[k]:.4f} +/- {row.sd[k]:.4f}" for k in keys]
        print(row.name.ljust(width) + "  ".join(c.rjust(17) for c in cells))


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    _, synth_cfg = _load_configs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    samples = generate_dataset(synth_cfg)
    save_features_file(samples, out / "features.jsonl")
    spec = ProjectionSpec(
        d_t=synth_cfg.teacher_dim, d=synth_cfg.teacher_dim, seed=synth_cfg.seed + 7919
    )
    records = [
        ReasoningRecord(s.sample_id, view, "", row)
        for s in samples
        for view, row in zip(VIEWS, s.teacher.values)
    ]
    save_teacher_file(records, spec, out / "teacher.jsonl")
    print(f"wrote {len(samples)} samples to {out}/features.jsonl and {out}/teacher.jsonl")
    return 0


def cmd_gen_teacher(args) -> int:
    spec = ProjectionSpec(d_t=args.d_t, d=args.student_dim, seed=args.seed or 0)
    client = None
    if args.mode == "endpoint":
        client = ReasoningClient(
            args.endpoint, args.cache_dir, args.model, args.timeout, args.retries
        )
    samples = load_features_file(args.features)
    payloads = [
        SamplePayload(s.sample_id, s.content(*SOURCE_TAGS), f"{s.sample_id}-image")
        for s in samples
    ]
    fetch = mock_chain if client is None else client.fetch_chain
    records = [
        ReasoningRecord(p.sample_id, view, chain, fallback_embed(chain, spec.d_t, spec.seed))
        for p, chains in zip(payloads, fetch_chains(fetch, payloads, default_templates()))
        for view, chain in zip(VIEWS, chains)
    ]
    save_teacher_file(records, spec, args.out)
    summary = f"wrote {len(records)} teacher records to {args.out}"
    if client is not None:
        summary += f" ({client.network_calls} network calls, {client.cache_hits} cache hits)"
    print(summary)
    return 0


def cmd_train(args) -> int:
    train_cfg, train_set, test_set = _load_split(args)
    model, report = train(train_cfg, train_set, eval_dataset=test_set)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "checkpoint.bin")
    write_records(out / "report.jsonl", [asdict(report)])
    print(json.dumps(report.metrics))
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.checkpoint)
    samples = load_features_file(args.features)
    metrics = evaluate(model, samples).as_dict()
    if args.out:
        write_records(args.out, [metrics])
    print(json.dumps(metrics))
    return 0


def cmd_ablate(args) -> int:
    train_cfg, train_set, test_set = _load_split(args)
    rows = ablation_suite(train_cfg, train_set, test_set, n_seeds=args.seeds)
    _print_rows(rows)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        write_records(Path(args.out) / "ablation.jsonl", map(asdict, rows))
    return 0


def cmd_sweep(args) -> int:
    values = _numbers(args.values, "--values")
    train_cfg, train_set, test_set = _load_split(args)
    rows = sweep(train_cfg, args.axis, values, train_set, test_set, n_seeds=args.seeds)
    _print_rows(rows)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        write_records(Path(args.out) / f"sweep_{args.axis}.jsonl", map(asdict, rows))
        if args.chart:
            ok = sweep_chart(rows, args.axis, Path(args.out) / f"sweep_{args.axis}.png")
            if not ok:
                print("matplotlib unavailable; skipped chart", file=sys.stderr)
    return 0


def cmd_ttest(args) -> int:
    result = welch_ttest(_numbers(args.a, "--a"), _numbers(args.b, "--b"))
    print(json.dumps({"t": result.t, "dof": result.dof, "p": result.p}))
    return 0


def cmd_grad_check(args) -> int:
    synth = SyntheticConfig(
        n_samples=args.samples,
        d_in=args.d,
        teacher_dim=args.d,
        len_text=3,
        len_image=3,
        len_clip=2,
        seed=args.seed or 0,
    )
    samples = generate_dataset(synth)
    heads = max(h for h in (1, 2, 4) if args.d % h == 0)
    cfg = TrainConfig(
        d=args.d, d_h=2 * args.d, heads=heads, encoder_heads=heads, master_seed=args.seed or 0
    )
    batch = StackedDataset.from_samples(samples)
    model = Model(cfg, batch.d_in)
    report = diffcore.grad_check(
        lambda: model.forward_loss(batch).graph, model.parameters(), h=1e-5, tol=1e-4
    )
    print(
        json.dumps(
            {
                "max_rel_error": report.max_rel_error,
                "entries_checked": report.entries_checked,
                "deterministic": report.deterministic,
                "passed": report.passed,
            }
        )
    )
    return 0 if report.passed else 3


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvrd",
        description="Multi-view reasoning distillation harness (fake = class 1 throughout).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        if out_default is not None:
            p.add_argument("--out", default=out_default, help="output directory/file")

    def data(p):
        """The features, teacher and split flags that ``_load_split`` reads."""
        p.add_argument("--features", required=True)
        p.add_argument("--teacher")
        p.add_argument("--train-frac", type=float, default=0.8)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset (features + teacher)")
    common(p, out_default="data")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("gen-teacher", help="generate a teacher file for a features file")
    common(p, out_default="teacher.jsonl")
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=("mock", "endpoint"), default="mock")
    p.add_argument("--endpoint", help="chat-completion URL (endpoint mode)")
    p.add_argument("--model", default="teacher-mllm")
    p.add_argument("--cache-dir", default=".teacher-cache")
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--d-t", type=int, default=64, help="raw teacher embedding dimension")
    p.add_argument("--student-dim", type=int, default=32, help="projection target dimension d")
    p.set_defaults(fn=cmd_gen_teacher)

    p = sub.add_parser("train", help="train on a features(+teacher) file and checkpoint")
    common(p, out_default="run")
    data(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a features file")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run the full ablation table")
    common(p, out_default=None)
    data(p)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("sweep", help="sweep lambda/tau/alpha/heads")
    common(p, out_default=None)
    data(p)
    p.add_argument("--axis", required=True, choices=("lambda", "tau", "alpha", "heads"))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--out")
    p.add_argument("--chart", action="store_true", help="also render a PNG chart")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("ttest", help="Welch t-test between two comma-separated samples")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=cmd_ttest)

    p = sub.add_parser("grad-check", help="finite-difference check of the full loss")
    common(p)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--samples", type=int, default=4)
    p.set_defaults(fn=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # one-line machine-parsable failure
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
