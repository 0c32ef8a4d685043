"""Benchmark of the mvrd package: one workload, one fresh process per run.

    python3 perfbench/run.py --workload train --seed 2024 --seconds 30 --trace 0

Run from the root of a checkout. It imports the package from ``src/``,
builds its inputs from ``--seed``, measures for about ``--seconds`` seconds,
checks the program's outputs and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The full record of the run goes to ``.perfbench_out/``.
"""

import os

# BLAS must be pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "ablate", "ingest"))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    if not (SRC / "mvrd" / "__init__.py").is_file():
        print(f"perfbench: no mvrd package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mvrd

    if Path(mvrd.__file__).resolve().parent != (SRC / "mvrd").resolve():
        print(f"perfbench: imported mvrd from {mvrd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from layers import Tracer

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer(enabled=bool(args.trace))
    run = workloads.Run(seed=args.seed, seconds=args.seconds, tracer=tracer, work=work)
    tracer.install()
    try:
        end_to_end = workloads.WORKLOADS[args.workload](run)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = tracer.metrics() if args.trace else end_to_end
    if set(measured) != {m["name"] for m in chosen}:
        raise RuntimeError(f"metrics {sorted(measured)} do not match BENCHMARK.json")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in chosen},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "end_to_end": end_to_end,
        "check_failures": run.failures,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count()},
        **run.detail,
    }
    if args.trace:
        record["per_layer"] = measured
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
