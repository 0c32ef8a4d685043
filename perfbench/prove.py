"""Steadiness proof: one run per seed, one after another, in fresh processes.

    python3 perfbench/prove.py --label A --seeds 1-10                # every workload
    python3 perfbench/prove.py --label B --seeds 11-20 --workloads ingest
    python3 perfbench/prove.py --label T --seeds 1-5 --trace 1     # per-layer figures
    python3 perfbench/prove.py --compare A B

For each workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to an end-to-end metric's bound, and the share of failed
operations.
``--compare`` checks a second set against a first: every spread except
``setup_s``'s within its bound, every median no worse than the first set's by
more than the bound, and the same failed share. Sets are kept in
``.perfbench_out/prove-<label>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def collect(label: str, workloads: list[str], seeds: list[int], seconds: int, trace: int) -> dict:
    path = OUT_DIR / f"prove-{label}.json"
    sets = json.loads(path.read_text()) if path.exists() else {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, seconds, trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        sets[workload] = runs
        OUT_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(sets, indent=1) + "\n")
    return sets


def report(sets: dict) -> None:
    for workload, runs in sets.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, all correct={correct}, failed shares={sorted(shares)}")
        print(f"  {'metric':44}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            bound = f"{BOUNDS[name]['bound']:7.2f}" if name in BOUNDS else ""
            spread = f"{s['spread']:9.4f}" if s["median"] else f"{'-':>9}"
            print(f"  {name:44}{s['median']:14.6g}{s['q1']:14.6g}{s['q3']:14.6g}{spread}{bound}")


def compare(first: dict, second: dict) -> bool:
    ok = True
    for workload in first:
        a, b = first[workload], second[workload]
        share_a = {r["failed"] / r["attempted"] for r in a}
        share_b = {r["failed"] / r["attempted"] for r in b}
        if len(share_a | share_b) != 1:
            print(f"{workload}: failed shares differ: {share_a} vs {share_b}")
            ok = False
        for name, spec in BOUNDS.items():
            sa = summarize([r["metrics"][name]["value"] for r in a])
            sb = summarize([r["metrics"][name]["value"] for r in b])
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (sb["median"] - sa["median"]) / sa["median"]
            spread_ok = name == "setup_s" or max(sa["spread"], sb["spread"]) <= spec["bound"]
            verdict = "ok" if spread_ok and worse <= spec["bound"] else "FAIL"
            ok &= verdict == "ok"
            print(f"{workload:7}{name:24} spreads {sa['spread']:.4f} {sb['spread']:.4f}  "
                  f"second median worse by {worse:+.4f}  bound {spec['bound']:.2f}  {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label")
    parser.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads((OUT_DIR / f"prove-{label}.json").read_text())
                         for label in args.compare)
        return 0 if compare(first, second) else 1
    sets = collect(args.label, args.workloads, seed_list(args.seeds), args.seconds, args.trace)
    report(sets)
    return 0


if __name__ == "__main__":
    sys.exit(main())
