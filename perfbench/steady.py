"""Steadiness check: run each workload at several seeds and report the spread
of every end-to-end metric.

    python3 perfbench/steady.py [--workload probe level ...] --runs 10 [--first-seed 1]

For each metric it prints the median, the quartiles of
`statistics.quantiles(values, n=4)` and the spread (Q3 - Q1) / median, next
to a third of the bound in BENCHMARK.json. Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", nargs="+", default=None,
                    help="default: every workload in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--json", default=None, help="also write the raw values here")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = _steady(workload, args.first_seed, args.runs, seconds, bounds)
        if runs is None:
            return 1
        report[workload] = runs
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


def _steady(workload, first_seed, n_runs, seconds, bounds):
    values: dict[str, list] = {name: [] for name in bounds}
    runs = []
    for seed in range(first_seed, first_seed + n_runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=False)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return None
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **res})
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} " + " ".join(
                  f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    for name, vals in values.items():
        med, q1, q3, sp = spread(vals)
        print(f"{workload:8s} {name:14s} median {med:.5g}  Q1 {q1:.5g}  Q3 {q3:.5g}"
              f"  spread {sp:.4f}  (bound {bounds[name]}, third {bounds[name] / 3:.4f})",
              flush=True)
    return runs


if __name__ == "__main__":
    sys.exit(main())
