"""Benchmark for qdsphere: time to verdict, level grids and rendering.

    python3 perfbench/run.py --workload probe --seed 1 --seconds 15 --trace 0

Workloads (closed loop, one client, one process, BLAS/OpenMP pinned to one
thread): probe, verdict, level, render; see corpus.py. Inputs are generated
from --seed and handed to the program only as JSON spec files; every output
is checked against a known answer.

A run's op list is the workload's passes (corpus.PASSES), fixed by the
seed. With --trace 0 the run sweeps it closed loop until --seconds have
passed and reports the end-to-end metrics: setup_s (median of five
process starts up to imports done, corpus generated and one warm-up op
finished, divided by the run's median speed), wall_s (median over the passes of the pass time), call_p50_s and
call_tail_s (over the per-op times of the ops that gave a correct answer;
an op's time is the median of its runs), peak_rss_mb. Times are in seconds
at the reference host speed of speed.py: each measured time is divided by
the speed sampled next to it, so that the drift of a shared host does not
show as a change of the program. The raw wall time and the median speed
are printed in the text lines, with failed_share and oracle_err_max. With
--trace 1 the passes run once untraced and once traced, and the run
reports the per-layer metrics of tracing.py (raw seconds) plus the tracing
overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `correct` is false when a completed op gave
a wrong answer; ops that exit 1 or raise count as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "qdsphere"
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("call_p50_s", "s"),
              ("call_tail_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    return env


def _deadline(_signum, _frame):
    raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")


def _worker(args, extra: list) -> tuple[float, dict | None]:
    """Run one worker process; returns (set-up seconds, RESULT or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.passes:
        cmd += ["--passes", str(args.passes)]
    if args.spans:
        cmd += ["--spans", os.path.abspath(args.spans)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + extra, stdout=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=ROOT)
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.monotonic() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return ready, result


def _provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        sha = out.stdout.strip() or None
    return {
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "seed": args.seed,
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "threads": {k: "1" for k in THREAD_ENV},
    }


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share", "err_max")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("imag_drift_max"):
        return "1"
    return "count"


def run(args) -> dict:
    if not (SRC / "cli.py").is_file():
        raise BenchError(f"program sources not found under {SRC.parent}")
    setups = [_worker(args, ["--setup-only"])[0] for _ in range(SETUP_SAMPLES - 1)]
    ready, res = _worker(args, [])
    if res is None:
        raise BenchError("worker printed no result")
    setups.append(ready)
    # A speed sample taken at set-up does not track set-up time (it swings
    # by a third while set-up moves by a tenth), so set-up is scaled by the
    # median speed of the measured run, taken within a minute of it.
    res["setup_s"] = statistics.median(setups) / res.get("speed_median", 1.0)
    res["setup_samples"] = setups
    return res


def _report(args, res: dict) -> dict:
    failed = res["errors"] + res["wrong"]
    share = failed / res["attempted"]
    prov = _provenance(args)
    prov["numpy"] = res["numpy"]
    print("provenance " + json.dumps(prov, sort_keys=True))
    for f in res["failures"]:
        print(f"failed op {f['op']}: {f['reason']}")
    if res["warmup"]["outcome"] != "ok":
        print(f"warm-up op failed: {res['warmup']['reason']}")
    oracle = res["oracle_err_max"]
    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in res["layers"].items()}
        metrics["check.failed_share"] = {"value": share, "unit": "ratio"}
        metrics["check.oracle_err_max"] = {"value": oracle or 0.0, "unit": "ratio"}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END}
        print(f"call_tail_s is p{res['call_tail_percentile']:.1f} of "
              f"{res['call_samples']} ops ({res['call_tail_beyond']} beyond it); "
              f"{res['runs']} op runs in {res['measured_s']:.1f} s; "
              f"raw wall_s {res['raw_wall_s']:.4f} s at median speed "
              f"{res['speed_median']:.3f} (1 = reference); "
              f"raw set-up samples {[round(s, 4) for s in res['setup_samples']]} s")
        print("per-family median latency " + ", ".join(
            f"{k} {v:.4g} s" for k, v in res["family_p50_s"].items()))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_share':48s} {share:.6g} ratio ({failed} of {res['attempted']})")
    print(f"{'oracle_err_max':48s} {'n/a' if oracle is None else f'{oracle:.6g}'} ratio")
    return {"correct": res["wrong"] == 0, "attempted": res["attempted"],
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("probe", "verdict", "level", "render"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--passes", type=int, default=None,
                    help="passes per run (default corpus.PASSES; for smoke tests)")
    ap.add_argument("--spans", default=None,
                    help="with --trace 1, write the spans of the traced passes here")
    ap.add_argument("--write-reference", action="store_true",
                    help="record the report digests of the default-seed reference passes")
    args = ap.parse_args(argv)
    if args.write_reference:
        _worker(args, ["--write-reference"])
        return 0
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(int(DEADLINE_S))
    try:
        res = run(args)
    except (BenchError, OSError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(_report(args, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
