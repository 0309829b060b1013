"""One benchmark process: set up, run the workload closed loop, report.

Started by run.py. Prints `READY` once the imports are done, the run's
passes of the corpus are generated and one warm-up op has finished. Then,
unless `--setup-only`, it measures and prints one `RESULT <json>` line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import corpus
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference_digests.json"
REFERENCE_PASSES = 2



def _import_program():
    sys.path.insert(0, str(SRC))
    import qdsphere
    import qdsphere.cli
    import qdsphere.polyalg
    if Path(qdsphere.__file__).resolve().parent != SRC / "qdsphere":
        raise ImportError(f"qdsphere imported from {qdsphere.__file__}, not {SRC}")
    return qdsphere


class Runner:
    """Writes specs, calls the program, checks the outputs."""

    def __init__(self, qdsphere, workdir: Path):
        self.qd = qdsphere
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.spec_path = str(self.dir / "in.json")

    def run(self, op: corpus.Op):
        """Returns (latency_s, outcome, verdict, report bytes); the outcome
        is ok, error (raised or exit 1) or wrong (failed its check)."""
        if op.command == "poly_roots":
            return self._roots(op)
        ext = "svg" if op.command in ("render", "lemniscate") else "json"
        out_path = str(self.dir / f"out.{ext}")
        op.write_spec(self.spec_path)
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)
        argv = op.argv(self.spec_path, out_path)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                code = self.qd.cli.main(argv)
            except SystemExit as e:
                code = f"SystemExit({e.code})"
            except Exception as e:          # the op failed; keep measuring
                code = f"raised {type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
        if code == 1 or isinstance(code, str):
            msg = (stderr.getvalue().strip() or str(code)).splitlines()[-1]
            return dt, "error", checks.Verdict().fail(f"error: {msg[:200]}"), b""
        try:
            v = checks.check(op, code, out_path, stdout.getvalue())
        except (OSError, ValueError, KeyError, TypeError) as e:
            v = checks.Verdict().fail(f"unreadable output: {type(e).__name__}: {e}")
        if "Traceback" in stderr.getvalue():
            v.fail("traceback on stderr")
        report = stdout.getvalue().encode()
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                report += fh.read()
        return dt, ("ok" if v.ok else "wrong"), v, report

    def _roots(self, op: corpus.Op):
        poly = self.qd.polyalg.Polynomial(op.expect["coeffs"])
        t0 = time.perf_counter()
        try:
            clusters = self.qd.polyalg.poly_roots(poly)
        except self.qd.errors.QdError as e:
            dt = time.perf_counter() - t0
            return dt, "error", checks.Verdict().fail(f"error: {type(e).__name__}: {e}"), b""
        dt = time.perf_counter() - t0
        v = checks.check(op, clusters, "", "")
        report = repr([(c.location, c.multiplicity) for c in clusters]).encode()
        return dt, ("ok" if v.ok else "wrong"), v, report


def _run_pass(runner, ops, records, digests=None, recorder=None) -> float:
    """Runs the ops in order; returns the summed op latency."""
    total = 0.0
    for op in ops:
        if recorder is not None:
            recorder.op = op.id
        dt, outcome, verdict, report = runner.run(op)
        total += dt
        records.append(_record(op, dt, outcome, verdict, report))
        if digests is not None:
            digests[op.id] = hashlib.sha256(report).hexdigest()
    return total


def tail(latencies):
    """The highest percentile with at least ten samples above it:
    (value, percentile, samples above)."""
    xs = sorted(latencies)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def _summary(records) -> dict:
    return {
        "attempted": len(records),
        "errors": sum(1 for r in records if r["outcome"] == "error"),
        "wrong": sum(1 for r in records if r["outcome"] == "wrong"),
        "oracle_err_max": checks.oracle_max(r["verdict"] for r in records),
        "failures": [{"op": r["op"], "reason": r["verdict"].reason}
                     for r in records if r["outcome"] != "ok"][:20],
    }


def _record(op, dt, outcome, verdict, report) -> dict:
    return {"op": op.id, "family": f"{op.command}:{op.family}", "latency": dt,
            "outcome": outcome, "verdict": verdict, "bytes": len(report)}


def _measured(runner, passes, seconds: float) -> dict:
    """Closed loop over the run's op list (all passes): one full sweep,
    then more sweeps until `seconds` have passed. A speed sample is taken
    before the first op and after each op, and every op time is divided by
    the speed around it (speed.py). An op's time is the median of its
    normalized runs; a later run that fails replaces the op's record.

    wall_s is the median over the passes of a pass's summed op times (one
    op whose cost explodes moves one pass, not the run). call_p50_s and
    call_tail_s are taken over the ops that gave a correct answer."""
    ops = [op for ops in passes for op in ops]
    records: list = []
    raw: list = [[] for _ in ops]
    norm: list = [[] for _ in ops]
    times = []
    speeds = [speed.sample()]
    t_start = time.perf_counter()
    while len(times) < len(ops) or time.perf_counter() - t_start < seconds:
        j = len(times) % len(ops)
        dt, outcome, verdict, report = runner.run(ops[j])
        speeds.append(speed.sample())
        times.append(dt)
        raw[j].append(dt)
        rec = _record(ops[j], dt, outcome, verdict, report)
        if len(times) <= len(ops):
            records.append(rec)
        elif outcome != "ok" and records[j]["outcome"] == "ok":
            records[j] = rec
    for i, dt in enumerate(times):
        norm[i % len(ops)].append(dt / speed.around(speeds, i))
    per_op = [statistics.median(v) for v in norm]
    ok = [v for r, v in zip(records, per_op) if r["outcome"] == "ok"] or per_op

    def wall(times) -> float:
        cuts = list(itertools.accumulate([0] + [len(p) for p in passes]))
        return statistics.median(sum(times[a:b]) for a, b in zip(cuts, cuts[1:]))

    value, pct, beyond = tail(ok)
    families: dict = {}
    for r, v in zip(records, per_op):
        families.setdefault(r["family"], []).append(v)
    out = _summary(records)
    out.update({
        "runs": len(times),
        "measured_s": time.perf_counter() - t_start,
        "wall_s": wall(per_op),
        "raw_wall_s": wall([statistics.median(v) for v in raw]),
        "speed_median": statistics.median(speeds),
        "call_p50_s": statistics.median(ok),
        "call_tail_s": value,
        "call_tail_percentile": pct,
        "call_tail_beyond": beyond,
        "call_samples": len(ok),
        "family_p50_s": {k: statistics.median(v) for k, v in sorted(families.items())},
    })
    return out


def _traced(runner, passes, workload, spans_path) -> dict:
    """Each fixed pass runs untraced, then traced; per-layer metrics come
    from the traced copies and the overhead from the pass-time difference."""
    import tracing
    records: list = []
    plain, traced = [], []
    rec = tracing.Recorder()
    for ops in passes:
        plain.append(_run_pass(runner, ops, []))
        with rec:
            traced.append(_run_pass(runner, ops, records, recorder=rec))
    if spans_path:
        rec.write(spans_path)
    metrics = tracing.layer_metrics(rec.spans)
    overhead = statistics.median(t - p for t, p in zip(traced, plain))
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / statistics.median(plain)
    metrics["cli.report_bytes"] = sum(r["bytes"] for r in records)
    metrics["cli.report_digest_changed"] = _digest_changes(runner, workload)
    out = _summary(records)
    out["layers"] = metrics
    out["passes"] = len(passes)
    return out


def _reference_digests(runner, workload) -> dict:
    got: dict = {}
    for k in range(REFERENCE_PASSES):
        _run_pass(runner, corpus.build_pass(workload, corpus.DEFAULT_SEED, k), [], got)
    return got


def _digest_changes(runner, workload) -> int:
    """Reports of the default-seed reference passes whose bytes differ from
    the digests recorded in reference_digests.json."""
    with open(REFERENCE) as fh:
        want = json.load(fh)[workload]
    got = _reference_digests(runner, workload)
    return sum(1 for op_id, d in want.items() if got.get(op_id) != d)


def _write_reference(runner, workload) -> None:
    table = {}
    if REFERENCE.exists():
        with open(REFERENCE) as fh:
            table = json.load(fh)
    table[workload] = _reference_digests(runner, workload)
    with open(REFERENCE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--passes", type=int, default=None,
                    help="passes per run (default corpus.PASSES)")
    ap.add_argument("--spans", default=None, help="write the traced spans here (JSON)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true",
                    help="record the report digests of the default-seed passes")
    args = ap.parse_args(argv)

    qdsphere = _import_program()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        runner = Runner(qdsphere, workdir)
        passes = [corpus.build_pass(args.workload, args.seed, k)
                  for k in range(args.passes or corpus.PASSES[args.workload])]
        _dt, outcome, verdict, _ = runner.run(corpus.warmup_op(args.workload))
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.write_reference:
            _write_reference(runner, args.workload)
            return 0
        if args.trace:
            result = _traced(runner, passes, args.workload, args.spans)
        else:
            result = _measured(runner, passes, args.seconds)
        result["warmup"] = {"outcome": outcome, "reason": verdict.reason}
        result["numpy"] = np.__version__
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
