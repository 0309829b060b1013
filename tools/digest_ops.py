"""Digest the outputs of every CLI op of the benchmark corpus.

    python3 tools/digest_ops.py --seeds 1,2 --out digests.json
    python3 tools/digest_ops.py --seeds 1,2 --out new.json --against old.json
    python3 tools/digest_ops.py --seeds 1 --workloads verdict,level --out part.json

Builds each pass of the four workloads of perfbench/corpus.py, or of the
ones --workloads names, at each seed, runs every CLI op in this process
through qdsphere.cli.main on the package in src/, and writes, per op id,
its exit code and the SHA-256 of its standard output followed by its
report or SVG. The direct poly_roots ops
of the corpus call no command and are left out. With --against FILE, a
digest file of another revision, it prints the ids whose entry differs or
is missing on one side, and exits 1 if there is any.

Check that a change keeps every output byte for byte by running it on a
copy of the parent revision and on the change, each with this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus
    from qdsphere import cli
    return corpus, cli


def digest_ops(seeds, workloads=None) -> dict:
    """{op id: {"exit": code, "sha256": digest}} over every CLI op of the
    workloads' passes at the given seeds (all workloads for None);
    ValueError for a name corpus.WORKLOADS does not hold."""
    corpus, cli = _program()
    unknown = sorted(set(workloads or ()) - set(corpus.WORKLOADS))
    if unknown:
        raise ValueError(f"unknown workloads {', '.join(unknown)}; "
                         f"choose from {', '.join(corpus.WORKLOADS)}")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "in.json"
        for workload in workloads or corpus.WORKLOADS:
            for seed in seeds:
                for k in range(corpus.PASSES[workload]):
                    for op in corpus.build_pass(workload, seed, k):
                        if op.command == "poly_roots":
                            continue
                        ext = "svg" if op.command in ("render", "lemniscate") else "json"
                        report = Path(tmp) / f"out.{ext}"
                        report.unlink(missing_ok=True)
                        op.write_spec(spec)
                        stdout = io.StringIO()
                        with contextlib.redirect_stdout(stdout), \
                                contextlib.redirect_stderr(io.StringIO()):
                            code = cli.main(op.argv(str(spec), str(report)))
                        h = hashlib.sha256(stdout.getvalue().encode())
                        if report.exists():
                            h.update(report.read_bytes())
                        out[op.id] = {"exit": code, "sha256": h.hexdigest()}
    return out


def differences(ops: dict, other: dict) -> list:
    """The ids whose entries differ, or that only one side has, sorted."""
    return sorted(i for i in ops.keys() | other.keys() if ops.get(i) != other.get(i))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2", help="comma-separated corpus seeds")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated workloads of perfbench/corpus.py (default: all)")
    ap.add_argument("--out", required=True, help="digest file to write")
    ap.add_argument("--against", default=None, help="digest file to compare with")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    try:
        ops = digest_ops(seeds, args.workloads.split(",") if args.workloads else None)
    except ValueError as err:
        ap.error(str(err))
    with open(args.out, "w") as fh:
        json.dump({"seeds": seeds, "ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(ops)} ops digested to {args.out}")
    if args.against is None:
        return 0
    with open(args.against) as fh:
        other = json.load(fh)["ops"]
    diff = differences(ops, other)
    for op_id in diff:
        print(op_id)
    print(f"{len(diff)} of {len(ops.keys() | other.keys())} ops differ from {args.against}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
