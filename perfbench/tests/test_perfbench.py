"""Tests of the benchmark itself: corpus determinism, known answers under
the affine maps, and a smoke run that prints every named metric.

    python3 -m pytest -q perfbench/tests
"""

import cmath
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import speed
import worker
from checks import check
from qdsphere.cli import main as cli_main

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _dump(ops):
    return json.dumps([(op.id, op.command, op.args, op.spec, repr(op.expect))
                       for op in ops], sort_keys=True)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic(workload):
    for k in (0, 3):
        assert _dump(corpus.build_pass(workload, 7, k)) == _dump(corpus.build_pass(workload, 7, k))
    assert _dump(corpus.build_pass(workload, 7, 0)) != _dump(corpus.build_pass(workload, 8, 0))
    assert _dump([corpus.warmup_op(workload)]) == _dump([corpus.warmup_op(workload)])


def test_a_run_covers_the_rotations_evenly(monkeypatch):
    maps = []

    def spy(*args, **kwargs):
        maps.append(draw(*args, **kwargs))
        return maps[-1]

    draw = corpus.draw_affine
    monkeypatch.setattr(corpus, "draw_affine", spy)
    n = corpus.PASSES["level"]
    for k in range(n):
        corpus.build_pass("level", 5, k)
    # one segment map and two wide maps per pass
    for family, m in ((maps[0::3], n), (maps[1::3] + maps[2::3], 2 * n)):
        turns = sorted((cmath.phase(t.a) / (2 * math.pi)) % 1.0 for t in family)
        gaps = [b - a for a, b in zip(turns, turns[1:])]
        assert gaps == pytest.approx([1.0 / m] * (m - 1))
        assert all(abs(t.b) <= 1.0 for t in family)


def test_speed_around_an_op_uses_the_samples_next_to_it():
    samples = [1.0, 1.0, 2.0, 2.0, 9.0, 9.0]
    assert speed.around(samples, 0) == 1.0
    assert speed.around(samples, 2) == 2.0
    assert speed.around(samples, 4) == 9.0
    assert 0.2 < speed.sample() < 20.0


def test_sign_sits_inside_the_p_over_q_squared_object():
    (op,) = [op for op in corpus.build_pass("probe", 1, 0) if op.family == "segment"]
    assert "sign" in op.spec["p_over_q_squared"] and "sign" not in op.spec


def _run_op(op, tmp_path):
    spec = tmp_path / "in.json"
    out = tmp_path / ("out.svg" if op.command in ("render", "lemniscate") else "out.json")
    op.write_spec(spec)
    code = cli_main(op.argv(str(spec), str(out)))
    return code, str(out)


@pytest.mark.parametrize("seed", [1, 2])
def test_affine_images_keep_the_known_answers(seed, tmp_path, capsys):
    probe = {op.family: op for op in corpus.build_pass("probe", seed, 0)}
    seg = probe["segment"]
    code, out = _run_op(seg, tmp_path)
    assert code == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["overall"] == "CertifiedNoRecurrence"
    (short,) = doc["short_trajectories"]
    assert abs(short["phi_length"] - math.pi / 2) <= 1e-4
    assert check(seg, code, out, "").ok

    winding = probe["winding"]
    code, out = _run_op(winding, tmp_path)
    assert code == 20
    assert check(winding, code, out, "").ok

    trace = [op for op in corpus.build_pass("probe", seed, 0) if op.command == "trace"][0]
    code, out = _run_op(trace, tmp_path)
    assert code == 0
    verdict = check(trace, code, out, "")
    assert verdict.ok and verdict.oracles["circle_closed_length"] <= 1.0
    capsys.readouterr()


def test_tail_has_ten_samples_beyond_it():
    value, pct, beyond = worker.tail([float(i) for i in range(40)])
    assert (value, beyond) == (29.0, 10)
    assert pct == pytest.approx(75.0)


def _bench_units(section):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench[section]}


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_named_metric(trace, tmp_path):
    spans = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verdict", "--seed", "3",
         "--seconds", "0", "--passes", "1", "--trace", str(trace), "--spans", str(spans)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=False)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    units = _bench_units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    text = "\n".join(lines[:-1])
    for name in ("failed_share", "oracle_err_max", "provenance"):
        assert name in text
    if trace:
        rows = json.loads(spans.read_text())
        assert {r["op"] for r in rows} >= {"verdict/3/0/general2", "verdict/3/0/roots64"}
        mains = [i for i, r in enumerate(rows) if r["name"] == "cli.main"]
        assert any(rows[r["parent"]]["name"] == "cli.main"
                   for r in rows if r["parent"] is not None)
        assert all(rows[i]["parent"] is None for i in mains)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "probe",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=170,
                         check=False)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
