"""Acceptance gate: twelve analytic-oracle and property criteria.

Run with `pytest -v tests/test_acceptance.py`; each criterion is one test
function, so the verbose listing gives one pass/fail line per criterion.
Every test also enforces its own wall-clock ceiling.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qdsphere.cli import main as cli_main
from qdsphere.criteria import (
    CERTIFIED,
    INCONCLUSIVE,
    QdPolygon,
    overall_verdict,
    run_all,
    teichmuller_check,
)
from qdsphere.errors import NotCoprime, ResidueObstruction, StartTooClose
from qdsphere.graph import (
    NOT_RECURRENT,
    SUSPECTED_RECURRENT,
    build_critical_graph,
    detect_recurrence,
    find_short_trajectories,
)
from qdsphere.lemniscate import analyze_lemniscate
from qdsphere.level import level_function, level_grid, verify_level
from qdsphere.polyalg import Polynomial
from qdsphere.qdiff import (
    CIRCULAR,
    cauchy_qd,
    classify_double_pole,
    critical_directions,
    critical_points,
    measure_density,
    measure_mass,
    qd_from_p_over_q_squared,
    qd_new,
)
from qdsphere.tracer import (
    CLOSED,
    TraceOptions,
    imag_drift_of,
    trace_horizontal,
)

ONE = Polynomial([1.0])
Z = Polynomial([0.0, 1.0])


def fig1_left():
    return qd_new(Polynomial([-1.0]),
                  Polynomial.from_roots([0.5, -0.5, 1 + 1j, -1 - 1j]))


def fig1_right():
    return qd_new(Polynomial([0.0, -1.0]),
                  Polynomial.from_roots([0.5, 1 + 1j, 2 - 1j]))


FIG1_LEFT_SPEC = {
    "format_version": 1,
    "general": {
        "numerator": [[-1.0, 0.0]],
        "denominator": [[0.0, 0.5], [0.0, 0.0], [-0.25, -2.0], [0.0, 0.0], [1.0, 0.0]],
    },
    "seeds": [[1.0, 0.0]],
    "budgets": {"max_phi_length": 200.0},
}


class Deadline:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.t0
        assert elapsed <= self.limit, f"exceeded {self.limit}s budget ({elapsed:.1f}s)"


def test_01_tracer_imag_drift_below_1e5():
    dl = Deadline(5.0)
    catalog = [
        qd_new(ONE, ONE),                                    # phi = 1
        qd_from_p_over_q_squared(ONE, Z, sign=-1),           # -1/z^2
        qd_new(Polynomial([1.0, 0.0, -1.0]), ONE),           # 1 - z^2
        fig1_left(),
        fig1_right(),
    ]
    seeds = [1.0 + 0.0j, -1.5 + 0.8j, 0.2 + 1.4j]
    worst = 0.0
    traced = 0
    for qd in catalog:
        opts = TraceOptions.for_qd(qd).replace(max_phi_length=50.0)
        for z0 in seeds:
            for orientation in (1, -1):
                try:
                    ray = trace_horizontal(qd, z0, orientation, opts=opts)
                except StartTooClose:
                    continue          # z0 = 1 is a zero of 1 - z^2
                worst = max(worst, imag_drift_of(qd, ray))
                traced += 1
    assert traced >= 28
    assert worst <= 1e-5
    dl.check()


def test_02_circle_domain_oracle():
    dl = Deadline(1.0)
    qd = qd_from_p_over_q_squared(ONE, Z, sign=-1)
    ray = trace_horizontal(qd, 1.0)
    assert ray.termination.kind == CLOSED
    assert abs(ray.phi_length - 2 * math.pi) <= 1e-4
    assert classify_double_pole(qd, 0.0) == CIRCULAR
    dl.check()


def test_03_critical_directions_cube_roots():
    dl = Deadline(1.0)
    qd = qd_new(Z, ONE)
    (cp,) = [c for c in critical_points(qd) if c.signed_order == 1]
    got = sorted(math.atan2(d.imag, d.real) % (2 * math.pi)
                 for d in critical_directions(qd, cp))
    want = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
    assert len(got) == 3
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-9
    dl.check()


def test_04_short_trajectory_oracles():
    dl = Deadline(5.0)
    qd = qd_new(Polynomial([1.0, 0.0, -1.0]), ONE)
    shorts = find_short_trajectories(qd)
    assert len(shorts) == 1
    edge = shorts[0]
    assert abs(edge.phi_length - math.pi / 2) <= 1e-4
    ends = sorted([edge.polyline[0], edge.polyline[-1]], key=lambda z: z.real)
    assert abs(ends[0] - (-1)) <= 5e-4 and abs(ends[1] - 1) <= 5e-4

    qd2 = qd_new(Polynomial([4.0, 0.0, -1.0]), ONE)          # -(z^2 - 4)
    shorts2 = find_short_trajectories(qd2)
    assert len(shorts2) == 1
    ends2 = sorted([shorts2[0].polyline[0], shorts2[0].polyline[-1]],
                   key=lambda z: z.real)
    assert abs(ends2[0] - (-2)) <= 5e-4 and abs(ends2[1] - 2) <= 5e-4
    dl.check()


def test_05_order_sum_invariant_100_random():
    dl = Deadline(5.0)
    rng = np.random.default_rng(42)
    done = 0
    while done < 100:
        dn = int(rng.integers(0, 7))
        dd = int(rng.integers(0, 7))
        num = Polynomial(rng.normal(size=dn + 1) + 1j * rng.normal(size=dn + 1))
        den = Polynomial(rng.normal(size=dd + 1) + 1j * rng.normal(size=dd + 1))
        if num.is_zero() or den.is_zero():
            continue
        try:
            qd = qd_new(num, den)
        except NotCoprime:
            continue
        assert sum(c.signed_order for c in critical_points(qd)) == -4
        done += 1
    dl.check()


def test_06_criteria_catalog():
    dl = Deadline(10.0)
    by_name = lambda qd, **kw: {v.criterion: v.verdict for v in run_all(qd, **kw)}

    assert by_name(qd_new(ONE, ONE))["ThreePole"] == CERTIFIED
    assert by_name(qd_new(Polynomial([1.0, 0.0, -1.0]), ONE))["OddMultiplicity"] == CERTIFIED

    circle = by_name(qd_from_p_over_q_squared(ONE, Z, sign=-1))
    assert sum(1 for v in circle.values() if v == CERTIFIED) >= 2

    for qd in (fig1_left(), fig1_right()):
        opts = TraceOptions.for_qd(qd).replace(max_phi_length=60.0)
        verdicts = run_all(qd, opts=opts)
        assert all(v.verdict == INCONCLUSIVE for v in verdicts)
        assert overall_verdict(verdicts) == INCONCLUSIVE
    dl.check()


def test_07_recurrence_detector_figure_winding():
    dl = Deadline(30.0)
    qd = fig1_left()
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=200.0)
    report = detect_recurrence(qd, 1.0 + 0.0j, opts=opts)
    assert report.verdict == SUSPECTED_RECURRENT
    assert report.crossings >= 20

    circle = qd_from_p_over_q_squared(ONE, Z, sign=-1)
    rep2 = detect_recurrence(circle, 1.0)
    assert rep2.verdict == NOT_RECURRENT
    assert rep2.closed
    dl.check()


def test_08_teichmuller_identity_tables():
    dl = Deadline(1.0)
    half = Fraction(1, 2)
    table1 = QdPolygon.build(
        vertices=[(0, half), (0, 1), (0, half)], interior_orders=[-1])
    table2 = QdPolygon.build(
        vertices=[(0, Fraction(3, 2)), (0, half), (0, half), (0, half)],
        interior_orders=[-1])
    circle_case = QdPolygon.build(vertices=[], interior_orders=[-2])
    for poly in (table1, table2, circle_case):
        assert teichmuller_check(poly) == 0
    dl.check()


def test_09_semicircle_measure():
    dl = Deadline(5.0)
    qd = cauchy_qd(ONE, Polynomial([0.0, -1.0]), ONE)
    zeros = sorted((c.at.value.real for c in critical_points(qd)
                    if c.signed_order > 0))
    assert abs(zeros[0] - (-2.0)) <= 1e-6
    assert abs(zeros[1] - 2.0) <= 1e-6

    (density_mid,) = measure_density(qd, [0.0 + 0.0j])
    assert abs(density_mid.real - 1 / math.pi) <= 1e-6

    (edge,) = find_short_trajectories(qd)
    mass = measure_mass(qd, edge.polyline, max_step=qd.diameter() / 2000)
    assert abs(mass - 1.0) <= 1e-3
    dl.check()


def test_10_lemniscate_report():
    dl = Deadline(30.0)
    rep = analyze_lemniscate(Polynomial([-1.0, 0.0, 1.0]), ONE, samples=20)
    assert len(rep.finite_critical_points) == 1
    assert abs(rep.finite_critical_points[0]) <= 1e-8
    assert len(rep.critical_levels) == 1
    assert abs(rep.critical_levels[0] - 1.0) <= 1e-8
    assert rep.double_poles
    for _loc, qr in rep.double_poles:
        assert qr.real < 0
    assert len(rep.strebel_samples) == 20
    assert all(closed for _, closed in rep.strebel_samples)
    dl.check()


def test_11_level_function_verification_and_obstruction():
    dl = Deadline(20.0)
    qd = qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)
    from qdsphere.graph import pair_zeros_by_short_trajectories
    pairing = pair_zeros_by_short_trajectories(qd)
    field = level_grid(qd, pairing, (-3.0, -3.0, 3.0, 3.0), 24)
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=4.0)
    rays = [trace_horizontal(qd, z0, opts=opts)
            for z0 in (1.5 + 1.0j, -0.5 - 1.2j, 2.0 + 0.3j)]
    report = verify_level(field, rays)
    assert report.passed_ii, report.details
    for stat in report.details["rays"]:
        assert stat["std"] <= 1e-5 * (1.0 + abs(stat["mean"]))
    assert report.passed_iii and report.details["degenerate_blocks"] == 0
    assert report.passed_i

    blocked = qd_from_p_over_q_squared(Polynomial([-1.0, 0.0, 1.0]),
                                       Polynomial([-2.0, 1.0]))
    with pytest.raises(ResidueObstruction) as ei:
        level_function(blocked, None, 4.0 + 0j)
    want = 2 * math.pi * math.sqrt(3)
    assert abs(ei.value.gap - want) <= 1e-3 * want
    dl.check()


def test_12_end_to_end_determinism(tmp_path):
    dl = Deadline(60.0)
    spec = tmp_path / "fig1_left.json"
    spec.write_text(json.dumps(FIG1_LEFT_SPEC))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli_main(["analyze", str(spec), "--out", str(out_a)]) == 20
    assert cli_main(["analyze", str(spec), "--out", str(out_b)]) == 20
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    assert doc["recurrence"][0]["verdict"] == "SuspectedRecurrent"
    dl.check()
