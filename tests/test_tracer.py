import math

import numpy as np
import pytest

from qdsphere.errors import DriftExceeded, StartTooClose
from qdsphere.polyalg import Polynomial
from qdsphere.qdiff import (
    GL_NODES,
    GL_WEIGHTS,
    critical_points,
    qd_from_p_over_q_squared,
    qd_new,
)
from qdsphere.tracer import (
    CLOSED,
    ESCAPED_WINDOW,
    HIT_CRITICAL,
    LOCAL_RADIUS,
    TraceOptions,
    certify_drift,
    imag_drift_of,
    trace_from_critical,
    trace_horizontal,
    trace_vertical,
)

ONE = Polynomial([1.0])
Z = Polynomial([0.0, 1.0])


def circle_qd():
    # phi = -1/z^2: horizontal trajectories are concentric circles
    return qd_from_p_over_q_squared(ONE, Z, sign=-1)


def test_circle_closes_with_full_phi_length():
    qd = circle_qd()
    ray = trace_horizontal(qd, 1.0)
    assert ray.termination.kind == CLOSED
    # |phi| arclength of |z| = 1 is 2 pi regardless of radius
    assert ray.phi_length == pytest.approx(2 * math.pi, rel=1e-6)
    assert abs(ray.points[-1] - ray.points[0]) < 1e-6
    # the circle through radius 3 has the same phi length
    ray3 = trace_horizontal(qd, 3.0)
    assert ray3.phi_length == pytest.approx(2 * math.pi, rel=1e-6)
    assert max(abs(abs(z) - 3.0) for z in ray3.points) < 1e-6


def test_circle_imag_drift_tiny():
    qd = circle_qd()
    ray = trace_horizontal(qd, 1.0)
    assert imag_drift_of(qd, ray) < 1e-7


def test_drift_gate_fails_closed_on_nan_point():
    qd = circle_qd()
    ray = trace_horizontal(qd, 1.0)
    ray.points = ray.points.copy()
    ray.points[len(ray.points) // 2] = complex(math.nan, 0.0)
    # phi at the NaN point is NaN; numpy warns as it divides
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert math.isnan(imag_drift_of(qd, ray))
        with pytest.raises(DriftExceeded):
            certify_drift(qd, ray, TraceOptions.for_qd(qd))


def test_radial_trajectories_escape():
    qd = qd_from_p_over_q_squared(ONE, Z, sign=1)
    ray = trace_horizontal(qd, complex(1.0, 0.0))
    assert ray.termination.kind == ESCAPED_WINDOW
    # straight ray through the origin direction: arg stays constant
    args = {round(math.atan2(z.imag, z.real), 6) for z in ray.points}
    assert len(args) <= 2        # outward and possibly inward piece


def test_orientation_reverses_path():
    qd = circle_qd()
    fwd = trace_horizontal(qd, 1.0, orientation=1)
    bwd = trace_horizontal(qd, 1.0, orientation=-1)
    # both close along the same circle but wind oppositely
    a_f = np.unwrap([math.atan2(z.imag, z.real) for z in fwd.points])
    a_b = np.unwrap([math.atan2(z.imag, z.real) for z in bwd.points])
    assert (a_f[-1] - a_f[0]) * (a_b[-1] - a_b[0]) < 0


def test_vertical_is_horizontal_of_negated():
    # vertical trajectories of phi are horizontal trajectories of -phi
    qd = qd_from_p_over_q_squared(ONE, Z, sign=1)
    v = trace_vertical(qd, 1.0)
    assert v.termination.kind == CLOSED
    assert v.phi_length == pytest.approx(2 * math.pi, rel=1e-6)
    neg = qd_from_p_over_q_squared(ONE, Z, sign=-1)
    h = trace_horizontal(neg, 1.0)
    assert h.phi_length == pytest.approx(v.phi_length, rel=1e-6)


def test_phi_length_of_matches_ray_accumulator():
    qd = qd_new(Polynomial([-1.0, 0.0, 1.0]), ONE)
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=5.0)
    ray = trace_horizontal(qd, 2.0 + 1.0j, opts=opts)
    assert phi_length_of_reference(qd, ray.points) == pytest.approx(ray.phi_length, rel=5e-3)


def test_hits_critical_point_and_snaps():
    # phi = 1 - z^2 traced along the segment from 0 lands on a zero: the ray
    # ends inside the zero's analytic disk, and its phi-length counts the
    # rest of the way in, so it is the integral of sqrt(1 - x^2) over [0, 1]
    qd = qd_new(Polynomial([1.0, 0.0, -1.0]), ONE)
    ray = trace_horizontal(qd, 0.0 + 0.0j)
    assert ray.termination.kind == HIT_CRITICAL
    assert ray.termination.cp_index is not None
    target = critical_points(qd)[ray.termination.cp_index].at.value
    assert abs(ray.points[-1] - target) < LOCAL_RADIUS * 2.0
    assert ray.phi_length == pytest.approx(math.pi / 4, abs=1e-9)


def test_start_on_pole_guard_rejected():
    qd = qd_from_p_over_q_squared(ONE, Z, sign=-1)
    with pytest.raises(StartTooClose):
        trace_horizontal(qd, 1e-12)


def test_budget_truncates():
    qd = circle_qd()
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=1.0)
    ray = trace_horizontal(qd, 1.0, opts=opts)
    assert ray.termination.kind not in (CLOSED,)
    assert ray.phi_length <= 1.0 + 1e-6


def test_max_steps_budget():
    qd = circle_qd()
    opts = TraceOptions.for_qd(qd).replace(max_steps=7)
    ray = trace_horizontal(qd, 1.0, opts=opts)
    assert ray.work["accepted_steps"] <= 7
    assert ray.termination.kind == "StepBudget"
    assert len(ray.points) <= 9


def test_tight_tolerance_reduces_drift():
    qd = qd_new(Polynomial([1.0, 0.0, 0.0, 1.0]), ONE)
    opts = TraceOptions.for_qd(qd)
    loose = trace_horizontal(qd, 2.0 + 2.0j, opts=opts.replace(rk_tol=1e-6, max_phi_length=8.0))
    tight = trace_horizontal(qd, 2.0 + 2.0j, opts=opts.replace(rk_tol=1e-12, max_phi_length=8.0))
    assert imag_drift_of(qd, tight) <= imag_drift_of(qd, loose) + 1e-12


def test_taus_monotone_and_match_length():
    qd = circle_qd()
    ray = trace_horizontal(qd, 2.0)
    taus = np.asarray(ray.taus)
    assert np.all(np.diff(taus) > 0)
    assert taus[-1] == pytest.approx(ray.phi_length, rel=1e-9)
    assert len(ray.taus) == len(ray.points)


def test_trace_from_critical_direction_indexing():
    # phi = z at the simple zero: three launch directions, and tracing
    # along each yields a ray leaving at that angle
    qd = qd_new(Z, ONE)
    (cp,) = [c for c in critical_points(qd) if c.signed_order == 1]
    seen = []
    for k in range(3):
        ray = trace_from_critical(qd, cp, k)
        step = ray.points[1] - ray.points[0]
        seen.append(math.atan2(step.imag, step.real) % (2 * math.pi))
    seen.sort()
    want = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
    for g, w in zip(seen, want):
        assert abs(g - w) < 1e-6


def test_window_escape_records_last_inside():
    qd = qd_from_p_over_q_squared(ONE, Z, sign=1)
    opts = TraceOptions.for_qd(qd).replace(window=(-2.0, -2.0, 2.0, 2.0))
    ray = trace_horizontal(qd, 1.0, opts=opts)
    assert ray.termination.kind == ESCAPED_WINDOW
    x, y = ray.points[-1].real, ray.points[-1].imag
    assert -2.5 <= x <= 2.5 and -2.5 <= y <= 2.5


def test_reversibility_round_trip():
    # trace forward a while, then trace backward from the endpoint; the
    # reverse path must come back near the start
    qd = qd_new(Polynomial([-1.0, 0.0, 1.0]), ONE)
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=3.0)
    fwd = trace_horizontal(qd, 2.0 + 1.5j, opts=opts)
    end = fwd.points[-1]
    back = trace_horizontal(
        qd, end, orientation=-1,
        opts=opts.replace(max_phi_length=fwd.phi_length),
        seed_sqrt=fwd.sqrt_values[-1])
    assert abs(back.points[-1] - fwd.points[0]) < 1e-6


def test_work_counter_positive_and_deterministic():
    qd = circle_qd()
    a = trace_horizontal(qd, 1.5)
    b = trace_horizontal(qd, 1.5)
    assert a.work == b.work
    assert a.work["accepted_steps"] > 0
    assert np.array_equal(a.points, b.points)


def phi_length_of_reference(qd, points):
    """Composite 8-node Gauss-Legendre integral of sqrt|phi| |dz| along the
    polyline, one segment at a time."""
    pts = np.asarray([complex(p) for p in points], dtype=complex)
    total = 0.0
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        if a == b:
            continue
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        vals = np.sqrt(np.abs(qd.phi_array(mid + half * GL_NODES)))
        total += float(np.sum(vals * GL_WEIGHTS)) * abs(half)
    return total


@pytest.mark.parametrize("trace", [trace_horizontal, trace_vertical])
@pytest.mark.parametrize("orientation", [0, 2, -2, 0.5, 1j])
def test_invalid_orientation_rejected(trace, orientation):
    # an orientation other than +-1 would scale or freeze the step while
    # the phi-length still advanced by it
    qd = qd_new(Polynomial([1.0, 0.0, -1.0]), ONE)
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=3.0)
    with pytest.raises(ValueError, match="orientation"):
        trace(qd, 0.5 + 0.5j, orientation, opts)


def test_vertical_arrives_at_a_zero():
    # phi = 1 - z^2 from z = 2: sqrt(phi(2)) = i sqrt 3, so the +1 vertical
    # heads along i / sqrt(phi(2)) = 1 / sqrt 3, to the right, and the -1
    # vertical runs along the real axis into the zero at 1, where its
    # phi-length is the integral of sqrt(x^2 - 1) over [1, 2]
    qd = qd_new(Polynomial([1.0, 0.0, -1.0]), ONE)
    right = trace_vertical(qd, 2.0, 1)
    step = right.points[1] - right.points[0]
    assert step.real > 0 and abs(step.imag) <= 1e-12 * abs(step)
    ray = trace_vertical(qd, 2.0, -1)
    assert ray.termination.kind == HIT_CRITICAL
    assert critical_points(qd)[ray.termination.cp_index].at.value == pytest.approx(1.0)
    want = math.sqrt(3.0) - math.log(2.0 + math.sqrt(3.0)) / 2
    assert ray.phi_length == pytest.approx(want, abs=1e-9)
    assert ray.orientation == -1j and ray.imag_drift < 1e-9


# the fixtures of the probe workload, each built as phi (sign 1) and -phi
VERTICAL_FIXTURES = {
    "winding": lambda sign: qd_new(Polynomial([-sign]),
                                   Polynomial([0.5j, 0.0, -0.25 - 2.0j, 0.0, 1.0])),
    "fig1_right": lambda sign: qd_new(Polynomial([0.0, -sign]),
                                      Polynomial.from_roots([0.5, 1 + 1j, 2 - 1j])),
    "segment": lambda sign: qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE, sign),
    "circle": lambda sign: qd_from_p_over_q_squared(ONE, Z, sign=-sign),
}


@pytest.mark.parametrize("length", [0.5, 30.0])
@pytest.mark.parametrize("name", sorted(VERTICAL_FIXTURES))
def test_vertical_of_phi_is_horizontal_of_minus_phi(name, length):
    qd, neg = VERTICAL_FIXTURES[name](1), VERTICAL_FIXTURES[name](-1)
    opts = TraceOptions.for_qd(qd, max_phi_length=length)
    z0 = 0.2 + 0.7j
    horizontals = [trace_horizontal(neg, z0, o, opts) for o in (1, -1)]
    for o in (1, -1):
        v = trace_vertical(qd, z0, o, opts)
        assert any(v.points.tobytes() == h.points.tobytes()
                   and v.termination == h.termination for h in horizontals)
