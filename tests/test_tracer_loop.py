"""The fused Cash-Karp step loop of the tracer against the loop it
replaced, which is kept here as the reference: every ray must come out
bit-identical."""

import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdsphere import tracer
from qdsphere.errors import QdError, StartTooClose
from qdsphere.polyalg import Polynomial
from qdsphere.qdiff import (
    continue_sqrt,
    critical_points,
    principal_sqrt,
    qd_from_p_over_q_squared,
    qd_new,
)
from qdsphere.tracer import (
    _CK_A,
    _CK_B4,
    _CK_B5,
    CLOSED,
    ESCAPED_WINDOW,
    HIT_CRITICAL,
    PHI_LENGTH_BUDGET,
    SEED_FACTOR,
    STEP_BUDGET,
    Termination,
    TraceOptions,
    TrajectoryRay,
    _closure_refine,
    _point_segment_distance,
    _Scene,
    certify_drift,
    trace_from_critical,
    trace_horizontal,
    trace_vertical,
)

ONE = Polynomial([1.0])
Z = Polynomial([0.0, 1.0])


# ---------------------------------------------------------------- references


def _max_step_z(scene, z):
    best = math.inf
    for _k, p, a, _g in scene.rows:
        d = abs(z - p) * a
        if d < best:
            best = d
    return best


def _nearest_cp(scene, z):
    best, bd = -1, math.inf
    for k, p, _a, _g in scene.rows:
        d = abs(z - p)
        if d < bd:
            best, bd = k, d
    return best, bd


def trace_reference(qd, z0, orientation, opts, seed_sqrt, launch_from=None):
    scene = _Scene(qd)
    snap = opts.snap_radius
    x0, y0, x1, y1 = opts.window

    _k_home, d_home = _nearest_cp(scene, z0)
    if launch_from is None and d_home < snap:
        raise StartTooClose(f"{z0} is within snap radius of a critical point")

    num_desc = qd.num.coeffs[::-1]
    den_desc = qd.den.coeffs[::-1]

    def phival(z):
        a = 0j
        for c in num_desc:
            a = a * z + c
        b = 0j
        for c in den_desc:
            b = b * z + c
        return a / b

    def f(z, hint):
        w = continue_sqrt(phival(z), hint)
        return orientation / w, w

    w0 = seed_sqrt if seed_sqrt is not None else principal_sqrt(phival(z0))
    dir0 = (orientation / w0)
    dir0 /= abs(dir0)

    pts = [z0]
    sqs = [w0]
    taus = [0.0]
    z, w, tau = z0, w0, 0.0
    accepted = rejected = 0
    left_home = False
    termination = None

    h = min(0.01 * (1.0 + abs(z0)) * abs(w0),
            _max_step_z(scene, z0) * abs(w0) if scene.rows else math.inf,
            opts.max_phi_length)
    h = max(h, 1e-12)
    attempts_cap = 4 * opts.max_steps

    while termination is None:
        if accepted >= opts.max_steps or accepted + rejected >= attempts_cap:
            termination = Termination(STEP_BUDGET)
            break
        remaining = opts.max_phi_length - tau
        if remaining <= 1e-13 * max(1.0, opts.max_phi_length):
            termination = Termination(PHI_LENGTH_BUDGET)
            break
        h = min(h, remaining)
        if scene.rows:
            h = min(h, _max_step_z(scene, z) * abs(w))
        if h <= 1e-15 * max(1.0, tau):
            termination = Termination(STEP_BUDGET)
            break

        ks = []
        hint = w
        ok = True
        for s in range(6):
            zs = z
            for j, a in enumerate(_CK_A[s]):
                zs += h * a * ks[j]
            try:
                k_s, hint = f(zs, hint)
            except ZeroDivisionError:
                ok = False
                break
            ks.append(k_s)
        if not ok:
            h *= 0.25
            rejected += 1
            continue
        z5 = z
        z4 = z
        for j in range(6):
            z5 += h * _CK_B5[j] * ks[j]
            z4 += h * _CK_B4[j] * ks[j]
        err = abs(z5 - z4)
        tol = opts.rk_tol * (1.0 + abs(z5))
        if err > tol:
            rejected += 1
            h *= max(0.2, 0.9 * (tol / max(err, 1e-300)) ** 0.2)
            continue

        z_prev, w_prev, tau_prev = z, w, tau
        z = z5
        try:
            w = continue_sqrt(phival(z), hint)
        except ZeroDivisionError:
            w = hint
        tau = tau_prev + h
        accepted += 1
        pts.append(z)
        sqs.append(w)
        taus.append(tau)
        grow = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
        h = h * grow

        kc, dc = _nearest_cp(scene, z)
        if kc >= 0 and dc < snap:
            tangent = orientation / w
            ang = cmath.phase(tangent / abs(tangent))
            termination = Termination(HIT_CRITICAL, cp_index=scene.index[kc],
                                      incoming_angle=ang)
            break
        hit_pole = False
        for k, p, _a, g in scene.rows:
            if g > 0.0 and abs(z - p) < g:
                tangent = orientation / w
                ang = cmath.phase(tangent / abs(tangent))
                termination = Termination(HIT_CRITICAL, cp_index=scene.index[k],
                                          incoming_angle=ang)
                hit_pole = True
                break
        if hit_pole:
            break
        if not (x0 <= z.real <= x1 and y0 <= z.imag <= y1):
            termination = Termination(ESCAPED_WINDOW)
            break

        if not left_home:
            if abs(z - z0) > SEED_FACTOR * snap:
                left_home = True
        else:
            seg = z - z_prev
            d_seg = _point_segment_distance(z0, z_prev, z)
            if d_seg <= max(4.0 * snap, 0.35 * abs(seg)):
                hit = _closure_refine(f, z0, dir0, tau_prev, z_prev, w_prev, tau, snap)
                if hit is not None:
                    tau_star, z_star, w_star = hit
                    pts[-1] = z_star
                    sqs[-1] = w_star
                    taus[-1] = tau_star
                    tau = tau_star
                    termination = Termination(CLOSED)
                    break

    ray = TrajectoryRay(
        points=np.asarray(pts, dtype=complex), sqrt_values=np.asarray(sqs, dtype=complex),
        taus=np.asarray(taus, dtype=float), phi_length=float(tau), imag_drift=0.0,
        termination=termination, direction_seed=dir0, orientation=orientation,
        work={"accepted_steps": accepted, "rejected_steps": rejected},
    )
    certify_drift(qd, ray, opts)
    return ray


# ---------------------------------------------------------------- helpers


def _outcome(fn, *args, **kw):
    """A ray, or the type and message of the error it raised."""
    try:
        return fn(*args, **kw)
    except (QdError, ArithmeticError) as e:
        return type(e), str(e)


def _both(monkeypatch, fn, *args, **kw):
    """The outcome of fn with the fused loop, then with the reference."""
    new = _outcome(fn, *args, **kw)
    with monkeypatch.context() as m:
        m.setattr(tracer, "_trace", trace_reference)
        ref = _outcome(fn, *args, **kw)
    return new, ref


def assert_same(new, ref):
    if not isinstance(ref, TrajectoryRay):
        assert new == ref
        return
    assert isinstance(new, TrajectoryRay)
    assert new.points.tobytes() == ref.points.tobytes()
    assert new.sqrt_values.tobytes() == ref.sqrt_values.tobytes()
    assert new.taus.tobytes() == ref.taus.tobytes()
    for name in ("phi_length", "imag_drift"):
        assert struct.pack("d", getattr(new, name)) == struct.pack("d", getattr(ref, name))
    assert new.termination == ref.termination
    assert new.work == ref.work
    assert new.direction_seed == ref.direction_seed
    assert new.orientation == ref.orientation


def same_ray(monkeypatch, fn, *args, **kw):
    new, ref = _both(monkeypatch, fn, *args, **kw)
    assert_same(new, ref)
    return new


def circle_qd():
    return qd_from_p_over_q_squared(ONE, Z, sign=-1)


def segment_qd():
    return qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)


def winding_qd():
    return qd_new(Polynomial([-1.0]), Polynomial([0.5j, 0.0, -0.25 - 2.0j, 0.0, 1.0]))


# ---------------------------------------------------------------- every kind of ray


def test_closed_circle_runs_closure_refine(monkeypatch):
    calls = []
    real = tracer._closure_refine
    monkeypatch.setattr(tracer, "_closure_refine",
                        lambda *a: calls.append(1) or real(*a))
    ray = same_ray(monkeypatch, trace_horizontal, circle_qd(), 1.0)
    assert ray.termination.kind == CLOSED and calls


@pytest.mark.parametrize("start, orientation", [(3.0, -1), (0.5 + 0.5j, 1)])
def test_closed_circle_other_starts(monkeypatch, start, orientation):
    ray = same_ray(monkeypatch, trace_horizontal, circle_qd(), start, orientation)
    assert ray.termination.kind == CLOSED


def test_hit_critical_by_snap(monkeypatch):
    qd = segment_qd()
    cp = next(c for c in critical_points(qd) if c.signed_order == 1)
    rays = [same_ray(monkeypatch, trace_from_critical, qd, cp, k) for k in range(3)]
    # the ray along the segment snaps to the other zero, which has no guard disk
    assert [r.termination.kind for r in rays].count(HIT_CRITICAL) == 1


def test_hit_critical_by_pole_guard(monkeypatch):
    # phi = 1/z^2: horizontal trajectories are rays, the inward one reaches
    # the guard disk of the double pole long before the snap radius
    qd = qd_from_p_over_q_squared(ONE, Z, sign=1)
    opts = TraceOptions.for_qd(qd)
    rays = [same_ray(monkeypatch, trace_horizontal, qd, 1.0 + 0.25j, o) for o in (1, -1)]
    inward = next(r for r in rays if r.termination.kind == HIT_CRITICAL)
    assert abs(inward.points[-1]) > opts.snap_radius
    assert {r.termination.kind for r in rays} == {HIT_CRITICAL, ESCAPED_WINDOW}


def test_escaped_window(monkeypatch):
    qd = qd_from_p_over_q_squared(ONE, Z, sign=1)
    ray = same_ray(monkeypatch, trace_horizontal, qd, -2.0 + 1.0j, 1)
    rays = [ray, same_ray(monkeypatch, trace_horizontal, qd, -2.0 + 1.0j, -1)]
    assert ESCAPED_WINDOW in {r.termination.kind for r in rays}


def test_phi_length_budget_winding(monkeypatch):
    qd = winding_qd()
    # infinity is a regular point: the window is widened as for a recurrence probe
    opts = TraceOptions.for_qd(qd, max_phi_length=60.0, window=(-1e3, -1e3, 1e3, 1e3))
    ray = same_ray(monkeypatch, trace_horizontal, qd, 1.0, 1, opts)
    assert ray.termination.kind == PHI_LENGTH_BUDGET
    assert ray.work["accepted_steps"] > 1000


def test_step_budget(monkeypatch):
    qd = winding_qd()
    opts = TraceOptions.for_qd(qd, max_steps=57)
    ray = same_ray(monkeypatch, trace_horizontal, qd, 1.0, -1, opts)
    assert ray.termination.kind == STEP_BUDGET
    assert ray.work["accepted_steps"] == 57


def test_error_control_rejects_steps(monkeypatch):
    # the critical-point clamp caps most steps below the error control;
    # a tolerance tighter than the default makes it reject some
    qd = winding_qd()
    opts = TraceOptions.for_qd(qd, rk_tol=1e-11, max_phi_length=10.0)
    ray = same_ray(monkeypatch, trace_horizontal, qd, 1.0, 1, opts)
    assert ray.work["rejected_steps"] > 0


def test_trace_from_critical_every_direction(monkeypatch):
    qd = winding_qd()
    opts = TraceOptions.for_qd(qd, max_phi_length=30.0)
    for cp in critical_points(qd):
        if cp.at.is_infinite:
            continue
        for k in range(cp.signed_order + 2):
            same_ray(monkeypatch, trace_from_critical, qd, cp, k, opts)


def test_trace_vertical(monkeypatch):
    for qd in (circle_qd(), segment_qd(), winding_qd()):
        opts = TraceOptions.for_qd(qd, max_phi_length=30.0)
        for o in (1, -1):
            same_ray(monkeypatch, trace_vertical, qd, 0.2 + 0.7j, o, opts)


@pytest.mark.parametrize("scale", [-1.0, 1.0 + 1e-9])
def test_seed_sqrt_is_continued_at_the_first_step(monkeypatch, scale):
    # the given seed root need not be the root at z0 to the last bit, so
    # stage 0 of the first step continues it instead of reusing it
    qd = segment_qd()
    w = scale * principal_sqrt(qd.phi(0.5 + 0.5j))
    same_ray(monkeypatch, trace_horizontal, qd, 0.5 + 0.5j, 1, seed_sqrt=w)


def test_start_too_close_error_is_the_same(monkeypatch):
    new, ref = _both(monkeypatch, trace_horizontal, segment_qd(), 1.0 + 1e-9)
    assert new == ref and new[0] is StartTooClose


# ---------------------------------------------------------------- random differentials


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_differentials(seed):
    rng = np.random.default_rng(seed)
    n_num, n_den = rng.integers(0, 5, size=2)
    box = lambda n: rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
    try:
        qd = qd_new(Polynomial.from_roots(box(n_num), complex(*rng.normal(size=2))),
                    Polynomial.from_roots(box(n_den)))
    except QdError:
        assume(False)
    opts = TraceOptions.for_qd(qd, max_steps=int(rng.integers(50, 400)),
                               rk_tol=float(10.0 ** rng.uniform(-11, -5)))
    z0 = complex(box(1)[0])
    orientation = int(rng.choice([-1, 1]))
    finite_cps = [c for c in critical_points(qd) if not c.at.is_infinite]
    with pytest.MonkeyPatch.context() as mp:
        assert_same(*_both(mp, trace_horizontal, qd, z0, orientation, opts))
        assert_same(*_both(mp, trace_vertical, qd, z0, orientation, opts))
        if finite_cps:
            cp = finite_cps[int(rng.integers(len(finite_cps)))]
            k = int(rng.integers(0, 3))
            assert_same(*_both(mp, trace_from_critical, qd, cp, k, opts))


# ---------------------------------------------------------------- the reuse of stage 0


def _bits(w):
    return struct.pack("dd", w.real, w.imag)


finite = st.floats(allow_nan=False, allow_infinity=False)
# a hint within 1e300 keeps |s +- hint| finite; the tracer's hints are roots
hint_part = st.floats(-1e300, 1e300)


@settings(max_examples=2000, deadline=None)
@given(finite, finite, hint_part, hint_part)
def test_continue_sqrt_is_idempotent(vr, vi, hr, hi):
    v, h = complex(vr, vi), complex(hr, hi)
    assume(v != 0)
    w = continue_sqrt(v, h)
    assert _bits(continue_sqrt(v, w)) == _bits(w)
