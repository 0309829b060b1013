"""The fused Cash-Karp step loop of the tracer against the loop it
replaced, which is kept here as the reference. A ray that never ends in an
analytic disk must come out bit-identical. A ray that arrives at a critical
point on entry into its disk must be the reference ray cut there, since the
reference goes on stepping to the snap radius; a launched ray must be the
reference ray started at the same launch point, with its taus counted from
the critical point.

The closure in the zeta chart at the seed is checked the same way against
the refinement it replaced: bisection on the step's cubic Hermite
interpolant, one integration to the root and one Newton step."""

import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdsphere import tracer
from qdsphere.errors import QdError, StartTooClose
from qdsphere.geom import point_segment_distance
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
    _Scene,
    certify_drift,
    trace_from_critical,
    trace_horizontal,
    trace_vertical,
)

CLOSURE_ANGLE_TOL = 1e-3
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

    def root(z, hint):
        return continue_sqrt(phival(z), hint)

    def f(z, hint):
        w = root(z, hint)
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
            d_seg = point_segment_distance(z0, z_prev, z)
            if d_seg <= max(4.0 * snap, 0.35 * abs(seg)):
                # the package's closure, checked on its own below
                hit = tracer._close_at_seed(root, z0, w0, orientation, tau_prev, z_prev,
                                            w_prev, tau, z, w, snap)
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


def closure_refine_reference(f, z0, dir0, tau_a, z_a, w_a, tau_b, z_b, w_b, orientation, snap):
    """The refinement the tracer used before: the closest approach to z0
    on the step by bisecting the derivative of the squared distance along
    the step's cubic Hermite interpolant, then one 16-step RK4 integration
    to the root found and one Newton step; returns (tau*, z*, w*) if the
    pass is within snap and its direction within CLOSURE_ANGLE_TOL."""
    # z(tau_a + x h) = z_a + c1 x + c2 x^2 + c3 x^3 matches z and h dz/dtau
    # = h orientation / w at both ends of the step
    h = tau_b - tau_a
    c1, mb, dz = h * orientation / w_a, h * orientation / w_b, z_b - z_a
    c2 = 3.0 * dz - 2.0 * c1 - mb
    c3 = c1 + mb - 2.0 * dz

    def s(tau_t):
        x = (tau_t - tau_a) / h
        z = z_a + x * (c1 + x * (c2 + x * c3)) - z0
        d = c1 + x * (2.0 * c2 + x * 3.0 * c3)
        return z.real * d.real + z.imag * d.imag

    def integrate_to(tau_t):
        n = 16
        hh = (tau_t - tau_a) / n
        z, w = z_a, w_a
        if hh == 0.0:
            return z, w
        for _ in range(n):
            k1, w = f(z, w)
            k2, w = f(z + 0.5 * hh * k1, w)
            k3, w = f(z + 0.5 * hh * k2, w)
            k4, w = f(z + hh * k3, w)
            z = z + (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return z, w

    if s(tau_a) >= 0.0 or s(tau_b) <= 0.0:
        cand = [(abs(z_a - z0), tau_a, z_a, w_a), (abs(z_b - z0), tau_b, z_b, w_b)]
        dist, tau_s, z_s, w_s = min(cand, key=lambda t: t[0])
    else:
        lo, hi = tau_a, tau_b
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if s(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-13 * max(1.0, abs(tau_b)):
                break
        tau_s = 0.5 * (lo + hi)
        z_s, w_s = integrate_to(tau_s)
        k, w_s = f(z_s, w_s)
        dt = -((z_s - z0) * k.conjugate()).real / (k.real * k.real + k.imag * k.imag)
        tau_s += dt
        z_s += dt * k
        _, w_s = f(z_s, w_s)
        dist = abs(z_s - z0)
    if dist >= snap:
        return None
    d, _ = f(z_s, w_s)
    u = d / abs(d)
    if abs(cmath.phase(u / dir0)) > CLOSURE_ANGLE_TOL:
        return None
    return tau_s, z_s, w_s


# ---------------------------------------------------------------- helpers


def _outcome(fn, *args, **kw):
    """A ray, or the type and message of the error it raised."""
    try:
        return fn(*args, **kw)
    except (QdError, ArithmeticError) as e:
        return type(e), str(e)


def _reference_from(qd, z0, orientation, opts, seed_sqrt, launch_from=None, tau0=0.0):
    """The reference loop from the tracer's start point. A launched ray's
    taus start at tau0; the reference counts from 0 against a budget
    shortened by tau0, and its taus are shifted afterwards."""
    ray = trace_reference(qd, z0, orientation,
                          opts.replace(max_phi_length=opts.max_phi_length - tau0),
                          seed_sqrt, launch_from)
    ray.taus = ray.taus + tau0
    ray.phi_length += tau0
    return ray


def _both(monkeypatch, fn, *args, **kw):
    """The outcome of fn with the fused loop, then with the reference."""
    new = _outcome(fn, *args, **kw)
    with monkeypatch.context() as m:
        m.setattr(tracer, "_trace", _reference_from)
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


def _arrived(qd, ray):
    """Whether the ray ended in the analytic disk of a zero or simple pole."""
    t = ray.termination
    return t.kind == HIT_CRITICAL and critical_points(qd)[t.cp_index].signed_order >= -1


def assert_same_up_to_arrival(qd, new, ref):
    """new equals ref where both run, cut at its arrival if it arrived."""
    if not isinstance(ref, TrajectoryRay) or (new.taus[0] == 0.0 and not _arrived(qd, new)):
        assert_same(new, ref)
        return
    assert isinstance(new, TrajectoryRay)
    n = len(new.points)
    if _arrived(qd, new):
        # the reference goes on to the snap radius, unless a budget ends it first
        assert len(ref.points) >= n
        assert (ref.termination.kind in (PHI_LENGTH_BUDGET, STEP_BUDGET)
                or ref.termination.cp_index == new.termination.cp_index)
        m = n
    else:
        assert len(ref.points) == n and new.termination.kind == ref.termination.kind
        # the last step of a budget-ended ray is the rest of the budget,
        # which rounds differently when the taus start at tau0
        m = n - 1
        assert abs(new.points[-1] - ref.points[-1]) <= 1e-12 * (1.0 + abs(ref.points[-1]))
    assert new.points[:m].tobytes() == ref.points[:m].tobytes()
    assert new.sqrt_values[:m].tobytes() == ref.sqrt_values[:m].tobytes()
    assert np.allclose(new.taus, ref.taus[:n], rtol=1e-14, atol=0.0)
    assert new.direction_seed == ref.direction_seed
    assert new.orientation == ref.orientation


def same_ray(monkeypatch, fn, qd, *args, **kw):
    new, ref = _both(monkeypatch, fn, qd, *args, **kw)
    assert_same_up_to_arrival(qd, new, ref)
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
    real = tracer._close_at_seed
    monkeypatch.setattr(tracer, "_close_at_seed",
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
        assert_same_up_to_arrival(qd, *_both(mp, trace_horizontal, qd, z0, orientation, opts))
        assert_same_up_to_arrival(qd, *_both(mp, trace_vertical, qd, z0, orientation, opts))
        if finite_cps:
            cp = finite_cps[int(rng.integers(len(finite_cps)))]
            k = int(rng.integers(0, 3))
            assert_same_up_to_arrival(qd, *_both(mp, trace_from_critical, qd, cp, k, opts))


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


# ---------------------------------------------------------------- the closure


def _record_closures(monkeypatch):
    """Run the reference refinement next to the package's closure at every
    call; the trace goes on with the package's answer."""
    calls = []
    real = tracer._close_at_seed

    def both(root, z0, w0, orientation, tau_a, z_a, w_a, tau_b, z_b, w_b, snap):
        new = real(root, z0, w0, orientation, tau_a, z_a, w_a, tau_b, z_b, w_b, snap)

        def f(z, hint):
            w = root(z, hint)
            return orientation / w, w

        dir0 = orientation / w0
        ref = closure_refine_reference(f, z0, dir0 / abs(dir0), tau_a, z_a, w_a,
                                       tau_b, z_b, w_b, orientation, snap)
        calls.append((new, ref))
        return new

    monkeypatch.setattr(tracer, "_close_at_seed", both)
    return calls


def assert_closures_agree(calls):
    assert calls
    for new, ref in calls:
        assert (new is None) == (ref is None)
        if new is not None:
            assert abs(new[0] - ref[0]) <= 1e-10
            assert abs(new[1] - ref[1]) <= 1e-10


@pytest.mark.parametrize("start, orientation",
                         [(1.0, 1), (3.0, -1), (0.5 + 0.5j, 1), (-2.0 + 0.3j, 1), (0.1j, -1)])
def test_closure_refine_matches_reference_on_the_circle(monkeypatch, start, orientation):
    calls = _record_closures(monkeypatch)
    ray = trace_horizontal(circle_qd(), start, orientation)
    assert ray.termination.kind == CLOSED
    assert_closures_agree(calls)


@pytest.mark.parametrize("seed", [1, 2])
def test_closure_refine_matches_reference_on_probe_circle_ops(monkeypatch, tmp_path, seed):
    # the circle analyze and trace ops of the benchmark's probe workload
    import sys
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    corpus = pytest.importorskip("corpus")
    from qdsphere import cli

    calls = _record_closures(monkeypatch)
    spec, out = tmp_path / "in.json", tmp_path / "out.json"
    ops = [op for k in range(corpus.PASSES["probe"])
           for op in corpus.build_pass("probe", seed, k) if op.family == "circle"]
    assert len(ops) == 2 * corpus.PASSES["probe"]
    for op in ops:
        op.write_spec(spec)
        assert cli.main(op.argv(str(spec), str(out))) == 0
    sys.modules.pop("corpus", None)
    assert_closures_agree(calls)


def test_pass_on_the_opposite_sheet_is_not_closed(monkeypatch):
    # the step that closes the circle, seen from a seed on the other sheet:
    # it passes as close to z0, but moving the other way
    calls = []
    real = tracer._close_at_seed
    monkeypatch.setattr(tracer, "_close_at_seed",
                        lambda *a: calls.append(a) or real(*a))
    ray = trace_horizontal(circle_qd(), 1.0)
    assert ray.termination.kind == CLOSED
    root, z0, w0, *rest = calls[-1]
    tau_s, z_s, _w = real(root, z0, w0, *rest)
    assert abs(z_s - z0) < TraceOptions.for_qd(circle_qd()).snap_radius
    assert real(root, z0, -w0, *rest) is None
