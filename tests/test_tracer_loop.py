"""The tracer's step loop, its DOP853 step and its root generated per
shape of differential, against a plain reference loop over the tableau and
the root clusters. A ray that never ends in an analytic disk
must come out bit-identical. A ray that arrives at a critical point on
entry into its disk must be the reference ray cut there, since the reference goes on
stepping to the snap radius; a launched ray must be the reference ray
started at the same launch point, with its taus counted from the critical
point.

The same reference loop, stepping with the Cash-Karp 4(5) pair and the
step clamp the tracer used with it, is the accuracy reference: on the
fixture rays it ends the same way, and at the same phi-length where that
length is fixed (a closed ray, or a ray that arrives at a zero or simple
pole). The closure in the zeta chart at the seed is checked against the
exact circle."""

import cmath
import math
import struct
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdsphere import qdiff, tracer
from qdsphere.errors import QdError, StartTooClose
from qdsphere.geom import point_segment_distance
from qdsphere.graph import detect_recurrence
from qdsphere.polyalg import Polynomial, RootCluster
from qdsphere.qdiff import (
    QuadraticDifferential,
    continue_sqrt,
    critical_points,
    principal_sqrt,
    qd_from_p_over_q_squared,
    qd_new,
    zeta_from,
)
from qdsphere.tracer import (
    CHORD_ALPHA,
    CLOSE_TRIGGER,
    CLOSED,
    DOP853_A,
    DOP853_B,
    DOP853_E3,
    DOP853_E5,
    ESCAPED_WINDOW,
    FAR_BACK,
    FAR_OUT,
    HIT_CRITICAL,
    PHI_LENGTH_BUDGET,
    SEED_FACTOR,
    STEP_BUDGET,
    Termination,
    TraceOptions,
    TrajectoryRay,
    certify_drift,
    clamp_factor,
    trace_from_critical,
    trace_horizontal,
    trace_vertical,
)

ONE = Polynomial([1.0])
Z = Polynomial([0.0, 1.0])


# ---------------------------------------------------------------- references


def reference_root(lead, zeros, poles):
    """root(z, hint) = continue_sqrt(phi(z), hint), phi = lead prod (z - a)^m
    / prod (z - b)^n as loops over the (location, order) pairs of the zeros
    and the poles and over the units of each order."""

    def root(z, hint):
        v = lead
        for a, m in zeros:
            f = z - a
            for _ in range(m):
                v = v * f
        b = None
        for a, n in poles:
            f = z - a
            for _ in range(n):
                b = f if b is None else b * f
        if b is not None:
            v = v / b
        return continue_sqrt(v, hint)

    return root


def clusters_of(qd):
    """The arguments of reference_root for qd."""
    return (qd.lead, [(c.location, c.multiplicity) for c in qd.zeros],
            [(c.location, c.multiplicity) for c in qd.poles])


def dop853_stages(root, orientation, z, w, h):
    """The stages of one DOP853 step of length h from z, the root of phi
    there continued from w, as loops over the tableau (Hairer, Norsett &
    Wanner, Solving ODEs I, II.10) that tracer generates its step from:
    (the 8th-order increment, the 5th- and 3rd-order error estimates, the
    last stage's root)."""
    ho = h * orientation
    r = root(z, w)
    hk = [ho / r]
    for row in DOP853_A:
        dz = 0j
        for j, a in row:
            dz += a * hk[j]
        r = root(z + dz, r)
        hk.append(ho / r)
    dz = e5 = e3 = 0j
    for j, b in DOP853_B:
        dz += b * hk[j]
    for j, b in DOP853_E5:
        e5 += b * hk[j]
    for j, b in DOP853_E3:
        e3 += b * hk[j]
    return dz, e5, e3, r


def dop853_step(root, orientation, z, w, h):
    """One DOP853 step: (the 8th-order point, the error estimate, the last
    stage's root)."""
    dz, e5, e3, r = dop853_stages(root, orientation, z, w, h)
    a5 = abs(e5)
    return z + dz, a5 / math.hypot(1.0, 0.1 * abs(e3) / a5) if a5 else 0.0, r


# Cash-Karp 4(5), the tracer's pair before DOP853
CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def cash_karp_step(root, orientation, z, w, h):
    """One Cash-Karp step, as dop853_step."""
    ks, r = [], w
    for s in range(6):
        zs = z
        for j, a in enumerate(CK_A[s]):
            zs += h * a * ks[j]
        r = root(zs, r)
        ks.append(orientation / r)
    z5 = z4 = z
    for j in range(6):
        z5 += h * CK_B5[j] * ks[j]
        z4 += h * CK_B4[j] * ks[j]
    return z5, abs(z5 - z4), r


class Pair(NamedTuple):
    """An embedded pair with its step-size exponent 1 / (q + 1), q the
    order of its error estimate, and the step clamp factor it is run with
    at a critical point of order n."""
    step: object
    exponent: float
    alpha: object


DOP853 = Pair(dop853_step, 1 / 8, clamp_factor)
CASH_KARP = Pair(cash_karp_step, 0.2, lambda n: min(0.1, 0.7 / max(1, abs(n))))


def far_chart_of(qd):
    """(c, rho, the clusters of reference_root in u = 1/(z - c), the (position, clamp factor)
    rows there) when infinity is a regular point of qd and its finite critical points are not
    all at c, else None: c the centre of their bounding box, rho their largest distance from
    c. A zero a of order m goes to 1/(a - c) and multiplies the lead by (-(a - c))^m, a pole b
    of order n goes to 1/(b - c) and divides it by (-(b - c))^n, a cluster at c leaves, and
    u = 0 clamps by CHORD_ALPHA."""
    lead, zeros, poles = clusters_of(qd)
    if sum(m for _a, m in zeros) - sum(n for _b, n in poles) + 4 != 0:
        return None
    cps = [cp for cp in critical_points(qd) if cp.at is not None]
    xs, ys = [cp.at.real for cp in cps], [cp.at.imag for cp in cps]
    c = complex((min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2)
    rho = max(abs(cp.at - c) for cp in cps)
    if rho == 0.0:
        return None

    def image(clusters, product):
        out = []
        for a, m in clusters:
            if a != c:
                f = -(a - c)
                for _ in range(m):
                    product = product * f
                out.append((1 / (a - c), m))
        return product, out

    num, u_zeros = image(zeros, lead)
    den, u_poles = image(poles, 1 + 0j)
    rows = [(1 / (cp.at - c), cp.signed_order) for cp in cps if cp.at != c]
    return c, rho, (num / den, u_zeros, u_poles), rows


def trace_reference(qd, z0, orientation, opts, seed_sqrt, launch_from=None, pair=DOP853,
                    charts=True):
    # (position, clamp factor, pole-guard radius) per finite critical point;
    # infinity comes last in critical_points, so row k is critical point k
    rows = [(c.at, pair.alpha(c.signed_order),
             qd.guard_radius(c.at) if c.signed_order <= -2 else 0.0)
            for c in critical_points(qd) if c.at is not None]
    snap = opts.snap_radius
    x0, y0, x1, y1 = opts.window

    def nearest(z):
        best, bd = -1, math.inf
        for k, (p, _a, _g) in enumerate(rows):
            d = abs(z - p)
            if d < bd:
                best, bd = k, d
        return best, bd

    def max_step(z, rows):
        best = math.inf
        for p, a, _g in rows:
            d = abs(z - p) * a
            if d < best:
                best = d
        return best

    if launch_from is None and nearest(z0)[1] < snap:
        raise StartTooClose(f"{z0} is within snap radius of a critical point")

    root = reference_root(*clusters_of(qd))
    w0 = seed_sqrt if seed_sqrt is not None else root(z0, None)
    if not abs(w0) < math.inf:
        raise StartTooClose(f"{z0} is numerically at a pole: phi is not finite there")

    pts = [z0]
    sqs = [w0]
    taus = [0.0]
    z, w, tau = z0, w0, 0.0
    accepted = rejected = 0
    left_home = False
    termination = None

    h = min(0.01 * (1.0 + abs(z0)) * abs(w0), max_step(z0, rows) * abs(w0),
            opts.max_phi_length)
    h = max(h, 1e-12)
    attempts_cap = 4 * opts.max_steps

    # the chart stepped in: z, or u = 1/(z - c) beyond FAR_OUT * rho of c until
    # within FAR_BACK * rho; x is the chart's variable, wx its root there. The
    # closure's trigger reads z in either chart, and the closure looks for the
    # seed's image in the chart of the step
    chart = far_chart_of(qd) if charts else None
    far = False
    near_chart = (root, rows)
    if chart is not None:
        c, rho, u_clusters, u_rows = chart
        far_chart = (reference_root(*u_clusters),
                     [(p, pair.alpha(n), 0.0) for p, n in u_rows] + [(0j, CHORD_ALPHA, 0.0)])
        # beyond a window side at distance X > 0 from c, with outward normal n: a disk in u
        sides = ((x1 - c.real, 1), (c.real - x0, -1), (y1 - c.imag, 1j), (c.imag - y0, -1j))
        outside = [(n.conjugate() / (2 * dist), 1 / (2 * dist)) for dist, n in sides if dist > 0]
    step_root, step_rows = near_chart
    x, wx = z, w

    while termination is None:
        if chart is not None:
            if (abs(z - c) < FAR_BACK * rho) if far else (abs(z - c) > FAR_OUT * rho):
                far = not far
                if far:
                    d = z - c
                    x, wx = 1 / d, -w * (d * d)
                else:
                    x, wx = z, w
                step_root, step_rows = far_chart if far else near_chart
        if accepted >= opts.max_steps or accepted + rejected >= attempts_cap:
            termination = Termination(STEP_BUDGET)
            break
        remaining = opts.max_phi_length - tau
        if remaining <= 1e-13 * max(1.0, opts.max_phi_length):
            termination = Termination(PHI_LENGTH_BUDGET)
            break
        h = min(h, remaining)
        h = min(h, max_step(x, step_rows) * abs(wx))
        if h <= 1e-15 * max(1.0, tau):
            termination = Termination(STEP_BUDGET)
            break

        try:
            x_new, err, hint = pair.step(step_root, orientation, x, wx, h)
        except ZeroDivisionError:
            h *= 0.25
            rejected += 1
            continue
        tol = opts.rk_tol * (1.0 + abs(x_new))
        if err > tol:
            rejected += 1
            h *= max(0.2, 0.9 * (tol / err) ** pair.exponent)
            continue

        x_prev, wx_prev, z_prev, tau_prev = x, wx, z, tau
        x = x_new
        try:
            wx = step_root(x, hint)
        except ZeroDivisionError:
            wx = hint
        z, w = (c + 1 / x, -wx * (x * x)) if far else (x, wx)
        tau = tau_prev + h
        accepted += 1
        pts.append(z)
        sqs.append(w)
        taus.append(tau)
        grow = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * (tol / err) ** pair.exponent))
        h = h * grow

        kc, dc = nearest(z)
        guarded = [k for k, (p, _a, g) in enumerate(rows) if abs(z - p) < g]
        if (kc >= 0 and dc < snap) or guarded:
            k = kc if kc >= 0 and dc < snap else guarded[0]
            tangent = orientation / w
            ang = cmath.phase(tangent / abs(tangent))
            termination = Termination(HIT_CRITICAL, cp_index=k, incoming_angle=ang)
            break
        if not (x0 <= z.real <= x1 and y0 <= z.imag <= y1) or (
                far and any(point_segment_distance(p, x_prev, x) < r for p, r in outside)):
            termination = Termination(ESCAPED_WINDOW)
            break

        if not left_home:
            if abs(z - z0) > SEED_FACTOR * snap:
                left_home = True
        else:
            d_seg = point_segment_distance(z0, z_prev, z)
            if d_seg <= max(4.0 * snap, CLOSE_TRIGGER * abs(z - z_prev)):
                xs, ws = (1 / (z0 - c), -w0 * ((z0 - c) * (z0 - c))) if far else (z0, w0)
                # the package's closure, checked on its own below
                hit = tracer._close_at_seed(step_root, xs, ws, orientation, tau_prev, x_prev,
                                            wx_prev, tau, x, wx, snap, far)
                if hit is not None:
                    tau_star, x_star, w_star = hit
                    pts[-1], sqs[-1] = ((c + 1 / x_star, -w_star * (x_star * x_star)) if far
                                        else (x_star, w_star))
                    taus[-1] = tau_star
                    tau = tau_star
                    termination = Termination(CLOSED)
                    break

    ray = TrajectoryRay(
        points=np.asarray(pts, dtype=complex), sqrt_values=np.asarray(sqs, dtype=complex),
        taus=np.asarray(taus, dtype=float), phi_length=float(tau), imag_drift=0.0,
        termination=termination, orientation=orientation,
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


def _reference_from(qd, z0, orientation, opts, seed_sqrt, launch_from=None, tau0=0.0,
                    pair=DOP853, charts=True):
    """The reference loop from the tracer's start point. A launched ray's
    taus start at tau0; the reference counts from 0 against a budget
    shortened by tau0, and its taus are shifted afterwards."""
    ray = trace_reference(qd, z0, orientation,
                          opts.replace(max_phi_length=opts.max_phi_length - tau0),
                          seed_sqrt, launch_from, pair, charts)
    ray.taus = ray.taus + tau0
    ray.phi_length += tau0
    return ray


def _both(monkeypatch, fn, *args, pair=DOP853, **kw):
    """The outcome of fn with the fused loop, then with the reference
    stepping with the given pair."""
    new = _outcome(fn, *args, **kw)
    with monkeypatch.context() as m:
        m.setattr(tracer, "_trace", lambda *a, **k: _reference_from(*a, **k, pair=pair))
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
    opts = TraceOptions.for_qd(qd, max_phi_length=100.0, window=(-1e3, -1e3, 1e3, 1e3))
    ray = same_ray(monkeypatch, trace_horizontal, qd, 1.0, 1, opts)
    assert ray.termination.kind == PHI_LENGTH_BUDGET
    assert ray.work["accepted_steps"] > 1000


@pytest.mark.parametrize("seed", [1.0, 1.0 + 1e-3j])
def test_winding_probe_through_the_far_chart_matches_z_alone(monkeypatch, seed):
    # the recurrence probe of the winding figure to phi-length 200, whose
    # infinity is regular, against the reference loop stepping in z alone: the
    # far chart moves the ray's end by rounding and keeps its crossings
    qd = winding_qd()
    opts = TraceOptions.for_qd(qd, max_phi_length=200.0)
    new = detect_recurrence(qd, seed, opts)
    with monkeypatch.context() as m:
        m.setattr(tracer, "_trace", lambda *a, **k: _reference_from(*a, **k, charts=False))
        ref = detect_recurrence(qd, seed, opts)
    assert new.ray.termination == ref.ray.termination
    assert abs(new.ray.points[-1] - ref.ray.points[-1]) <= 1e-9
    assert new.crossings == ref.crossings
    # the far chart takes fewer steps
    assert sum(new.ray.work.values()) < sum(ref.ray.work.values())


@pytest.mark.xfail(strict=True, reason="detect_recurrence counts a shallow crossing near the "
                   "transversal's end by the ray's sampling: 137 crossings with the far chart, "
                   "136 in z alone (ROADMAP, crossings counted by the polyline)")
def test_winding_probe_through_the_far_chart_keeps_its_crossings_at_the_default_length(
        monkeypatch):
    # the same probe from 1 + 1e-3i at the default phi-length 1000: the ends
    # agree within 1e-9, and the crossing at phi-length 943.8 meets the
    # transversal's last chord at 0.95 of its length in one polyline and at 1.03 in the other
    qd = winding_qd()
    opts = TraceOptions.for_qd(qd)
    new = detect_recurrence(qd, 1.0 + 1e-3j, opts)
    with monkeypatch.context() as m:
        m.setattr(tracer, "_trace", lambda *a, **k: _reference_from(*a, **k, charts=False))
        ref = detect_recurrence(qd, 1.0 + 1e-3j, opts)
    assert abs(new.ray.points[-1] - ref.ray.points[-1]) <= 1e-9
    assert new.crossings == ref.crossings


def pillowcase_qd():
    return qd_new(ONE, Polynomial([4.0, 0.0, -5.0, 0.0, 1.0]))


@pytest.mark.parametrize("fn, seed", [(trace_horizontal, 0j), (trace_vertical, 1e-5),
                                      (trace_horizontal, 6.0 + 1.0j)])
@pytest.mark.parametrize("orientation", [1, -1])
def test_pillowcase_rays_from_near_the_centre(monkeypatch, fn, seed, orientation):
    # the centre c = 0 of the pillowcase's poles is a regular point. The closure's
    # trigger reads z in either chart, and a far step's stays ~0.74 rho from c, so a
    # seed near c is looked for in z alone and one beyond FAR_OUT * rho (rho = 2),
    # where the ray starts in the far chart, in that chart too
    far_attempts = []
    real = tracer._close_at_seed
    monkeypatch.setattr(tracer, "_close_at_seed",
                        lambda *a: far_attempts.append(a[-1]) or real(*a))
    qd = pillowcase_qd()
    opts = TraceOptions.for_qd(qd, window=(-1e6, -1e6, 1e6, 1e6))
    ray = same_ray(monkeypatch, fn, qd, seed, orientation, opts)
    assert ray.termination.kind == (HIT_CRITICAL if seed == 0j else CLOSED)
    assert any(far_attempts) == (abs(seed) > FAR_OUT * 2.0)


def test_step_budget(monkeypatch):
    qd = winding_qd()
    opts = TraceOptions.for_qd(qd, max_steps=57)
    ray = same_ray(monkeypatch, trace_horizontal, qd, 1.0, -1, opts)
    assert ray.termination.kind == STEP_BUDGET
    assert ray.work["accepted_steps"] == 57


def test_error_control_rejects_steps(monkeypatch):
    # the critical-point clamp caps about a third of the steps (37 of 119
    # accepted); the others are sized by the error estimate, and at the
    # default tolerance some of those are rejected (a tighter one lets the
    # clamp cap more of them)
    qd = winding_qd()
    opts = TraceOptions.for_qd(qd, max_phi_length=30.0)
    ray = same_ray(monkeypatch, trace_horizontal, qd, 1.0, 1, opts)
    assert ray.work["rejected_steps"] > 0


def test_trace_from_critical_every_direction(monkeypatch):
    qd = winding_qd()
    opts = TraceOptions.for_qd(qd, max_phi_length=30.0)
    for cp in critical_points(qd):
        if cp.at is None:
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


# ---------------------------------------------------------------- accuracy


def _fixture(name):
    return {"circle": circle_qd, "segment": segment_qd, "winding": winding_qd,
            "inverse_square": lambda: qd_from_p_over_q_squared(ONE, Z, sign=1)}[name]()


def _finite_cps(qd):
    return [c for c in critical_points(qd) if c.at is not None]


FIXTURE_RAYS = [
    ("circle", trace_horizontal, (1.0, 1)),
    ("circle", trace_horizontal, (3.0, -1)),
    ("circle", trace_horizontal, (0.5 + 0.5j, 1)),
    ("circle", trace_horizontal, (-2.0 + 0.3j, 1)),
    ("inverse_square", trace_horizontal, (1.0 + 0.25j, 1)),
    ("inverse_square", trace_horizontal, (1.0 + 0.25j, -1)),
    ("inverse_square", trace_horizontal, (-2.0 + 1.0j, 1)),
] + [
    (name, trace_vertical, (0.2 + 0.7j, o)) for name in ("circle", "segment", "winding")
    for o in (1, -1)
] + [
    (name, trace_from_critical, (i, k)) for name in ("segment", "winding")
    for i, c in enumerate(_finite_cps(_fixture(name))) for k in range(c.signed_order + 2)
]


@pytest.mark.parametrize("name, fn, args", FIXTURE_RAYS)
def test_cash_karp_reference_agrees(monkeypatch, name, fn, args):
    # the Cash-Karp reference steps on to the snap radius where the tracer
    # arrives in the local model, so its length to the critical point adds
    # |zeta| of its last point; a pole guard is entered wherever a step
    # lands, so only the point it ends at is compared there
    qd = _fixture(name)
    opts = TraceOptions.for_qd(qd, max_phi_length=30.0)
    if fn is trace_from_critical:
        args = (_finite_cps(qd)[args[0]], args[1])
    new, ref = _both(monkeypatch, fn, qd, *args, opts, pair=CASH_KARP)
    assert new.termination.kind == ref.termination.kind
    assert new.termination.cp_index == ref.termination.cp_index
    if new.termination.kind == CLOSED:
        assert abs(new.phi_length - ref.phi_length) <= 1e-8
    elif _arrived(qd, new):
        p = critical_points(qd)[ref.termination.cp_index].at
        tail = abs(zeta_from(qd, p, ref.points[-1])[0])
        assert abs(new.phi_length - (ref.phi_length + tail)) <= 1e-8


# ---------------------------------------------------------------- the tableau


def test_dop853_tableau_conditions():
    # the nodes c_i of DOP853; the tracer needs none of them
    s6 = math.sqrt(6.0)
    c = (0.0, (6 - s6) / 67.5, (6 - s6) / 45, (6 - s6) / 30, (6 + s6) / 30,
         1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0)
    assert len(DOP853_A) == 11
    for i, row in enumerate(DOP853_A, 1):
        assert all(j < i for j, _a in row)
        assert abs(sum(a for _j, a in row) - c[i]) <= 1e-15 * sum(abs(a) for _j, a in row)
    for k in range(1, 9):
        assert math.isclose(sum(b * c[j] ** (k - 1) for j, b in DOP853_B), 1 / k,
                            rel_tol=1e-14)
    # the error estimates are differences of the 8th-order weights and
    # weights of order 5 and 3, so they integrate c^(k-1) to zero up to those
    for weights, order in ((DOP853_E5, 5), (DOP853_E3, 3)):
        for k in range(1, order + 1):
            assert abs(sum(e * c[j] ** (k - 1) for j, e in weights)) <= 1e-14


# ---------------------------------------------------------------- the straight-line step


def _stages_outcome(stages, *args):
    try:
        return tuple(_bits(v) for v in stages(*args))
    except ZeroDivisionError:
        return ZeroDivisionError


def generated_stages(step):
    """The generated step with the caller's stage 0, as dop853_stages."""
    return lambda root, orientation, z, w, h: step(z, root(z, w), h * orientation)


def make_generated(clusters, sqrt=cmath.sqrt):
    """The (phi, root, products) and the step generated for the clusters of
    reference_root, made with the given sqrt."""
    lead, zeros, poles = clusters
    orders = (tuple(m for _a, m in zeros), tuple(n for _b, n in poles))
    locations = [a for a, _m in zeros + poles]
    return (qdiff._evaluator_maker(*orders)(lead, *locations, sqrt),
            tracer._step_maker(*orders)(lead, *locations, sqrt))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, -1, 1j, -1j]))
def test_dop853_matches_the_table_loop(seed, orientation):
    rng = np.random.default_rng(seed)
    box = lambda n: rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
    n_num, n_den = rng.integers(0, 5, size=2)
    clusters = (complex(*rng.normal(size=2)), [(a, 1) for a in box(n_num).tolist()],
                [(b, 1) for b in box(n_den).tolist()])
    root = reference_root(*clusters)
    z = complex(box(1)[0])
    w = rng.choice([-1, 1]) * root(z, None)
    h = float(10.0 ** rng.uniform(-6, 0.5))
    step = generated_stages(make_generated(clusters)[1])
    assert (_stages_outcome(step, root, orientation, z, w, h)
            == _stages_outcome(dop853_stages, root, orientation, z, w, h))


@pytest.mark.parametrize("orientation", [1, -1, 1j, -1j])
@pytest.mark.parametrize("z, w", [(0.25, 1.0), (-0.5, -1.0), (0.25j, 1.0), (3.0, 1.0)])
def test_dop853_keeps_signed_zeros_as_the_table_loop(orientation, z, w):
    # 1 - z^2 on the axes: each stage is real or imaginary, its other part
    # a signed zero
    scene = tracer._Scene.of(segment_qd())
    for h in (1e-3, 0.1, 1.0):
        assert (_stages_outcome(generated_stages(scene.step), scene.root, orientation,
                                complex(z), w, h)
                == _stages_outcome(dop853_stages, scene.root, orientation, complex(z), w, h))


def test_dop853_stage_on_a_pole_raises_as_the_table_loop():
    # phi = 1 / z^2 from z = 0.75 with orientation -1: h = 1 / a_10 puts
    # stage 1 on the pole at 0 to the last bit
    scene = tracer._Scene.of(qd_from_p_over_q_squared(ONE, Z, sign=1))
    a10 = DOP853_A[0][0][1]
    z, h = 0.75, 1 / a10
    assert z + (0j + a10 * (-h / scene.root(z, 1.0))) == 0
    for stages in (generated_stages(scene.step), dop853_stages):
        assert _stages_outcome(stages, scene.root, -1, z, 1.0, h) is ZeroDivisionError


@pytest.mark.parametrize("stage", range(12))
def test_dop853_stops_at_the_same_stage(stage):
    # a sqrt that fails at the given call, injected into the makers: the
    # generated step after root's stage 0 and the table loop over root call
    # it as often
    base = tracer._Scene.of(winding_qd()).root
    counts = []
    for generated in (True, False):
        calls = []

        def sqrt(v):
            calls.append(v)
            if len(calls) > stage:
                raise ZeroDivisionError
            return cmath.sqrt(v)

        (_phi, root, _products), step = make_generated(clusters_of(winding_qd()), sqrt)
        stages = generated_stages(step) if generated else dop853_stages
        assert _stages_outcome(stages, root, 1, 1.0, base(1.0, 1.0), 0.01) is ZeroDivisionError
        counts.append(calls)
    assert counts[0] == counts[1] and len(counts[0]) == stage + 1


def test_generated_step_binds_its_locations_as_values():
    # the step's closure cells are the differential's lead and locations,
    # signed zeros included, and its code holds no number but the tableau's
    # entries and the 0j its sums start from, each a complex number
    qd = QuadraticDifferential(complex(-0.0, 1.25), [RootCluster(complex(3.5, -0.0), 2, 0.0)],
                               [RootCluster(complex(-0.0, 0.75), 1, 0.0)])
    step = tracer._Scene(qd).step
    cells = {name: cell.cell_contents
             for name, cell in zip(step.__code__.co_freevars, step.__closure__)}
    assert cells.keys() == {"lead", "a0", "b0", "sqrt"} and cells["sqrt"] is cmath.sqrt
    assert [_bits(cells[name]) for name in ("lead", "a0", "b0")] == [
        _bits(c) for c in (complex(-0.0, 1.25), complex(3.5, -0.0), complex(-0.0, 0.75))]
    tableau = {a for table in (*DOP853_A, DOP853_B, DOP853_E5, DOP853_E3) for _j, a in table}
    numbers = {c for c in step.__code__.co_consts if isinstance(c, (int, float, complex))}
    assert numbers - tableau == {0j} and tableau <= numbers
    assert all(type(c) is complex for c in numbers)


def test_same_orders_traced_interleaved_as_alone():
    # two differentials of one shape share the compiled maker, not its
    # values: traced in turn, each gives the rays it gives alone
    makers = [segment_qd, lambda: qd_from_p_over_q_squared(Polynomial([4.0, 1.0, -1.0]), ONE)]
    traces = [lambda qd: trace_horizontal(qd, 0.5 + 0.5j),
              lambda qd: trace_from_critical(qd, _finite_cps(qd)[0], 0),
              lambda qd: trace_vertical(qd, 0.3 + 0.2j),
              lambda qd: trace_from_critical(qd, _finite_cps(qd)[1], 1)]
    alone = []
    for make in makers:
        qd = make()
        alone.append([_ray_bits(trace(qd)) for trace in traces])
    qds = [make() for make in makers]
    assert tracer._Scene.of(qds[0]).step.__code__ is tracer._Scene.of(qds[1]).step.__code__
    together = [[], []]
    for trace in traces:
        for k, qd in enumerate(qds):
            together[k].append(_ray_bits(trace(qd)))
    assert together == alone


def test_generated_code_is_named_by_maker_and_shape():
    # pstats keys a function by file name, line and name: each shape's
    # generated code has a file name of its own, so profiles and tracebacks
    # tell the shapes apart
    qds = [QuadraticDifferential(1.0, [RootCluster(-1.0, 1, 0.0), RootCluster(1.0, 2, 0.0)], []),
           QuadraticDifferential(1.0, [RootCluster(0.0, 1, 0.0)], [RootCluster(2.0, 2, 0.0)])]
    names = [[f.__code__.co_filename for f in (qd.phi, qd.root, scene.step, scene.scan)]
             for qd, scene in ((qd, tracer._Scene.of(qd)) for qd in qds)]
    assert names == [["<qdsphere phi (1, 2) ()>"] * 2 + ["<qdsphere step (1, 2) ()>",
                                                         "<qdsphere scan 2>"],
                     ["<qdsphere phi (1,) (2,)>"] * 2 + ["<qdsphere step (1,) (2,)>",
                                                         "<qdsphere scan 2>"]]


def _ray_bits(ray):
    return (ray.points.tobytes(), ray.sqrt_values.tobytes(), ray.taus.tobytes(),
            ray.termination, ray.phi_length)


# ---------------------------------------------------------------- the generated root


signed_part = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                        st.floats(-4.0, 4.0))
zero_part = st.sampled_from([0.0, -0.0])
coeff = st.builds(complex, signed_part, signed_part)
# on the axes, with real or imaginary locations, phi is often a negative
# real or pure imaginary value: the root's + 0.0 normalization at the cut
point = st.one_of(st.builds(complex, signed_part, signed_part),
                  st.builds(complex, signed_part, zero_part),
                  st.builds(complex, zero_part, signed_part))
clusters = st.lists(st.tuples(point, st.integers(1, 3)), max_size=6)


def _root_outcome(root, z, hint):
    try:
        return _bits(root(z, hint))
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=1500, deadline=None)
@given(coeff, clusters, clusters, point, st.builds(complex, signed_part, signed_part),
       st.sampled_from([1, -1]))
@example(-1 + 0j, [], [], 0j, 1j, 1)                                   # phi = -1
@example(complex(-1.0, -0.0), [], [], 0j, -1j, 1)                      # -1 - 0i
@example(complex(-0.0, 2.0), [], [], 0j, 1 + 1j, -1)                   # pure imaginary
@example(complex(-1.0, -0.0), [(complex(-0.0, 0.0), 2)], [], 2 + 0j, 1j, -1)
@example(0j, [(0j, 1)], [(0j, 1)], 0j, 1 + 0j, 1)                      # 0 / 0
def test_generated_root_is_the_loop_form(lead, zeros, poles, z, hint, sheet):
    ref = reference_root(lead, zeros, poles)
    make = qdiff._evaluator_maker(tuple(m for _a, m in zeros), tuple(n for _b, n in poles))
    phi, root, _products = make(lead, *(a for a, _m in zeros + poles), cmath.sqrt)
    # a hint near either root, and an arbitrary one
    try:
        near = sheet * ref(z, None) + 1e-3 * hint
    except ZeroDivisionError:
        near = hint
    for h in (near, hint):
        assert _root_outcome(root, z, h) == _root_outcome(ref, z, h)
        assert _root_outcome(root, z, h) == _root_outcome(
            lambda z, h: continue_sqrt(phi(z), h), z, h)


lattice_part = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0])


@settings(max_examples=300, deadline=None)
@given(coeff, st.lists(st.tuples(st.builds(complex, lattice_part, lattice_part),
                                 st.integers(-3, 3).filter(bool)),
                       max_size=6, unique_by=lambda c: c[0]),
       point, st.builds(complex, signed_part, signed_part))
@example(1 + 0j, [(complex(-0.0, -0.0), 1), (complex(1.0, -0.0), -2)], complex(-0.5, 0.0), 1j)
def test_scene_root_is_continue_sqrt_of_phi(lead, orders, z, hint):
    # clusters at distinct lattice points, signed-zero locations included:
    # the scene's root and the differential's phi agree to the bit
    zeros = [RootCluster(a, m, 0.0) for a, m in orders if m > 0]
    poles = [RootCluster(a, -m, 0.0) for a, m in orders if m < 0]
    qd = QuadraticDifferential(lead, zeros, poles)
    root = tracer._Scene(qd).root
    assert _root_outcome(root, z, hint) == _root_outcome(
        lambda z, h: continue_sqrt(qd.phi(z), h), z, hint)


def test_generated_root_binds_its_locations_as_values():
    # signed zeros in the locations and the lead reach the root unchanged,
    # and its code holds no number but the 0.0 of the cut normalization
    qd = QuadraticDifferential(complex(-0.0, 1.25), [RootCluster(complex(3.5, -0.0), 2, 0.0)],
                               [RootCluster(complex(-0.0, 0.75), 1, 0.0)])
    root = tracer._Scene(qd).root
    cells = {name: cell.cell_contents
             for name, cell in zip(root.__code__.co_freevars, root.__closure__)}
    assert [_bits(cells[name]) for name in ("lead", "a0", "b0")] == [
        _bits(c) for c in (complex(-0.0, 1.25), complex(3.5, -0.0), complex(-0.0, 0.75))]
    numbers = [c for c in root.__code__.co_consts if isinstance(c, (int, float, complex))]
    assert numbers and all(c == 0 for c in numbers)


def test_generated_root_is_built_once_per_differential(monkeypatch):
    calls = []
    real = qdiff._evaluator_maker
    monkeypatch.setattr(qdiff, "_evaluator_maker", lambda *a: calls.append(a) or real(*a))
    qd = segment_qd()
    trace_horizontal(qd, 0.5 + 0.5j)
    trace_vertical(qd, 0.5 + 0.5j)
    trace_from_critical(qd, _finite_cps(qd)[0], 0)
    assert calls == [((1, 1), ())]
    assert tracer._Scene.of(qd).root is qd.root


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
    finite_cps = [c for c in critical_points(qd) if c.at is not None]
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
    """Record (z0, the package's answer) at every call of the closure."""
    calls = []
    real = tracer._close_at_seed

    def recorded(root, z0, *rest):
        out = real(root, z0, *rest)
        calls.append((z0, out))
        return out

    monkeypatch.setattr(tracer, "_close_at_seed", recorded)
    return calls


def assert_closures_exact(calls):
    """Every closure is one turn of a circle about the double pole of an
    image of -dz^2 / z^2: at phi-length 2 pi, back at its seed."""
    closures = [(z0, out) for z0, out in calls if out is not None]
    assert closures
    for z0, (tau_s, z_s, _w) in closures:
        assert abs(tau_s - 2 * math.pi) <= 1e-10
        assert abs(z_s - z0) <= 1e-10


@pytest.mark.parametrize("start, orientation",
                         [(1.0, 1), (3.0, -1), (0.5 + 0.5j, 1), (-2.0 + 0.3j, 1), (0.1j, -1)])
def test_closure_refine_matches_reference_on_the_circle(monkeypatch, start, orientation):
    calls = _record_closures(monkeypatch)
    ray = trace_horizontal(circle_qd(), start, orientation)
    assert ray.termination.kind == CLOSED
    assert_closures_exact(calls)


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
    assert_closures_exact(calls)


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


def test_closure_near_simple_poles_on_the_ellipses():
    # phi = -1 / (z^2 - 1): the horizontal trajectories about the segment
    # [-1, 1] are confocal ellipses, each closed at phi-length 2 pi. Seeds
    # near the simple pole at 1 put the closing step where that pole clamps
    # it, so the closure's chord is as long as the clamp lets it be
    qd = qd_new(Polynomial([-1.0]), Polynomial([-1.0, 0.0, 1.0]))
    closed = 0
    for eps in (0.3, 0.1, 0.03, 0.01, 0.003):
        for k in range(12):
            z0 = 1.0 + eps * cmath.exp(1j * (0.1 + 2 * math.pi * k / 12))
            for orientation in (1, -1):
                ray = trace_horizontal(qd, z0, orientation)
                if ray.termination.kind == CLOSED:
                    closed += 1
                    assert abs(ray.phi_length - 2 * math.pi) <= 1e-9
    # the two rays that do not close start at eps = 0.003, k = 6, almost on
    # the segment, and end HitCritical: they pass a pole within the reach of
    # its arrival test
    assert closed >= 118
