"""Numerical trajectory tracing in the natural parameter.

A horizontal trajectory solves dz/dtau = orientation / w(z) where w is a
branch-continuous square root of phi; tau then advances phi-length at unit
speed and Im of the integral of w dz stays constant. The integrator is an
embedded Cash-Karp 4(5) pair with the branch threaded through every stage
evaluation, the step additionally clamped so a single step can neither jump
over a critical point nor wind phi by more than a fraction of a turn.

The step loop is written out for speed. Each stage continues the root of
the stage before it (`continue_sqrt`, inlined with phi's Horner rule), and
stage 0 reuses the root computed at the accepted point, so phi is evaluated
six times per accepted step. The critical points are scanned once per
accepted point, for the arrival test, the step clamp and the pole guards.

Near a finite critical point p of order n >= -1 the step clamp would force
many tiny steps, so rays neither start nor end there by stepping. Inside
the disk of radius LOCAL_RADIUS * d (d the distance to the nearest other
critical point) the distinguished parameter zeta(z) = integral of sqrt(phi)
from p is computed directly (`qdiff.zeta_from`), and the critical rays are
the curves Im zeta = 0. A critical trajectory is launched on the disk's
circle where Im zeta = 0, with its phi-length starting at |zeta|. A ray that
enters a disk heading into p ends there as HitCritical when |Im zeta| is
within the phi-distance from p to the snap circle, which is exactly when it
would pass within the snap radius of p, and |zeta| is added to its length.
The quadrature runs only when a bound on the local model's error leaves
room for that (see _Scene).

A ray that passes back by its seed z0 is closed in the same chart at z0:
one Gauss-Legendre panel from the step back to z0 gives zeta there, and
with it the crossing's phi-length and point (see _close_at_seed).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DriftExceeded, DirectionIndexError, PoleOnPath, StartTooClose
from .geom import point_segment_distance
from .qdiff import (
    GL_NODES,
    GL_WEIGHTS,
    CriticalPoint,
    QuadraticDifferential,
    critical_directions,
    continue_sqrt,
    critical_points,
    local_leading_coefficient,
    principal_sqrt,
    sqrt_panel_integrals,
    zeta_from,
)

SNAP_FACTOR = 1e-6
SEED_FACTOR = 10.0           # a ray has left its start beyond 10 * snap_radius
LOCAL_RADIUS = 0.05          # analytic disks: radius / distance to the next critical point
DEFAULT_RK_TOL = 1e-10
DEFAULT_MAX_STEPS = 10 ** 6
LENGTH_FACTOR = 100.0
DRIFT_PER_100 = 1e-5

CLOSED = "Closed"
HIT_CRITICAL = "HitCritical"
ESCAPED_WINDOW = "EscapedWindow"
PHI_LENGTH_BUDGET = "PhiLengthBudget"
STEP_BUDGET = "StepBudget"

# Cash-Karp tableau; the field is autonomous, so the nodes c_i are not needed
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)
_GL = tuple(zip(GL_NODES.tolist(), GL_WEIGHTS.tolist()))


@dataclass(frozen=True)
class TraceOptions:
    max_phi_length: float
    window: tuple[float, float, float, float]
    snap_radius: float
    rk_tol: float = DEFAULT_RK_TOL
    max_steps: int = DEFAULT_MAX_STEPS

    @classmethod
    def for_qd(cls, qd: QuadraticDifferential, *, max_phi_length=None, window=None,
               rk_tol=None, max_steps=None) -> "TraceOptions":
        """Defaults derived from the finite critical set: budget 100 * diam,
        window = bounding box inflated 4x, snap 1e-6 * diam."""
        diam = qd.diameter()
        pos = qd.finite_critical_positions()
        if pos:
            xs = [p.real for p in pos]
            ys = [p.imag for p in pos]
            cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
            hx = max(1.0, (max(xs) - min(xs)) / 2)
            hy = max(1.0, (max(ys) - min(ys)) / 2)
        else:
            cx = cy = 0.0
            hx = hy = 1.0
        win = (cx - 4 * hx, cy - 4 * hy, cx + 4 * hx, cy + 4 * hy)
        return cls(
            max_phi_length=LENGTH_FACTOR * diam if max_phi_length is None else max_phi_length,
            window=win if window is None else tuple(window),
            snap_radius=SNAP_FACTOR * diam,
            rk_tol=DEFAULT_RK_TOL if rk_tol is None else rk_tol,
            max_steps=DEFAULT_MAX_STEPS if max_steps is None else int(max_steps),
        )

    def replace(self, **kw) -> "TraceOptions":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class Termination:
    kind: str
    cp_index: int | None = None
    incoming_angle: float | None = None


@dataclass
class TrajectoryRay:
    points: np.ndarray                # complex polyline, first point is the seed
    sqrt_values: np.ndarray           # branch-continuous sqrt(phi) at the points
    taus: np.ndarray                  # accumulated phi-length at each point, from p if launched
    phi_length: float                 # up to the critical point a ray arrives at
    imag_drift: float
    termination: Termination
    direction_seed: complex
    orientation: int
    work: dict = field(default_factory=dict)


class _Scene:
    """Critical-point geometry of a differential: a row (k, position, clamp
    factor alpha, pole-guard radius) per finite critical point, the index of
    each in critical_points(qd), the radius of its analytic disk (0 for
    poles of order >= 2, which have none) and its local model.

    The model of a point p of order n is (p, e, c, slack) with e = (n + 2) / 2.
    The phi-distance from p to a circle of radius s is c s^e, c = sqrt|a| / e
    for phi ~ a (z - p)^n. In the disk, zeta(z) = (z - p) sqrt(phi(z)) / e
    times 1 + E with |E| <= slack = exp(kappa / 2) - 1, where kappa =
    r sum |m| / (|p - q| - r) over the other critical points q of order m and
    r is the disk's radius: writing phi = a (z - p)^n g(z), |g'/g| <= kappa / r
    bounds how far sqrt(g) moves along the segment from p to z.
    """

    __slots__ = ("rows", "index", "disks", "models")

    def __init__(self, qd: QuadraticDifferential):
        rows, self.index, disks, models = [], [], [], []
        finite = [cp for cp in critical_points(qd) if not cp.at.is_infinite]
        for i, cp in enumerate(critical_points(qd)):
            if cp.at.is_infinite:
                continue
            z = cp.at.value
            # step clamp: small enough for accuracy and so arg(phi) moves < ~0.7 rad
            alpha = min(0.1, 0.7 / max(1, abs(cp.signed_order)))
            guard = qd.guard_radius(z) if cp.signed_order <= -2 else 0.0
            rows.append((len(rows), z, alpha, guard))
            self.index.append(i)
            if not cp.is_finite_critical:
                disks.append(0.0)
                models.append(None)
                continue
            r = LOCAL_RADIUS * qd.local_scale(z)
            e = 0.5 * cp.signed_order + 1.0
            kappa = r * sum(abs(q.signed_order) / (abs(q.at.value - z) - r)
                            for q in finite if q.at.value != z)
            disks.append(r)
            models.append((z, e, math.sqrt(abs(local_leading_coefficient(qd, cp))) / e,
                           math.expm1(0.5 * kappa)))
        self.rows = tuple(rows)
        self.disks = tuple(disks)
        self.models = tuple(models)

    @classmethod
    def of(cls, qd: QuadraticDifferential) -> "_Scene":
        """The scene of qd, built on its first trace and kept on it."""
        if qd._scene is None:
            qd._scene = cls(qd)
        return qd._scene

    def scan(self, z: complex) -> tuple[int, float, float, int]:
        """One pass over the finite critical points: the nearest one (first
        on ties, -1 if none) and its distance, the step clamp min |z - p| *
        alpha, and the first pole whose guard disk holds z (-1 if none)."""
        near, d_near, clamp, pole = -1, math.inf, math.inf, -1
        for k, p, alpha, g in self.rows:
            d = abs(z - p)
            if d < d_near:
                near, d_near = k, d
            c = d * alpha
            if c < clamp:
                clamp = c
            if d < g and pole < 0:
                pole = k
        return near, d_near, clamp, pole


def trace_horizontal(qd: QuadraticDifferential, z0: complex, orientation: int = 1,
                     opts: TraceOptions | None = None, *,
                     seed_sqrt: complex | None = None) -> TrajectoryRay:
    """Trace the horizontal trajectory through the regular point z0."""
    opts = opts or TraceOptions.for_qd(qd)
    return _trace(qd, complex(z0), int(orientation), opts, seed_sqrt)


def trace_vertical(qd: QuadraticDifferential, z0: complex, orientation: int = 1,
                   opts: TraceOptions | None = None) -> TrajectoryRay:
    """Vertical trajectories of phi are horizontal trajectories of -phi."""
    opts = opts or TraceOptions.for_qd(qd)
    return _trace(qd.negated(), complex(z0), int(orientation), opts, None)


def trace_from_critical(qd: QuadraticDifferential, cp: CriticalPoint,
                        direction_index: int, opts: TraceOptions | None = None) -> TrajectoryRay:
    """Launch the critical trajectory leaving cp along its k-th direction.

    The ray starts where the k-th critical ray of the local model crosses
    the circle |z - p| = LOCAL_RADIUS * d, d the distance to the nearest
    other critical point, and moves away from p. Its taus, and so its
    phi-length, count from p: they start at |zeta| of the launch point.
    """
    opts = opts or TraceOptions.for_qd(qd)
    dirs = critical_directions(qd, cp)
    if not 0 <= direction_index < len(dirs):
        raise DirectionIndexError(
            f"direction {direction_index} out of range 0..{len(dirs) - 1}")
    p = cp.at.value
    z0, zeta, w0 = _launch_point(qd, cp, dirs[direction_index],
                                 LOCAL_RADIUS * qd.local_scale(p))
    # d zeta / d tau = orientation, so |zeta| grows when they share a sign
    orientation = 1 if zeta.real > 0 else -1
    return _trace(qd, z0, orientation, opts, w0, launch_from=cp, tau0=abs(zeta))


def _launch_point(qd, cp, u, r):
    """The point z = p + r e^(i theta) with Im zeta(z) = 0 next to the
    direction u, by Newton in theta with d zeta / d theta = sqrt(phi(z))
    i (z - p). The solutions are 2 pi / (n + 2) apart, so theta is kept
    within a quarter of that of arg u. Returns z, zeta(z) and the principal
    sqrt(phi(z)) zeta is taken with.

    Newton starts from the first-order local model: with phi(p + v) =
    a v^n (1 + b v + ...), b the sum of m / (p - q) over the other critical
    points q of order m, zeta = (sqrt(a) / e) v^e (1 + g v + ...) with
    e = (n + 2) / 2 and g = b e / (2 (e + 1)), so arg zeta moves by
    Im(g v) off the leading term's direction u.
    """
    p = cp.at.value
    e = 0.5 * cp.signed_order + 1.0
    b = sum(c.signed_order / (p - c.at.value) for c in critical_points(qd)
            if not c.at.is_infinite and c.at.value != p)
    theta0 = cmath.phase(u)
    lim = 0.5 * math.pi / (cp.signed_order + 2)
    theta = theta0 - (b * e / (2.0 * (e + 1.0)) * r * u).imag / e
    theta = min(theta0 + lim, max(theta0 - lim, theta))
    z = p + r * cmath.exp(1j * theta)
    for _ in range(12):                  # converges quadratically, in 2-3 steps
        zeta, w = zeta_from(qd, p, z)
        if abs(zeta.imag) <= 1e-14 * abs(zeta):
            break
        slope = (w * (z - p)).real
        if slope == 0.0:
            break
        theta = min(theta0 + lim, max(theta0 - lim, theta - zeta.imag / slope))
        z_next = p + r * cmath.exp(1j * theta)
        if abs(zeta.imag) <= 1e-8 * abs(zeta):
            # this step leaves Im zeta ~ (Im zeta / |zeta|)^2 |zeta| / 2, far
            # below the tolerance; the trapezoid rule over it moves zeta
            w_next = continue_sqrt(qd.phi(z_next), w)
            zeta += 0.5 * (w + w_next) * (z_next - z)
            z, w = z_next, w_next
            break
        z = z_next
    s = principal_sqrt(qd.phi(z))
    if abs(s - w) > abs(s + w):
        zeta = -zeta
    return z, zeta, s


def _trace(qd, z0, orientation, opts, seed_sqrt, launch_from=None, tau0=0.0):
    scene = _Scene.of(qd)
    snap = opts.snap_radius
    x0, y0, x1, y1 = opts.window
    disks = scene.disks

    home, d_home, clamp, _pole = scene.scan(z0)
    if launch_from is None and d_home < snap:
        raise StartTooClose(f"{z0} is within snap radius of a critical point")
    # the disk a ray is in is tested once, on entry; a launched ray starts in its own
    inside = home if launch_from is not None else -1

    num_desc = qd.num.coeffs[::-1]
    den_desc = qd.den.coeffs[::-1]
    sqrt = cmath.sqrt

    def root(z, hint):
        """continue_sqrt(phi(z), hint), phi by Horner's rule, inlined."""
        a = 0j
        for c in num_desc:
            a = a * z + c
        b = 0j
        for c in den_desc:
            b = b * z + c
        v = a / b
        s = sqrt(complex(v.real + 0.0, v.imag + 0.0))
        return s if abs(s - hint) <= abs(s + hint) else -s

    w0 = seed_sqrt if seed_sqrt is not None else principal_sqrt(qd.phi(z0))
    dir0 = (orientation / w0)
    dir0 /= abs(dir0)

    pts = [z0]
    sqs = [w0]
    taus = [tau0]
    z, w, tau = z0, w0, tau0
    accepted = rejected = 0
    left_home = False
    # stage 0 may reuse w when it is a finite root of phi(z): continue_sqrt
    # then returns it unchanged, so not on the first step or after a fallback
    fresh = False
    termination = None

    # the critical-point clamp only changes when z and w do
    cap = clamp * abs(w0)
    h = min(0.01 * (1.0 + abs(z0)) * abs(w0), cap, opts.max_phi_length)
    h = max(h, 1e-12)
    attempts_cap = 4 * opts.max_steps
    (_, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54)) = _CK_A
    b50, b51, b52, b53, b54, b55 = _CK_B5
    b40, b41, b42, b43, b44, b45 = _CK_B4

    while True:
        if accepted >= opts.max_steps or accepted + rejected >= attempts_cap:
            termination = Termination(STEP_BUDGET)
            break
        remaining = opts.max_phi_length - tau
        if remaining <= 1e-13 * max(1.0, opts.max_phi_length):
            termination = Termination(PHI_LENGTH_BUDGET)
            break
        h = min(h, remaining)
        h = min(h, cap)
        if h <= 1e-15 * max(1.0, tau):
            termination = Termination(STEP_BUDGET)
            break

        # Cash-Karp stages; the root r_i of each is the branch hint of the next
        try:
            r0 = w if fresh else root(z, w)
            k0 = orientation / r0
            r1 = root(z + h * a10 * k0, r0)
            k1 = orientation / r1
            r2 = root(z + h * a20 * k0 + h * a21 * k1, r1)
            k2 = orientation / r2
            r3 = root(z + h * a30 * k0 + h * a31 * k1 + h * a32 * k2, r2)
            k3 = orientation / r3
            r4 = root(z + h * a40 * k0 + h * a41 * k1 + h * a42 * k2 + h * a43 * k3, r3)
            k4 = orientation / r4
            r5 = root(z + h * a50 * k0 + h * a51 * k1 + h * a52 * k2 + h * a53 * k3
                      + h * a54 * k4, r4)
            k5 = orientation / r5
        except ZeroDivisionError:
            h *= 0.25
            rejected += 1
            continue
        # the zero weights stay: h * 0.0 * k can be -0.0 or NaN
        z5 = (z + h * b50 * k0 + h * b51 * k1 + h * b52 * k2 + h * b53 * k3
              + h * b54 * k4 + h * b55 * k5)
        z4 = (z + h * b40 * k0 + h * b41 * k1 + h * b42 * k2 + h * b43 * k3
              + h * b44 * k4 + h * b45 * k5)
        err = abs(z5 - z4)
        tol = opts.rk_tol * (1.0 + abs(z5))
        if err > tol:
            rejected += 1
            h *= max(0.2, 0.9 * (tol / max(err, 1e-300)) ** 0.2)
            continue

        z_prev, w_prev, tau_prev = z, w, tau
        z = z5
        try:
            w = root(z, r5)
            fresh = abs(w) < math.inf
        except ZeroDivisionError:
            w, fresh = r5, False
        tau = tau_prev + h
        accepted += 1
        pts.append(z)
        sqs.append(w)
        taus.append(tau)
        grow = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
        h = h * grow

        # termination checks: arrival on entry into an analytic disk, pole guards
        near, d_near, clamp, pole = scene.scan(z)
        hit = pole
        if near >= 0 and d_near < disks[near]:
            if near != inside:
                inside = near
                p, e, c, slack = scene.models[near]
                v = z - p
                # heading into p, and by the model's bound maybe onto it
                if (v * (orientation / w).conjugate()).real < 0.0:
                    reach = c * snap ** e
                    zeta = v * w / e
                    if abs(zeta.imag) - slack * abs(zeta) <= reach:
                        zeta, _w = zeta_from(qd, p, z)
                        if abs(zeta.imag) <= reach:
                            hit = near
                            tau += abs(zeta)
        else:
            inside = -1
        if hit >= 0:
            tangent = orientation / w
            ang = cmath.phase(tangent / abs(tangent))
            termination = Termination(HIT_CRITICAL, cp_index=scene.index[hit],
                                      incoming_angle=ang)
            break
        if not (x0 <= z.real <= x1 and y0 <= z.imag <= y1):
            termination = Termination(ESCAPED_WINDOW)
            break
        cap = clamp * abs(w)

        if not left_home:
            if abs(z - z0) > SEED_FACTOR * snap:
                left_home = True
        else:
            seg = z - z_prev
            d_seg = point_segment_distance(z0, z_prev, z)
            if d_seg <= max(4.0 * snap, 0.35 * abs(seg)):
                closed = _close_at_seed(root, z0, w0, orientation, tau_prev, z_prev,
                                        w_prev, tau, z, w, snap)
                if closed is not None:
                    tau_star, z_star, w_star = closed
                    pts[-1] = z_star
                    sqs[-1] = w_star
                    taus[-1] = tau_star
                    tau = tau_star
                    termination = Termination(CLOSED)
                    break

    points = np.asarray(pts, dtype=complex)
    sqrt_values = np.asarray(sqs, dtype=complex)
    taus_arr = np.asarray(taus, dtype=float)
    ray = TrajectoryRay(
        points=points, sqrt_values=sqrt_values, taus=taus_arr,
        phi_length=float(tau), imag_drift=0.0, termination=termination,
        direction_seed=dir0, orientation=orientation,
        work={"accepted_steps": accepted, "rejected_steps": rejected},
    )
    certify_drift(qd, ray, opts)
    return ray


def certify_drift(qd: QuadraticDifferential, ray: TrajectoryRay, opts: TraceOptions) -> None:
    """Record the ray's imaginary drift and raise DriftExceeded when it is
    above the bound for its phi-length and tolerance, or not finite."""
    ray.imag_drift = imag_drift_of(qd, ray)
    allow = DRIFT_PER_100 * max(1.0, ray.phi_length / 100.0) * max(1.0, opts.rk_tol / DEFAULT_RK_TOL)
    if not ray.imag_drift <= allow:
        raise DriftExceeded(
            f"imaginary drift {ray.imag_drift:.3e} exceeds {allow:.3e} "
            f"over phi-length {ray.phi_length:.3f}")


def _close_at_seed(root, z0, w0, orientation, tau_a, z_a, w_a, tau_b, z_b, w_b, snap):
    """Where the accepted step [tau_a, tau_b] passes z0, in the chart
    zeta(z) = integral of sqrt(phi) from z0; returns (tau*, z*, w*) if the
    ray closes there, else None.

    Along the ray d zeta / d tau = orientation and Im zeta is constant, so
    with zeta_a = zeta(z_a) the ray crosses Re zeta = 0 at tau* = tau_a -
    orientation Re zeta_a, at zeta = i Im zeta_a, that is z* = z0 +
    i Im zeta_a / sqrt(phi(z0)) to first order in z* - z0, which is below
    snap when it matters. zeta_a is one 8-node Gauss-Legendre panel
    on the chord from z_a to z0, the root continued from w_a; the step
    clamp keeps the chord in a disk free of critical points. A crossing
    off the step falls back to the step's end nearer z0. The ray is closed
    when that point is within snap of z0 and the root carried to z0 is on
    the seed's sheet."""
    mid, half = 0.5 * (z_a + z0), 0.5 * (z0 - z_a)
    w, acc = w_a, 0j
    for x, c in _GL:
        w = root(mid + half * x, w)
        acc += c * w
    zeta_a = -half * acc
    w = root(z0, w)
    tau_s = tau_a - orientation * zeta_a.real
    if tau_a < tau_s < tau_b:
        z_s = z0 + 1j * zeta_a.imag / w
        w_s = root(z_s, w)
    elif abs(z_a - z0) <= abs(z_b - z0):
        tau_s, z_s, w_s = tau_a, z_a, w_a
    else:
        tau_s, z_s, w_s = tau_b, z_b, w_b
    if abs(z_s - z0) < snap and abs(w - w0) <= abs(w + w0):
        return tau_s, z_s, w_s
    return None


def phi_length_of(qd: QuadraticDifferential, points) -> float:
    """Composite 8-node Gauss-Legendre integral of sqrt|phi| |dz| along the
    polyline. Raises PoleOnPath if a quadrature node sits on a pole."""
    pts = np.asarray([complex(p) for p in points], dtype=complex)
    if len(pts) < 2:
        return 0.0
    seg = np.flatnonzero(pts[:-1] != pts[1:])
    a, b = pts[seg], pts[seg + 1]
    half = 0.5 * (b - a)
    zs = 0.5 * (a + b)[:, None] + half[:, None] * GL_NODES
    dv = qd.den.eval_array(zs)
    lim = (1e-13 * max(qd.den.scale(), 1e-300)
           * np.maximum(1.0, np.abs(zs)) ** max(qd.den.degree, 0))
    bad = np.any(np.abs(dv) <= lim, axis=1)
    if bad.any():
        raise PoleOnPath(f"quadrature node on segment {seg[np.argmax(bad)]} hits a pole")
    vals = np.sqrt(np.abs(qd.num.eval_array(zs) / dv))
    return float(np.sum((vals @ GL_WEIGHTS) * np.abs(half)))


def imag_drift_of(qd: QuadraticDifferential, ray: TrajectoryRay) -> float:
    """Max over checkpoints of |Im integral of w dz| along the recorded
    polyline, with w branch-continuous; the correctness certificate."""
    pts = np.asarray(ray.points, dtype=complex)
    a, b = pts[:-1], pts[1:]
    moved = a != b
    if not moved.any():
        return 0.0
    running, _ = sqrt_panel_integrals(a[moved], b[moved], qd.phi_array,
                                      hint=complex(ray.sqrt_values[0]))
    return float(np.max(np.abs(running.imag)))
