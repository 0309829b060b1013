"""Numerical trajectory tracing in the natural parameter.

A trajectory solves dz/dtau = orientation / w(z) where w is a
branch-continuous square root of phi: orientation +-1 for a horizontal one,
+-i for a vertical one, the same field turned by i. tau advances phi-length
at unit speed, zeta = integral of w dz moves at d zeta / d tau = orientation,
and Im(zeta / orientation) stays constant. The integrator is the embedded
Dormand-Prince 8(5,3) pair (DOP853) with the branch threaded through every
stage evaluation; its error estimate keeps the steps accurate, and a clamp
keeps a single step from jumping over a critical point or moving arg(phi)
by more than BRANCH_TURN (see clamp_factor).

A step is straight-line code generated per shape of differential (see _step_maker), each
stage inlining phi's product lines and continuing the root of the stage before it. Stage 0
reuses the root at the accepted point, so phi is evaluated twelve times per accepted step.
Each accepted point is scanned once against the critical points, by straight-line code
generated per number of them (see _scan_maker): it gives the disk the point is in, for the
entry test, and the step clamp.

A ray ends at a critical point only on entry into its disk (see _Scene); a pole
of order >= 2 has no local model, and entering its disk ends the ray. Near a
zero or simple pole p the step clamp would force many tiny steps, so rays
neither start nor end there by stepping. Inside the disk of radius
LOCAL_RADIUS * d (d the distance to the nearest other critical point) the
distinguished parameter zeta(z) = integral of sqrt(phi) from p is computed
directly (`qdiff.zeta_from`), and the critical rays are the curves Im zeta = 0.
A critical trajectory is launched on the disk's circle where Im zeta = 0, with
its phi-length starting at |zeta|; each ray finds that point by its own Newton
iteration in the angle, one quadrature per Newton step. A ray that enters a disk
heading into p ends there as HitCritical when |Im(zeta / orientation)| is within
the phi-distance from p to the snap circle, which is exactly when it would pass
within the snap radius of p, and |zeta| is added to its length. The quadrature
runs only when a bound on the local model's error leaves room for that (see _Scene).

A ray that passes back by its seed z0 is closed in the same chart at z0:
one Gauss-Legendre panel from the step back to z0 gives zeta there, and
with it the crossing's phi-length and point (see _close_at_seed).

When infinity is a regular point, a ray far from the critical set steps in
the chart u = 1/(z - c), in which it passes infinity as any regular point;
in z, a pole of z(tau) at a nearby complex tau would force tiny steps. It
switches to u beyond FAR_OUT * rho of c and back to z within FAR_BACK * rho,
c and rho the centre and radius of the finite critical set (see _Scene),
carrying (z, w) to (u, -w (z - c)^2) and back by w = -w_u u^2, since
zeta is the same in both. The ray records z and w in either chart, and the
window, the seed, the snap radius and the closure's trigger are those of z;
a closure runs in the chart of the step that triggers it, at the seed's image.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DriftExceeded, DirectionIndexError, StartTooClose
from .geom import point_segment_distance
from .qdiff import (
    AT_POLE,
    GL_PAIRS,
    CriticalPoint,
    QuadraticDifferential,
    _compile_maker,
    _phi_args,
    _phi_lines,
    critical_directions,
    continue_sqrt,
    critical_points,
    inverted,
    local_leading_coefficient,
    order_at_infinity,
    principal_sqrt,
    sqrt_panel_integrals,
    zeta_from,
)

SNAP_FACTOR = 1e-6
SEED_FACTOR = 10.0           # a ray has left its start beyond 10 * snap_radius
LOCAL_RADIUS = 0.05          # analytic disks: radius / distance to the next critical point
BRANCH_TURN = 0.7            # a step moves arg(phi) by less than this, in radians
CLOSE_TRIGGER = 0.35         # the closure is tried when z0 is within this share of a step of it
CHORD_ALPHA = 0.675 / (1.0 + CLOSE_TRIGGER)    # = 0.5, the largest clamp the closure allows
DEFAULT_RK_TOL = 1e-10
DEFAULT_MAX_STEPS = 10 ** 6
LENGTH_FACTOR = 100.0
DRIFT_PER_100 = 1e-5
FAR_OUT = 2.0                # past a regular infinity a ray steps in u = 1/(z - c) beyond
FAR_BACK = 1.6               # FAR_OUT * rho of c, and in z again within FAR_BACK * rho (_Scene)

CLOSED = "Closed"
HIT_CRITICAL = "HitCritical"
ESCAPED_WINDOW = "EscapedWindow"
PHI_LENGTH_BUDGET = "PhiLengthBudget"
STEP_BUDGET = "StepBudget"


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10): the (j, a_ij) of each stage
# i = 1..11, then the (j, b_j) of the 8th-order increment and its 5th- and 3rd-order error
# estimates. The field is autonomous, so the nodes c_i are not needed.
DOP853_A = (
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596), (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
)
DOP853_B = ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
            (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
            (10, 0.20136540080403034), (11, 0.04471061572777259))
DOP853_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
             (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
             (10, 0.08192320648511571), (11, -0.022355307863886294))
DOP853_E3 = ((0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
             (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
             (10, 0.20136540080403034), (11, 0.02265179219836082))


@functools.lru_cache(maxsize=None)
def _step_maker(zero_orders: tuple[int, ...], pole_orders: tuple[int, ...]):
    """A maker, compiled once per pair of order tuples and called as root's, of
    step(z, r, ho) -> (dz, e5, e3, r): one DOP853 step of dz/dtau = orientation / sqrt(phi),
    ho = h * orientation, r the root at z, to the 8th-order increment, the 5th- and 3rd-order
    error estimates and the last stage's root. Stage i, at x = z + (0j + a_i0 k0 + ...) over
    row i of DOP853_A, inlines qdiff._evaluator_maker's phi lines at x and continues the root
    of the stage before; k_i = ho / r_i: a loop's float operations in order, so its bits.
    Each a is written as the complex (a + 0j) that a float times a complex is promoted to, so
    a product skips the failed float dispatch, and a product that DOP853_B shares with an
    error estimate is taken once."""
    shared = set(DOP853_B) & (set(DOP853_E5) | set(DOP853_E3))

    def total(row, named=frozenset()):
        return "0j" + "".join(f" + p{j}" if (j, a) in named else f" + {complex(a)!r} * k{j}"
                              for j, a in row)

    lines = ["    def step(z, r, ho):", "        k0 = ho / r"]
    for i, row in enumerate(DOP853_A, 1):
        lines += [f"        x = z + ({total(row)})", *_phi_lines(zero_orders, pole_orders, "x"),
                  "        s = sqrt(v + 0j)", "        r = s if abs(s - r) <= abs(s + r) else -s",
                  f"        k{i} = ho / r"]
    lines += [f"        p{j} = {complex(a)!r} * k{j}" for j, a in sorted(shared)]
    ends = ", ".join(total(t, shared) for t in (DOP853_B, DOP853_E5, DOP853_E3))
    lines.append(f"        return {ends}, r")
    return _compile_maker(f"step {zero_orders} {pole_orders}", _phi_args(zero_orders, pole_orders),
                          lines, "step")


@functools.lru_cache(maxsize=None)
def _scan_maker(n: int):
    """make(p0, alpha0, r0, p1, ..., inf) of scan(z) -> (k, clamp) over n rows, compiled once
    per n: k the row whose disk |z - p_k| < r_k holds z, -1 if none, and the step clamp
    min |z - p| * alpha, each row's c < clamp taken in row order as a loop would take it."""
    lines = ["    def scan(z):", "        k, clamp = -1, inf"]
    for i in range(n):
        lines += [f"        d = abs(z - p{i})", f"        c = d * alpha{i}",
                  "        if c < clamp:", "            clamp = c",
                  f"        if d < r{i}:", f"            k = {i}"]
    lines.append("        return k, clamp")
    args = [f"{x}{i}" for i in range(n) for x in ("p", "alpha", "r")]
    return _compile_maker(f"scan {n}", [*args, "inf"], lines, "scan")


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
            c, hx, hy = _box(pos)
            cx, cy = c.real, c.imag
            hx, hy = max(1.0, hx), max(1.0, hy)
        else:
            cx = cy = 0.0
            hx = hy = 1.0
        win = (cx - 4 * hx, cy - 4 * hy, cx + 4 * hx, cy + 4 * hy)
        return cls(
            max_phi_length=(LENGTH_FACTOR * diam if max_phi_length is None
                            else float(max_phi_length)),
            window=win if window is None else tuple(window),
            snap_radius=SNAP_FACTOR * diam,
            rk_tol=DEFAULT_RK_TOL if rk_tol is None else float(rk_tol),
            max_steps=DEFAULT_MAX_STEPS if max_steps is None else int(max_steps),
        )

    def replace(self, **kw) -> "TraceOptions":
        return dataclasses.replace(self, **kw)


def _box(pos) -> tuple[complex, float, float]:
    """The centre and the half-width and half-height of the bounding box of the points pos."""
    xs = [p.real for p in pos]
    ys = [p.imag for p in pos]
    return (complex((min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2),
            (max(xs) - min(xs)) / 2, (max(ys) - min(ys)) / 2)


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
    imag_drift: float                 # of integral w dz, across the ray (see imag_drift_of)
    termination: Termination
    orientation: complex = 1          # d zeta / d tau: +-1 horizontal, +-i vertical
    work: dict = field(default_factory=dict)


def clamp_factor(order: int) -> float:
    """The step clamp alpha at a critical point p of order n != 0: a step of |dz| <= alpha
    |z - p| moves arg(phi) by about |n| alpha <= BRANCH_TURN, and alpha <= CHORD_ALPHA keeps
    the closure's chord clear of the critical points (see _close_at_seed). So a simple zero
    or pole has 0.5 and an order n with |n| >= 2 has 0.7 / |n|. The error estimate, not the
    clamp, sees to accuracy."""
    return min(BRANCH_TURN / abs(order), CHORD_ALPHA)


class _Scene:
    """Critical-point geometry of a differential: a row (k, position, clamp
    factor alpha) per finite critical point, k its index in
    critical_points(qd) (infinity comes last), its disk's radius and its
    local model. The disks are disjoint and each point of a disk is nearer
    to its centre than to any other critical point, so the only disk a ray
    can enter is the nearest one's, and z is in it exactly when some row has
    |z - p| < r.

    A pole p of order >= 2 has no model and a disk of radius
    qd.guard_radius(p). A zero or simple pole p of order n has a disk of
    radius LOCAL_RADIUS * d and the model (p, e, c, slack), e = (n + 2) / 2:
    the phi-distance from p to a circle of radius s is c s^e, c = sqrt|a| / e
    for phi ~ a (z - p)^n. In the disk, zeta(z) = (z - p) sqrt(phi(z)) / e
    times 1 + E with |E| <= slack = exp(kappa / 2) - 1, where kappa =
    r sum |m| / (|p - q| - r) over the other critical points q of order m and
    r is the disk's radius: writing phi = a (z - p)^n g(z), |g'/g| <= kappa / r
    bounds how far sqrt(g) moves along the segment from p to z.

    `root` is the differential's root(z, hint), continue_sqrt(phi(z), hint) to the bit, `step`
    its DOP853 step (_step_maker), `scan(z)` the index of the disk z is in (-1 if none) and the
    step clamp min |z - p| * alpha, straight-line code over the rows (_scan_maker).

    When infinity is a regular point, `centre` is the centre c of the bounding box of the
    finite critical set (the centre of TraceOptions.for_qd's window) and `rho` the largest
    distance from c to that set; otherwise both are None. Near infinity z(tau) has a pole at
    a nearby complex tau, which forces tiny steps in z, so a ray steps in the chart u = 1/(z -
    c) beyond FAR_OUT * rho of c and in z again within FAR_BACK * rho. That chart's scene,
    `far_chart`, is made for phi(c + 1/u) / u^4 (qdiff.inverted), regular at u = 0. Its rows
    clamp steps at the images of the critical points and at u = 0 by CHORD_ALPHA |u|, so the
    two ends of a u step lie within 30 degrees of each other as seen from c, and the z chord
    between them, which the drift certificate and the crossing count read, stays as far from
    the critical set as its ends. It has no disk and no model: no critical point lies beyond
    FAR_BACK * rho, so no ray arrives in u.
    """

    __slots__ = ("rows", "disks", "models", "root", "step", "scan", "centre", "rho", "far")

    def __init__(self, qd: QuadraticDifferential, rows=None):
        """The scene of qd; with rows, of a chart far out: those clamp rows, no disk, no model."""
        self.centre = self.rho = self.far = None
        if rows is not None:
            disks, models = [0.0] * len(rows), [None] * len(rows)
        else:
            rows, disks, models = [], [], []
            finite = [cp for cp in critical_points(qd) if cp.at is not None]
            for k, cp in enumerate(finite):
                z = cp.at
                rows.append((k, z, clamp_factor(cp.signed_order)))
                if not cp.is_finite_critical:
                    disks.append(qd.guard_radius(z))
                    models.append(None)
                    continue
                r = LOCAL_RADIUS * qd.local_scale(z)
                e = 0.5 * cp.signed_order + 1.0
                kappa = r * sum(abs(q.signed_order) / (abs(q.at - z) - r)
                                for q in finite if q.at != z)
                disks.append(r)
                models.append((z, e, math.sqrt(abs(local_leading_coefficient(qd, z))) / e,
                               math.expm1(0.5 * kappa)))
            if order_at_infinity(qd) == 0:
                c = _box([cp.at for cp in finite])[0]
                rho = max(abs(cp.at - c) for cp in finite)
                if rho > 0.0:
                    self.centre, self.rho = c, rho
        self.rows = tuple(rows)
        self.disks = tuple(disks)
        self.models = tuple(models)
        self.root = qd.root
        make = _step_maker(*(tuple(c.multiplicity for c in cs) for cs in (qd.zeros, qd.poles)))
        self.step = make(qd.lead, *(complex(c.location) for c in qd.zeros + qd.poles), cmath.sqrt)
        self.scan = _scan_maker(len(rows))(
            *(x for (_k, p, alpha), r in zip(rows, disks) for x in (p, alpha, r)), math.inf)

    def far_chart(self, qd: QuadraticDifferential) -> "_Scene":
        """The scene of the chart u = 1/(z - centre), built on the first switch into it and
        kept: a clamp row per critical point of inverted(qd, centre), then u = 0's."""
        if self.far is None:
            qu = inverted(qd, self.centre)
            rows = [(k, cp.at, clamp_factor(cp.signed_order))
                    for k, cp in enumerate(critical_points(qu)) if cp.at is not None]
            self.far = _Scene(qu, [*rows, (len(rows), 0j, CHORD_ALPHA)])
        return self.far

    @classmethod
    def of(cls, qd: QuadraticDifferential) -> "_Scene":
        """The scene of qd, built on its first trace and kept on it."""
        if qd._scene is None:
            qd._scene = cls(qd)
        return qd._scene


def trace_horizontal(qd: QuadraticDifferential, z0: complex, orientation: int = 1,
                     opts: TraceOptions | None = None, *,
                     seed_sqrt: complex | None = None) -> TrajectoryRay:
    """Trace the horizontal trajectory through the regular point z0."""
    opts = opts or TraceOptions.for_qd(qd)
    return _trace(qd, complex(z0), _sign(orientation), opts, seed_sqrt)


def trace_vertical(qd: QuadraticDifferential, z0: complex, orientation: int = 1,
                   opts: TraceOptions | None = None) -> TrajectoryRay:
    """Trace the vertical trajectory through the regular point z0; +1 starts
    along i / sqrt(phi(z0)), the horizontal +1 direction turned left."""
    opts = opts or TraceOptions.for_qd(qd)
    return _trace(qd, complex(z0), 1j * _sign(orientation), opts, None)


def _sign(orientation) -> int:
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    return int(orientation)


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
    radius = _Scene.of(qd).disks[critical_points(qd).index(cp)]
    z0, zeta, w0 = _launch_point(qd, cp, dirs[direction_index], radius)
    # d zeta / d tau = orientation, so |zeta| grows when they share a sign
    orientation = 1 if zeta.real > 0 else -1
    return _trace(qd, z0, orientation, opts, w0, launch_from=cp, tau0=abs(zeta))


def _launch_point(qd, cp, u, r):
    """The point z = p + r e^(i theta) with Im zeta(z) = 0 next to the
    direction u, by Newton in theta with d zeta / d theta = sqrt(phi(z))
    i (z - p). The solutions are 2 pi / (n + 2) apart, so theta is kept
    within a quarter of that of arg u. Returns z, zeta(z) and the
    principal sqrt(phi(z)) zeta is taken with.

    Newton starts from the first-order local model: with phi(p + v) =
    a v^n (1 + b v + ...), b the sum of m / (p - q) over the other critical
    points q of order m, zeta = (sqrt(a) / e) v^e (1 + g v + ...) with
    e = (n + 2) / 2 and g = b e / (2 (e + 1)), so arg zeta moves by
    Im(g v) off the leading term's direction u.
    """
    p = cp.at
    e = 0.5 * cp.signed_order + 1.0
    b = sum(c.signed_order / (p - c.at) for c in critical_points(qd)
            if c.at is not None and c.at != p)
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

    clamp = scene.scan(z0)[1]
    if launch_from is None:
        if any(abs(z0 - p) < snap for _k, p, _alpha in scene.rows):
            raise StartTooClose(f"{z0} is within snap radius of a critical point")
        inside = -1
    else:
        # the disk a ray is in is tested once, on entry; a launched ray starts in its own
        inside = critical_points(qd).index(launch_from)

    root, step, scan, models = scene.root, scene.step, scene.scan, scene.models
    # what the loop reads on every step
    inf = math.inf
    max_steps, budget, rk_tol = opts.max_steps, opts.max_phi_length, opts.rk_tol
    budget_left = 1e-13 * max(1.0, budget)
    seed_left = SEED_FACTOR * snap
    w0 = seed_sqrt if seed_sqrt is not None else principal_sqrt(qd.phi(z0))
    if not abs(w0) < inf:
        raise StartTooClose(AT_POLE.format(z0))

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
    h = min(0.01 * (1.0 + abs(z0)) * abs(w0), cap, budget)
    h = max(h, 1e-12)
    attempts_cap = 4 * max_steps

    # The loop steps x, with the root wx, in z or, past a regular infinity, in u = 1/(z - c)
    # (see _Scene), and records z and w; the closure's trigger reads z in either chart. A far
    # step starts beyond FAR_BACK * rho = 1.6 rho of c and, u moving by about CHORD_ALPHA |u|
    # at most, ends beyond ~1.07 rho within 30 degrees of its start as seen from c: its z chord
    # stays ~0.93 rho from c, and its trigger reaches at most ~0.19 rho nearer. So a seed at or
    # near c is never looked for in u, and the seed's image 1/(z0 - c) is finite when taken.
    x, wx = z, w
    az0, snap4 = abs(z0), 4.0 * snap
    c = scene.centre
    far = False
    if c is not None:
        out, back = FAR_OUT * scene.rho, FAR_BACK * scene.rho
        outside = _far_window(opts.window, c)

    # min and max as the comparisons by which they pick an operand (NaN included), not calls
    while True:
        if c is not None:
            d = abs(z - c)
            if (d < back) if far else (d > out):
                far = not far
                chart = scene.far_chart(qd) if far else scene
                root, step, scan = chart.root, chart.step, chart.scan
                if far:
                    d = z - c
                    x, wx = 1 / d, -w * (d * d)
                else:
                    x, wx = z, w
                fresh = False
                cap = scan(x)[1] * abs(wx)
        if accepted >= max_steps or accepted + rejected >= attempts_cap:
            termination = Termination(STEP_BUDGET)
            break
        remaining = budget - tau
        if remaining <= budget_left:
            termination = Termination(PHI_LENGTH_BUDGET)
            break
        if remaining < h:
            h = remaining
        if cap < h:
            h = cap
        if h <= 1e-15 * (tau if tau > 1.0 else 1.0):
            termination = Termination(STEP_BUDGET)
            break

        try:
            dx, e5, e3, r = step(x, wx if fresh else root(x, wx), h * orientation)
        except ZeroDivisionError:
            h *= 0.25
            rejected += 1
            continue
        x8 = x + dx
        # |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2), written so that it cannot underflow
        a5 = abs(e5)
        err = a5 / math.hypot(1.0, 0.1 * abs(e3) / a5) if a5 else 0.0
        tol = rk_tol * (1.0 + abs(x8))
        if err > tol:
            rejected += 1
            shrink = 0.9 * (tol / err) ** 0.125
            h *= shrink if shrink > 0.2 else 0.2
            continue

        x_prev, wx_prev, tau_prev = x, wx, tau
        x = x8
        try:
            wx = root(x, r)
            fresh = abs(wx) < inf
        except ZeroDivisionError:
            wx, fresh = r, False
        tau = tau_prev + h
        accepted += 1
        if far:
            z_prev, z, w = z, c + 1 / x, -wx * (x * x)
        else:
            z_prev, z, w = z, x, wx
        pts.append(z)
        sqs.append(w)
        taus.append(tau)
        grow = 0.9 * (tol / err) ** 0.125 if err else 5.0
        grow = grow if grow > 0.2 else 0.2
        h = h * (grow if grow < 5.0 else 5.0)

        # termination check: arrival on entry into a disk, which only z has
        near, clamp = scan(x)
        if near != inside:
            inside = near
            hit = False
            if near >= 0:
                model = models[near]
                if model is None:         # a pole of order >= 2: its disk ends the ray
                    hit = True
                else:
                    p, e, c_model, slack = model
                    v = z - p
                    # heading into p, and by the model's bound maybe onto it
                    if (v * (orientation / w).conjugate()).real < 0.0:
                        reach = c_model * snap ** e
                        zeta = v * w / e / orientation
                        if abs(zeta.imag) - slack * abs(zeta) <= reach:
                            zeta = zeta_from(qd, p, z)[0] / orientation
                            if abs(zeta.imag) <= reach:
                                hit = True
                                tau += abs(zeta)
            if hit:
                tangent = orientation / w
                ang = cmath.phase(tangent / abs(tangent))
                termination = Termination(HIT_CRITICAL, cp_index=near, incoming_angle=ang)
                break
        # leaving: within r of p and nearer p than its start, which a seed may round inside
        if not (x0 <= z.real <= x1 and y0 <= z.imag <= y1) or (
                far and any(r > point_segment_distance(p, x_prev, x) < abs(x_prev - p)
                            for p, r in outside)):
            termination = Termination(ESCAPED_WINDOW)
            break
        cap = clamp * abs(wx)

        if not left_home:
            if abs(z - z0) > seed_left:
                left_home = True
        else:
            a_seg = abs(z - z_prev)
            trigger = CLOSE_TRIGGER * a_seg
            trigger = trigger if trigger > snap4 else snap4
            # the distance from the seed to the step is at least |z - z0| - |z - z_prev|;
            # the last term is far above the rounding of both distances
            d0 = abs(z - z0)
            if (d0 - a_seg <= trigger + 1e-12 * (az0 + d0 + a_seg)
                    and point_segment_distance(z0, z_prev, z) <= trigger):
                xs, ws = z0, w0
                if far:
                    xs, ws = 1 / (z0 - c), -w0 * ((z0 - c) * (z0 - c))
                closed = _close_at_seed(root, xs, ws, orientation, tau_prev, x_prev,
                                        wx_prev, tau, x, wx, snap, far)
                if closed is not None:
                    tau_star, x_star, w_star = closed
                    if far:
                        x_star, w_star = c + 1 / x_star, -w_star * (x_star * x_star)
                    pts[-1] = x_star
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
        orientation=orientation, work={"accepted_steps": accepted, "rejected_steps": rejected},
    )
    certify_drift(qd, ray, opts)
    return ray


def _far_window(window, c):
    """The outside of the window in u = 1/(z - c): the half-plane beyond a side at distance
    X > 0 from c along the outward normal n is the disk |u - conj(n) / 2X| < 1 / 2X, which
    holds u = 0 on its circle: (centre, radius) per side with X > 0. A u chord meets that
    disk exactly when the arc it maps to in z leaves the window past that side. Within a
    side with X <= 0 lies a closed disk or half-plane of u, which is convex, so a chord
    whose ends are within it stays there."""
    x0, y0, x1, y1 = window
    sides = ((x1 - c.real, 1), (c.real - x0, -1), (y1 - c.imag, 1j), (c.imag - y0, -1j))
    return [(n.conjugate() / (2 * dist), 1 / (2 * dist)) for dist, n in sides if dist > 0]


def certify_drift(qd: QuadraticDifferential, ray: TrajectoryRay, opts: TraceOptions) -> None:
    """Record the ray's imaginary drift and raise DriftExceeded when it is
    above the bound for its phi-length and tolerance, or not finite."""
    ray.imag_drift = imag_drift_of(qd, ray)
    allow = DRIFT_PER_100 * max(1.0, ray.phi_length / 100.0) * max(1.0, opts.rk_tol / DEFAULT_RK_TOL)
    if not ray.imag_drift <= allow:
        raise DriftExceeded(
            f"imaginary drift {ray.imag_drift:.3e} exceeds {allow:.3e} "
            f"over phi-length {ray.phi_length:.3f}")


def _close_at_seed(root, z0, w0, orientation, tau_a, z_a, w_a, tau_b, z_b, w_b, snap,
                   far=False):
    """Where the accepted step [tau_a, tau_b] passes z0, in the chart
    zeta(z) = integral of sqrt(phi) from z0; returns (tau*, z*, w*) if the
    ray closes there, else None.

    Along the ray d zeta / d tau = orientation, so with q = zeta(z_a) /
    orientation the ray crosses Re(zeta / orientation) = 0 at tau* = tau_a -
    Re q, at zeta = i orientation Im q, that is z* = z0 + i orientation Im q
    / sqrt(phi(z0)) to first order in z* - z0, which is below snap when it
    matters. zeta(z_a) is one 8-node Gauss-Legendre panel on the chord from
    z_a to z0, the root continued from w_a. The trigger has z0 within
    T |z_b - z_a| of the step, T = CLOSE_TRIGGER = 0.35, so the chord is at
    most (1 + T) alpha d long, the clamp holding the step to about alpha d, d
    the distance from z_a to the nearest critical point. A critical point is
    at least d - c from z0 when the chord is c long, so the panel's error falls
    as rho^-16, with rho + 1/rho = 4 d / c - 2 the Bernstein ellipse about the
    chord through the nearest place it can be. Holding that to 1e-9 needs
    rho >= 10^(9/16) = 3.65, c <= 0.675 d, and so alpha <= CHORD_ALPHA =
    0.675 / (1 + T) = 0.5: the chord stays in the disk about z_a that is free
    of critical points, with that margin. A crossing off the step falls back
    to the step's end nearer z0. The ray is closed when that point is within
    snap of z0 and the root carried to z0 is on the seed's sheet. With far, the
    points are u = 1/(z - c) and root is that chart's: the distance to z0 is
    still taken in z, |u* - u0| / |u* u0|. The trigger then reads z, not u, but a closure
    succeeds only when the ray passes within snap of z0, where the trigger in u fires too:
    the bound holds for every closure that succeeds."""
    mid, half = 0.5 * (z_a + z0), 0.5 * (z0 - z_a)
    w, acc = w_a, 0j
    for x, c in GL_PAIRS:
        w = root(mid + half * x, w)
        acc += c * w
    q = -half * acc / orientation
    w = root(z0, w)
    tau_s = tau_a - q.real
    if tau_a < tau_s < tau_b:
        z_s = z0 + 1j * orientation * q.imag / w
        w_s = root(z_s, w)
    elif abs(z_a - z0) <= abs(z_b - z0):
        tau_s, z_s, w_s = tau_a, z_a, w_a
    else:
        tau_s, z_s, w_s = tau_b, z_b, w_b
    gap = abs(z_s - z0) / abs(z_s * z0) if far else abs(z_s - z0)
    if gap < snap and abs(w - w0) <= abs(w + w0):
        return tau_s, z_s, w_s
    return None


def imag_drift_of(qd: QuadraticDifferential, ray: TrajectoryRay) -> float:
    """Max over checkpoints of |Im(integral of w dz / orientation)| along the
    recorded polyline, w branch-continuous: the drift across the ray (Re of
    the integral for a vertical one); the correctness certificate."""
    pts = np.asarray(ray.points, dtype=complex)
    a, b = pts[:-1], pts[1:]
    moved = a != b
    if not moved.any():
        return 0.0
    running, _ = sqrt_panel_integrals(a[moved], b[moved], qd.phi_array,
                                      hints=[complex(ray.sqrt_values[0])])
    across = running.real if ray.orientation.imag else running.imag
    return float(np.max(np.abs(across)))
