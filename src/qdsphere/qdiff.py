"""Rational quadratic differentials phi(z) dz^2 on the Riemann sphere.

phi = lead * prod (z - a)^m / prod (z - b)^n over its zero clusters a and
pole clusters b, in lowest terms; the clusters are its only description. A
point with signed order n carries n + 2 distinguished directions when it is
a finite critical point (zero or simple pole); poles of order >= 2 are
infinite critical points. In the chart u = 1/z the differential picks up
u^-4, so the signed order at infinity is -(sum m - sum n + 4).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from .errors import (
    BranchAmbiguity,
    ConstantRational,
    NotCoprime,
    NotFiniteCritical,
    PoleOnPath,
    WrongOrder,
    WrongProvenance,
    ZeroPolynomial,
)
from .polyalg import ROOT_TOL, Polynomial, RootCluster, poly_roots

ANGULAR_TOL = 1e-9
GUARD_FACTOR = 1e-3
DIAM_FLOOR = 10.0
# numpy's complex abs can differ from cmath's by a few ulps; flip tests closer
# than this to a tie are left to the sequential rule
FLIP_TIE_RTOL = 1e-14
PANEL_BLOCK = 256            # panels evaluated per vectorized block

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

CIRCULAR = "Circular"
RADIAL = "Radial"
SPIRAL = "Spiral"


@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere; value None encodes infinity."""

    value: complex | None = None

    @classmethod
    def finite(cls, z) -> "SpherePoint":
        return cls(complex(z))

    @classmethod
    def infinity(cls) -> "SpherePoint":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __repr__(self):
        return "SpherePoint(inf)" if self.is_infinite else f"SpherePoint({self.value!r})"


@dataclass(frozen=True)
class CriticalPoint:
    at: SpherePoint
    signed_order: int          # > 0 zero, < 0 pole; never 0
    quadratic_residue: complex | None = None   # only for order -2 poles

    @property
    def is_finite_critical(self) -> bool:
        return self.signed_order >= -1


def require_form(qd: "QuadraticDifferential", what: str):
    """WrongProvenance, naming what needed it, unless a constructor of one
    of the p/q^2 style families built qd."""
    if qd.form is None:
        raise WrongProvenance(f"{what} requires a p/q^2 style construction")


def _phi_lines(zero_orders: tuple[int, ...], pole_orders: tuple[int, ...], z: str) -> list:
    """The lines of _evaluator_maker that leave phi at the point named z in v."""
    body = ["        v = lead"]
    for i, m in enumerate(zero_orders):
        body += [f"        f = {z} - a{i}"] + ["        v = v * f"] * m
    for i, n in enumerate(pole_orders):
        body += [f"        f = {z} - b{i}"] + [f"        b = {'b * f' if i or k else 'f'}"
                                               for k in range(n)]
    if pole_orders:
        body.append("        v = v / b")
    return body


def _compile_maker(zero_orders, pole_orders, lines: list, made: str):
    """make(lead, a0, a1, ..., b0, b1, ..., sqrt) of the lines, returning made."""
    args = (["lead"] + [f"a{i}" for i in range(len(zero_orders))]
            + [f"b{i}" for i in range(len(pole_orders))] + ["sqrt"])
    namespace = {}
    exec("\n".join([f"def make({', '.join(args)}):"] + lines + [f"    return {made}"]), namespace)
    return namespace["make"]


@functools.lru_cache(maxsize=None)
def _evaluator_maker(zero_orders: tuple[int, ...], pole_orders: tuple[int, ...]):
    """A maker of phi(z) = lead prod (z - a_i)^m_i / prod (z - b_j)^n_j and
    root(z, hint) = continue_sqrt(phi(z), hint) as straight-line code, for
    zeros a_i and poles b_j of the given orders. It is compiled once per
    pair of order tuples, as collections.namedtuple compiles a class per
    list of field names. For a double zero and a simple pole phi reads

        v = lead
        f = z - a0
        v = v * f
        v = v * f
        f = z - b0
        b = f
        v = v / b
        return v

    and root runs the same lines up to the return, then continue_sqrt's.
    lead and the locations are bound as closure cells by the call
    make(lead, *zeros, *poles, cmath.sqrt), never written into the text:
    the repr of a complex number loses signed zeros. Each factor is
    multiplied in once per unit of its order, in cluster order, so root is
    continue_sqrt of phi to the bit, and the product keeps its relative
    accuracy next to clustered roots, where expanded coefficients lose it.
    phi_array takes them in that order too, but numpy rounds complex
    products apart from Python: only phi and root agree to the bit.
    """
    body = _phi_lines(zero_orders, pole_orders, "z")
    lines = ["    def phi(z):", *body, "        return v", "    def root(z, hint):", *body,
             "        s = sqrt(v + 0j)",
             "        return s if abs(s - hint) <= abs(s + hint) else -s"]
    return _compile_maker(zero_orders, pole_orders, lines, "phi, root")


class QuadraticDifferential:
    """phi = lead * prod (z - a)^m / prod (z - b)^n over the zero clusters
    a and pole clusters b, in lowest terms. form names the constructor of a
    p/q^2 style family that built phi, and is None otherwise. phi(z) and
    root(z, hint) are made for the clusters (see _evaluator_maker)."""

    def __init__(self, lead: complex, zeros: list[RootCluster], poles: list[RootCluster],
                 form: str | None = None):
        self.lead = complex(lead)
        self.zeros = zeros
        self.poles = poles
        self.form = form
        self._critical: list[CriticalPoint] | None = None
        self._scene = None        # the tracer's critical-point geometry, built on first use
        make = _evaluator_maker(*(tuple(c.multiplicity for c in cs) for cs in (zeros, poles)))
        self.phi, self.root = make(self.lead, *(complex(c.location) for c in zeros + poles),
                                   cmath.sqrt)

    # -- evaluation ----------------------------------------------------

    def phi_array(self, z):
        """phi at an array of points to a few ulps, its factors taken as phi
        takes them but rounded by numpy; PoleOnPath, naming the point, where
        a pole factor vanishes, as at a node rounded onto a pole."""
        z = np.asarray(z, dtype=complex)
        v = np.full(z.shape, self.lead)
        for c in self.zeros:
            f = z - c.location
            for _ in range(c.multiplicity):
                v = v * f
        if not self.poles:
            return v
        b = np.ones(z.shape, dtype=complex)
        for c in self.poles:
            f = z - c.location
            for _ in range(c.multiplicity):
                b = b * f
        if not np.all(b):
            at = complex(z[b == 0][0])
            raise PoleOnPath(f"{at} is numerically at a pole: phi is not finite there")
        return v / b

    # -- geometry of the finite critical set ---------------------------

    def finite_critical_positions(self) -> list[complex]:
        return [c.at.value for c in critical_points(self) if not c.at.is_infinite]

    def diameter(self) -> float:
        """Diameter of the finite critical set, floored for degenerate sets."""
        pos = self.finite_critical_positions()
        d = 0.0
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                d = max(d, abs(pos[i] - pos[j]))
        return max(d, DIAM_FLOOR)

    def local_scale(self, at: complex) -> float:
        """Distance from at to the nearest other finite critical point, or
        the diameter when there is none."""
        pos = self.finite_critical_positions()
        others = [abs(p - at) for p in pos if abs(p - at) > 1e-12]
        return min(others) if others else self.diameter()

    def guard_radius(self, at: complex) -> float:
        return GUARD_FACTOR * self.local_scale(at)

    def clear_of_critical(self, zs) -> list:
        """The points of zs outside 10 guard radii of every zero and pole."""
        guard = [(c.location, 10 * self.guard_radius(c.location))
                 for c in self.zeros + self.poles]
        return [z for z in zs if not any(abs(z - g) < r for g, r in guard)]

    def __repr__(self):
        return (f"QuadraticDifferential(lead={self.lead!r}, zeros={self.zeros!r}, "
                f"poles={self.poles!r})")


def qd_new(num: Polynomial, den: Polynomial) -> QuadraticDifferential:
    """Construct phi = num/den, cancelling common root clusters.

    Raises ZeroPolynomial for a zero denominator (or numerator: phi = 0 has
    no trajectory structure), NotCoprime when clusters of the two overlap
    only partially so cancellation would be ambiguous.
    """
    if den.is_zero():
        raise ZeroPolynomial("denominator is the zero polynomial")
    if num.is_zero():
        raise ZeroPolynomial("numerator is the zero polynomial")

    zeros = poly_roots(num) if num.degree >= 1 else []
    poles = poly_roots(den) if den.degree >= 1 else []

    rmax = max((abs(c.location) for c in zeros + poles), default=0.0)
    tol = ROOT_TOL * max(1.0, rmax)

    new_zeros, new_poles = [], []
    used = [False] * len(poles)
    for zc in zeros:
        hit = None
        for j, pc in enumerate(poles):
            d = abs(zc.location - pc.location)
            if used[j]:
                continue
            if d <= tol:
                hit = j
                break
            if d <= 3.0 * (zc.radius + pc.radius + tol) and d > tol:
                raise NotCoprime(
                    f"clusters at {zc.location} and {pc.location} overlap partially")
        if hit is None:
            new_zeros.append(zc)
        else:
            used[hit] = True
            pc = poles[hit]
            m = min(zc.multiplicity, pc.multiplicity)
            loc = (zc.location + pc.location) / 2.0
            if zc.multiplicity > m:
                new_zeros.append(RootCluster(loc, zc.multiplicity - m, zc.radius))
            if pc.multiplicity > m:
                new_poles.append(RootCluster(loc, pc.multiplicity - m, pc.radius))
    for j, pc in enumerate(poles):
        if not used[j]:
            new_poles.append(pc)

    new_zeros.sort(key=lambda c: (c.location.real, c.location.imag))
    new_poles.sort(key=lambda c: (c.location.real, c.location.imag))
    return QuadraticDifferential(num.coeffs[-1] / den.coeffs[-1], new_zeros, new_poles)


def order_at_infinity(qd: QuadraticDifferential) -> int:
    """phi ~ lead z^d at infinity, d the zero count minus the pole count,
    so phi(1/u) / u^4 has order -(d + 4) at u = 0."""
    return -(sum(c.multiplicity for c in qd.zeros) - sum(c.multiplicity for c in qd.poles) + 4)


def critical_points(qd: QuadraticDifferential) -> list[CriticalPoint]:
    """Zeros and poles with signed orders; infinity included when critical.

    Finite points are sorted by (re, im); infinity, if present, comes last.
    The signed orders over the sphere always sum to -4.
    """
    if qd._critical is not None:
        return qd._critical
    pts: list[CriticalPoint] = []
    for c in qd.zeros:
        pts.append(CriticalPoint(SpherePoint.finite(c.location), c.multiplicity))
    for c in qd.poles:
        qr = local_leading_coefficient(qd, c.location) if c.multiplicity == 2 else None
        pts.append(CriticalPoint(SpherePoint.finite(c.location), -c.multiplicity, qr))
    pts.sort(key=lambda p: (p.at.value.real, p.at.value.imag))

    n_inf = order_at_infinity(qd)
    if n_inf != 0:
        # at an order -2 infinity phi(1/u) / u^4 ~ lead u^-2
        pts.append(CriticalPoint(SpherePoint.infinity(), n_inf, qd.lead if n_inf == -2 else None))
    qd._critical = pts
    return pts


def classify_double_pole(qd: QuadraticDifferential, at: SpherePoint | complex) -> str:
    """Circular, Radial or Spiral, from the quadratic residue's argument."""
    if not isinstance(at, SpherePoint):
        at = SpherePoint.finite(at)
    cp = _find_critical(qd, at)
    if cp.signed_order != -2:
        raise WrongOrder(f"point has order {cp.signed_order}, need a double pole")
    return double_pole_kind(cp.quadratic_residue)


def double_pole_kind(c: complex) -> str:
    """Circular (-c > 0), Radial (c > 0) or Spiral, to ANGULAR_TOL in arg, for residue c."""
    if abs(cmath.phase(-c)) <= ANGULAR_TOL:
        return CIRCULAR
    return RADIAL if abs(cmath.phase(c)) <= ANGULAR_TOL else SPIRAL


def squared_residue(qd: QuadraticDifferential, pole: RootCluster) -> complex:
    """Res(sqrt(phi))^2 at a pole b of even order 2k, in closed form, so no
    branch is chosen: sqrt(phi) = g(z) / (z - b)^k with g(b)^2 = c, the local
    leading coefficient, and g(b + t) / g(b) = sum h_n t^n by the exp
    recursion h_n = -(1/2n) sum_(j <= n) p_j h_(n-j) on the power sums p_j =
    sum m / (a - b)^j over the N other clusters a (m < 0 at poles). Res^2 =
    c h_(k-1)^2, which is c itself at k = 1. It is 0 when |h_(k-1)| is within
    the recursion's rounding: k (N + k) machine epsilons times H_(k-1), the
    same recursion on the majorants sum |m| / |a - b|^j (a residue that
    vanishes by symmetry, as at 0 for phi = (z^3 - 1) / z^4)."""
    b, k = pole.location, pole.multiplicity // 2
    c = local_leading_coefficient(qd, b)
    if k == 1:
        return c
    others = [(cl.location, sign * cl.multiplicity) for cs, sign in ((qd.zeros, 1), (qd.poles, -1))
              for cl in cs if cl.location != b]
    p = [sum(m / (a - b) ** j for a, m in others) for j in range(1, k)]
    majorant = [sum(abs(m) / abs(a - b) ** j for a, m in others) for j in range(1, k)]
    h, bound = [1 + 0j], [1.0]
    for n in range(1, k):
        h.append(-sum(p[j - 1] * h[n - j] for j in range(1, n + 1)) / (2 * n))
        bound.append(sum(majorant[j - 1] * bound[n - j] for j in range(1, n + 1)) / (2 * n))
    if abs(h[-1]) <= k * (len(others) + k) * math.ulp(1.0) * bound[-1]:
        return 0j
    return c * h[-1] * h[-1]


def single_valued(r2: complex) -> bool:
    """Whether the loop integral +-2 pi i Res of sqrt(phi) round a pole of
    squared residue r2 is real: r2 is 0 or Circular to double_pole_kind."""
    return r2 == 0 or double_pole_kind(r2) == CIRCULAR


def _find_critical(qd: QuadraticDifferential, at: SpherePoint) -> CriticalPoint:
    pts = critical_points(qd)
    if at.is_infinite:
        for p in pts:
            if p.at.is_infinite:
                return p
        raise WrongOrder("infinity is a regular point here")
    tol = ROOT_TOL * max(1.0, abs(at.value))
    best, bd = None, math.inf
    for p in pts:
        if p.at.is_infinite:
            continue
        d = abs(p.at.value - at.value)
        if d < bd:
            best, bd = p, d
    if best is None or bd > max(tol, 1e-6):
        raise WrongOrder(f"no critical point at {at.value}")
    return best


def local_leading_coefficient(qd: QuadraticDifferential, at: complex) -> complex:
    """a with phi(z) ~ a (z - at)^n at the cluster at: lead times (at - c)^m
    over the other clusters c, with m < 0 for poles, in the order phi takes
    its factors."""
    a, b = qd.lead, 1 + 0j
    for c in qd.zeros:
        if c.location != at:
            f = at - c.location
            for _ in range(c.multiplicity):
                a = a * f
    for c in qd.poles:
        if c.location != at:
            f = at - c.location
            for _ in range(c.multiplicity):
                b = b * f
    return a / b


def critical_directions(qd: QuadraticDifferential, cp: CriticalPoint) -> list[complex]:
    """The n + 2 unit directions of trajectories emanating from a finite
    critical point of signed order n: theta_k = (2 pi k - arg a) / (n + 2)."""
    if cp.at.is_infinite or not cp.is_finite_critical:
        raise NotFiniteCritical(f"signed order {cp.signed_order} at {cp.at}")
    a = local_leading_coefficient(qd, cp.at.value)
    n = cp.signed_order
    arg_a = cmath.phase(a)
    out = []
    for k in range(n + 2):
        theta = (2.0 * math.pi * k - arg_a) / (n + 2)
        theta %= 2.0 * math.pi
        out.append(cmath.exp(1j * theta))
    return out


def principal_sqrt(v: complex) -> complex:
    # + 0j normalizes a negative-zero imaginary part, keeping branch choice deterministic
    return cmath.sqrt(v + 0j)


def continue_sqrt(v: complex, hint: complex | None) -> complex:
    s = principal_sqrt(v)
    if hint is None:
        return s
    return s if abs(s - hint) <= abs(s + hint) else -s


def continue_sqrt_along(values, hint=None, starts=None) -> np.ndarray:
    """Branch-continuous square roots of one sequence of values, or of
    several laid end to end.

    Equal to the sequential loop w_k = continue_sqrt(values[k], w_{k-1})
    with w_{-1} = hint (None: the first root is principal). Each w_k is the
    principal root s_k times a sign, and the sign flips exactly where s_k is
    closer to -s_{k-1} than to s_{k-1}, so it is the running parity of those
    flips. The first flip test is against the hint itself. A flip test
    within rounding of a tie, or on a non-finite value, depends on more than
    the parity, and the whole sequence is then continued by the loop.

    With starts, sequence j runs from values[starts[j]] to the next start
    and hint holds one hint per sequence. The starts ascend from 0 (an
    empty sequence allowed; ValueError when the first start is not 0). The
    parity restarts at each start, and only a sequence with a tie goes
    through the loop. Each sequence gets the roots a call on it alone
    would give.
    """
    v = np.asarray(values, dtype=complex)
    s = np.sqrt(v + 0.0)
    if s.size == 0:
        return s
    if starts is None:
        starts, hint = [0], [hint]
    if not len(starts) or starts[0] != 0:
        raise ValueError("the first sequence must start at index 0")
    # numpy rounds the root of a pure imaginary value differently from cmath
    for k in np.flatnonzero(v.real == 0.0):
        s[k] = principal_sqrt(complex(v[k]))
    ends = [*starts[1:], len(v)]
    prev = np.empty_like(s)
    prev[1:] = s[:-1]
    for lo, hi, h in zip(starts, ends, hint):
        if lo < hi:
            prev[lo] = s[lo] if h is None else h
    d_same = np.abs(s - prev)
    d_flip = np.abs(s + prev)
    flips = np.cumsum(d_same > d_flip)
    if len(starts) > 1:
        # each sequence counts its flips from its own start
        before = np.concatenate(([0], flips))[starts]
        flips -= np.repeat(before, np.subtract(ends, starts))
    out = np.where(flips & 1, -s, s)
    decided = np.abs(d_same - d_flip) > FLIP_TIE_RTOL * (d_same + d_flip)
    if not np.all(decided):
        for j in np.unique(np.searchsorted(starts, np.flatnonzero(~decided), "right") - 1).tolist():
            h = hint[j]
            for k in range(starts[j], ends[j]):
                h = out[k] = continue_sqrt(complex(v[k]), h)
    return out


def sqrt_panel_integrals(a, b, radicand, hints=(None,), starts=(0,)):
    """Running 8-node Gauss-Legendre integrals of sqrt(radicand) over the
    consecutive panels [a[i], b[i]] of one or more paths laid end to end.

    Path j is made of the panels from starts[j] to the next start, and its
    square root starts from hints[j] (None: principal at its first node).
    The starts ascend from 0 (an empty path allowed; ValueError when there
    are panels and the first start is not 0). radicand(nodes, panel) maps
    an array of nodes and the index of each one's panel to values there,
    raising what it raises (PoleOnPath for a node on a pole). The square
    root is branch-continued through the nodes by continue_sqrt_along,
    restarting at each start. The panels are evaluated PANEL_BLOCK at a
    time, and a path that runs on into the next block carries its branch
    and its running sum there, so each path's sums are added in panel order
    and it gets the floats a call on it alone would give. Returns (running
    sum at the end of each panel, restarting at each start; the last square
    root of each path as a list, an empty path's being its hint).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    starts = list(starts)
    if len(a) and starts[:1] != [0]:
        raise ValueError("the first path must start at panel 0")
    ends = [*starts[1:], len(a)]
    hints = list(hints)
    running = np.empty(len(a), dtype=complex)
    nodes = len(GL_NODES)
    j = 0                                  # the path that holds panel lo
    carry = 0j                             # and its running sum before lo
    for lo in range(0, len(a), PANEL_BLOCK):
        hi = min(lo + PANEL_BLOCK, len(a))
        # the paths with panels in the block, and where each begins in it
        paths, first = [], []
        while j < len(starts) and starts[j] < hi:
            if ends[j] > max(starts[j], lo):
                paths.append(j)
                first.append(max(starts[j], lo) - lo)
            j += 1
        j = paths[-1]
        after = [*first[1:], hi - lo]
        mid = 0.5 * (a[lo:hi] + b[lo:hi])
        half = 0.5 * (b[lo:hi] - a[lo:hi])
        zs = (mid[:, None] + half[:, None] * GL_NODES).ravel()
        w = continue_sqrt_along(radicand(zs, np.arange(lo, hi).repeat(nodes)),
                                [hints[k] for k in paths],
                                [nodes * f for f in first])
        for k, h in zip(paths, w[[nodes * g - 1 for g in after]].tolist()):
            hints[k] = h
        terms = w.reshape(hi - lo, nodes) * GL_WEIGHTS
        seg = terms[:, 0].copy()           # summed node by node, in the loop's order
        for k in range(1, nodes):
            seg += terms[:, k]
        # each path's sums added one by one in panel order, from the sum it
        # carries in or from 0
        sums = (seg * half).tolist()
        acc = []
        for k, f, g in zip(paths, first, after):
            acc += islice(accumulate(sums[f:g], initial=carry if starts[k] < lo else 0j), 1, None)
        carry = acc[-1]
        running[lo:hi] = acc
    return running, hints


def zeta_from(qd: QuadraticDifferential, p: complex, z: complex) -> tuple[complex, complex]:
    """zeta(z) from p, and the root at z it was taken with: zetas_from's one-pair case."""
    return zetas_from(qd, [(p, z)])[0]


def zetas_from(qd: QuadraticDifferential, pairs) -> list[tuple[complex, complex]]:
    """For each (p, z) of pairs, zeta(z) = integral of sqrt(phi) from the finite critical point
    p to z along the segment, and the branch of sqrt(phi) at z it was taken with: one kernel
    call, each pair a path that gets the floats a call on it alone gives. With z - p = t^2 the
    integrand 2 t sqrt(phi(p + t^2)) is regular at t = 0 for every order n >= -1, and along
    0 -> t it is t^(n+1) times a series in t^2 whose radius reaches the next critical point.
    Two 8-node Gauss-Legendre panels in t then hold it to rounding when no other critical
    point is within a few |z - p| of p."""
    ts = [cmath.sqrt(z - p) for p, z in pairs]
    centre = np.repeat([p for p, _z in pairs], 2).astype(complex)   # of each panel
    running, lasts = sqrt_panel_integrals(
        [x for t in ts for x in (0j, 0.5 * t)], [x for t in ts for x in (0.5 * t, t)],
        lambda s, panel: 4.0 * s * s * qd.phi_array(centre[panel] + s * s),
        [None] * len(ts), range(0, 2 * len(ts), 2))
    return [(complex(running[2 * k + 1]),
             continue_sqrt(4.0 * t * t * qd.phi(z), last) / (2.0 * t))
            for k, ((_p, z), t, last) in enumerate(zip(pairs, ts, lasts))]


# -- constructors for the special families ------------------------------


def _roots_apart(p: Polynomial, q: Polynomial) -> tuple[list[RootCluster], list[RootCluster]]:
    """The root clusters of p and of q; NotCoprime when a cluster of p lies
    within ROOT_TOL * max(1, largest root modulus) of a cluster of q."""
    proots = poly_roots(p) if p.degree >= 1 else []
    qroots = poly_roots(q) if q.degree >= 1 else []
    thr = ROOT_TOL * max([1.0] + [abs(c.location) for c in proots + qroots])
    if any(abs(a.location - b.location) <= thr for a in proots for b in qroots):
        raise NotCoprime("p and q share a root cluster")
    return proots, qroots


def qd_from_p_over_q_squared(p: Polynomial, q: Polynomial, sign: int = 1) -> QuadraticDifferential:
    """phi = sign * p / q^2."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomial("p and q must be nonzero")
    zeros, qroots = _roots_apart(p, q)
    poles = [RootCluster(c.location, 2 * c.multiplicity, c.radius) for c in qroots]
    lead = sign * p.coeffs[-1] / (q.coeffs[-1] * q.coeffs[-1])
    return QuadraticDifferential(lead, zeros, poles, "p_over_q_squared")


def lemniscate_qd(p: Polynomial, q: Polynomial) -> QuadraticDifferential:
    """phi = -(r'/r)^2 for r = p/q, whose horizontal trajectories are the
    level curves |r| = const.

    In closed form r'/r = sum_a m_a / (z - a) = n/d, a running over the
    distinct roots of p (m_a > 0, its multiplicity) and of q (m_a < 0), with
    d = prod_a (z - a) and n = sum_a m_a d / (z - a); so phi = -n^2/d^2. Its
    poles are the roots of p and q, each of order -2, and its zeros the
    roots of n, each doubled.
    """
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomial("p and q must be nonzero")
    proots, qroots = _roots_apart(p, q)
    sites = ([(c.location, c.multiplicity) for c in proots]
             + [(c.location, -c.multiplicity) for c in qroots])
    if not sites:
        raise ConstantRational("p/q is constant: the logarithmic derivative vanishes")
    d = Polynomial.from_roots([a for a, _m in sites])
    n = Polynomial()
    for a, m in sites:
        n = n + d.deflated(a)[0] * m
    zeros = [RootCluster(c.location, 2 * c.multiplicity, c.radius)
             for c in (poly_roots(n) if n.degree >= 1 else [])]
    poles = [RootCluster(c.location, 2, c.radius) for c in proots + qroots]
    poles.sort(key=lambda c: (c.location.real, c.location.imag))
    lead = -(n.coeffs[-1] * n.coeffs[-1])          # d is monic
    return QuadraticDifferential(lead, zeros, poles, "lemniscate")


def cauchy_qd(p: Polynomial, q: Polynomial, r: Polynomial) -> QuadraticDifferential:
    """phi = -(q^2 - 4 p r) / p^2, the discriminant differential of the
    quadratic equation p C^2 + q C + r = 0."""
    if p.is_zero():
        raise ZeroPolynomial("p must be nonzero")
    disc = q * q - (p * r) * 4.0
    if disc.is_zero():
        raise ZeroPolynomial("q^2 - 4 p r vanishes identically")
    qd = qd_new(disc * -1.0, p * p)
    qd.form = "cauchy"
    return qd


def measure_density(qd: QuadraticDifferential, points) -> list[complex]:
    """(1/2 pi i) sqrt(-phi) = (1/2 pi i) sqrt(q^2 - 4 p r) / p along the
    given oriented polyline.

    Branch-continuous along the points; the global sign is fixed so the
    middle value is real and nonnegative (BranchAmbiguity if neither sign
    achieves that within 1e-6 relative).
    """
    if qd.form != "cauchy":
        raise WrongProvenance("measure density requires cauchy provenance")
    pts = np.asarray(points, dtype=complex)
    if not len(pts):
        return []
    vals = continue_sqrt_along(-qd.phi_array(pts)) / (2j * math.pi)
    mid = complex(vals[len(vals) // 2])
    sign = None
    for s in (1.0, -1.0):
        v = s * mid
        if abs(v.imag) <= 1e-6 * abs(v) and v.real >= -1e-6 * abs(v):
            sign = s
            break
    if sign is None:
        raise BranchAmbiguity(f"midpoint density {mid} is not real under either branch")
    return (sign * vals).tolist()


def measure_mass(qd: QuadraticDifferential, points, max_step: float | None = None) -> float:
    """Integral of the measure density along a polyline, by 8-node
    Gauss-Legendre panels on its segments, split to at most max_step.

    The density vanishes like a square root at the zeros that end a support
    arc, so the first and the last panel are split geometrically toward the
    ends of the polyline, halving once for every other bit of a float
    mantissa (26 times): the innermost panel, 2^-26 of the first, holds a
    share of the mass below rounding, and its nodes stay apart from the end.
    """
    pts = np.asarray(points, dtype=complex)
    if max_step is not None and max_step > 0:
        k = np.maximum(1, np.ceil(np.abs(np.diff(pts)) / max_step)).astype(int)
        j = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
        pts = np.append(np.repeat(pts[:-1], k) + j * np.repeat(np.diff(pts) / k, k), pts[-1])
    if len(pts) < 2:
        return 0.0
    grade = 2.0 ** -np.arange(np.finfo(float).nmant // 2, 0, -1)     # 2^-26 .. 2^-1
    pts = np.concatenate((pts[:1], pts[0] + (pts[1] - pts[0]) * grade, pts[1:-1],
                          pts[-1] + (pts[-2] - pts[-1]) * grade[::-1], pts[-1:]))
    half = 0.5 * np.diff(pts)
    nodes = (0.5 * (pts[:-1] + pts[1:]))[:, None] + half[:, None] * GL_NODES
    dens = np.asarray(measure_density(qd, nodes.ravel())).real.reshape(nodes.shape)
    return float(np.sum(dens @ GL_WEIGHTS * np.abs(half)))
