"""Rational quadratic differentials phi(z) dz^2 on the Riemann sphere.

phi = num/den with coprime polynomials. A point with signed order n carries
n + 2 distinguished directions when it is a finite critical point (zero or
simple pole); poles of order >= 2 are infinite critical points. The point at
infinity is handled through the explicit chart u = 1/z, under which the
differential picks up u^-4: its signed order is -(deg num - deg den + 4).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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


def pq_form(qd: "QuadraticDifferential", what: str):
    """(p, q) with phi = p / q^2, for a differential built from such a pair;
    WrongProvenance, naming what needed them, for any other."""
    if qd.pq is None:
        raise WrongProvenance(f"{what} requires a p/q^2 style construction")
    return qd.pq


class QuadraticDifferential:
    """phi = num/den in lowest terms, with cached root clusters. pq is the
    pair (p, q) with phi = p / q^2 when a constructor built phi from one,
    and form that constructor's name; both are None otherwise."""

    def __init__(self, num: Polynomial, den: Polynomial,
                 zeros: list[RootCluster], poles: list[RootCluster],
                 pq: tuple[Polynomial, Polynomial] | None = None, form: str | None = None):
        self.num = num
        self.den = den
        self.zeros = zeros
        self.poles = poles
        self.pq = pq
        self.form = form
        self._critical: list[CriticalPoint] | None = None
        self._scene = None        # the tracer's critical-point geometry, built on first use

    # -- evaluation ----------------------------------------------------

    def phi(self, z: complex) -> complex:
        return self.num(z) / self.den(z)

    def phi_array(self, z):
        """phi at an array of points; PoleOnPath, naming the point, where
        the denominator vanishes, as a node rounded onto a pole does."""
        den = self.den.eval_array(z)
        if not np.all(den):
            at = complex(np.asarray(z)[den == 0][0])
            raise PoleOnPath(f"{at} is numerically at a pole: phi is not finite there")
        return self.num.eval_array(z) / den

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
        return f"QuadraticDifferential(num={self.num!r}, den={self.den!r})"


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

    cancelled = False
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
            cancelled = True
            loc = (zc.location + pc.location) / 2.0
            if zc.multiplicity > m:
                new_zeros.append(RootCluster(loc, zc.multiplicity - m, zc.radius))
            if pc.multiplicity > m:
                new_poles.append(RootCluster(loc, pc.multiplicity - m, pc.radius))
    for j, pc in enumerate(poles):
        if not used[j]:
            new_poles.append(pc)

    if cancelled:
        lead_n = num.coeffs[-1]
        lead_d = den.coeffs[-1]
        num = Polynomial.from_roots(
            [c.location for c in new_zeros for _ in range(c.multiplicity)], lead_n)
        den = Polynomial.from_roots(
            [c.location for c in new_poles for _ in range(c.multiplicity)], lead_d)
    new_zeros.sort(key=lambda c: (c.location.real, c.location.imag))
    new_poles.sort(key=lambda c: (c.location.real, c.location.imag))
    return QuadraticDifferential(num, den, new_zeros, new_poles)


def infinity_chart(qd: QuadraticDifferential) -> tuple[Polynomial, Polynomial]:
    """phi in the chart u = 1/z: returns (Pu, Qu) with psi(u) = Pu/Qu.

    psi(u) = phi(1/u) / u^4, computed by coefficient reversal plus a
    monomial shift of 4; Pu(0) and Qu(0) stay nonzero except for the
    deliberate u-power carrying the order at infinity.
    """
    rp = qd.num.reversed_coeffs()
    rq = qd.den.reversed_coeffs()
    shift = qd.den.degree - qd.num.degree - 4
    if shift >= 0:
        pu = Polynomial([0j] * shift + list(rp.coeffs))
        qu = rq
    else:
        pu = rp
        qu = Polynomial([0j] * (-shift) + list(rq.coeffs))
    return pu, qu


def order_at_infinity(qd: QuadraticDifferential) -> int:
    return -(qd.num.degree - qd.den.degree + 4)


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
        qr = _leading_at(qd, c.location, -2) if c.multiplicity == 2 else None
        pts.append(CriticalPoint(SpherePoint.finite(c.location), -c.multiplicity, qr))
    pts.sort(key=lambda p: (p.at.value.real, p.at.value.imag))

    n_inf = order_at_infinity(qd)
    if n_inf != 0:
        qr = None
        if n_inf == -2:
            pu, qu = infinity_chart(qd)
            tail = Polynomial(qu.coeffs[2:])
            qr = pu(0j) / tail(0j)
        pts.append(CriticalPoint(SpherePoint.infinity(), n_inf, qr))
    qd._critical = pts
    return pts


def classify_double_pole(qd: QuadraticDifferential, at: SpherePoint | complex) -> str:
    """Circular, Radial or Spiral, from the quadratic residue's argument."""
    if not isinstance(at, SpherePoint):
        at = SpherePoint.finite(at)
    cp = _find_critical(qd, at)
    if cp.signed_order != -2:
        raise WrongOrder(f"point has order {cp.signed_order}, need a double pole")
    c = cp.quadratic_residue
    if abs(cmath.phase(-c)) <= ANGULAR_TOL:
        return CIRCULAR
    if abs(cmath.phase(c)) <= ANGULAR_TOL:
        return RADIAL
    return SPIRAL


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


def _leading_at(qd: QuadraticDifferential, z0: complex, n: int) -> complex:
    """num(z0)/den(z0) once (z - z0)^|n| is divided out of num (n > 0) or
    den (n < 0): a with phi(z) ~ a (z - z0)^n."""
    num, den = qd.num, qd.den
    if n > 0:
        for _ in range(n):
            num, _ = num.deflated(z0)
    else:
        for _ in range(-n):
            den, _ = den.deflated(z0)
    return num(z0) / den(z0)


def local_leading_coefficient(qd: QuadraticDifferential, cp: CriticalPoint) -> complex:
    """a with phi(z) ~ a (z - z0)^n near the finite critical point z0."""
    return _leading_at(qd, cp.at.value, cp.signed_order)


def critical_directions(qd: QuadraticDifferential, cp: CriticalPoint) -> list[complex]:
    """The n + 2 unit directions of trajectories emanating from a finite
    critical point of signed order n: theta_k = (2 pi k - arg a) / (n + 2)."""
    if cp.at.is_infinite or not cp.is_finite_critical:
        raise NotFiniteCritical(f"signed order {cp.signed_order} at {cp.at}")
    a = local_leading_coefficient(qd, cp)
    n = cp.signed_order
    arg_a = cmath.phase(a)
    out = []
    for k in range(n + 2):
        theta = (2.0 * math.pi * k - arg_a) / (n + 2)
        theta %= 2.0 * math.pi
        out.append(cmath.exp(1j * theta))
    return out


def principal_sqrt(v: complex) -> complex:
    # +0.0 normalizes a negative-zero imaginary part, keeping branch choice deterministic
    return cmath.sqrt(complex(v.real + 0.0, v.imag + 0.0))


def continue_sqrt(v: complex, hint: complex | None) -> complex:
    s = principal_sqrt(v)
    if hint is None:
        return s
    return s if abs(s - hint) <= abs(s + hint) else -s


def continue_sqrt_along(values, hint: complex | None = None) -> np.ndarray:
    """Branch-continuous square roots of a sequence of values.

    Equal to the sequential loop w_k = continue_sqrt(values[k], w_{k-1})
    with w_{-1} = hint (None: the first root is principal). Each w_k is the
    principal root s_k times a sign, and the sign flips exactly where s_k is
    closer to -s_{k-1} than to s_{k-1}, so it is the running parity of those
    flips. The first flip test is against the hint itself. A flip test
    within rounding of a tie, or on a non-finite value, depends on more than
    the parity, and the whole sequence is then continued by the loop.
    """
    v = np.asarray(values, dtype=complex)
    s = np.sqrt(v + 0.0)
    if s.size == 0:
        return s
    # numpy rounds the root of a pure imaginary value differently from cmath
    for k in np.flatnonzero(v.real == 0.0):
        s[k] = principal_sqrt(complex(v[k]))
    prev = np.empty_like(s)
    prev[0] = s[0] if hint is None else hint
    prev[1:] = s[:-1]
    d_same = np.abs(s - prev)
    d_flip = np.abs(s + prev)
    if not np.all(np.abs(d_same - d_flip) > FLIP_TIE_RTOL * (d_same + d_flip)):
        out = np.empty_like(s)
        for k, x in enumerate(v.tolist()):
            hint = out[k] = continue_sqrt(x, hint)
        return out
    return np.where(np.cumsum(d_same > d_flip) & 1, -s, s)


def sqrt_panel_integrals(a, b, radicand, divisor=None, hint: complex | None = None):
    """Running 8-node Gauss-Legendre integrals of sqrt(radicand) / divisor
    over the consecutive panels [a[i], b[i]].

    radicand and divisor map a complex array of nodes to values there (a
    missing divisor is 1). The square root is branch-continued through the
    nodes of all panels in order, starting from hint. Panels are evaluated
    PANEL_BLOCK at a time, the branch and the running sum carried from block
    to block, so the sums are added in panel order. Returns (running sum at
    the end of each panel, last square root). Raises PoleOnPath when the
    divisor vanishes at a node.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    running = np.empty(len(a), dtype=complex)
    carry = 0j
    for lo in range(0, len(a), PANEL_BLOCK):
        hi = min(lo + PANEL_BLOCK, len(a))
        mid = 0.5 * (a[lo:hi] + b[lo:hi])
        half = 0.5 * (b[lo:hi] - a[lo:hi])
        zs = (mid[:, None] + half[:, None] * GL_NODES).ravel()
        w = continue_sqrt_along(radicand(zs), hint)
        hint = complex(w[-1])
        terms = w.reshape(hi - lo, len(GL_NODES)) * GL_WEIGHTS
        if divisor is not None:
            dv = divisor(zs)
            if not np.all(dv):
                raise PoleOnPath(f"quadrature node {zs[dv == 0][0]} hits a pole")
            terms /= dv.reshape(terms.shape)
        seg = terms[:, 0].copy()           # summed node by node, in the loop's order
        for k in range(1, len(GL_NODES)):
            seg += terms[:, k]
        running[lo:hi] = np.cumsum(np.concatenate(([carry], seg * half)))[1:]
        carry = running[hi - 1]
    return running, hint


def zeta_from(qd: QuadraticDifferential, p: complex, z: complex) -> tuple[complex, complex]:
    """The distinguished parameter zeta(z) = integral of sqrt(phi) from the
    finite critical point p to z along the segment, and the branch of
    sqrt(phi) at z it was taken with.

    With z - p = t^2 the integrand 2 t sqrt(phi(p + t^2)) is regular at
    t = 0 for every order n >= -1, and along the segment 0 -> t it is
    t^(n+1) times a series in t^2 whose radius reaches the next critical
    point. Two 8-node Gauss-Legendre panels in t then hold it to rounding
    when no other critical point is within a few |z - p| of p.
    """
    t = cmath.sqrt(z - p)
    running, last = sqrt_panel_integrals(
        [0j, 0.5 * t], [0.5 * t, t], lambda s: 4.0 * s * s * qd.phi_array(p + s * s))
    w = continue_sqrt(4.0 * t * t * qd.phi(z), last) / (2.0 * t)
    return complex(running[-1]), w


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
    """phi = sign * p / q^2, with the pair (sign * p, q) retained."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomial("p and q must be nonzero")
    zeros, qroots = _roots_apart(p, q)
    poles = [RootCluster(c.location, 2 * c.multiplicity, c.radius) for c in qroots]
    p_eff = p * sign
    return QuadraticDifferential(p_eff, q * q, zeros, poles, (p_eff, q), "p_over_q_squared")


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
    num = (n * n) * -1.0
    return QuadraticDifferential(num, d * d, zeros, poles, (num, d), "lemniscate")


def cauchy_qd(p: Polynomial, q: Polynomial, r: Polynomial) -> QuadraticDifferential:
    """phi = -(q^2 - 4 p r) / p^2, the discriminant differential of the
    quadratic equation p C^2 + q C + r = 0."""
    if p.is_zero():
        raise ZeroPolynomial("p must be nonzero")
    disc = q * q - (p * r) * 4.0
    if disc.is_zero():
        raise ZeroPolynomial("q^2 - 4 p r vanishes identically")
    num = disc * -1.0
    qd = qd_new(num, p * p)
    qd.pq, qd.form = (num, p), "cauchy"
    return qd


def measure_density(qd: QuadraticDifferential, points) -> list[complex]:
    """(1/2 pi i) sqrt(q^2 - 4 p r) / p along the given oriented polyline.

    Branch-continuous along the points; the global sign is fixed so the
    middle value is real and nonnegative (BranchAmbiguity if neither sign
    achieves that within 1e-6 relative).
    """
    if qd.form != "cauchy":
        raise WrongProvenance("measure density requires cauchy provenance")
    # phi = -(q^2 - 4 p r) / p^2 is held as the pair (-(q^2 - 4 p r), p)
    minus_disc, p = qd.pq
    pts = np.asarray(points, dtype=complex)
    if not len(pts):
        return []
    vals = continue_sqrt_along(-minus_disc.eval_array(pts)) / (2j * math.pi * p.eval_array(pts))
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
