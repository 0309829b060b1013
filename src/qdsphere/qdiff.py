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
from .polyalg import (ROOT_TOL, Polynomial, RootCluster, exact_multiplicities, gaussian, gmul,
                      gsub, poly_roots)

ANGULAR_TOL = 1e-9
GUARD_FACTOR = 1e-3
DIAM_FLOOR = 10.0
PANEL_BLOCK = 256            # panels evaluated per vectorized block
REAL_RTOL = 1e-6             # a Cauchy density or mass is real within this share of its modulus
AT_POLE = "{} is numerically at a pole: phi is not finite there"    # formatted with the point

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
GL_PAIRS = tuple(zip(GL_NODES.tolist(), GL_WEIGHTS.tolist()))    # (node, weight), for scalar code

CIRCULAR = "Circular"
RADIAL = "Radial"
SPIRAL = "Spiral"


@dataclass(frozen=True)
class CriticalPoint:
    at: complex | None         # None at infinity
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


def _phi_lines(zero_orders: tuple[int, ...], pole_orders: tuple[int, ...], z: str,
               divide: bool = True) -> list:
    """The lines of _evaluator_maker that leave phi at the point named z in
    v; without divide, lead times the zero factors in v and the product of
    the pole factors, if any, in b. Each product is the loop's v = v * f (b
    = b * f) in order, with a factor of order 1 taken inline instead of
    stored in f, and lead the first product's left operand (the division's,
    when there are no zeros)."""
    body = []

    def product(target, first, factor, n):
        # target = first * factor^n, or factor^n without first, by the loop's products in order
        if n > 1:
            body.append(f"        f = {factor}")
        operands = ([first] if first else []) + ["f" if n > 1 else f"({factor})"] * n
        body.append(f"        {target} = {' * '.join(operands[:2])}")
        body.extend(f"        {target} = {target} * {x}" for x in operands[2:])

    for i, m in enumerate(zero_orders):
        product("v", "v" if i else "lead", f"{z} - a{i}", m)
    for i, n in enumerate(pole_orders):
        product("b", "b" if i else "", f"{z} - b{i}", n)
    if pole_orders and divide:
        body.append(f"        v = {'v' if zero_orders else 'lead'} / b")
    elif not zero_orders:
        body.append("        v = lead")
    return body


def _phi_args(zero_orders: tuple[int, ...], pole_orders: tuple[int, ...]) -> list:
    """The arguments lead, a0, a1, ..., b0, b1, ..., sqrt of a maker of _phi_lines."""
    return (["lead"] + [f"a{i}" for i in range(len(zero_orders))]
            + [f"b{i}" for i in range(len(pole_orders))] + ["sqrt"])


def _compile_maker(name: str, args: list, lines: list, made: str):
    """make(*args) of the lines, returning made, compiled under the file name
    <qdsphere name>: name gives the maker and the shape, so that profiles and
    tracebacks tell the generated functions of each shape apart."""
    source = "\n".join([f"def make({', '.join(args)}):", *lines, f"    return {made}"])
    namespace = {}
    exec(compile(source, f"<qdsphere {name}>", "exec"), namespace)
    return namespace["make"]


@functools.lru_cache(maxsize=None)
def _evaluator_maker(zero_orders: tuple[int, ...], pole_orders: tuple[int, ...]):
    """A maker of phi(z) = lead prod (z - a_i)^m_i / prod (z - b_j)^n_j,
    root(z, hint) = continue_sqrt(phi(z), hint) and products(z) = (lead prod
    (z - a_i)^m_i, prod (z - b_j)^n_j or None without poles) as straight-line
    code, for zeros a_i and poles b_j of the given orders. It is compiled
    once per pair of order tuples, as collections.namedtuple compiles a class
    per list of field names. For a double zero and a simple pole phi reads

        f = z - a0
        v = lead * f
        v = v * f
        b = (z - b0)
        v = v / b
        return v

    root runs the same lines up to the return, then continue_sqrt's, with
    its one-product sheet test, and products the lines before the division.
    lead and the locations are bound as closure cells by the call make(lead,
    *zeros, *poles, cmath.sqrt), never written into the text: the repr of a
    complex number loses signed zeros. Each factor is multiplied in once per unit of its
    order, in cluster order, so root is continue_sqrt of phi to the bit, and
    the product keeps its relative accuracy next to clustered roots, where
    expanded coefficients lose it. phi_array runs products on arrays, but
    numpy rounds complex products apart from Python: only phi and root agree
    to the bit.
    """
    body = _phi_lines(zero_orders, pole_orders, "z")
    lines = ["    def phi(z):", *body, "        return v", "    def root(z, hint):", *body,
             "        s = sqrt(v + 0j)",
             "        return s if (s * hint.conjugate()).real >= 0.0 else -s",
             "    def products(z):", *_phi_lines(zero_orders, pole_orders, "z", divide=False),
             f"        return v, {'b' if pole_orders else 'None'}"]
    return _compile_maker(f"phi {zero_orders} {pole_orders}", _phi_args(zero_orders, pole_orders),
                          lines, "phi, root, products")


class QuadraticDifferential:
    """phi = lead * prod (z - a)^m / prod (z - b)^n over the zero clusters
    a and pole clusters b, in lowest terms. form names the constructor of a
    p/q^2 style family that built phi, and is None otherwise; typed holds the
    coefficients a constructor root-found, and is None for clusters given as
    they are. phi(z), root(z, hint) and phi_array's products are made for the
    clusters (_evaluator_maker)."""

    def __init__(self, lead: complex, zeros: list[RootCluster], poles: list[RootCluster],
                 form: str | None = None):
        self.lead = complex(lead)
        self.zeros = zeros
        self.poles = poles
        self.form = form
        self._critical: list[CriticalPoint] | None = None
        self._scene = None        # the tracer's critical-point geometry, built on first use
        self.typed = None
        self._exact = None        # exact_orders, found on first use
        make = _evaluator_maker(*(tuple(c.multiplicity for c in cs) for cs in (zeros, poles)))
        self.phi, self.root, self._products = make(
            self.lead, *(complex(c.location) for c in zeros + poles), cmath.sqrt)

    # -- evaluation ----------------------------------------------------

    def phi_array(self, z):
        """phi at an array of points to a few ulps, phi's own product lines
        run on arrays and so rounded by numpy; PoleOnPath, naming the point,
        where a pole factor vanishes, as at a node rounded onto a pole."""
        z = np.asarray(z, dtype=complex)
        v, b = self._products(z)
        if b is None:
            return v if self.zeros else np.full(z.shape, v)
        if not np.all(b):
            raise PoleOnPath(AT_POLE.format(complex(z[b == 0][0])))
        return v / b

    # -- geometry of the finite critical set ---------------------------

    def finite_critical_positions(self) -> list[complex]:
        return [c.at for c in critical_points(self) if c.at is not None]

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
    qd = QuadraticDifferential(num.coeffs[-1] / den.coeffs[-1], new_zeros, new_poles)
    qd.typed = (num, den)
    return qd


def order_at_infinity(qd: QuadraticDifferential) -> int:
    """phi ~ lead z^d at infinity, d the zero count minus the pole count,
    so phi(1/u) / u^4 has order -(d + 4) at u = 0."""
    return -(sum(c.multiplicity for c in qd.zeros) - sum(c.multiplicity for c in qd.poles) + 4)


def inverted(qd: QuadraticDifferential, c: complex) -> QuadraticDifferential:
    """phi(c + 1/u) / u^4, the differential in the chart u = 1/(z - c), from the clusters: a
    cluster at a goes to 1/(a - c) and one at c to the image's infinity. The lead is
    local_leading_coefficient(qd, c), with (c - a)^m = (-(a - c))^m per cluster a of order m,
    a pole's in the denominator. u = 0 takes infinity's order, as a last cluster when not 0."""

    def image(clusters):
        return [RootCluster(1 / (cl.location - c), cl.multiplicity,
                            cl.radius / abs(cl.location - c) ** 2)
                for cl in clusters if cl.location != c]

    zeros, poles = image(qd.zeros), image(qd.poles)
    n_inf = order_at_infinity(qd)
    if n_inf:
        (zeros if n_inf > 0 else poles).append(RootCluster(0j, abs(n_inf), 0.0))
    return QuadraticDifferential(local_leading_coefficient(qd, c), zeros, poles)


def critical_points(qd: QuadraticDifferential) -> list[CriticalPoint]:
    """Zeros and poles with signed orders; infinity included when critical.

    Finite points are sorted by (re, im); infinity, if present, comes last.
    The signed orders over the sphere always sum to -4.
    """
    if qd._critical is not None:
        return qd._critical
    pts: list[CriticalPoint] = []
    for c in qd.zeros:
        pts.append(CriticalPoint(complex(c.location), c.multiplicity))
    for c in qd.poles:
        qr = local_leading_coefficient(qd, c.location) if c.multiplicity == 2 else None
        pts.append(CriticalPoint(complex(c.location), -c.multiplicity, qr))
    pts.sort(key=lambda p: (p.at.real, p.at.imag))

    n_inf = order_at_infinity(qd)
    if n_inf != 0:
        # at an order -2 infinity phi(1/u) / u^4 ~ lead u^-2
        pts.append(CriticalPoint(None, n_inf, qd.lead if n_inf == -2 else None))
    qd._critical = pts
    return pts


def exact_orders(qd: QuadraticDifferential) -> list[int] | None:
    """The signed orders of qd's critical points, infinity included, sorted, exactly
    for the coefficients that its constructor root-found (qd.typed): those whose
    roots the zeros and poles are, with the distinct roots of num den (p q for p/q^2,
    (q^2 - 4 p r) p for cauchy) found by polyalg.exact_multiplicities. A lemniscate's
    poles are the distinct roots of p and q, and infinity when deg p != deg q; its
    zeros, all even by construction, are its clusters'. None for a differential given
    by its clusters."""
    if qd.typed is None:
        return None
    if qd._exact is None:
        polys = gaussian(*qd.typed)
        if qd.form == "lemniscate":
            p, q = qd.typed
            poles = sum(map(len, exact_multiplicities(*polys))) + (p.degree != q.degree)
            orders = [-2] * poles + [cp.signed_order for cp in critical_points(qd)
                                     if cp.signed_order > 0]
        else:
            if qd.form == "cauchy":
                p, q, r = polys
                num, den, k = gsub(gmul(q, q), gmul(gmul(p, r), [(4, 0)])), p, 2
            else:
                num, den = polys
                k = 2 if qd.form == "p_over_q_squared" else 1
            zeros, poles = exact_multiplicities(num, den, k)
            n_inf = -(sum(zeros) - sum(poles) + 4)
            orders = zeros + [-m for m in poles] + ([n_inf] if n_inf else [])
        qd._exact = sorted(orders)
    return qd._exact


def classify_double_pole(qd: QuadraticDifferential, at: complex | None) -> str:
    """Circular, Radial or Spiral, from the quadratic residue's argument; at None is infinity."""
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


def _find_critical(qd: QuadraticDifferential, at: complex | None) -> CriticalPoint:
    pts = critical_points(qd)
    if at is None:
        for p in pts:
            if p.at is None:
                return p
        raise WrongOrder("infinity is a regular point here")
    tol = ROOT_TOL * max(1.0, abs(at))
    best, bd = None, math.inf
    for p in pts:
        if p.at is None:
            continue
        d = abs(p.at - at)
        if d < bd:
            best, bd = p, d
    if best is None or bd > max(tol, 1e-6):
        raise WrongOrder(f"no critical point at {at}")
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
    if cp.at is None or not cp.is_finite_critical:
        raise NotFiniteCritical(
            f"signed order {cp.signed_order} at {'infinity' if cp.at is None else cp.at}")
    a = local_leading_coefficient(qd, cp.at)
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
    """The square root of v on the sheet of hint: the principal root s if
    Re(s conj(hint)) >= 0, else -s (None: s). Since |s - h|^2 - |s + h|^2 =
    -4 Re(s conj(h)), this is the root nearer the hint, decided by the sign
    of one product. An exact tie, h = 0 included, keeps s. Every sheet test
    of the package is this product; continue_sqrt_along takes it over arrays
    by the same float work."""
    s = principal_sqrt(v)
    if hint is None:
        return s
    return s if (s * hint.conjugate()).real >= 0.0 else -s


def continue_sqrt_along(values, hint=None, starts=None) -> np.ndarray:
    """Branch-continuous square roots of one sequence of values, or of
    several laid end to end.

    Equal to the sequential loop w_k = continue_sqrt(values[k], w_{k-1})
    with w_{-1} = hint (None: the first root is principal). Each w_k is the
    principal root s_k times a sign, which flips exactly where Re(s_k
    conj(s_{k-1})) < 0: negating the hint negates continue_sqrt's product
    exactly, so the sign is the running parity of those flips. The first
    flip test is against the hint itself. An exact tie, which keeps s_k
    whatever the sign before it, or a non-finite product depends on more
    than the parity, and the whole sequence is then continued by the loop.

    With starts, sequence j runs from values[starts[j]] to the next start
    and hint holds one hint per sequence. The starts ascend from 0 (an
    empty sequence allowed; ValueError when the first start is not 0). The
    parity restarts at each start, and only a sequence the parity cannot
    decide goes through the loop. Each sequence gets the roots a call on it
    alone would give.
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
    # Re(s conj(prev)) by the float work of continue_sqrt's product, so its sign is the loop's
    product = s.real * prev.real + s.imag * prev.imag
    flips = np.cumsum(product < 0.0)
    if len(starts) > 1:
        # each sequence counts its flips from its own start
        before = np.concatenate(([0], flips))[starts]
        flips -= np.repeat(before, np.subtract(ends, starts))
    out = np.where(flips & 1, -s, s)
    undecided = np.flatnonzero((product == 0.0) | ~np.isfinite(product))
    if len(undecided):
        for j in np.unique(np.searchsorted(starts, undecided, "right") - 1).tolist():
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
    are panels and the first start is not 0). radicand maps an array of
    nodes to the values there, raising what it raises (PoleOnPath for a
    node on a pole). The square root is branch-continued through the nodes
    by continue_sqrt_along, restarting at each start. The panels are evaluated PANEL_BLOCK at a
    time, and a path that runs on into the next block carries its branch
    there; after the blocks each path's panels are added in panel order from
    0j, so it gets the floats a call on it alone would give. Returns (running
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
    panels = []
    nodes = len(GL_NODES)
    j = 0                                  # the path that holds panel lo
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
        w = continue_sqrt_along(radicand(zs), [hints[k] for k in paths],
                                [nodes * f for f in first])
        for k, h in zip(paths, w[[nodes * g - 1 for g in after]].tolist()):
            hints[k] = h
        terms = w.reshape(hi - lo, nodes) * GL_WEIGHTS
        seg = terms[:, 0].copy()           # summed node by node, in the loop's order
        for k in range(1, nodes):
            seg += terms[:, k]
        panels += (seg * half).tolist()
    running = []
    for s, e in zip(starts, ends):
        running += islice(accumulate(panels[s:e], initial=0j), 1, None)
    return np.array(running, dtype=complex), hints


def zeta_from(qd: QuadraticDifferential, p: complex, z: complex) -> tuple[complex, complex]:
    """zeta(z) = integral of sqrt(phi) from the finite critical point p to z along the segment,
    and the branch of sqrt(phi) at z it was taken with. With z - p = s^2 the integrand
    sqrt(4 s^2 phi(p + s^2)) is regular at s = 0 for every order n >= -1, and along 0 -> t =
    sqrt(z - p) it is s^(n+1) times a series in s^2 whose radius reaches the next critical
    point. Two 8-node Gauss-Legendre panels, [0, t/2] and [t/2, t], then hold it to rounding
    when no other critical point is within a few |z - p| of p. The root is continued node to
    node by continue_sqrt from the principal one at the first node, on qd.phi, the tracer's own
    phi; PoleOnPath, naming the node p + s^2 or z, where a pole factor vanishes there."""
    t = cmath.sqrt(z - p)
    w, zeta, at = None, 0j, z
    try:
        end = 4.0 * t * t * qd.phi(z)
        for a, b in ((0j, 0.5 * t), (0.5 * t, t)):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            acc = 0j
            for x, c in GL_PAIRS:
                s = mid + half * x
                at = p + s * s
                w = continue_sqrt(4.0 * s * s * qd.phi(at), w)
                acc += c * w
            zeta += half * acc
    except ZeroDivisionError:
        raise PoleOnPath(AT_POLE.format(at)) from None
    return zeta, continue_sqrt(end, w) / (2.0 * t)


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
    qd = QuadraticDifferential(lead, zeros, poles, "p_over_q_squared")
    qd.typed = (p, q)
    return qd


def lemniscate_qd(p: Polynomial, q: Polynomial) -> QuadraticDifferential:
    """phi = -(r'/r)^2 for r = p/q, whose horizontal trajectories are the
    level curves |r| = const.

    In closed form r'/r = sum_a m_a / (z - a) = n/d, a running over the
    distinct roots of p (m_a > 0, its multiplicity) and of q (m_a < 0), with
    d = prod_a (z - a) and n = sum_a m_a d / (z - a); so phi = -n^2/d^2. Its
    poles are the roots of p and q, each of order -2, and its zeros the
    roots of n, each doubled. qd.r keeps r = lead * prod_a (z - a)^m_a as (lead, sites).
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
    qd = QuadraticDifferential(lead, zeros, poles, "lemniscate")
    qd.r = (p.coeffs[-1] / q.coeffs[-1], sites)
    qd.typed = (p, q)
    return qd


def cauchy_qd(p: Polynomial, q: Polynomial, r: Polynomial) -> QuadraticDifferential:
    """phi = -(q^2 - 4 p r) / p^2, the discriminant differential of the
    quadratic equation p C^2 + q C + r = 0."""
    if p.is_zero():
        raise ZeroPolynomial("p must be nonzero")
    disc = q * q - (p * r) * 4.0
    if disc.is_zero():
        raise ZeroPolynomial("q^2 - 4 p r vanishes identically")
    qd = qd_new(disc * -1.0, p * p)
    qd.form, qd.typed = "cauchy", (p, q, r)
    return qd


def measure_density(qd: QuadraticDifferential, points) -> list[complex]:
    """(1/2 pi i) sqrt(-phi) = (1/2 pi i) sqrt(q^2 - 4 p r) / p along the
    given oriented polyline.

    Branch-continuous along the points; the global sign is fixed so the
    middle value is real and nonnegative (BranchAmbiguity if neither sign
    achieves that within REAL_RTOL relative).
    """
    if qd.form != "cauchy":
        raise WrongProvenance("measure density requires cauchy provenance")
    pts = np.asarray(points, dtype=complex)
    if not len(pts):
        return []
    vals = continue_sqrt_along(-qd.phi_array(pts)) / (2j * math.pi)
    mid = complex(vals[len(vals) // 2])
    if not abs(mid.imag) <= REAL_RTOL * abs(mid):
        raise BranchAmbiguity(f"midpoint density {mid} is not real under either branch")
    return (vals if mid.real >= -REAL_RTOL * abs(mid) else -vals).tolist()


def measure_mass(qd: QuadraticDifferential, points, max_step: float | None = None) -> float:
    """|integral of sqrt(phi) dz| / 2 pi, the mass of the measure along a polyline (its
    density is +-sqrt(phi) / 2 pi on a horizontal arc), the segments first split to at most
    max_step and repeated points dropped. zeta_from takes the first and the last segment from
    the polyline's ends, in whose t = sqrt(z - p) chart the integrand is regular at a zero and
    at a simple pole, so a one-segment polyline is split at its midpoint. sqrt_panel_integrals
    takes the segments between, from the root the first zeta_from returns, and its last root
    sets the sign of the last chart. BranchAmbiguity when the integral is not real within
    REAL_RTOL relative."""
    if qd.form != "cauchy":
        raise WrongProvenance("measure mass requires cauchy provenance")
    pts = np.asarray(points, dtype=complex)
    if max_step is not None and max_step > 0:
        k = np.maximum(1, np.ceil(np.abs(np.diff(pts)) / max_step)).astype(int)
        j = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
        pts = np.append(np.repeat(pts[:-1], k) + j * np.repeat(np.diff(pts) / k, k), pts[-1])
    pts = pts[np.append(True, pts[1:] != pts[:-1])] if len(pts) else pts
    if len(pts) < 2:
        return 0.0
    if len(pts) == 2:
        pts = np.insert(pts, 1, 0.5 * (pts[0] + pts[1]))
    head, w = zeta_from(qd, complex(pts[0]), complex(pts[1]))
    running, [w] = sqrt_panel_integrals(pts[1:-2], pts[2:-1], qd.phi_array, hints=[w])
    total = head + (complex(running[-1]) if len(running) else 0j)
    tail, w_end = zeta_from(qd, complex(pts[-1]), complex(pts[-2]))
    total += -tail if (w_end * w.conjugate()).real >= 0.0 else tail
    if not abs(total.imag) <= REAL_RTOL * abs(total):
        raise BranchAmbiguity(f"the integral {total} of sqrt(phi) along the polyline is not real")
    return abs(total.real) / (2.0 * math.pi)
