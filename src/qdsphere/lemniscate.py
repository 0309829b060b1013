"""Lemniscates |r(z)| = c of a rational map r = p/q, seen as trajectories
of the differential -(r'/r)^2 dz^2."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contour
from .errors import ConvergenceFailure, EmptyLevel
from .geom import segment_distances
from .graph import build_critical_graph
from .polyalg import Polynomial
from .qdiff import CIRCULAR, QuadraticDifferential, critical_points, double_pole_kind, lemniscate_qd
from .tracer import CLOSED, TraceOptions, trace_horizontal

STREBEL_BUDGET_FACTOR = 10.0
LEVEL_RTOL = 1e-9      # a level within this share of |r| at a critical point is its level
SEED_SAMPLES = 64      # sign tests of |r| - c along each seed segment
TURN_MAX = 0.1         # a drawn chord turns the curve's tangent by at most this, in radians
NEWTON_STEPS = 6       # Newton steps that move a point inserted on a chord onto the curve
# A point within this share of a chord's length of a drawn chord lies on its curve: a chord
# turning by TURN_MAX is within TURN_MAX / 8 of its length of the arc.
ON_CURVE = 0.1

# the renderer calls marching_squares no more; perfbench/tracing.py (TARGETS) wraps it here by name
marching_squares = contour.marching_squares


@dataclass
class LemniscateReport:
    finite_critical_points: list
    double_poles: list          # (location, quadratic residue)
    critical_levels: list       # |r| at each finite critical point
    strebel_samples: list       # (sample point, closed flag)


def analyze_lemniscate(p: Polynomial, q: Polynomial, samples: int,
                       *, seed: int = 0,
                       qd: QuadraticDifferential | None = None) -> LemniscateReport:
    """Critical structure and random closure samples of -(r'/r)^2, r = p/q.

    Finite critical points are the zeros of the logarithmic derivative
    r'/r = sum of m_a/(z - a); every pole of the differential is a double
    pole whose quadratic residue must be negative real, Circular to
    double_pole_kind. qd is
    lemniscate_qd(p, q) when the caller has built it already.
    """
    qd = qd if qd is not None else lemniscate_qd(p, q)
    finite_cps = [c.location for c in qd.zeros]

    # cross-validate: the numerator p'q - pq' reduced by pq vanishes there
    raw = p.derivative() * q + p * (q.derivative() * -1.0)
    for z in finite_cps:
        if abs(raw(z)) > 1e-6 * raw.magnitude_bound(z):
            raise ConvergenceFailure(
                f"critical point {z} fails the logarithmic-derivative check")

    double_poles = []
    for cp in critical_points(qd):
        if cp.signed_order >= 0:
            continue
        if cp.signed_order != -2:
            raise ConvergenceFailure(
                f"pole of order {cp.signed_order} in a lemniscate differential")
        qr = cp.quadratic_residue
        if double_pole_kind(qr) != CIRCULAR:
            raise ConvergenceFailure(
                f"double pole at {'infinity' if cp.at is None else cp.at} has quadratic "
                f"residue {qr}, expected negative real")
        double_poles.append((cp.at, qr))

    levels = [float(abs(p(z) / q(z))) for z in finite_cps]

    out = []
    if samples > 0:
        opts = TraceOptions.for_qd(qd)
        x0, y0, x1, y1 = opts.window
        # sample inside the default window but trace in a wider one: a closed
        # lemniscate through an edge sample can bulge past the sampling box
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        hw, hh = 4.0 * (x1 - cx), 4.0 * (y1 - cy)
        opts = opts.replace(max_phi_length=opts.max_phi_length * STREBEL_BUDGET_FACTOR,
                            window=(cx - hw, cy - hh, cx + hw, cy + hh))
        rng = np.random.default_rng(seed)
        while len(out) < samples:
            z = complex(rng.uniform(x0, x1), rng.uniform(y0, y1))
            if not qd.clear_of_critical([z]):
                continue
            ray = trace_horizontal(qd, z, opts=opts)
            out.append((z, ray.termination.kind == "Closed"))
    return LemniscateReport(finite_cps, double_poles, levels, out)


def lemniscate_level_curve(p: Polynomial, q: Polynomial, c: float, window,
                           qd: QuadraticDifferential | None = None) -> list[np.ndarray]:
    """Polylines of |r| = c, r = p/q, in the window (x0, y0, x1, y1), each
    component once: horizontal trajectories of qd = lemniscate_qd(p, q),
    along which log|r| = Im zeta is constant. Raises ValueError for c <= 0
    and EmptyLevel when the window holds no such curve.

    At the level of a finite critical point the curves through it are the
    critical graph's edges from there. Every other curve is traced from a
    seed where |r| - c changes sign (_level_seeds): until it closes, or both
    ways out of the window. A seed on a curve already drawn is skipped, as is
    a critical ray that only runs along curves already drawn. A closed
    component encloses zeros and poles of r whose net count k gives its
    phi-length, 2 pi |k|, so the budget is 2 pi (max(deg p, deg q) + 1). The
    tracer's steps can turn the curve by up to a radian, so each polyline gets
    points of the curve inserted until no chord turns by more than TURN_MAX
    (_refined).
    """
    if not c > 0.0:
        raise ValueError("level must be positive")
    qd = qd if qd is not None else lemniscate_qd(p, q)
    opts = TraceOptions.for_qd(qd, window=window,
                               max_phi_length=2 * math.pi * (max(p.degree, q.degree) + 1))
    on_level = [cp.location for cp in qd.zeros
                if abs(abs(p(cp.location) / q(cp.location)) - c) <= LEVEL_RTOL * c]
    curves = []
    if on_level:
        graph = build_critical_graph(qd, opts)
        rays = [e.polyline for e in graph.edges if graph.nodes[e.from_node].at in on_level]
        for ray in graph.unresolved:         # only where infinity is regular
            at = min((cp.location for cp in qd.zeros), key=lambda a: abs(a - ray.points[0]))
            if at in on_level:
                rays.append(np.concatenate(([at], ray.points)))
        # a ray that passes by a critical point instead of arriving there runs on along
        # curves that other rays draw: longest first, a ray is kept where it draws something new
        for poly in sorted(rays, key=lambda v: -np.abs(np.diff(v)).sum()):
            if not _on_curves(poly[1:-1], curves).all():
                curves.append(_refined(p, q, c, poly))
    seeds = _level_seeds(p, q, c, qd, window)
    for z in qd.clear_of_critical(seeds):
        if _on_curves(np.array([z]), curves)[0]:
            continue
        ray = trace_horizontal(qd, z, 1, opts)
        poly = ray.points
        if ray.termination.kind != CLOSED:
            back = trace_horizontal(qd, z, -1, opts)
            poly = np.concatenate((back.points[:0:-1], poly))
        curves.append(_refined(p, q, c, poly))
    if not curves:
        why = _too_close(p, q, qd, seeds[0]) if seeds else ""
        raise EmptyLevel(f"no |r| = {c} contour inside {window}{why}")
    return curves


def _too_close(p: Polynomial, q: Polynomial, qd: QuadraticDifferential, seed: complex) -> str:
    """Why no seed gave a curve: each lay too close to a critical point, zero or pole of r.
    Names the one nearest the seed; a zero of r is a root of p, not of q, so p's value
    there is the smaller share of its magnitude bound."""
    at = min((cp.location for cp in qd.zeros + qd.poles), key=lambda a: abs(seed - a))
    share = [abs(f(at)) / f.magnitude_bound(at) for f in (p, q)]
    what = ("critical point" if at in [cp.location for cp in qd.zeros]
            else "zero" if share[0] <= share[1] else "pole")
    return (f": the curves found lie within {10 * qd.guard_radius(at):.3g} of the {what} of r "
            f"at {complex(round(at.real, 6) + 0.0, round(at.imag, 6) + 0.0)}, too close to trace")


def _refined(p: Polynomial, q: Polynomial, c: float, v: np.ndarray) -> np.ndarray:
    """The polyline v of |r| = c with points of the curve inserted where a chord
    turns by more than TURN_MAX. With g = r'/r the normal of the curve at z is
    conj(g(z)), so the chord from a to b turns by |arg(g(a) conj(g(b)))|; it is
    cut into equal parts, and each new point moves onto the curve by Newton's
    method along the normal, z - (log|r(z)| - log c) / g(z)."""
    dp, dq = p.derivative(), q.derivative()

    def g(z):
        return dp.eval_array(z) / p.eval_array(z) - dq.eval_array(z) / q.eval_array(z)

    gv = g(v)
    k = np.maximum(1, np.ceil(np.abs(np.angle(gv[:-1] * gv[1:].conj())) / TURN_MAX)).astype(int)
    if (k == 1).all():
        return v
    chord = np.repeat(np.arange(len(k)), k)
    t = (np.arange(len(chord)) - np.repeat(np.cumsum(k) - k, k)) / k[chord]
    z = v[chord] + t * (v[chord + 1] - v[chord])
    new = t > 0
    zs = z[new]
    for _ in range(NEWTON_STEPS):
        zs = zs - np.log(np.abs(p.eval_array(zs) / q.eval_array(zs)) / c) / g(zs)
    z[new] = zs
    return np.append(z, v[-1])


def _on_curves(zs: np.ndarray, curves) -> np.ndarray:
    """Whether each point of zs lies on one of the polylines in curves: within
    ON_CURVE of a chord's length of that chord."""
    on = np.zeros(len(zs), dtype=bool)
    for v in curves:
        a, b = v[:-1], v[1:]
        on |= np.any(segment_distances(zs[:, None], a, b) <= ON_CURVE * np.abs(b - a), axis=1)
    return on


def _level_seeds(p: Polynomial, q: Polynomial, c: float, qd: QuadraticDifferential,
                 window) -> list[complex]:
    """Points of |r| = c where |r| - c changes sign along the segments from
    each zero and pole of r in the window to its right edge and along the
    window's four edges, SEED_SAMPLES samples to a segment, each sign change
    refined by bisection. A bounded component of |r| = c encloses a zero or
    a pole of r (log|r| is harmonic elsewhere), so the first segments cross
    every component inside the window; the edges cross every one it cuts."""
    x0, y0, x1, y1 = window
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    # the double poles of qd are the zeros and poles of r
    segments = [(a, complex(x1, a.imag)) for a in (cp.location for cp in qd.poles)
                if x0 <= a.real < x1 and y0 <= a.imag <= y1]
    segments += zip(corners, corners[1:] + corners[:1])

    ts = np.linspace(0.0, 1.0, SEED_SAMPLES + 1)
    seeds = []
    for a, b in segments:
        zs = a + ts * (b - a)
        up = np.abs(p.eval_array(zs)) > c * np.abs(q.eval_array(zs))
        for i in np.flatnonzero(up[1:] != up[:-1]).tolist():
            lo, hi, up_lo = ts[i], ts[i + 1], up[i]
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                z = a + mid * (b - a)
                lo, hi = (mid, hi) if (abs(p(z)) > c * abs(q(z))) == up_lo else (lo, mid)
            seeds.append(a + mid * (b - a))
    return seeds
