"""Lemniscates |r(z)| = c of a rational map r = p/q, seen as trajectories
of the differential -(r'/r)^2 dz^2."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, EmptyLevel
from .contour import marching_squares
from .polyalg import Polynomial
from .qdiff import CIRCULAR, QuadraticDifferential, critical_points, double_pole_kind, lemniscate_qd
from .tracer import TraceOptions, trace_horizontal

STREBEL_BUDGET_FACTOR = 10.0


@dataclass
class LemniscateReport:
    finite_critical_points: list
    double_poles: list          # (location, quadratic residue)
    critical_levels: list       # |r| at each finite critical point
    strebel_samples: list       # (sample point, closed flag)


def _abs_r(p: Polynomial, q: Polynomial, z: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(p.eval_array(z) / q.eval_array(z))


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


def lemniscate_level_curve(p: Polynomial, q: Polynomial, c: float,
                           window, n: int) -> list[np.ndarray]:
    """Polylines of |r| = c, r = p/q, in the window (x0, y0, x1, y1), from
    an n x n marching-squares grid. Raises ValueError for c <= 0 and
    EmptyLevel when the window holds no such curve."""
    if not c > 0.0:
        raise ValueError("level must be positive")
    x0, y0, x1, y1 = (float(v) for v in window)
    xs = np.linspace(x0, x1, int(n))
    ys = np.linspace(y0, y1, int(n))
    zx, zy = np.meshgrid(xs, ys)
    field = _abs_r(p, q, zx + 1j * zy)
    polylines = marching_squares(xs, ys, field, float(c))
    if not polylines:
        raise EmptyLevel(f"no |r| = {c} contour inside {window}")
    return polylines

