"""Level function Im of the integral of sqrt(p)/q from the first paired zero.

The integrand is branch-continued along explicit polyline paths that detour
around pole guards and around the ends of short-trajectory cuts. Around a
cut end the sweep direction is forced (the one not crossing the cut), so
cut detours never change the branch; around poles the two probe paths take
opposite sides, and a residue with nonzero real part then shows up as a
path disagreement in the imaginary part.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyLevel, GuardViolation, PathBlocked, ResidueObstruction
from .geom import crossing_counts, proper_crossings
from .graph import Pairing
from .qdiff import QuadraticDifferential, pq_form, principal_sqrt, sqrt_panel_integrals

GAP_REL_TOL = 1e-6
OBSTACLE_FACTOR = 2.0
MAX_DETOURS = 16
ARC_STEP = math.pi / 6
PANEL_RATIO = 0.4            # leaf panel length over distance to the singular set
MAX_SPLIT_DEPTH = 26


@dataclass
class LevelField:
    base_point: complex
    cuts: list
    grid: np.ndarray              # row-major, rows along y
    window: tuple
    undefined_mask: np.ndarray
    n: int


@dataclass
class VerificationReport:
    passed_i: bool
    passed_ii: bool
    passed_iii: bool
    details: dict


def _base_point(qd: QuadraticDifferential, pairing) -> complex:
    if isinstance(pairing, Pairing) and pairing.pairs:
        return complex(qd.zeros[pairing.pairs[0][0]].location)
    if qd.zeros:
        return complex(qd.zeros[0].location)
    # anchor at unit distance from the pole centroid, deterministic
    ps = [c.location for c in qd.poles]
    ctr = sum(ps) / len(ps) if ps else 0j
    return ctr + 1.0


def _cuts_of(pairing) -> list[np.ndarray]:
    """Detected short-trajectory polylines; each runs from zero to zero."""
    if not isinstance(pairing, Pairing):
        return []
    return list(pairing.polylines)


def _obstacles(qd: QuadraticDifferential) -> list[tuple[complex, float]]:
    return [(c.location, OBSTACLE_FACTOR * qd.guard_radius(c.location))
            for c in qd.poles]


def _route_obstacles(qd: QuadraticDifferential) -> list[tuple[complex, float, str]]:
    """Routing obstacles: pole neighborhoods rounded on the probe's side,
    plus tiny disks at zeros rounded always counterclockwise. Paths through
    a zero would make the branch continuation degenerate, but the detour
    sweep there must not depend on the probe side or the two probes would
    differ by a branch flip instead of a residue loop."""
    obs = [(c, r, "side") for c, r in _obstacles(qd)]
    rz = 1e-5 * max(1.0, qd.diameter())
    for c in qd.zeros:
        obs.append((c.location, rz, "ccw"))
    return obs


def _segment_circle_hit(a: complex, b: complex, c: complex, r: float):
    """Smallest t in (0,1) where segment a->b enters the disk |z-c|<r."""
    d = b - a
    L2 = d.real * d.real + d.imag * d.imag
    if L2 == 0.0:
        return None
    t = max(0.0, min(1.0, ((c - a).real * d.real + (c - a).imag * d.imag) / L2))
    if abs(a + t * d - c) >= r:
        return None
    # quadratic |a + t d - c|^2 = r^2
    f = a - c
    A = L2
    B = 2.0 * (f.real * d.real + f.imag * d.imag)
    C = f.real * f.real + f.imag * f.imag - r * r
    disc = B * B - 4 * A * C
    if disc <= 0.0:
        return None
    s = math.sqrt(disc)
    t1 = (-B - s) / (2 * A)
    t2 = (-B + s) / (2 * A)
    if t2 <= 0.0 or t1 >= 1.0:
        return None
    return max(t1, 0.0), min(t2, 1.0)


def _arc(c: complex, r: float, th1: float, th2: float, ccw: bool) -> list[complex]:
    if ccw:
        while th2 <= th1:
            th2 += 2 * math.pi
        sweep = th2 - th1
    else:
        while th2 >= th1:
            th2 -= 2 * math.pi
        sweep = th1 - th2
    n = max(2, int(math.ceil(sweep / ARC_STEP)))
    sign = 1.0 if ccw else -1.0
    return [c + r * cmath.exp(1j * (th1 + sign * sweep * k / n)) for k in range(n + 1)]


def _route(start: complex, end: complex, obstacles, cuts, side: int) -> list[complex]:
    """Polyline from start to end avoiding pole disks and cut crossings.

    Pole disks are rounded on the side given by `side`; cut ends are rounded
    with the unique sweep that does not cross the cut itself. Segments are
    fixed in path order, one detour at a time.
    """
    path = [start, end]
    i = 0   # segments before i are clear, and a detour at i leaves them as they are
    for _ in range(MAX_DETOURS):
        while i < len(path) - 1 and not _detour(path, i, obstacles, cuts, side):
            i += 1
        if i == len(path) - 1:
            return path
    raise PathBlocked(f"no route from {start} to {end} after {MAX_DETOURS} detours")


def _detour(path: list[complex], i: int, obstacles, cuts, side: int) -> bool:
    """Insert a detour after path[i] around the first obstacle disk or cut
    that the segment path[i] -> path[i + 1] runs into; False when it is clear."""
    a, b = path[i], path[i + 1]
    # earliest obstacle-disk entry on this segment
    best = None
    for c, r, mode in obstacles:
        if abs(a - c) <= r or abs(b - c) <= r:
            continue  # endpoints tangent-close: treat as passable
        hit = _segment_circle_hit(a, b, c, r)
        if hit is not None and (best is None or hit[0] < best[0]):
            best = (hit[0], hit[1], c, r, mode)
    if best is not None:
        t1, t2, c, r, mode = best
        p1 = a + t1 * (b - a)
        p2 = a + t2 * (b - a)
        ccw = side > 0 if mode == "side" else True
        path[i + 1:i + 1] = _arc(c, r, cmath.phase(p1 - c), cmath.phase(p2 - c), ccw=ccw)
        return True
    # cut crossings: round the nearest end of the slit; on equal t the
    # first crossing in cut and segment order wins
    hit_cut = None
    for poly in cuts:
        for t in proper_crossings(a, b, poly):
            t = float(t)
            if hit_cut is None or t < hit_cut[0]:
                hit_cut = (t, poly)
    if hit_cut is None:
        return False
    t, poly = hit_cut
    x = a + t * (b - a)
    e0, e1 = complex(poly[0]), complex(poly[-1])
    e, nb = (e0, complex(poly[1])) if abs(x - e0) <= abs(x - e1) \
        else (e1, complex(poly[-2]))
    r = max(abs(x - e) * 1.5, 1e-12)
    # round the slit end outside any obstacle disk sitting on it
    for c, ro, _mode in obstacles:
        if abs(c - e) < ro:
            r = max(r, 1.25 * ro)
    th1 = cmath.phase(a - e)
    th2 = cmath.phase(b - e)
    thc = cmath.phase(nb - e)   # direction the slit leaves e
    # pick the sweep whose angular range avoids the slit direction
    span = (th2 - th1) % (2 * math.pi)
    ccw_hits_slit = (thc - th1) % (2 * math.pi) <= span
    path[i + 1:i + 1] = _arc(e, r, th1, th2, not ccw_hits_slit)
    return True


def _leaf_panels(path: list[complex], singular) -> tuple[list, list]:
    """Quadrature panels of a polyline, in path order: each segment is
    bisected until a panel is no longer than PANEL_RATIO times the distance
    from its midpoint to the nearest pole or zero, or MAX_SPLIT_DEPTH deep.
    Returns the panel start and end points."""
    starts, ends = [], []
    for i in range(len(path) - 1):
        if path[i] == path[i + 1]:
            continue
        stack = [(path[i], path[i + 1], 0)]
        while stack:
            a, b, depth = stack.pop()
            mid = 0.5 * (a + b)
            d = math.inf
            for s in singular:
                e = abs(mid - s)
                if e < d:
                    d = e
            if abs(b - a) <= PANEL_RATIO * d or depth >= MAX_SPLIT_DEPTH:
                starts.append(a)
                ends.append(b)
            else:
                stack.append((mid, b, depth + 1))
                stack.append((a, mid, depth + 1))
    return starts, ends


def _integrate(p, q, path: list[complex], seed_hint: complex | None, singular):
    """Gauss-Legendre integral of branch-continued sqrt(p)/q along path.
    Returns (integral, final branch hint)."""
    a, b = _leaf_panels(path, singular)
    if not a:
        return 0j, seed_hint
    running, hint = sqrt_panel_integrals(a, b, p.eval_array, q.eval_array, seed_hint)
    return complex(running[-1]), hint


def _seed_probe(qd, base: complex, cuts) -> complex:
    """Fixed point near the base where the branch is seeded. Leaves the base
    in the direction farthest from any cut emanating from it."""
    r0 = 1e-3 * max(1.0, qd.diameter())
    away = []
    for cut in cuts:
        for end, nxt in ((0, 1), (-1, -2)):
            if abs(complex(cut[end]) - base) < 0.5 * r0:
                away.append(cmath.phase(complex(cut[nxt]) - base))
    if not away:
        return base + r0
    best, best_score = 0.0, -1.0
    for k in range(16):
        th = math.pi * k / 8.0
        score = min(abs((th - a + math.pi) % (2 * math.pi) - math.pi) for a in away)
        if score > best_score + 1e-12:
            best, best_score = th, score
    return base + r0 * cmath.exp(1j * best)


class _LevelSetup:
    """What every sample of one level evaluation shares: the integrand, the
    obstacles, the singular set and the seed probe near the base, with the
    base -> probe leg integrated once, on first use."""

    def __init__(self, qd: QuadraticDifferential, base: complex, cuts: list):
        self.p, self.q = pq_form(qd, "level function")
        self.base = base
        self.cuts = cuts
        self.pole_obs = _obstacles(qd)
        self.route_obs = _route_obstacles(qd)
        self.singular = [c.location for c in qd.poles] + [c.location for c in qd.zeros]
        # target-independent first leg: the branch seed must not depend on z,
        # or targets on opposite sides of a cut get opposite global signs
        self.probe = _seed_probe(qd, base, cuts)

    @cached_property
    def leg(self) -> tuple[complex, complex]:
        """Integral over base -> probe and the branch hint at the probe."""
        return _integrate(self.p, self.q, [self.base, self.probe], None, self.singular)


def _level_eval(s: _LevelSetup, z: complex):
    """Level value at z plus the two-path disagreement of the imaginary part."""
    z = complex(z)
    for c, r in s.pole_obs:
        if abs(z - c) < r:
            raise GuardViolation(f"{z} lies inside the pole neighborhood of {c}")
    if z == s.base:
        return 0.0, 0.0
    leg, hint0 = s.leg
    vals = []
    for side in (1, -1):
        path = _route(s.probe, z, s.route_obs, s.cuts, side)
        seg, _ = _integrate(s.p, s.q, path, hint0, s.singular)
        vals.append((leg + seg).imag)
    gap = abs(vals[0] - vals[1])
    return vals[0], gap


def level_function(qd: QuadraticDifferential, pairing, z: complex) -> float:
    """Im of the path integral of sqrt(p)/q from the base zero to z.

    Raises ResidueObstruction when two homotopically different routes
    disagree beyond 1e-6 * (1 + |value|): the level function is then not
    well defined. A PairingFailure or None pairing is accepted with no
    cuts, which is the diagnostic mode for exactly that situation.
    """
    setup = _LevelSetup(qd, _base_point(qd, pairing), _cuts_of(pairing))
    val, gap = _level_eval(setup, z)
    if gap > GAP_REL_TOL * (1.0 + abs(val)):
        raise ResidueObstruction(
            f"level function path-dependent at {z}: two-path gap {gap:.6e}",
            gap=gap, at=z)
    return float(val)


def level_grid(qd: QuadraticDifferential, pairing, window, n: int) -> LevelField:
    """Sample level_function on an n x n grid; pole neighborhoods masked."""
    x0, y0, x1, y1 = (float(v) for v in window)
    n = int(n)
    setup = _LevelSetup(qd, _base_point(qd, pairing), _cuts_of(pairing))
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    grid = np.zeros((n, n), dtype=float)
    mask = np.zeros((n, n), dtype=bool)
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            z = complex(x, y)
            if any(abs(z - c) < r for c, r in setup.pole_obs):
                mask[iy, ix] = True
                continue
            val, gap = _level_eval(setup, z)
            if gap > GAP_REL_TOL * (1.0 + abs(val)):
                raise ResidueObstruction(
                    f"level grid path-dependent at {z}: gap {gap:.6e}",
                    gap=gap, at=z)
            grid[iy, ix] = val
    return LevelField(setup.base, setup.cuts, grid, (x0, y0, x1, y1), mask, n)


def verify_level(field: LevelField, rays, qd: QuadraticDifferential) -> VerificationReport:
    """Check the three defining properties on a sampled field.

    (i) continuity: adjacent unmasked samples away from cuts jump by at
    most 4 * spacing * local integrand bound. (ii) trajectory constancy:
    the level values along each ray have standard deviation at most
    1e-5 * (1 + |mean|). (iii) no open constancy: every unmasked 2x2 block
    has positive value spread.
    """
    if not rays:
        raise EmptyLevel("verification needs at least one ray")
    setup = _LevelSetup(qd, field.base_point, field.cuts)

    ray_stats = []
    ok_ii = True
    for ray in rays:
        pts = np.asarray(ray.points, dtype=complex)
        take = np.linspace(0, len(pts) - 1, min(len(pts), 120)).astype(int)
        take = np.unique(take)
        vals = []
        for z in pts[take]:
            z = complex(z)
            if any(abs(z - c) < r for c, r in setup.pole_obs):
                continue
            v, _gap = _level_eval(setup, z)
            vals.append(v)
        if len(vals) < 2:
            ok_ii = False
            ray_stats.append({"samples": len(vals), "std": None, "pass": False})
            continue
        arr = np.asarray(vals)
        std = float(arr.std())
        mean = float(arr.mean())
        good = std <= 1e-5 * (1.0 + abs(mean))
        ok_ii = ok_ii and good
        ray_stats.append({"samples": int(len(vals)), "std": std,
                          "mean": mean, "pass": bool(good)})

    g, m = field.grid, field.undefined_mask
    n = field.n
    degenerate = 0
    for iy in range(n - 1):
        for ix in range(n - 1):
            blk_m = m[iy:iy + 2, ix:ix + 2]
            if blk_m.any():
                continue
            blk = g[iy:iy + 2, ix:ix + 2]
            if float(blk.max() - blk.min()) <= 0.0:
                degenerate += 1
    ok_iii = degenerate == 0

    x0, y0, x1, y1 = field.window
    hx = (x1 - x0) / max(n - 1, 1)
    hy = (y1 - y0) / max(n - 1, 1)
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    zs = np.empty((n, n), dtype=complex)
    zs.real, zs.imag = xs[None, :], ys[:, None]
    # neighbour pairs split by a cut: along x from (iy, ix), along y from (iy, ix)
    cut_x = _crosses_cut(zs[:, :-1], zs[:, 1:], field.cuts)
    cut_y = _crosses_cut(zs[:-1, :], zs[1:, :], field.cuts)
    # |sqrt(p)/q| once per point of a checked pair, never at a masked point
    pair_x = ~m[:, :-1] & ~m[:, 1:] & ~cut_x
    pair_y = ~m[:-1, :] & ~m[1:, :] & ~cut_y
    used = np.zeros_like(m)
    used[:, :-1] |= pair_x
    used[:, 1:] |= pair_x
    used[:-1, :] |= pair_y
    used[1:, :] |= pair_y
    p, q = setup.p, setup.q
    gabs = np.zeros((n, n))
    for iy, ix in zip(*np.nonzero(used)):
        z = complex(xs[ix], ys[iy])
        gabs[iy, ix] = abs(principal_sqrt(p(z)) / q(z))
    # the max of the ratios skips NaN and does not depend on the pair order
    worst = 0.0
    for pairs, h, dy, dx in ((pair_x, hx, 0, 1), (pair_y, hy, 1, 0)):
        for iy, ix in zip(*np.nonzero(pairs)):
            jy, jx = iy + dy, ix + dx
            bound = 4.0 * h * max(gabs[iy, ix], gabs[jy, jx])
            jump = abs(g[iy, ix] - g[jy, jx])
            if bound > 0:
                worst = max(worst, jump / bound)
    ok_i = worst <= 1.0

    return VerificationReport(
        bool(ok_i), bool(ok_ii), bool(ok_iii),
        {"rays": ray_stats, "degenerate_blocks": degenerate,
         "continuity_worst_ratio": worst})


def _crosses_cut(a: np.ndarray, b: np.ndarray, cuts) -> np.ndarray:
    """Whether each segment a -> b (arrays of one shape) properly crosses
    some cut."""
    hit = np.zeros(a.size, dtype=bool)
    for cut in cuts:
        hit |= crossing_counts(a.ravel(), b.ravel(), cut) > 0
    return hit.reshape(a.shape)
