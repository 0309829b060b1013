"""Level function Im of the integral of sqrt(phi) from the first paired zero.

The integrand is sqrt(phi), phi evaluated from its root clusters, so the
level is a function of phi alone, not of how phi was written down. Its
sign is fixed by the principal sqrt(phi) at the first quadrature node of
the base -> seed probe leg.

The branch of sqrt(phi) is continued over a lattice graph. Its nodes are
the lattice points outside the pole disks. An edge joins two 4-neighbours
when their straight segment meets no cut, touching included, and enters no
pole disk. The base -> seed probe leg is integrated once; the probe is
linked to the nearest node it sees clearly, the root, and a breadth-first
tree from the root integrates each edge once, from its parent's branch. A
node on a cut or at a zero gets a value but passes no branch on, and a node
the root cannot reach is an error. Every edge the tree leaves out closes a
lattice loop: where the cuts are the paired short trajectories, a mismatch
of the imaginary part across it is a continuity failure. Whether Im of the
integral depends on the path at all is decided first, from the closed-form
residue of sqrt(phi) at each pole (residue_obstruction), with no quadrature.
A point off the lattice is reached by one clear straight link from a node.

The quadrature runs by stage, each stage one call of the multi-path kernel
sqrt_panel_integrals: the tree one layer at a time (every edge out of a
layer starts from a branch already known), then all the loop edges, and
all the links of one verified ray. The tree, the branches and the first
loop reported are those of the edge by edge order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchAmbiguity, EmptyLevel, GuardViolation, PathBlocked, ResidueObstruction
from .geom import crossing_counts, meets, segment_distances
from .graph import Pairing
from .qdiff import (QuadraticDifferential, require_form, single_valued, sqrt_panel_integrals,
                    squared_residue)

GAP_REL_TOL = 1e-6
OBSTACLE_FACTOR = 2.0
PANEL_RATIO = 0.4            # leaf panel length over distance to the singular set
MAX_SPLIT_DEPTH = 26
POINT_LATTICE = 9            # nodes per side of the lattice level_function links a point to
DISTANCE_BLOCK = 1 << 16     # point-to-node distances nearest_clear holds at once


@dataclass
class LevelField:
    base_point: complex
    cuts: list
    grid: np.ndarray              # row-major, rows along y
    window: tuple
    undefined_mask: np.ndarray
    n: int
    branch: np.ndarray            # sqrt(phi) carried on from each node; nan where none is
    lattice: np.ndarray           # the sample points, shaped as grid
    setup: _LevelSetup            # what the field was continued with


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


def _lattice(window, n: int) -> np.ndarray:
    """The n x n lattice points of window, rows along y."""
    x0, y0, x1, y1 = window
    zs = np.empty((n, n), dtype=complex)
    zs.real, zs.imag = np.linspace(x0, x1, n)[None, :], np.linspace(y0, y1, n)[:, None]
    return zs


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


def _integrate(radicand, legs: list, singular) -> list:
    """Gauss-Legendre integrals of branch-continued sqrt(radicand) along the
    paths of legs, a list of (path, start hint) pairs, all in one kernel
    call. Returns one (integral, final branch hint) pair per leg."""
    a, b, starts = [], [], []
    for path, _hint in legs:
        starts.append(len(a))
        pa, pb = _leaf_panels(path, singular)
        a += pa
        b += pb
    running, hints = sqrt_panel_integrals(a, b, lambda z, _panel: radicand(z),
                                          [hint for _path, hint in legs], starts)
    ends = starts[1:] + [len(a)]
    return [(complex(running[e - 1]) if e > s else 0j, h)
            for s, e, h in zip(starts, ends, hints)]


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


def residue_obstruction(qd: QuadraticDifferential) -> dict | None:
    """{"at": the first pole, in qd.poles order, whose squared residue fails
    qdiff.single_valued, "gap": 2 pi |Re Res|, the change of Im round it} or
    None; BranchAmbiguity at a pole of odd order, which no cut ends at."""
    for c in qd.poles:
        if c.multiplicity % 2:
            raise BranchAmbiguity(f"the pole at {c.location} has odd order {c.multiplicity}")
        r2 = squared_residue(qd, c)
        if not single_valued(r2):
            return {"at": c.location, "gap": 2.0 * math.pi * abs(cmath.sqrt(r2).real)}
    return None


class _LevelSetup:
    """What every evaluation of one level function shares: the integrand,
    the pole disks, the singular set, the cuts and the seed probe near the
    base. ResidueObstruction where residue_obstruction finds a pole."""

    def __init__(self, qd: QuadraticDifferential, base: complex, cuts: list):
        require_form(qd, "level function")
        if (hit := residue_obstruction(qd)) is not None:
            raise ResidueObstruction(f"level function path-dependent around the pole at "
                                     f"{hit['at']}: loop gap {hit['gap']:.6e}", **hit)
        self.phi = qd.phi_array
        self.base = base
        self.cuts = cuts
        self.pole_obs = [(c.location, OBSTACLE_FACTOR * qd.guard_radius(c.location))
                         for c in qd.poles]
        self.singular = [c.location for c in qd.poles] + [c.location for c in qd.zeros]
        # every zero is also a one-point cut: no edge carries a branch through it
        self.blocks = cuts + [np.array([c.location, c.location]) for c in qd.zeros]
        # target-independent first leg: the branch seed must not depend on z,
        # or targets on opposite sides of a cut get opposite global signs
        self.probe = _seed_probe(qd, base, cuts)

    def outside_disks(self, z: np.ndarray) -> np.ndarray:
        ok = np.ones(z.shape, dtype=bool)
        for c, r in self.pole_obs:
            ok &= np.abs(z - c) >= r
        return ok

    def clear(self, a, b) -> np.ndarray:
        """Whether each straight segment a -> b, its end b left out, meets
        no cut and no zero and enters no pole disk."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
        ok = np.ones(a.shape, dtype=bool)
        for poly in self.blocks:
            ok &= ~meets(a, b, poly)
        for c, r in self.pole_obs:
            ok &= segment_distances(c, a, b) >= r
        return ok

    def continue_over(self, zs: np.ndarray):
        """Level values at the nodes of the lattice zs (rows along y),
        flattened, with the branch each node passes on (nan where it passes
        none) and the mask of the nodes in pole disks."""
        flat = zs.ravel()
        masked = ~self.outside_disks(flat)
        passes = ~masked
        for poly in self.blocks:
            passes &= ~meets(flat, flat, poly)      # not on a cut, not at a zero
        idx = np.arange(flat.size).reshape(zs.shape)
        i = np.concatenate((idx[:, :-1].ravel(), idx[:-1, :].ravel()))
        j = np.concatenate((idx[:, 1:].ravel(), idx[1:, :].ravel()))
        keep = ~masked[i] & ~masked[j] & (passes[i] | passes[j])
        # an edge is tested from an end that passes its branch on
        tail = np.where(passes[i], i, j)[keep]
        head = np.where(passes[i], j, i)[keep]
        ok = self.clear(flat[tail], flat[head])
        tail, head = tail[ok].tolist(), head[ok].tolist()
        nbrs = [[] for _ in range(flat.size)]
        for e, (t, h) in enumerate(zip(tail, head)):
            nbrs[t].append((h, e))
            if passes[h]:
                nbrs[h].append((t, e))

        pts = flat.tolist()
        root = int(self.nearest_clear(flat, passes, np.array([self.probe]))[0])
        [(leg, hint)] = _integrate(self.phi, [([self.base, self.probe], None)], self.singular)
        [(step, hint)] = _integrate(self.phi, [([self.probe, pts[root]], hint)], self.singular)
        value = [complex(math.nan, math.nan)] * len(pts)
        branch = list(value)
        value[root], branch[root] = leg + step, hint
        seen = [False] * len(pts)
        seen[root] = True
        in_tree = [False] * len(tail)
        # breadth first, one layer at a time: every edge out of a layer starts
        # from a branch already known, so the layer's edges share one kernel call
        layer = [root]
        while layer:
            found = []
            for u in layer:
                for w, e in nbrs[u]:
                    if not seen[w]:
                        seen[w] = in_tree[e] = True
                        found.append((u, w))
            steps = _integrate(self.phi, [([pts[u], pts[w]], branch[u]) for u, w in found],
                               self.singular)
            layer = []
            for (u, w), (step, hint) in zip(found, steps):
                value[w] = value[u] + step
                if passes[w]:
                    branch[w] = hint
                    layer.append(w)
        lost = [pts[k] for k in range(len(pts)) if not (masked[k] or seen[k])]
        if lost:
            raise PathBlocked(f"no lattice path from the seed probe {self.probe} "
                              f"reaches {lost[0]}")
        loops = [(t, h) for t, h, used in zip(tail, head, in_tree) if not used]
        steps = _integrate(self.phi, [([pts[t], pts[h]], branch[t]) for t, h in loops],
                           self.singular)
        for (t, h), (step, _) in zip(loops, steps):
            want = value[h].imag
            gap = abs((value[t] + step).imag - want)
            if gap > GAP_REL_TOL * (1.0 + abs(want)):
                raise BranchAmbiguity(
                    f"lattice loop through {pts[t]} -> {pts[h]} misses by {gap:.6e}")
        return np.asarray(value).imag, np.asarray(branch), masked

    def nearest_clear(self, nodes: np.ndarray, usable: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """For each point of zs, the index of the nearest usable node whose
        straight link to it is clear. The nearest nodes are found a few
        points at a time, in a table of at most DISTANCE_BLOCK distances,
        and tested in one clear call; the others, nearest first, only for a
        point whose nearest node is blocked."""
        cand = np.flatnonzero(usable)
        if not len(cand):
            raise PathBlocked(f"no lattice node has a clear link to {complex(zs[0])}")
        near = nodes[cand]
        rows = max(1, DISTANCE_BLOCK // len(cand))
        best = np.concatenate([cand[np.argmin(np.abs(near - zs[k:k + rows, None]), axis=1)]
                               for k in range(0, len(zs), rows)])
        for i in np.flatnonzero(~self.clear(nodes[best], zs)).tolist():
            rest = cand[np.argsort(np.abs(near - zs[i]), kind="stable")][1:]
            ok = np.flatnonzero(self.clear(nodes[rest], zs[i]))
            if not len(ok):
                raise PathBlocked(f"no lattice node has a clear link to {complex(zs[i])}")
            best[i] = rest[ok[0]]
        return best

    def linked(self, nodes: np.ndarray, level: np.ndarray, branch: np.ndarray,
               zs: np.ndarray) -> np.ndarray:
        """Level at each point of zs through one clear straight link from a
        lattice node, all links integrated in one kernel call."""
        ks = self.nearest_clear(nodes, ~np.isnan(branch), zs).tolist()
        steps = _integrate(self.phi,
                           [([complex(nodes[k]), z], complex(branch[k]))
                            for k, z in zip(ks, zs.tolist())], self.singular)
        return np.array([level[k] + step.imag for k, (step, _) in zip(ks, steps)])

    def point_lattice(self, z: complex) -> np.ndarray:
        """The POINT_LATTICE x POINT_LATTICE lattice over the bounding square
        of the base, the probe, z and the cuts, one spacing wider on each
        side, so that its border ring meets no cut."""
        pts = np.concatenate([np.array([self.base, self.probe, z])] + self.cuts)
        lo = complex(pts.real.min(), pts.imag.min())
        hi = complex(pts.real.max(), pts.imag.max())
        half = max(hi.real - lo.real, hi.imag - lo.imag) * (0.5 + 1.0 / (POINT_LATTICE - 3))
        c = 0.5 * (lo + hi)
        return _lattice((c.real - half, c.imag - half, c.real + half, c.imag + half),
                        POINT_LATTICE)


def _setup(qd: QuadraticDifferential, pairing) -> _LevelSetup:
    """The setup of a pairing: the cuts are its short-trajectory polylines,
    each from zero to zero. A PairingFailure or None has no cuts."""
    paired = isinstance(pairing, Pairing)
    return _LevelSetup(qd, _base_point(qd, pairing), list(pairing.polylines) if paired else [])


def _require_cuts(pairing):
    # without the paired cuts a lattice loop can go round a lone zero and flip the branch
    if not isinstance(pairing, Pairing):
        raise BranchAmbiguity("the level function needs the zeros paired by short trajectories")


def level_function(qd: QuadraticDifferential, pairing, z: complex) -> float:
    """Im of the path integral of sqrt(phi) from the base zero to z, with
    sqrt(phi) principal at the first node of the base -> seed probe leg:
    a function of phi alone.

    z is linked to a small lattice over the base, the seed probe, z and the
    cuts, continued as level_grid continues its own. Raises
    ResidueObstruction where residue_obstruction finds a pole round which
    the level is not well defined, then GuardViolation for z in a pole disk.
    It is 0 at the base; elsewhere a PairingFailure or None pairing raises
    BranchAmbiguity.
    """
    setup = _setup(qd, pairing)
    z = complex(z)
    if not setup.outside_disks(np.array([z]))[0]:
        raise GuardViolation(f"{z} lies inside a pole neighborhood")
    if z == setup.base:
        return 0.0
    _require_cuts(pairing)
    zs = setup.point_lattice(z)
    level, branch, _ = setup.continue_over(zs)
    return float(setup.linked(zs.ravel(), level, branch, np.array([z]))[0])


def level_grid(qd: QuadraticDifferential, pairing, window, n: int) -> LevelField:
    """Level values on an n x n grid of window, continued over the grid's
    own lattice; pole neighborhoods masked. ResidueObstruction as
    level_function, then BranchAmbiguity for a PairingFailure or None."""
    window = tuple(float(v) for v in window)
    n = int(n)
    setup = _setup(qd, pairing)
    _require_cuts(pairing)
    zs = _lattice(window, n)
    level, branch, masked = setup.continue_over(zs)
    grid = np.where(masked, 0.0, level).reshape(n, n)
    return LevelField(setup.base, setup.cuts, grid, window, masked.reshape(n, n), n,
                      branch.reshape(n, n), zs, setup)


def verify_level(field: LevelField, rays) -> VerificationReport:
    """Check the three defining properties on a sampled field.

    (i) continuity: adjacent unmasked samples away from cuts jump by at
    most 4 * spacing * local integrand bound. (ii) trajectory constancy:
    the level values along each ray, each linked to a node of the field,
    have standard deviation at most 1e-5 * (1 + |mean|). (iii) no open
    constancy: every unmasked 2x2 block has positive value spread. The
    rays are linked to the field by the setup and over the lattice it was
    continued with, the samples of one ray in one kernel call.
    """
    if not rays:
        raise EmptyLevel("verification needs at least one ray")
    setup, n, zs = field.setup, field.n, field.lattice
    nodes, level, branch = zs.ravel(), field.grid.ravel(), field.branch.ravel()

    ray_stats = []
    ok_ii = True
    for ray in rays:
        pts = np.asarray(ray.points, dtype=complex)
        take = np.linspace(0, len(pts) - 1, min(len(pts), 120)).astype(int)
        pts = pts[np.unique(take)]
        pts = pts[setup.outside_disks(pts)]
        vals = setup.linked(nodes, level, branch, pts) if len(pts) else []
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
    blk = np.stack([g[:-1, :-1], g[:-1, 1:], g[1:, :-1], g[1:, 1:]])
    open_blk = ~(m[:-1, :-1] | m[:-1, 1:] | m[1:, :-1] | m[1:, 1:])
    degenerate = int(np.count_nonzero(open_blk & (blk.max(axis=0) - blk.min(axis=0) <= 0.0)))
    ok_iii = degenerate == 0

    x0, y0, x1, y1 = field.window
    hx = (x1 - x0) / max(n - 1, 1)
    hy = (y1 - y0) / max(n - 1, 1)
    # neighbour pairs split by a cut: along x from (iy, ix), along y from (iy, ix)
    cut_x = _crosses_cut(zs[:, :-1], zs[:, 1:], field.cuts)
    cut_y = _crosses_cut(zs[:-1, :], zs[1:, :], field.cuts)
    # |sqrt(phi)| once per point of a checked pair, in one call, never at a masked point
    pair_x = ~m[:, :-1] & ~m[:, 1:] & ~cut_x
    pair_y = ~m[:-1, :] & ~m[1:, :] & ~cut_y
    used = np.zeros_like(m)
    used[:, :-1] |= pair_x
    used[:, 1:] |= pair_x
    used[:-1, :] |= pair_y
    used[1:, :] |= pair_y
    gabs = np.zeros((n, n))
    gabs[used] = np.sqrt(np.abs(setup.phi(zs[used])))
    # the max of the ratios skips NaN and does not depend on the pair order
    ratios = [0.0]
    for pairs, h, a, b in ((pair_x, hx, np.s_[:, :-1], np.s_[:, 1:]),
                           (pair_y, hy, np.s_[:-1, :], np.s_[1:, :])):
        bound = 4.0 * h * np.maximum(gabs[a], gabs[b])
        take = pairs & (bound > 0)
        ratios += (np.abs(g[a][take] - g[b][take]) / bound[take]).tolist()
    worst = max(ratios)
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
