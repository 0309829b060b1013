"""Critical graph assembly and trajectory-level diagnostics.

Launches the n+2 critical trajectories from every finite critical point,
collects the rays into a graph whose short edges are the finite critical
trajectories, pairs zeros along short edges, and probes for recurrence by
counting crossings of a long ray with an orthogonal transversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import crossing_counts
from .qdiff import (
    CriticalPoint,
    QuadraticDifferential,
    critical_directions,
    critical_points,
    order_at_infinity,
    pq_form,
)
from .tracer import (
    CLOSED,
    ESCAPED_WINDOW,
    HIT_CRITICAL,
    SEED_FACTOR,
    TraceOptions,
    TrajectoryRay,
    trace_from_critical,
    trace_horizontal,
    trace_vertical,
)

K_MIN_DEFAULT = 20
TRANSVERSAL_FACTOR = 0.05
WINDOW_WIDEN = 1.0e4

SUSPECTED_RECURRENT = "SuspectedRecurrent"
NOT_RECURRENT = "NotRecurrent"
UNDETERMINED = "Undetermined"


@dataclass
class CriticalEdge:
    from_node: int
    to_node: int
    polyline: np.ndarray
    phi_length: float              # math.inf for rays that leave the finite part
    is_short: bool
    ray: TrajectoryRay


@dataclass
class CriticalGraph:
    nodes: list[CriticalPoint]
    edges: list[CriticalEdge]
    unresolved: list[TrajectoryRay]
    work: dict = field(default_factory=dict)


def build_critical_graph(qd: QuadraticDifferential,
                         opts: TraceOptions | None = None) -> CriticalGraph:
    """Trace every critical direction of every finite critical point.

    Rays hitting another finite critical point become short edges, whose
    phi-length the tracer measures from point to point; rays ending at a
    pole of order >= 2 or escaping toward a critical point at infinity
    become infinite edges; rays that exhaust a budget, or escape while
    infinity is regular, are reported unresolved. An edge's polyline starts
    at its critical point, and a short edge's ends at the point it reaches:
    the rays start and end on small disks around them. A short edge is
    keyed by its ends, the direction it leaves along and the critical
    direction nearest to where it arrives; an edge traced from both ends is
    kept once. A ray that closes on its launch point instead of arriving
    arrives where it first re-enters its launch circle.
    """
    opts = opts or TraceOptions.for_qd(qd)
    nodes = critical_points(qd)
    inf_id = next((i for i, cp in enumerate(nodes) if cp.at.is_infinite), None)

    edges: list[CriticalEdge] = []
    unresolved: list[TrajectoryRay] = []
    launched = 0
    keys = set()
    for i, cp in enumerate(nodes):
        if cp.at.is_infinite or not cp.is_finite_critical:
            continue
        for k in range(cp.signed_order + 2):
            ray = trace_from_critical(qd, cp, k, opts)
            launched += 1
            t = ray.termination
            poly = np.concatenate(([cp.at.value], ray.points))
            if t.kind == HIT_CRITICAL and nodes[t.cp_index].signed_order <= -2:
                edges.append(CriticalEdge(i, t.cp_index, poly, math.inf, False, ray))
            elif t.kind in (HIT_CRITICAL, CLOSED):
                j = i if t.kind == CLOSED else t.cp_index
                p = nodes[j].at.value
                end = ray.points[-1]
                if t.kind == CLOSED:
                    # a loop that missed p arrives where it re-enters the launch circle
                    dist = np.abs(ray.points - p)
                    back = np.flatnonzero(dist < dist[0])
                    end = ray.points[back[0]] if len(back) else end
                v = (complex(end) - p).conjugate()
                dirs = critical_directions(qd, nodes[j])
                arrival = max(range(len(dirs)), key=lambda m: (dirs[m] * v).real)
                key = frozenset(((i, k), (j, arrival)))
                if key in keys:
                    continue
                keys.add(key)
                if t.kind == HIT_CRITICAL:
                    poly = np.concatenate((poly, [p]))
                edges.append(CriticalEdge(i, j, poly, ray.phi_length, True, ray))
            elif t.kind == ESCAPED_WINDOW:
                if inf_id is not None:
                    edges.append(CriticalEdge(i, inf_id, poly, math.inf, False, ray))
                else:
                    unresolved.append(ray)
            else:
                unresolved.append(ray)

    return CriticalGraph(nodes, edges, unresolved, work={"launched_rays": launched})


def find_short_trajectories(qd: QuadraticDifferential,
                            opts: TraceOptions | None = None) -> list[CriticalEdge]:
    """The is_short edges of the critical graph."""
    return [e for e in build_critical_graph(qd, opts).edges if e.is_short]


@dataclass
class Pairing:
    pairs: list[tuple[int, int]]                 # indices into the zero clusters
    locations: list[tuple[complex, complex]]
    polylines: list[np.ndarray]
    method: str                                  # vacuous | exhaustive | greedy


@dataclass
class PairingFailure:
    unmatched: list[int]
    locations: list[complex]
    reason: str


EXHAUSTIVE_LIMIT = 10


def pair_zeros_by_short_trajectories(qd: QuadraticDifferential,
                                     opts: TraceOptions | None = None,
                                     graph: CriticalGraph | None = None):
    """Match the zeros into pairs joined by detected short trajectories.

    Exhaustive search below 11 zeros (lexicographically first matching),
    greedy by ascending length above. Returns Pairing or PairingFailure.
    """
    pq_form(qd, "pairing")
    zeros = qd.zeros
    if not zeros:
        return Pairing([], [], [], "vacuous")
    if len(zeros) % 2 == 1:
        return PairingFailure(list(range(len(zeros))),
                              [c.location for c in zeros],
                              "odd number of zeros")

    g = graph if graph is not None else build_critical_graph(qd, opts)
    # critical_points builds the finite nodes from the same zero clusters
    zero_at = {c.location: zi for zi, c in enumerate(zeros)}
    node_to_zero = {ni: zero_at[cp.at.value] for ni, cp in enumerate(g.nodes)
                    if cp.at.value in zero_at}

    cand: dict[tuple[int, int], CriticalEdge] = {}
    for e in g.edges:
        if not e.is_short or e.from_node == e.to_node:
            continue
        if e.from_node in node_to_zero and e.to_node in node_to_zero:
            a, b = sorted((node_to_zero[e.from_node], node_to_zero[e.to_node]))
            if (a, b) not in cand or e.phi_length < cand[(a, b)].phi_length:
                cand[(a, b)] = e

    n = len(zeros)
    adj = {i: sorted(j for j in range(n) if (min(i, j), max(i, j)) in cand)
           for i in range(n)}

    if n <= EXHAUSTIVE_LIMIT:
        matched = _match_exhaustive(n, adj)
        method = "exhaustive"
    else:
        matched = _match_greedy(n, cand)
        method = "greedy"

    if matched is None or len(matched) * 2 < n:
        used = set()
        for a, b in (matched or []):
            used.update((a, b))
        left = [i for i in range(n) if i not in used]
        return PairingFailure(left, [zeros[i].location for i in left],
                              "no perfect matching over detected short trajectories")
    pairs = sorted(matched)
    return Pairing(
        pairs,
        [(zeros[a].location, zeros[b].location) for a, b in pairs],
        [cand[p].polyline for p in pairs],
        method,
    )


def _match_exhaustive(n: int, adj: dict[int, list[int]]):
    pairs: list[tuple[int, int]] = []
    free = set(range(n))

    def rec() -> bool:
        if not free:
            return True
        i = min(free)
        free.discard(i)
        for j in adj[i]:
            if j in free:
                free.discard(j)
                pairs.append((i, j))
                if rec():
                    return True
                pairs.pop()
                free.add(j)
        free.add(i)
        return False

    return pairs if rec() else None


def _match_greedy(n: int, cand: dict[tuple[int, int], CriticalEdge]):
    order = sorted(cand.items(), key=lambda kv: (kv[1].phi_length, kv[0]))
    free = set(range(n))
    pairs = []
    for (a, b), _e in order:
        if a in free and b in free:
            pairs.append((a, b))
            free.discard(a)
            free.discard(b)
    return pairs


@dataclass
class RecurrenceReport:
    crossings: int
    closed: bool
    verdict: str
    reason: str | None
    ray: TrajectoryRay


def detect_recurrence(qd: QuadraticDifferential, z0: complex,
                      opts: TraceOptions | None = None) -> RecurrenceReport:
    """Trace the horizontal ray through z0 and count its proper crossings
    with the orthogonal trajectory segment through the same point, of
    half-length TRANSVERSAL_FACTOR * diameter in phi-length.

    Closed rays are not recurrent; K_MIN_DEFAULT or more crossings of a
    non-closed ray are reported SuspectedRecurrent; rays that end at a
    critical point or leave the window are not recurrent; exhausted budgets
    with few crossings leave the question undetermined.
    """
    opts = opts or TraceOptions.for_qd(qd)
    if order_at_infinity(qd) == 0:
        # infinity is a regular point, so leaving any finite window is never
        # dynamically terminal: the ray passes the far region at phi-cost
        # ~ 1/R and returns. Widen the window so the probe survives that.
        x0, y0, x1, y1 = opts.window
        w = WINDOW_WIDEN * max(x1 - x0, y1 - y0, 1.0)
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        opts = opts.replace(window=(cx - w, cy - w, cx + w, cy + w))
    topts = opts.replace(max_phi_length=TRANSVERSAL_FACTOR * qd.diameter())
    up = trace_vertical(qd, z0, +1, topts)
    dn = trace_vertical(qd, z0, -1, topts)
    transversal = np.concatenate([dn.points[::-1], up.points[1:]])

    ray = trace_horizontal(qd, complex(z0), +1, opts)
    crossings = _count_crossings(ray.points, transversal, complex(z0),
                                 SEED_FACTOR * opts.snap_radius)
    closed = ray.termination.kind == CLOSED
    if closed:
        verdict, reason = NOT_RECURRENT, CLOSED
    elif crossings >= K_MIN_DEFAULT:
        verdict, reason = SUSPECTED_RECURRENT, None
    elif ray.termination.kind in (HIT_CRITICAL, ESCAPED_WINDOW):
        verdict, reason = NOT_RECURRENT, ray.termination.kind
    else:
        verdict, reason = UNDETERMINED, ray.termination.kind
    return RecurrenceReport(crossings, closed, verdict, reason, ray)


def _count_crossings(path: np.ndarray, transversal: np.ndarray,
                     z0: complex, exclude_radius: float) -> int:
    """Proper segment crossings of path with transversal, skipping path
    segments inside the exclusion disk around z0 (the shared start point)."""
    if len(path) < 2 or len(transversal) < 2:
        return 0
    A, B = path[:-1], path[1:]
    keep = np.minimum(np.abs(A - z0), np.abs(B - z0)) > exclude_radius
    # transversal bounding box prefilter
    tx0, tx1 = transversal.real.min(), transversal.real.max()
    ty0, ty1 = transversal.imag.min(), transversal.imag.max()
    keep &= (np.minimum(A.real, B.real) <= tx1) & (np.maximum(A.real, B.real) >= tx0)
    keep &= (np.minimum(A.imag, B.imag) <= ty1) & (np.maximum(A.imag, B.imag) >= ty0)
    return int(crossing_counts(A[keep], B[keep], transversal).sum())
