import math

import numpy as np
import pytest

from qdsphere.graph import (
    NOT_RECURRENT,
    SUSPECTED_RECURRENT,
    PairingFailure,
    build_critical_graph,
    detect_recurrence,
    find_short_trajectories,
    pair_zeros_by_short_trajectories,
)
from qdsphere.polyalg import Polynomial
from qdsphere.qdiff import critical_points, qd_from_p_over_q_squared, qd_new
from qdsphere.tracer import CLOSED, TraceOptions

ONE = Polynomial([1.0])


def fig_winding_qd():
    # -1 / (z-0.5)(z+0.5)(z-1-i)(z+1+i): four simple poles whose
    # horizontal flow winds densely; the classic suspected-recurrent picture
    num = Polynomial([-1.0])
    den = Polynomial([0.5j, 0.0, -0.25 - 2.0j, 0.0, 1.0])
    return qd_new(num, den)


def test_launch_count_matches_orders():
    # every finite critical point of order n spawns n + 2 rays
    qd = qd_new(Polynomial([-1.0, 0.0, 1.0]), Polynomial([0.0, 1.0]))
    graph = build_critical_graph(qd)
    want = sum(c.signed_order + 2 for c in critical_points(qd)
               if not c.at.is_infinite and c.signed_order >= -1)
    assert graph.work["launched_rays"] == want == 7
    # zeros keep all three outgoing edges; the pole's single ray may merge
    # with an incoming zero edge during dedup
    per_node = {}
    for e in graph.edges:
        per_node[e.from_node] = per_node.get(e.from_node, 0) + 1
    for i, c in enumerate(graph.nodes):
        if not c.at.is_infinite and c.signed_order >= 1:
            assert per_node.get(i, 0) == c.signed_order + 2


def test_segment_short_trajectory():
    # 1 - z^2: the segment [-1, 1] is the unique short trajectory and its
    # phi length is the half-period pi/2
    qd = qd_new(Polynomial([1.0, 0.0, -1.0]), ONE)
    shorts = find_short_trajectories(qd)
    assert len(shorts) == 1
    e = shorts[0]
    assert e.is_short
    assert e.phi_length == pytest.approx(math.pi / 2, rel=1e-4)
    ends = sorted([e.polyline[0], e.polyline[-1]], key=lambda z: z.real)
    assert abs(ends[0] - (-1)) < 5e-4 and abs(ends[1] - 1) < 5e-4
    # the segment stays on the real axis
    assert max(abs(z.imag) for z in e.polyline) < 1e-6


def test_semicircle_support_edge():
    # p=1, q=-z, r=1: short trajectory joins -2 and 2 with phi length 2 pi
    from qdsphere.qdiff import cauchy_qd
    qd = cauchy_qd(ONE, Polynomial([0.0, -1.0]), ONE)
    shorts = find_short_trajectories(qd)
    assert len(shorts) == 1
    e = shorts[0]
    assert e.phi_length == pytest.approx(2 * math.pi, rel=1e-4)
    ends = sorted([e.polyline[0], e.polyline[-1]], key=lambda z: z.real)
    assert abs(ends[0] - (-2)) < 5e-4 and abs(ends[1] - 2) < 5e-4


def test_dedup_keeps_one_copy():
    # both endpoints launch toward each other; after dedup the edge list
    # must not contain the segment twice
    qd = qd_new(Polynomial([1.0, 0.0, -1.0]), ONE)
    graph = build_critical_graph(qd)
    short_edges = [e for e in graph.edges if e.is_short]
    pairs = {tuple(sorted((e.from_node, e.to_node))) for e in short_edges}
    assert len(short_edges) == len(pairs)


def test_two_short_edges_between_the_same_zeros():
    # (z^2 - 1) / z^2: an arc in the upper and one in the lower half-plane
    # join -1 to 1, phi-length pi each; the traces from 1 are their reverses
    qd = qd_from_p_over_q_squared(Polynomial([-1.0, 0.0, 1.0]), Polynomial([0.0, 1.0]))
    graph = build_critical_graph(qd)
    shorts = [e for e in graph.edges if e.is_short]
    assert graph.work["launched_rays"] == 6
    assert len(shorts) == 2
    ends = {frozenset((graph.nodes[e.from_node].at.value, graph.nodes[e.to_node].at.value))
            for e in shorts}
    assert ends == {frozenset((-1.0, 1.0))}
    sides = [np.sign(e.polyline[1:-1].imag) for e in shorts]
    assert all(np.all(side == side[0]) for side in sides)
    assert sorted(side[0] for side in sides) == [-1.0, 1.0]
    for e in shorts:
        assert e.phi_length == pytest.approx(math.pi, rel=1e-8)


def test_critical_loop_kept_once():
    # -z / ((z - 0.5)(z - 1 - i)(z - 2 + i)): two of the three rays leaving
    # the zero at 0 are the two ends of one loop back to it
    qd = qd_new(Polynomial([0.0, -1.0]), Polynomial.from_roots([0.5, 1 + 1j, 2 - 1j]))
    graph = build_critical_graph(qd)
    zero = next(i for i, c in enumerate(graph.nodes) if c.signed_order == 1)
    loops = [e for e in graph.edges if e.from_node == e.to_node == zero]
    assert len(loops) == 1 and loops[0].is_short
    assert loops[0].phi_length == pytest.approx(2 * math.pi, rel=1e-8)


def test_closed_critical_loop_kept_once():
    # with a snap radius 1000 times smaller both traces of the loop above
    # miss the zero and close on their launch points; each is keyed by where
    # it re-enters its launch circle, so the two share a key
    qd = qd_new(Polynomial([0.0, -1.0]), Polynomial.from_roots([0.5, 1 + 1j, 2 - 1j]))
    opts = TraceOptions.for_qd(qd)
    graph = build_critical_graph(qd, opts.replace(snap_radius=1e-3 * opts.snap_radius))
    zero = next(i for i, c in enumerate(graph.nodes) if c.signed_order == 1)
    loops = [e for e in graph.edges if e.from_node == e.to_node == zero]
    assert len(loops) == 1 and loops[0].is_short
    assert loops[0].ray.termination.kind == CLOSED


def test_pairing_two_zeros():
    qd = qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)
    pairing = pair_zeros_by_short_trajectories(qd)
    assert pairing.pairs == [(0, 1)]
    assert pairing.method == "exhaustive"
    (a, b) = pairing.locations[0]
    assert {round(a.real), round(b.real)} == {-1, 1}


def test_pairing_vacuous_without_zeros():
    qd = qd_from_p_over_q_squared(ONE, Polynomial([0.0, 1.0]), sign=-1)
    pairing = pair_zeros_by_short_trajectories(qd)
    assert pairing.pairs == []
    assert pairing.method == "vacuous"


def test_pairing_failure_reported():
    # (z^2 - 1)/(z - 2)^2: two zeros, but no short trajectory joins them
    # (the double pole's ring blocks the segment), so pairing must fail
    # rather than invent a pair
    p = Polynomial([-1.0, 0.0, 1.0])
    q = Polynomial([-2.0, 1.0])
    qd = qd_from_p_over_q_squared(p, q)
    out = pair_zeros_by_short_trajectories(qd)
    assert isinstance(out, PairingFailure)
    assert len(out.unmatched) == 2
    assert out.reason


def test_detect_recurrence_winding_example():
    qd = fig_winding_qd()
    report = detect_recurrence(qd, 1.0 + 0.0j)
    assert report.verdict == SUSPECTED_RECURRENT
    assert report.crossings >= 20
    assert not report.closed


def test_detect_recurrence_stable_under_seed_perturbation():
    qd = fig_winding_qd()
    base = detect_recurrence(qd, 1.0 + 0.0j)
    moved = detect_recurrence(qd, 1.0 + 1e-3j)
    assert moved.verdict == base.verdict == SUSPECTED_RECURRENT


def test_detect_recurrence_closed_circle():
    qd = qd_from_p_over_q_squared(ONE, Polynomial([0.0, 1.0]), sign=-1)
    report = detect_recurrence(qd, 1.0)
    assert report.verdict == NOT_RECURRENT
    assert report.closed
    assert report.crossings <= 2


def test_graph_work_counter():
    qd = qd_new(Polynomial([1.0, 0.0, -1.0]), ONE)
    g1 = build_critical_graph(qd)
    g2 = build_critical_graph(qd)
    assert g1.work == g2.work
    assert g1.work["launched_rays"] == 6


def test_unresolved_rays_have_budget_terminations():
    # four simple poles, no zeros: every launched ray either hits a pole or
    # runs out of budget; none may silently vanish
    qd = fig_winding_qd()
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=30.0)
    graph = build_critical_graph(qd, opts=opts)
    assert graph.work["launched_rays"] == 4
    assert len(graph.edges) + len(graph.unresolved) == 4
    for ray in graph.unresolved:
        assert ray.termination.kind != "HitCritical"
