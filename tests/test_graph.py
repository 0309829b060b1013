import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsphere.criteria import INCONCLUSIVE, overall_verdict, run_all
from qdsphere.graph import (
    NOT_RECURRENT,
    SUSPECTED_RECURRENT,
    CriticalEdge,
    CriticalGraph,
    Pairing,
    PairingFailure,
    _match,
    build_critical_graph,
    detect_recurrence,
    find_short_trajectories,
    pair_zeros_by_short_trajectories,
)
from qdsphere.polyalg import Polynomial, RootCluster
from qdsphere.qdiff import (
    QuadraticDifferential,
    critical_points,
    qd_from_p_over_q_squared,
    qd_new,
)
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
               if c.at is not None and c.signed_order >= -1)
    assert graph.work["launched_rays"] == want == 7
    # zeros keep all three outgoing edges; the pole's single ray may merge
    # with an incoming zero edge during dedup
    per_node = {}
    for e in graph.edges:
        per_node[e.from_node] = per_node.get(e.from_node, 0) + 1
    for i, c in enumerate(graph.nodes):
        if c.at is not None and c.signed_order >= 1:
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
    ends = {frozenset((graph.nodes[e.from_node].at, graph.nodes[e.to_node].at))
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



def _match_exhaustive(n, adj):
    """Reference: backtracking over the smallest free vertex and its
    neighbours in ascending order, the lexicographically first perfect
    matching, or None."""
    pairs = []
    free = set(range(n))

    def rec():
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


def _max_matching_size(free, adj):
    if not free:
        return 0
    i = min(free)
    best = _max_matching_size(free - {i}, adj)
    for j in adj[i]:
        if j in free:
            best = max(best, 1 + _max_matching_size(free - {i, j}, adj))
    return best


def _adjacency(n, edges):
    return [sorted({b if a == i else a for a, b in edges if i in (a, b)})
            for i in range(n)]


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 10))
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_edges), unique=True)) if all_edges else []
    return n, edges


@settings(max_examples=500, deadline=None)
@given(graphs())
def test_match_agrees_with_exhaustive_search(graph):
    n, edges = graph
    adj = _adjacency(n, edges)
    pairs, unmatched = _match(n, adj)
    assert pairs == _match_exhaustive(n, adj)
    if pairs is None:
        # the rest has a perfect matching, and it is a maximum one
        rest = [v for v in range(n) if v not in unmatched]
        assert len(rest) == 2 * _max_matching_size(set(range(n)), adj)
        label = {v: k for k, v in enumerate(rest)}
        sub = [[label[w] for w in adj[v] if w in label] for v in rest]
        assert _match_exhaustive(len(rest), sub) is not None
    else:
        assert unmatched == []


def test_match_three_paths_where_greedy_failed():
    # three paths a-b-c-d; taking each shortest middle edge b-c first, as a
    # greedy matcher by phi-length does, leaves every a and d unmatched
    edges = [(k + i, k + i + 1) for k in (0, 4, 8) for i in range(3)]
    pairs, unmatched = _match(12, _adjacency(12, edges))
    assert pairs == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]
    assert unmatched == []


def test_match_8x8_grid_fast():
    k = 8
    edges = [(x * k + y, (x + dx) * k + y + dy) for x in range(k) for y in range(k)
             for dx, dy in ((1, 0), (0, 1)) if x + dx < k and y + dy < k]
    t0 = time.perf_counter()
    pairs, unmatched = _match(k * k, _adjacency(k * k, edges))
    assert time.perf_counter() - t0 < 1.0
    assert unmatched == [] and len(pairs) == 32
    assert sorted(v for pair in pairs for v in pair) == list(range(64))


def _synthetic_graph(qd, ends):
    """A critical graph on qd's critical points whose short edges join the
    given pairs of zero locations."""
    nodes = critical_points(qd)
    at = {cp.at: i for i, cp in enumerate(nodes)}
    edges = [CriticalEdge(at[a], at[b], np.array([a, b]), 1.0, True, None)
             for a, b in ends]
    return CriticalGraph(nodes, edges, [])


def test_pairing_keeps_parity():
    # zeros 0 (simple), 1 and 2 (double), 3 (simple) joined in a 4-cycle:
    # the first matching over all edges, (0,1), (2,3), pairs a branch point
    # with a double zero; the one with equal parity is (0,3), (1,2)
    qd = qd_from_p_over_q_squared(Polynomial.from_roots([0, 1, 1, 2, 2, 3]), ONE)
    z = [c.location for c in qd.zeros]
    assert [c.multiplicity for c in qd.zeros] == [1, 2, 2, 1]
    g = _synthetic_graph(qd, [(z[0], z[1]), (z[1], z[2]), (z[2], z[3]), (z[0], z[3])])
    pairing = pair_zeros_by_short_trajectories(qd, graph=g)
    assert isinstance(pairing, Pairing)
    assert pairing.pairs == [(0, 3), (1, 2)]
    assert pairing.method == "exhaustive"

    # without the edge 0-3 the simple zeros have no partner
    out = pair_zeros_by_short_trajectories(qd, graph=_synthetic_graph(qd, [
        (z[0], z[1]), (z[1], z[2]), (z[2], z[3])]))
    assert isinstance(out, PairingFailure)
    assert out.unmatched == [0, 3]
    assert out.reason == "no perfect matching over detected short trajectories"

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


# -- the clusters describe phi: the mirror example and affine images --------

# -1e-8 prod_{k=0,1} (z - 4k + 1)(z - 4k + 0.2)^2 (z - 4k - 0.2)^2 (z - 4k - 1)
# as p/q^2 with q = 1 and sign -1, p given by its expanded coefficients
MIRROR_P = Polynomial([
    -6.113318400000001e-08, 9.389076480000007e-08, 3.0580099584000004e-06,
    -4.7682254848000015e-06, -3.8219818214399996e-05, 6.234627072000001e-05,
    -1.949954560000001e-06, -4.506393599999999e-05, 3.4784496e-05,
    -1.2367999999999999e-05, 2.3784e-06, -2.4000000000000003e-07, 1e-08])


def _short_edges(graph):
    """(start, end, phi-length) of each short edge."""
    return [(graph.nodes[e.from_node].at, graph.nodes[e.to_node].at, e.phi_length)
            for e in graph.edges if e.is_short]


@pytest.mark.parametrize("scale", [1, 10])
def test_mirror_example_has_every_short_edge(scale):
    # phi(4 - z) = phi(z), three short edges per cluster. The expanded
    # coefficients have two simple zeros 1.3e-5 apart where the clusters
    # have the double zeros 3.8 and 4.2: phi must be the clusters' for
    # the rays there to arrive
    qd = qd_from_p_over_q_squared(MIRROR_P, ONE, sign=-1)
    opts = TraceOptions.for_qd(qd)
    opts = opts.replace(max_phi_length=scale * opts.max_phi_length,
                        max_steps=scale * opts.max_steps)
    graph = build_critical_graph(qd, opts)
    short = _short_edges(graph)
    assert len(short) == 6 and not graph.unresolved
    assert sum(a.real < 2 for a, _b, _l in short) == 3
    # z -> 4 - z maps the short edges onto themselves, phi-lengths kept
    near = lambda u, v: abs(u - v) < 1e-6
    for a, b, length in short:
        images = [m for c, d, m in short
                  if near(4 - a, c) and near(4 - b, d) or near(4 - a, d) and near(4 - b, c)]
        assert len(images) == 1 and abs(images[0] - length) <= 1e-8 * length


def _compose(p, a, b):
    """p(a z + b), by Horner's rule over polynomials."""
    acc = Polynomial()
    for c in reversed(p.coeffs):
        acc = acc * Polynomial([b, a]) + Polynomial([c])
    return acc


# (constructor, polynomials, p/q^2 sign): 1 - z^2, -1/z^2, winding, mirror
AFFINE_FIXTURES = {
    "segment": ("general", (Polynomial([1.0, 0.0, -1.0]), ONE), 1),
    "circle": ("p_over_q_squared", (ONE, Polynomial([0.0, 1.0])), -1),
    "winding": ("general", (Polynomial([-1.0]), Polynomial([0.5j, 0.0, -0.25 - 2.0j, 0.0, 1.0])), 1),
    "mirror": ("p_over_q_squared", (MIRROR_P, ONE), -1),
}
# The mirror's rays to infinity, a pole of order 16, gain phi-length as
# |z|^7, and a map that turns a corner of the axis-aligned default window
# toward one of them can end it on the default budget inside the window
# (see test_mirror_rays_to_infinity_race_the_budget). At 100 times that
# budget they all leave the window.
AFFINE_BUDGET = {"mirror": 100.0}


def _from_coefficients(name, a=1.0, b=0.0):
    """The pullback a^2 phi(a z + b) of a fixture, whose trajectories are
    the fixture's moved by z -> (z - b) / a, built from its composed
    polynomials as the fixture is."""
    form, (top, bottom), sign = AFFINE_FIXTURES[name]
    top, bottom = _compose(top, a, b) * (a * a), _compose(bottom, a, b)
    if form == "general":
        return qd_new(top, bottom)
    return qd_from_p_over_q_squared(top, bottom, sign)


def _affine_image(name, a=1.0, b=0.0):
    """The pullback of a fixture. The mirror example's is built from its
    clusters moved by z -> (z - b) / a and its lead times a^(2 + 12), and
    keeps its form for the pairing: through its coefficients a complex map
    leaves its double zeros ~1e-7 off, and that breaks the short edges
    between them (see test_mirror_image_from_coefficients)."""
    if name != "mirror":
        return _from_coefficients(name, a, b)
    qd = _from_coefficients(name)
    moved = lambda cs: sorted((RootCluster((c.location - b) / a, c.multiplicity, c.radius / abs(a))
                               for c in cs), key=lambda c: (c.location.real, c.location.imag))
    return QuadraticDifferential(qd.lead * a ** 14, moved(qd.zeros), moved(qd.poles), qd.form)


def _affine_summary(qd, budget=1.0):
    opts = TraceOptions.for_qd(qd)
    graph = build_critical_graph(qd, opts.replace(max_phi_length=budget * opts.max_phi_length))
    pairing = pair_zeros_by_short_trajectories(qd, graph=graph) if qd.form else None
    verdicts = sorted((v.criterion, v.verdict) for v in run_all(qd, graph=graph))
    return graph, pairing, verdicts


_AFFINE_BASE = {}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(AFFINE_FIXTURES)), st.floats(0.5, 2.0),
       st.floats(0.0, 2 * math.pi), st.floats(0.0, 3.0), st.floats(0.0, 2 * math.pi))
def test_affine_images_keep_the_critical_graph(name, r, arg_a, rb, arg_b):
    # the critical graph of a^2 phi(a z + b) is that of phi moved by
    # z -> (z - b) / a: its edges, short phi-lengths, pairing and verdicts
    a, b = r * cmath.exp(1j * arg_a), rb * cmath.exp(1j * arg_b)
    budget = AFFINE_BUDGET.get(name, 1.0)
    if name not in _AFFINE_BASE:
        qd = _affine_image(name)
        _AFFINE_BASE[name] = (qd, *_affine_summary(qd, budget))
    qd, graph, pairing, verdicts = _AFFINE_BASE[name]
    img = _affine_image(name, a, b)
    img_graph, img_pairing, img_verdicts = _affine_summary(img, budget)
    assert len(img_graph.edges) == len(graph.edges)
    lengths = sorted(l for _a, _b, l in _short_edges(graph))
    img_lengths = sorted(l for _a, _b, l in _short_edges(img_graph))
    assert len(img_lengths) == len(lengths)
    assert all(abs(u - v) <= 1e-8 * v for u, v in zip(img_lengths, lengths))
    # zero i of phi is zero at[i] of the image
    at = [min(range(len(img.zeros)), key=lambda j: abs(img.zeros[j].location - (c.location - b) / a))
          for c in qd.zeros]
    assert sorted(at) == list(range(len(img.zeros)))
    assert type(img_pairing) is type(pairing)
    if isinstance(pairing, Pairing):
        assert ({frozenset((at[i], at[j])) for i, j in pairing.pairs}
                == {frozenset(pair) for pair in img_pairing.pairs})
    assert img_verdicts == verdicts


@pytest.mark.xfail(strict=True, reason="poly_roots finds the double zeros of the composed "
                   "coefficients ~4e-7 off, which breaks the short edges between them")
def test_mirror_image_from_coefficients():
    a, b = 0.5 * cmath.exp(2j), -3.0
    graph = build_critical_graph(_from_coefficients("mirror", a, b))
    assert len(_short_edges(graph)) == 6 and not graph.unresolved


@pytest.mark.xfail(strict=True, reason="two rays to infinity end on the phi-length budget "
                   "inside the default window: the window and budget rule of ROADMAP items 2 and 3")
def test_mirror_rays_to_infinity_race_the_budget():
    a, b = 1.9465676292551062 * cmath.exp(1.9465676292551062j), 1.9465676292551062 * cmath.exp(
        1.5922624817599005j)
    graph = build_critical_graph(_affine_image("mirror", a, b))
    assert len(graph.edges) == 22 and not graph.unresolved


@pytest.mark.xfail(strict=True, reason="rays that pass by the simple pole at infinity leave the "
                   "default window and are filed as infinite edges, so the short edge 1 -> -1 "
                   "is lost: infinity as a point of the sphere, ROADMAP item 2")
def test_simple_pole_at_infinity_keeps_the_wide_window_verdict():
    # phi = e^{3i} (z - 1) / (z^2 (z + 1) (z - 2)): infinity is a simple pole,
    # and at +-1e6 the graph holds one short edge, of phi-length 24.55
    qd = qd_new(Polynomial([-1.0, 1.0]) * cmath.exp(3j), Polynomial.from_roots([0.0, 0.0, -1.0, 2.0]))
    opts = TraceOptions.for_qd(qd)
    seen = []
    for o in (opts.replace(window=(-1e6, -1e6, 1e6, 1e6)), opts):
        graph = build_critical_graph(qd, o)
        seen.append((len(_short_edges(graph)), overall_verdict(run_all(qd, o, graph=graph))))
    assert seen == [(1, INCONCLUSIVE)] * 2


@pytest.mark.xfail(strict=True, reason="the dense ray comes within the arrival reach of a simple "
                   "pole and is read as ending there: the arrival reach of ROADMAP item 5")
@pytest.mark.parametrize("seed", [0.2 + 0.3j, -2.0 + 1.0j], ids=["0.2+0.3i", "-2+i"])
def test_dense_winding_probe_is_suspected_recurrent(seed):
    # the winding figure is a pillowcase of irrational period ratio, so every
    # non-critical trajectory is dense; these two end at a pole after 3 and 18 crossings
    qd = fig_winding_qd()
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=200.0)
    assert detect_recurrence(qd, seed, opts).verdict == SUSPECTED_RECURRENT
