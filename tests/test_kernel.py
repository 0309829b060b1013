"""The vectorized branch-continuation kernel against the scalar loops it
replaced, which are kept here as references."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsphere import level, qdiff
from qdsphere.errors import BranchAmbiguity, PathBlocked, PoleOnPath
from qdsphere.geom import meets
from qdsphere.graph import pair_zeros_by_short_trajectories
from qdsphere.polyalg import Polynomial
from qdsphere.qdiff import (
    GL_NODES,
    GL_WEIGHTS,
    PANEL_BLOCK,
    cauchy_qd,
    continue_sqrt,
    continue_sqrt_along,
    measure_density,
    principal_sqrt,
    qd_from_p_over_q_squared,
    qd_new,
    sqrt_panel_integrals,
)
from qdsphere.tracer import TraceOptions, imag_drift_of, trace_horizontal

ONE = Polynomial([1.0])
Z = Polynomial([0.0, 1.0])
INV_Z = qd_new(ONE, Z)            # phi = 1/z: sqrt(phi) changes sheet round 0


# ---------------------------------------------------------------- references


def continue_sqrt_loop(values, hint):
    out = []
    for v in values:
        hint = continue_sqrt(complex(v), hint)
        out.append(hint)
    return out


def imag_drift_reference(qd, ray):
    pts = ray.points
    hint = complex(ray.sqrt_values[0])
    acc = worst = 0.0
    for i in range(len(pts) - 1):
        a, b = complex(pts[i]), complex(pts[i + 1])
        if a == b:
            continue
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        zs = mid + half * GL_NODES
        vals = qd.phi_array(zs)
        seg = 0j
        for k in range(len(zs)):
            hint = continue_sqrt(complex(vals[k]), hint)
            seg += GL_WEIGHTS[k] * hint
        acc += (seg * half).imag
        worst = max(worst, abs(acc))
    return worst


def _panel_reference(phi, a, b, hint, singular, depth):
    """The integral of sqrt(phi) over [a, b], continued and summed node by
    node. phi is qd.phi_array, as the kernel evaluates it: qd.phi divides
    by Python's complex division, an ulp off numpy's at some points, and
    the last root is compared bit for bit."""
    mid = 0.5 * (a + b)
    d = min((abs(mid - s) for s in singular), default=math.inf)
    if abs(b - a) <= 0.4 * d or depth >= 26:
        half = 0.5 * (b - a)
        vals = phi(mid + half * GL_NODES)
        seg = 0j
        for k in range(len(GL_NODES)):
            hint = continue_sqrt(complex(vals[k]), hint)
            seg += GL_WEIGHTS[k] * hint
        return seg * half, hint
    s1, hint = _panel_reference(phi, a, mid, hint, singular, depth + 1)
    s2, hint = _panel_reference(phi, mid, b, hint, singular, depth + 1)
    return s1 + s2, hint


def integrate_reference(phi, path, seed_hint, singular):
    hint, total = seed_hint, 0j
    for a, b in zip(path[:-1], path[1:]):
        if a != b:
            seg, hint = _panel_reference(phi, a, b, hint, singular, 0)
            total += seg
    return total, hint


def panel_integrals_one_path(a, b, radicand, hint=None):
    """One path, its PANEL_BLOCK blocks in turn, each block's sums added to
    the carry by cumsum: the kernel as it was before it took many paths."""
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
        seg = terms[:, 0].copy()
        for k in range(1, len(GL_NODES)):
            seg += terms[:, k]
        running[lo:hi] = np.cumsum(np.concatenate(([carry], seg * half)))[1:]
        carry = running[hi - 1]
    return running, hint


def integrate_per_edge(setup, path, hint):
    """One path through the one-path kernel, as level integrated every edge."""
    a, b = level._leaf_panels(*path, setup.singular)
    if not a:
        return 0j, hint
    running, hint = panel_integrals_one_path(a, b, setup.phi, hint)
    return complex(running[-1]), hint


def nearest_clear_per_point(setup, nodes, usable, z):
    cand = np.flatnonzero(usable)
    order = cand[np.argsort(np.abs(nodes[cand] - z), kind="stable")]
    for block in (order[:1], order[1:]):
        ok = np.flatnonzero(setup.clear(nodes[block], z))
        if len(ok):
            return int(block[ok[0]])
    raise PathBlocked(f"no lattice node has a clear link to {z}")


def continue_over_per_edge(setup, zs):
    """The lattice continuation with one kernel call per edge, from a FIFO
    queue. Returns the level, the branches, the mask and the message of
    every lattice loop that misses, in edge order."""
    flat = zs.ravel()
    masked = ~setup.outside_disks(flat)
    passes = ~masked
    for poly in setup.blocks:
        passes &= ~meets(flat, flat, poly)
    idx = np.arange(flat.size).reshape(zs.shape)
    i = np.concatenate((idx[:, :-1].ravel(), idx[:-1, :].ravel()))
    j = np.concatenate((idx[:, 1:].ravel(), idx[1:, :].ravel()))
    keep = ~masked[i] & ~masked[j] & (passes[i] | passes[j])
    tail = np.where(passes[i], i, j)[keep]
    head = np.where(passes[i], j, i)[keep]
    ok = setup.clear(flat[tail], flat[head])
    tail, head = tail[ok].tolist(), head[ok].tolist()
    nbrs = [[] for _ in range(flat.size)]
    for e, (t, h) in enumerate(zip(tail, head)):
        nbrs[t].append((h, e))
        if passes[h]:
            nbrs[h].append((t, e))
    pts = flat.tolist()
    root = nearest_clear_per_point(setup, flat, passes, setup.probe)
    leg, hint = integrate_per_edge(setup, [setup.base, setup.probe], None)
    step, hint = integrate_per_edge(setup, [setup.probe, pts[root]], hint)
    value = [complex(math.nan, math.nan)] * len(pts)
    branch = list(value)
    value[root], branch[root] = leg + step, hint
    seen = [False] * len(pts)
    seen[root] = True
    in_tree = [False] * len(tail)
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w, e in nbrs[u]:
            if seen[w]:
                continue
            seen[w] = in_tree[e] = True
            step, hint = integrate_per_edge(setup, [pts[u], pts[w]], branch[u])
            value[w] = value[u] + step
            if passes[w]:
                branch[w] = hint
                queue.append(w)
    misses = []
    for t, h, used in zip(tail, head, in_tree):
        if used:
            continue
        step, _ = integrate_per_edge(setup, [pts[t], pts[h]], branch[t])
        want = value[h].imag
        gap = abs((value[t] + step).imag - want)
        if gap > level.GAP_REL_TOL * (1.0 + abs(want)):
            misses.append(f"lattice loop through {pts[t]} -> {pts[h]} misses by {gap:.6e}")
    return np.asarray(value).imag, np.asarray(branch), masked, misses


def measure_density_reference(p, q, r, points):
    """(1/2 pi i) sqrt(q^2 - 4 p r) / p, continued point by point."""
    disc = q * q - (p * r) * 4.0
    vals, hint = [], None
    for z in points:
        hint = continue_sqrt(disc(z), hint)
        vals.append(hint / (2j * math.pi * p(z)))
    mid = vals[len(vals) // 2]
    sign = 1.0 if abs(mid.imag) <= 1e-6 * abs(mid) and mid.real >= -1e-6 * abs(mid) else -1.0
    return [sign * v for v in vals]


# ---------------------------------------------------------------- the sheet test


def nearer_root(v, hint):
    """The distance rule that continue_sqrt's product replaced: the principal
    root unless its negative is strictly nearer the hint."""
    s = principal_sqrt(v)
    return s if abs(s - hint) <= abs(s + hint) else -s


_log_magnitude = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)
# the hint's angle from the root: anywhere, or within 10^-16 .. 1 of a right angle
_turn = st.one_of(
    st.floats(-math.pi, math.pi),
    st.builds(lambda side, sign, e: side * 0.5 * math.pi + sign * 10.0 ** e,
              st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]), st.floats(-16.0, 0.0)))


@settings(max_examples=3000, deadline=None)
@given(_log_magnitude, st.floats(-math.pi, math.pi), _log_magnitude, _turn)
def test_product_rule_is_the_distance_rule_off_right_angles(r, arg_v, rh, turn):
    # |s - h|^2 - |s + h|^2 = -4 Re(s conj(h)): both rules pick the same
    # root wherever the product is clear of the distances' rounding, which is
    # ~1e-16 (|s| + |h|)^2, not |s| |h|: with |h| >> |s| the distances lose s
    # (s = 1, h = -3.16 + 3.16e8 i: the product is -3.16, and both distances
    # round to |h|, so the distance rule keeps s though -s is nearer)
    v = r * complex(math.cos(arg_v), math.sin(arg_v))
    s = principal_sqrt(v)
    h = rh * s / abs(s) * complex(math.cos(turn), math.sin(turn))
    product = (s * h.conjugate()).real
    if abs(product) > 1e-14 * (abs(s) + abs(h)) ** 2:
        assert continue_sqrt(v, h) == nearer_root(v, h)
    if abs(product) > 1e-14 * abs(s) * abs(h):
        # the product's own rounding is ~1e-16 |s| |h|, so its sign is that of
        # the exact Re(s conj(h)), the side of the right angle h lies on
        assert continue_sqrt(v, h) == (s if math.cos(turn) > 0.0 else -s)


lattice = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0])


@settings(max_examples=500, deadline=None)
@given(st.builds(complex, lattice, lattice), st.sampled_from([0.25, -0.5, 1.0, -1.0, 2.0]))
def test_product_rule_keeps_the_principal_root_on_exact_ties(v, t):
    # a zero hint and a hint at an exact right angle, i t s with t a power of
    # two, are ties, where the product is exactly 0 and the principal root
    # stays, as the distance rule keeps it on a zero hint
    s = principal_sqrt(v)
    assert continue_sqrt(v, 0j) == s == nearer_root(v, 0j)
    h = 1j * t * s
    assert (s * h.conjugate()).real == 0.0
    assert continue_sqrt(v, h) == s


# ---------------------------------------------------------------- kernel

# magnitudes bounded so no square root lands in the subnormal range
_coord = st.one_of(st.just(0.0), st.floats(min_value=1e-100, max_value=1e100),
                   st.floats(min_value=-1e100, max_value=-1e-100))
_value = st.builds(complex, _coord, _coord)


# a turn nearly at a right angle, i r (1 + i d), with r = 10^-12 .. 10^12 and
# |d| = 10^-17 .. 10^-6: the distances |s -+ h| may both round to the larger
# of |s| and |h| (s = 1, h = -3.16 + 3.16e8 i), the product keeps its sign
_quarter = st.builds(lambda r, sign, e: 1j * r * complex(1.0, sign * 10.0 ** e),
                     _log_magnitude, st.sampled_from([1.0, -1.0]), st.floats(-17.0, -6.0))
# an exact right turn i t: the flip test is an exact tie, its product 0
_right_scale = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])


@st.composite
def _walks(draw):
    """Sequences mixing random values, small steps, near-antipodal jumps and
    roots turned nearly or exactly through a right angle."""
    n = draw(st.integers(min_value=0, max_value=40))
    vals = []
    for _ in range(n):
        move = draw(st.sampled_from(("fresh", "step", "antipode", "quarter", "tie")))
        if move == "fresh" or not vals:
            vals.append(draw(_value))
        elif move == "step":
            vals.append(vals[-1] * complex(1.0, draw(st.floats(-0.3, 0.3))))
        elif move == "antipode":
            vals.append(-vals[-1] * complex(1.0, draw(st.floats(-1e-12, 1e-12))))
        elif move == "quarter":
            turn = draw(_quarter)
            if (abs(vals[-1]) > 1.0) == (abs(turn) > 1.0):
                turn = 1.0 / turn          # toward |v| = 1, so no run of turns overflows
            vals.append((principal_sqrt(vals[-1]) * turn) ** 2)
        else:
            # s_k = i t s_{k-1}, to the bit
            t = draw(_right_scale)
            vals.append(-t * t * vals[-1])
    return vals


@st.composite
def _hinted_walks(draw):
    """A walk and its hint: none, a random value, or the first root turned
    nearly or exactly through a right angle."""
    vals = draw(_walks())
    kind = draw(st.sampled_from(("none", "value", "quarter", "tie")))
    if kind == "none":
        return vals, None
    if kind == "value":
        return vals, draw(_value)
    s = principal_sqrt(vals[0]) if vals else 1 + 0j
    return vals, s * (draw(_quarter) if kind == "quarter" else 1j * draw(_right_scale))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


@settings(max_examples=200, deadline=None)
@given(_hinted_walks())
def test_continue_sqrt_along_matches_loop(walk):
    values, hint = walk
    got = continue_sqrt_along(np.asarray(values, dtype=complex), hint)
    assert _bits(got) == _bits(continue_sqrt_loop(values, hint))


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 2049])
@pytest.mark.parametrize("hint", [None, -0.3 + 1j])
def test_continue_sqrt_along_lengths(n, hint):
    rng = np.random.default_rng(n)
    # a walk around the origin: the principal root jumps at every crossing
    # of the negative axis, which the continuation must undo
    values = 2.0 * np.exp(1j * np.cumsum(rng.uniform(-0.4, 0.9, n)))
    got = continue_sqrt_along(values, hint)
    assert got.tolist() == continue_sqrt_loop(values, hint)


def test_continue_sqrt_along_exact_tie_uses_sequential_rule():
    # s = 1j against prev 1: |s - 1| == |s + 1|, so the sign depends on more
    # than the parity of the flips
    values = [1.0, -1.0, -1.0 + 1e-3j, 1.0, -1.0 - 1e-3j]
    assert continue_sqrt_along(values, None).tolist() == continue_sqrt_loop(values, None)
    assert continue_sqrt_along(values, -1.0).tolist() == continue_sqrt_loop(values, -1.0)


def test_continue_sqrt_along_loops_a_non_finite_sequence_only(monkeypatch):
    # inf and nan parts decide no flip: their sequence, and only it, goes
    # through continue_sqrt, and every sequence still gets the loop's bits
    seqs = [([1.0, 2.0j, -1.0 + 1e-3j, -1.0 - 1e-3j], None),
            ([1.0, complex(math.inf, 1.0), complex(math.nan, 0.0), -1.0 + 1e-3j,
              complex(-math.inf, math.nan), -1.0 - 1e-3j], 0.5 - 1j),
            ([-1.0 - 1e-3j, 3.0, -2.0 + 1e-3j], -1.0)]
    values = [v for walk, _hint in seqs for v in walk]
    starts = np.cumsum([0] + [len(walk) for walk, _hint in seqs])[:-1].tolist()
    want = [w for walk, hint in seqs for w in continue_sqrt_loop(walk, hint)]
    looped = []
    sequential = qdiff.continue_sqrt
    monkeypatch.setattr(qdiff, "continue_sqrt",
                        lambda v, hint: looped.append(v) or sequential(v, hint))
    with np.errstate(invalid="ignore"):
        got = continue_sqrt_along(values, [hint for _walk, hint in seqs], starts)
    assert _bits(got) == _bits(want)
    assert len(looped) == len(seqs[1][0])


def test_panel_integrals_cross_block_edges():
    # sqrt(1/z) once around |z| = 1.5: the branch flips sign past the
    # negative axis, in the second block, and must stay flipped in the third
    n = 2 * PANEL_BLOCK + 3
    pts = 1.5 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n + 1))
    running, [hint] = sqrt_panel_integrals(pts[:-1], pts[1:], INV_Z.phi_array)
    ref_hint, acc = None, 0j
    for k, (a, b) in enumerate(zip(pts[:-1], pts[1:])):
        seg, ref_hint = _panel_reference(INV_Z.phi_array, complex(a), complex(b), ref_hint,
                                         [], 26)
        acc += seg
        assert abs(running[k] - acc) <= 1e-14 * (1.0 + abs(acc))
    assert hint == ref_hint
    # the integral of z^(-1/2) dz from 1.5 round to 1.5 e^(2 pi i)
    assert running[-1] == pytest.approx(-4.0 * math.sqrt(1.5), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(_hinted_walks(), max_size=5))
def test_continue_sqrt_along_of_many_sequences_matches_one_call_each(seqs):
    values = np.asarray([v for walk, _hint in seqs for v in walk], dtype=complex)
    starts = np.cumsum([0] + [len(walk) for walk, _hint in seqs])[:-1].tolist()
    hints = [hint for _walk, hint in seqs]
    got = continue_sqrt_along(values, hints, starts)
    for (walk, hint), lo in zip(seqs, starts):
        want = continue_sqrt_along(np.asarray(walk, dtype=complex), hint)
        assert _bits(got[lo:lo + len(walk)]) == _bits(want)
    if len(values):
        # values before the first start would belong to no sequence
        with pytest.raises(ValueError):
            continue_sqrt_along(values, hints, [lo + 1 for lo in starts])


INTEGRANDS = {"sqrt(1/z)": INV_Z.phi_array,
              "sqrt(1-z^2)": Polynomial([1.0, 0.0, -1.0]).eval_array}


def _arc(n, r, t0, sweep):
    """n panels along an arc about the origin: sqrt(1/z) changes sheet
    where the arc crosses the negative axis."""
    pts = r * np.exp(1j * (t0 + sweep * np.arange(n + 1) / max(n, 1)))
    return pts[:-1], pts[1:]


def _check_paths_one_call_each(paths, integrand):
    """One multi-path call, and one call per path, give each path the bits
    of the one-path kernel; the kernel hands the radicand the nodes of the
    panels in order over its blocks."""
    radicand = INTEGRANDS[integrand]
    none = [np.empty(0, dtype=complex)]
    a = np.concatenate(none + [pa for pa, _pb, _hint in paths])
    b = np.concatenate(none + [pb for _pa, pb, _hint in paths])
    starts = np.cumsum([0] + [len(pa) for pa, _pb, _hint in paths])[:-1].tolist()
    seen = []
    running, lasts = sqrt_panel_integrals(a, b, lambda z: seen.append(z) or radicand(z),
                                          [hint for _pa, _pb, hint in paths], starts)
    if len(a):
        # each node is mid + half x of its own panel
        panel = np.repeat(np.arange(len(a)), len(GL_NODES))
        mid, half = 0.5 * (a[panel] + b[panel]), 0.5 * (b[panel] - a[panel])
        z = np.concatenate(seen)
        assert _bits(z) == _bits(mid + half * np.tile(GL_NODES, len(a)))
    assert len(lasts) == len(paths)
    for (pa, pb, hint), lo, last in zip(paths, starts, lasts):
        want, want_last = panel_integrals_one_path(pa, pb, radicand, hint)
        alone, [alone_last] = sqrt_panel_integrals(pa, pb, radicand, [hint])
        for got, got_last in ((running[lo:lo + len(pa)], last), (alone, alone_last)):
            assert _bits(got) == _bits(want)
            assert (got_last is None and want_last is None) or _bits(got_last) == _bits(want_last)


@st.composite
def _paths(draw):
    n = draw(st.sampled_from([0, 1, 2, 7, PANEL_BLOCK - 1, PANEL_BLOCK + 3]))
    pa, pb = _arc(n, draw(st.floats(0.5, 3.0)), draw(st.floats(-math.pi, math.pi)),
                  draw(st.floats(-2.0 * math.pi, 2.0 * math.pi)))
    hint = draw(st.one_of(st.none(), st.builds(complex, st.floats(-2.0, 2.0),
                                               st.floats(-2.0, 2.0))))
    return pa, pb, hint


@settings(max_examples=60, deadline=None)
@given(st.lists(_paths(), max_size=5), st.sampled_from(sorted(INTEGRANDS)))
def test_panel_integrals_of_many_paths_match_one_call_each(paths, integrand):
    _check_paths_one_call_each(paths, integrand)


def test_panel_integrals_tie_falls_back_for_its_path_only(monkeypatch):
    # four arcs of sqrt(1/z) across the negative axis: one with no hint, one
    # empty, one over a block boundary, and one whose hint is orthogonal to
    # its first root, an exact tie that only the loop can decide
    tied = _arc(3, 1.5, 2.5, 1.5)
    first = complex(0.5 * (tied[0][0] + tied[1][0]) + 0.5 * (tied[1][0] - tied[0][0]) * GL_NODES[0])
    paths = [(*_arc(5, 1.0, 2.0, 2.5), None),
             (*_arc(0, 1.0, 0.0, 1.0), 0.5 - 1j),
             (*_arc(PANEL_BLOCK + 3, 2.0, -3.0, -4.0), -0.3 + 1j),
             (*tied, 1j * principal_sqrt(INV_Z.phi(first)))]
    looped = []
    sequential = qdiff.continue_sqrt
    monkeypatch.setattr(qdiff, "continue_sqrt",
                        lambda v, hint: looped.append(v) or sequential(v, hint))
    _check_paths_one_call_each(paths, "sqrt(1/z)")
    # the multi-path call, the tied path's own call and the one-path kernel
    # loop over its nodes only
    assert len(looped) == 3 * 3 * len(GL_NODES)


def test_panel_integrals_first_path_starts_at_panel_zero():
    with pytest.raises(ValueError):
        sqrt_panel_integrals([0.5, 1.0], [1.0, 2.0], ONE.eval_array, [None, None], [1, 2])
    with pytest.raises(ValueError):
        sqrt_panel_integrals([0.5], [1.0], ONE.eval_array, [], [])
    running, lasts = sqrt_panel_integrals([], [], ONE.eval_array, [], [])
    assert len(running) == 0 and lasts == []


def test_panel_integrals_node_on_pole_raises():
    # phi = 1/(z - x3), x3 the fourth node of the panel [-1, 1]
    qd = qd_new(ONE, Polynomial([-GL_NODES[3], 1.0]))
    assert qd.poles[0].location == GL_NODES[3]
    with pytest.raises(PoleOnPath):
        sqrt_panel_integrals([-1.0], [1.0], qd.phi_array)


@pytest.mark.parametrize("count, n", [(1, 2 * PANEL_BLOCK + 3), (PANEL_BLOCK + 5, 3)],
                         ids=["one_long_path", "many_short_paths"])
def test_panel_integrals_hand_the_radicand_one_block_at_a_time(count, n):
    # the numpy temporaries of a call stay bounded by PANEL_BLOCK, however
    # many panels its paths hold in all
    arcs = [_arc(n, 1.5, 0.01 * k, 1.0) for k in range(count)]
    a = np.concatenate([pa for pa, _pb in arcs])
    b = np.concatenate([pb for _pa, pb in arcs])
    sizes = []

    def radicand(z):
        sizes.append(len(z))
        return INV_Z.phi_array(z)

    running, lasts = sqrt_panel_integrals(a, b, radicand, [None] * count,
                                          list(range(0, count * n, n)))
    assert len(running) == len(lasts) * n == count * n
    assert max(sizes) <= len(GL_NODES) * PANEL_BLOCK
    assert sum(sizes) == len(GL_NODES) * count * n


# ---------------------------------------------------------------- callers


def _fixture_rays():
    winding = qd_new(Polynomial([-1.0]), Polynomial([0.5j, 0.0, -0.25 - 2j, 0.0, 1.0]))
    circle = qd_from_p_over_q_squared(ONE, Z, sign=-1)
    segment = qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)
    return [
        (winding, trace_horizontal(winding, 1.0, 1,
                                   TraceOptions.for_qd(winding, max_phi_length=200.0))),
        (circle, trace_horizontal(circle, 1.0)),
        (circle, trace_horizontal(circle, 0.3 - 2.0j, -1)),
        (segment, trace_horizontal(segment, 0.3 + 0.5j)),
        (segment, trace_horizontal(segment, -2.0 + 0.1j, -1)),
    ]


def test_imag_drift_matches_scalar_reference():
    for qd, ray in _fixture_rays():
        assert abs(imag_drift_of(qd, ray) - imag_drift_reference(qd, ray)) <= 1e-14


@pytest.mark.parametrize("p", [[1.0, 0.0, -1.0], [4.0, 0.0, -1.0]],
                         ids=["1-z^2", "-(z^2-4)"])
def test_level_grid_matches_scalar_panels(p, monkeypatch):
    qd = qd_from_p_over_q_squared(Polynomial(p), ONE)
    pairing = pair_zeros_by_short_trajectories(qd)
    window = (-3.0, -2.5, 3.0, 2.5)       # no sample on a zero or on the cut
    got = level.level_grid(qd, pairing, window, 6).grid
    # every leg of every batch, lattice edges included, by the scalar panels
    monkeypatch.setattr(level, "_integrate", lambda radicand, legs, singular: [
        integrate_reference(qd.phi_array, [a, b], hint, singular) for a, b, hint in legs])
    want = level.level_grid(qd, pairing, window, 6).grid
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_measure_density_matches_scalar_reference():
    triple = (ONE, Polynomial([0.0, -1.0]), ONE)
    pts = list(np.linspace(-2.0, 2.0, 41) + 1e-3j)
    got = measure_density(cauchy_qd(*triple), pts)
    want = measure_density_reference(*triple, pts)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15


@pytest.mark.parametrize("p, window, n", [([1.0, 0.0, -1.0], (-3.0, -2.5, 3.0, 2.5), 6),
                                          ([1.0, 0.0, -1.0], (-3.0, -3.0, 3.0, 3.0), 17),
                                          ([4.0, 0.0, -1.0], (-4.3, -3.1, 4.2, 3.7), 12)])
def test_continue_over_by_layers_matches_per_edge_loop(p, window, n):
    qd = qd_from_p_over_q_squared(Polynomial(p), ONE)
    setup = level._setup(qd, pair_zeros_by_short_trajectories(qd))
    zs = level._lattice(window, n)
    value, branch, masked, misses = continue_over_per_edge(setup, zs)
    assert misses == []
    got_value, got_branch, got_masked = setup.continue_over(zs)
    assert got_value.tobytes() == value.tobytes()
    assert got_branch.tobytes() == branch.tobytes()
    assert np.array_equal(got_masked, masked)


def test_two_failing_loops_name_the_per_edge_first(monkeypatch):
    # no cuts: the lattice loops round the zero at 1 flip the branch
    qd = qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)
    setup = level._LevelSetup(qd, complex(qd.zeros[0].location), [])
    zs = level._lattice((0.2, -1.3, 1.7, 1.1), 4)
    value, branch, _masked, misses = continue_over_per_edge(setup, zs)
    assert len(misses) == 2
    with pytest.raises(BranchAmbiguity) as err:
        setup.continue_over(zs)
    assert str(err.value) == misses[0]
    # with the loop test lifted, the layers give the per-edge values and branches
    monkeypatch.setattr(level, "GAP_REL_TOL", math.inf)
    got_value, got_branch, _ = setup.continue_over(zs)
    assert got_value.tobytes() == value.tobytes()
    assert got_branch.tobytes() == branch.tobytes()


def test_links_of_many_points_match_one_link_each():
    # the lattice rows miss the cut [-1, 1] asymmetrically, so points just
    # above it have their nearest node below it, across the cut
    qd = qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)
    field = level.level_grid(qd, pair_zeros_by_short_trajectories(qd), (-3.0, -2.2, 3.0, 2.8), 6)
    setup, nodes = field.setup, field.lattice.ravel()
    level_values, branch = field.grid.ravel(), field.branch.ravel()
    zs = np.array([0.6 + 0.1j, -0.6 + 0.05j, 0.3 + 0.1j, 2.0 - 1.0j, -2.5 + 2.0j, 0.6 - 0.1j])
    usable = ~np.isnan(branch)
    cand = np.flatnonzero(usable)
    nearest = cand[np.argmin(np.abs(nodes[cand] - zs[:, None]), axis=1)]
    assert setup.clear(nodes[nearest], zs).tolist() == [False] * 3 + [True] * 3
    want = []
    for z in zs.tolist():
        k = nearest_clear_per_point(setup, nodes, usable, z)
        step, _ = integrate_per_edge(setup, [complex(nodes[k]), z], complex(branch[k]))
        want.append(float(level_values[k] + step.imag))
    assert setup.linked(nodes, level_values, branch, zs).tobytes() == np.array(want).tobytes()


def test_zero_length_leg_keeps_its_hint():
    qd = qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)
    setup = level._setup(qd, pair_zeros_by_short_trajectories(qd))
    z, hint = 0.5 + 0.5j, 0.3 - 0.7j
    assert level._leaf_panels(z, z, setup.singular) == ([], [])
    legs = [(z, z, hint), (z, 1.5 + 0.5j, hint), (1.5 + 0.5j, 1.5 + 0.5j, None)]
    got = level._integrate(setup.phi, legs, setup.singular)
    assert got[0] == (0j, hint) and got[2] == (0j, None)
    assert got[1] == integrate_per_edge(setup, [z, 1.5 + 0.5j], hint)


def test_link_from_a_lattice_node_to_itself_reads_its_level():
    qd = qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)
    field = level.level_grid(qd, pair_zeros_by_short_trajectories(qd), (-3.0, -2.2, 3.0, 2.8), 6)
    nodes, level_values, branch = field.lattice.ravel(), field.grid.ravel(), field.branch.ravel()
    usable = ~np.isnan(branch)
    got = field.setup.linked(nodes, level_values, branch, nodes[usable])
    assert got.tobytes() == level_values[usable].tobytes()
