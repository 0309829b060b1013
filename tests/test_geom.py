"""The array geometry kernel and the array-classified marching squares
against the scalar loops they replaced, which are kept here as references."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsphere import contour, geom, graph, level
from qdsphere.contour import marching_squares
from qdsphere.graph import detect_recurrence, pair_zeros_by_short_trajectories
from qdsphere.polyalg import Polynomial
from qdsphere.qdiff import qd_from_p_over_q_squared, qd_new
from qdsphere.tracer import SEED_FACTOR, TraceOptions, trace_horizontal, trace_vertical

ONE = Polynomial([1.0])


# ---------------------------------------------------------------- references


def _cross(o, a, b):
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def _proper_crossing(a, b, c, d) -> bool:
    d1 = _cross(c, d, a)
    d2 = _cross(c, d, b)
    d3 = _cross(a, b, c)
    d4 = _cross(a, b, d)
    return d1 * d2 < 0.0 and d3 * d4 < 0.0


def proper_crossings_loop(a, b, poly):
    """Crossing parameters in segment order, one pair at a time."""
    ts = []
    for j in range(len(poly) - 1):
        c0, c1 = complex(poly[j]), complex(poly[j + 1])
        if _proper_crossing(a, b, c0, c1):
            num_t = _cross(c0, c1, a)
            den_t = _cross(c0, c1, a) - _cross(c0, c1, b)
            ts.append(num_t / den_t if den_t != 0 else 0.5)
    return np.asarray(ts, dtype=float)


def crossing_counts_loop(a, b, poly):
    return np.asarray([len(proper_crossings_loop(complex(p), complex(q), poly))
                       for p, q in zip(a, b)], dtype=np.int64)


def count_crossings_reference(path, transversal, z0, exclude_radius):
    if len(path) < 2 or len(transversal) < 2:
        return 0
    A, B = path[:-1], path[1:]
    keep = np.minimum(np.abs(A - z0), np.abs(B - z0)) > exclude_radius
    tx0, tx1 = transversal.real.min(), transversal.real.max()
    ty0, ty1 = transversal.imag.min(), transversal.imag.max()
    keep &= (np.minimum(A.real, B.real) <= tx1) & (np.maximum(A.real, B.real) >= tx0)
    keep &= (np.minimum(A.imag, B.imag) <= ty1) & (np.maximum(A.imag, B.imag) >= ty0)
    return sum(_proper_crossing(complex(a), complex(b), complex(c), complex(d))
               for a, b in zip(A[keep], B[keep])
               for c, d in zip(transversal[:-1], transversal[1:]))


def marching_squares_loop(xs, ys, field, level):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    f = np.asarray(field, dtype=float)
    ny, nx = f.shape
    segs = []
    for iy in range(ny - 1):
        for ix in range(nx - 1):
            v = (f[iy, ix], f[iy, ix + 1], f[iy + 1, ix + 1], f[iy + 1, ix])
            if not all(np.isfinite(c) for c in v):
                continue
            mask = sum(1 << k for k in range(4) if v[k] >= level)
            if mask in (0, 15):
                continue
            x0, x1 = xs[ix], xs[ix + 1]
            y0, y1 = ys[iy], ys[iy + 1]
            pts = {}
            if (mask & 1) != (mask >> 1 & 1):
                pts["b"] = (("h", ix, iy), contour._interp(x0, y0, v[0], x1, y0, v[1], level))
            if (mask >> 1 & 1) != (mask >> 2 & 1):
                pts["r"] = (("v", ix + 1, iy), contour._interp(x1, y0, v[1], x1, y1, v[2], level))
            if (mask >> 3 & 1) != (mask >> 2 & 1):
                pts["t"] = (("h", ix, iy + 1), contour._interp(x0, y1, v[3], x1, y1, v[2], level))
            if (mask & 1) != (mask >> 3 & 1):
                pts["l"] = (("v", ix, iy), contour._interp(x0, y0, v[0], x0, y1, v[3], level))
            ks = sorted(pts.keys())
            if len(ks) == 2:
                a, b = pts[ks[0]], pts[ks[1]]
                segs.append((a[0], a[1], b[0], b[1]))
            elif len(ks) == 4:
                center = 0.25 * sum(v)
                if (center >= level) == bool(mask & 1):
                    pairs = (("b", "r"), ("t", "l"))
                else:
                    pairs = (("b", "l"), ("t", "r"))
                for ka, kb in pairs:
                    a, b = pts[ka], pts[kb]
                    segs.append((a[0], a[1], b[0], b[1]))
    return contour._chain(segs)


# ---------------------------------------------------------------- crossing kernel

# a coarse lattice makes touching, collinear and shared-endpoint pairs common
lattice = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
jittered = st.builds(complex, st.floats(-3, 3, allow_nan=False),
                     st.floats(-3, 3, allow_nan=False))
points = st.one_of(lattice, jittered)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(points, points), min_size=0, max_size=10),
       st.lists(points, min_size=0, max_size=10))
def test_crossing_counts_match_scalar_loop(segments, poly):
    a = np.asarray([s[0] for s in segments], dtype=complex)
    b = np.asarray([s[1] for s in segments], dtype=complex)
    poly = np.asarray(poly, dtype=complex)
    assert np.array_equal(geom.crossing_counts(a, b, poly),
                          crossing_counts_loop(a, b, poly))


@pytest.mark.parametrize("a,b,poly", [
    (0j, 2 + 0j, [1 + 0j, 1 + 1j]),             # touching: endpoint on the segment
    (0j, 2 + 0j, [1 - 1j, 1 + 0j, 1 + 1j]),     # vertex on the segment
    (0j, 2 + 0j, [1 + 0j, 3 + 0j]),             # collinear, overlapping
    (0j, 2 + 0j, [2 + 0j, 3 + 1j]),             # shared endpoint
    (0j, 2 + 0j, [0j, 2 + 0j]),                 # the same segment
    (0j, 2 + 0j, [2 + 1j, 3 - 1j]),             # beyond the end
], ids=["touching", "vertex", "collinear", "shared-end", "same", "beyond"])
def test_degenerate_contacts_are_not_proper(a, b, poly):
    poly = np.asarray(poly, dtype=complex)
    assert geom.crossing_counts(np.asarray([a]), np.asarray([b]), poly)[0] == 0


def test_crossing_counts_across_blocks(monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.normal(size=300) + 1j * rng.normal(size=300)
    b = rng.normal(size=300) + 1j * rng.normal(size=300)
    poly = rng.normal(size=40) + 1j * rng.normal(size=40)
    whole = geom.crossing_counts(a, b, poly)
    monkeypatch.setattr(geom, "CROSSING_BLOCK", 100)   # 2 rows per block
    assert np.array_equal(geom.crossing_counts(a, b, poly), whole)
    assert np.array_equal(whole, crossing_counts_loop(a, b, poly))


# ---------------------------------------------------------------- meeting test


def _exact(z):
    return Fraction(z.real), Fraction(z.imag)


def _xcross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _meets_exact(a, b, c, d) -> bool:
    """Whether the segment a -> b meets the segment c -> d at a point other
    than b (a zero-length a -> b: whether a lies on c -> d), in rational
    arithmetic from the parametric forms a + t (b - a) and c + s (d - c)."""
    a, b, c, d = map(_exact, (a, b, c, d))
    sub = lambda u, v: (u[0] - v[0], u[1] - v[1])
    r, e, ca = sub(b, a), sub(d, c), sub(c, a)
    if r == (0, 0):
        if e == (0, 0):
            return a == c
        s = ((a[0] - c[0]) * e[0] + (a[1] - c[1]) * e[1]) / (e[0] ** 2 + e[1] ** 2)
        return _xcross(e, sub(a, c)) == 0 and 0 <= s <= 1
    den = _xcross(r, e)
    if den != 0:
        t, s = _xcross(ca, e) / den, _xcross(ca, r) / den
        return 0 <= t < 1 and 0 <= s <= 1
    if _xcross(ca, r) != 0:
        return False                       # parallel lines
    rr = r[0] ** 2 + r[1] ** 2
    tc = (ca[0] * r[0] + ca[1] * r[1]) / rr
    td = ((d[0] - a[0]) * r[0] + (d[1] - a[1]) * r[1]) / rr
    return min(tc, td) < 1 and max(tc, td) >= 0


def meets_exact(a, b, poly) -> bool:
    return any(_meets_exact(a, b, complex(c), complex(d)) for c, d in zip(poly[:-1], poly[1:]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(lattice, lattice), min_size=1, max_size=8),
       st.lists(lattice, min_size=1, max_size=8))
def test_meets_matches_exact_oracle_on_lattice(segments, poly):
    # integer coordinates keep every orientation product exact, so the
    # float test must agree with the rational one on every degenerate contact
    a = np.asarray([s[0] for s in segments], dtype=complex)
    b = np.asarray([s[1] for s in segments], dtype=complex)
    poly = np.asarray(poly, dtype=complex)
    want = [meets_exact(complex(p), complex(q), poly) for p, q in zip(a, b)]
    assert geom.meets(a, b, poly).tolist() == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(points, points), min_size=1, max_size=8),
       st.lists(points, min_size=1, max_size=8))
def test_meets_includes_every_proper_crossing(segments, poly):
    a = np.asarray([s[0] for s in segments], dtype=complex)
    b = np.asarray([s[1] for s in segments], dtype=complex)
    poly = np.asarray(poly, dtype=complex)
    assert np.all(geom.meets(a, b, poly) | (geom.crossing_counts(a, b, poly) == 0))


@pytest.mark.parametrize("a,b,poly,want", [
    (0j, 2 + 0j, [1 + 0j, 1 + 1j], True),            # touching
    (0j, 2 + 0j, [1 - 1j, 1 + 0j, 1 + 1j], True),     # vertex on the segment
    (0j, 2 + 0j, [1 + 0j, 3 + 0j], True),             # collinear, overlapping
    (0j, 2 + 0j, [2 + 0j, 3 + 1j], False),            # only at the end b
    (0j, 2 + 0j, [-1 + 0j, 1 + 1j], False),           # beyond the start
    (0j, 2 + 0j, [2 - 1j, 2 + 1j], False),            # crosses through b only
    (0j, 2 + 0j, [1 + 0j, 1 + 0j], True),             # a one-point polyline on it
    (1 + 0j, 1 + 0j, [0j, 2 + 0j], True),             # a point on the polyline
], ids=["touching", "vertex", "collinear", "end-b", "before-a", "through-b",
        "point", "zero-length"])
def test_meets_degenerate_contacts(a, b, poly, want):
    assert geom.meets(np.asarray([a]), np.asarray([b]), np.asarray(poly)).tolist() == [want]


def test_meets_across_blocks(monkeypatch):
    rng = np.random.default_rng(6)
    a = rng.normal(size=300) + 1j * rng.normal(size=300)
    b = rng.normal(size=300) + 1j * rng.normal(size=300)
    poly = rng.normal(size=40) + 1j * rng.normal(size=40)
    whole = geom.meets(a, b, poly)
    monkeypatch.setattr(geom, "CROSSING_BLOCK", 100)
    assert np.array_equal(geom.meets(a, b, poly), whole)


# ---------------------------------------------------------------- reach test

# the polyline's box is [0, 2] x [-1, 1]; the segments lie wholly beyond each of its
# sides, touch it only at the extreme vertex 2 - i, or cross it
REACH_POLY = [0j, 1 + 1j, 2 - 1j]
REACH_SEGMENTS = [(3 + 0j, 4 + 1j), (-1 + 0j, -2 - 1j), (1 + 2j, 2 + 3j), (1 - 2j, 0 - 3j),
                  (3 - 3j, -1 - 2j), (2 - 1j, 3 - 2j), (-1 + 0.5j, 3 + 0.5j)]
ZERO_LENGTH = [(z, z) for z in (0j, 1 + 1j, 1.5 + 0j, 0.5 + 0.5j, 1 + 0j, 5 + 5j)]


@pytest.mark.parametrize("segments, poly", [
    (REACH_SEGMENTS, REACH_POLY),
    (REACH_SEGMENTS, []),
    (REACH_SEGMENTS, [2 - 1j, 2 - 1j]),
    (ZERO_LENGTH, REACH_POLY),
    (ZERO_LENGTH, [1 + 1j, 1 + 1j]),
], ids=["outside-and-touching", "empty", "one-point", "zero-length", "zero-length-one-point"])
def test_reach_test_matches_scalar_references(segments, poly):
    a = np.asarray([s[0] for s in segments], dtype=complex)
    b = np.asarray([s[1] for s in segments], dtype=complex)
    poly = np.asarray(poly, dtype=complex)
    assert np.array_equal(geom.crossing_counts(a, b, poly), crossing_counts_loop(a, b, poly))
    assert geom.meets(a, b, poly).tolist() == [meets_exact(complex(p), complex(q), poly)
                                               for p, q in zip(a, b)]


def test_reach_test_skips_only_what_cannot_meet():
    # the segment from the vertex 2 - i meets the polyline there, where its box
    # touches the polyline's, and crosses nothing
    a, b = (np.asarray(v) for v in zip(*REACH_SEGMENTS))
    poly = np.asarray(REACH_POLY)
    assert geom.meets(a, b, poly).tolist() == [False] * 5 + [True, True]
    assert geom.crossing_counts(a, b, poly).tolist() == [0] * 6 + [2]


# ---------------------------------------------------------------- callers


def test_count_crossings_matches_reference_on_fixture_rays():
    winding = qd_new(Polynomial([-1.0]), Polynomial([0.5j, 0.0, -0.25 - 2.0j, 0.0, 1.0]))
    circle = qd_from_p_over_q_squared(ONE, Polynomial([0.0, 1.0]), sign=-1)
    segment = qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)
    cases = [(winding, 1.0 + 0.0j), (circle, 1.0 + 0j), (segment, 0.3 + 0.5j)]
    for qd, z0 in cases:
        opts = TraceOptions.for_qd(qd)
        rep = detect_recurrence(qd, z0, opts)
        # the probe's transversal; its short verticals stay far inside the
        # window, which the probe widens when infinity is regular
        topts = opts.replace(max_phi_length=graph.TRANSVERSAL_FACTOR * qd.diameter())
        up, dn = (trace_vertical(qd, z0, o, topts) for o in (1, -1))
        transversal = np.concatenate([dn.points[::-1], up.points[1:]])
        r = SEED_FACTOR * opts.snap_radius
        want = count_crossings_reference(rep.ray.points, transversal, z0, r)
        assert rep.crossings == want


def _level_run(qd, pairing, window, n, rays):
    field = level.level_grid(qd, pairing, window, n)
    return field, level.verify_level(field, rays)


@pytest.mark.parametrize("p", [[1.0, 0.0, -1.0], [4.0, 0.0, -1.0]],
                         ids=["1-z^2", "-(z^2-4)"])
def test_level_matches_scalar_crossing_test(p, monkeypatch):
    qd = qd_from_p_over_q_squared(Polynomial(p), ONE)
    pairing = pair_zeros_by_short_trajectories(qd)
    window = (-3.0, -2.5, 3.0, 2.5)
    rays = [trace_horizontal(qd, 0.3 + 0.5j), trace_horizontal(qd, -2.0 + 0.1j, -1)]
    field, report = _level_run(qd, pairing, window, 9, rays)
    monkeypatch.setattr(level, "crossing_counts", crossing_counts_loop)
    want_field, want_report = _level_run(qd, pairing, window, 9, rays)
    assert np.array_equal(field.grid, want_field.grid)
    assert np.array_equal(field.undefined_mask, want_field.undefined_mask)
    assert report == want_report


# ---------------------------------------------------------------- marching squares


def _same_polylines(got, want):
    return len(got) == len(want) and all(
        np.array_equal(g, w) for g, w in zip(got, want))


cell_values = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, np.nan, np.inf, -np.inf])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_marching_squares_matches_loop_on_small_fields(ny, nx, data):
    # values exactly at the level, non-finite holes and saddles are all common
    f = np.asarray(data.draw(st.lists(cell_values, min_size=ny * nx, max_size=ny * nx)))
    f = f.reshape(ny, nx)
    xs = np.linspace(-1.0, 2.0, nx)
    ys = np.linspace(0.5, 1.5, ny)
    for lev in (0.5, 0.0):
        assert _same_polylines(marching_squares(xs, ys, f, lev),
                               marching_squares_loop(xs, ys, f, lev))


@pytest.mark.parametrize("shape", [(40, 40), (1, 30), (30, 1), (17, 33)])
def test_marching_squares_matches_loop_on_random_fields(shape):
    rng = np.random.default_rng(11)
    ny, nx = shape
    xs = np.linspace(-2.0, 2.0, nx)
    ys = np.linspace(-1.0, 1.0, ny)
    f = np.sin(3 * xs[None, :]) * np.cos(4 * ys[:, None]) + 0.1 * rng.normal(size=shape)
    f[rng.random(shape) < 0.05] = np.nan
    f[rng.random(shape) < 0.02] = np.inf
    f[rng.random(shape) < 0.05] = 0.25            # exactly at the level
    got = marching_squares(xs, ys, f, 0.25)
    assert _same_polylines(got, marching_squares_loop(xs, ys, f, 0.25))
    if min(shape) > 1:
        assert got


# ---------------------------------------------------------------- distances


def test_point_segment_and_polyline_distances_agree():
    rng = np.random.default_rng(3)
    pts = lambda n: rng.normal(size=n) + 1j * rng.normal(size=n)
    for _ in range(500):
        p, a, b = pts(3)
        if rng.uniform() < 0.1:
            b = a                                  # a degenerate segment
        d = geom.point_segment_distance(p, a, b)
        assert geom.segment_distances(p, np.array([a]), np.array([b]))[0] == pytest.approx(d, rel=1e-14)
        # the foot of the perpendicular, or an end, is no farther than either end
        assert d <= min(abs(p - a), abs(p - b)) * (1.0 + 1e-15)
    poly = pts(30)
    for p in pts(50):
        want = min(geom.point_segment_distance(p, a, b) for a, b in zip(poly[:-1], poly[1:]))
        assert geom.segment_distances(p, poly[:-1], poly[1:]).min() == pytest.approx(want, rel=1e-14)
