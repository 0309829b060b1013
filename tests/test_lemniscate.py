import cmath
import math

import numpy as np
import pytest

from qdsphere.contour import marching_squares
from qdsphere.errors import ConvergenceFailure, EmptyLevel
from qdsphere.lemniscate import analyze_lemniscate, lemniscate_level_curve
from qdsphere.polyalg import Polynomial
from qdsphere.qdiff import QuadraticDifferential, lemniscate_qd
from qdsphere.svg import WIDTH

ONE = Polynomial([1.0])
Z2M1 = Polynomial([-1.0, 0.0, 1.0])     # z^2 - 1


def r_of(p, q, z):
    return p.eval_array(z) / q.eval_array(z)


def turns(values) -> float:
    """Net turns of a polyline of nonzero complex values about 0."""
    return float(np.angle(values[1:] / values[:-1]).sum() / (2 * math.pi))


def assert_on_level(p, q, c, curves):
    # the oracle: |r| at every vertex, by polynomial evaluation alone
    for poly in curves:
        assert np.max(np.abs(np.abs(r_of(p, q, poly)) - c)) <= 1e-8 * c


def assert_closed_components(p, q, curves, sites, enclosed):
    """Each polyline is closed, its phi-length |d arg r| summed over it is
    2 pi k with k the net count of zeros (+) and poles (-) of r it encloses,
    by the polygon's own winding about each site, and the sets of sites the
    polylines enclose are the expected ones, each once."""
    got = []
    for poly in curves:
        assert abs(poly[0] - poly[-1]) < 1e-8
        inside = [a for a, m in sites if abs(turns(poly - a)) > 0.5]
        k = sum(m for a, m in sites if a in inside)
        assert abs(turns(r_of(p, q, poly))) == pytest.approx(abs(k), abs=1e-9)
        got.append(sorted(inside))
    assert sorted(got) == sorted(sorted(e) for e in enclosed)


def test_report_bernoulli():
    rep = analyze_lemniscate(Z2M1, ONE, samples=20)
    # r = z^2 - 1: critical point of r'/r at 0, level |r(0)| = 1
    assert len(rep.finite_critical_points) == 1
    assert abs(rep.finite_critical_points[0]) < 1e-9
    assert rep.critical_levels == pytest.approx([1.0], rel=1e-12)
    # double poles of phi at the roots +-1 with residue -1, plus infinity
    finite = {(round(loc.real), round(loc.imag)): qr
              for loc, qr in rep.double_poles if loc is not None}
    assert set(finite) == {(-1, 0), (1, 0)}
    for qr in finite.values():
        assert qr == pytest.approx(-1.0, rel=1e-9)
    inf = [qr for loc, qr in rep.double_poles if loc is None]
    assert inf == [pytest.approx(-4.0, rel=1e-9)]


@pytest.mark.parametrize("turn, circular", [(5e-9, False), (5e-11, True)])
def test_double_poles_are_circular_to_angular_tol(turn, circular):
    # the lead of z^2 - 1's differential turned by e^(i turn) turns every
    # quadratic residue by it: -1 and -4 read Spiral past ANGULAR_TOL (1e-9)
    qd = lemniscate_qd(Z2M1, ONE)
    turned = QuadraticDifferential(qd.lead * cmath.exp(1j * turn), qd.zeros, qd.poles)
    if circular:
        rep = analyze_lemniscate(Z2M1, ONE, 0, qd=turned)
        assert len(rep.double_poles) == 3
    else:
        with pytest.raises(ConvergenceFailure, match="expected negative real"):
            analyze_lemniscate(Z2M1, ONE, 0, qd=turned)


def test_all_samples_close():
    rep = analyze_lemniscate(Z2M1, ONE, samples=20)
    assert len(rep.strebel_samples) == 20
    assert all(closed for _, closed in rep.strebel_samples)


def test_sampling_seeded_and_deterministic():
    a = analyze_lemniscate(Z2M1, ONE, samples=6, seed=4)
    b = analyze_lemniscate(Z2M1, ONE, samples=6, seed=4)
    assert [p for p, _ in a.strebel_samples] == [p for p, _ in b.strebel_samples]
    c = analyze_lemniscate(Z2M1, ONE, samples=6, seed=5)
    assert [p for p, _ in a.strebel_samples] != [p for p, _ in c.strebel_samples]


def test_monomial_circles():
    rep = analyze_lemniscate(Polynomial([0.0, 1.0]), ONE, samples=12)
    assert rep.finite_critical_points == []
    assert all(closed for _, closed in rep.strebel_samples)
    finite = [loc for loc, _ in rep.double_poles if loc is not None]
    assert len(finite) == 1 and abs(finite[0]) < 1e-12


def test_rational_ratio_poles():
    # r = (z - 1)/(z + 1): double poles of phi at both roots, residue -1
    rep = analyze_lemniscate(Polynomial([-1.0, 1.0]), Polynomial([1.0, 1.0]), samples=8)
    finite = {(round(loc.real), round(loc.imag)): qr
              for loc, qr in rep.double_poles if loc is not None}
    assert set(finite) == {(-1, 0), (1, 0)}
    for qr in finite.values():
        assert qr == pytest.approx(-1.0, rel=1e-9)


WIN = (-2.5, -2.0, 2.5, 2.0)
# r = z (z - 1) / ((z + 1)(z + 2)): infinity is a regular point, and |r| has a
# saddle at -(1 + sqrt 3) / 2, between the poles -1 and -2
RATIO = (Polynomial.from_roots([0.0, 1.0]), Polynomial.from_roots([-1.0, -2.0]))
RATIO_SITES = [(0.0, 1), (1.0, 1), (-1.0, -1), (-2.0, -1)]
RATIO_SADDLE = -(1.0 + math.sqrt(3.0)) / 2.0
RATIO_SADDLE_LEVEL = float(abs(r_of(*RATIO, np.array([RATIO_SADDLE]))[0]))
MOBIUS = (Polynomial([0.0, 1.0]), Polynomial([1.0, 1.0]))      # r = z / (z + 1)


def test_level_curve_tracks_modulus():
    for c in [0.3, 0.5, 1.0, 1.3, 1.7, 2.6]:
        curves = lemniscate_level_curve(Z2M1, ONE, c, WIN)
        assert curves
        assert_on_level(Z2M1, ONE, c, curves)


def test_level_curve_component_counts():
    # |z^2 - 1| = c: two ovals below the critical level, one curve about
    # both zeros above it, and at it the two saddle loops through 0
    sites = [(-1.0, 1), (1.0, 1)]
    for c, enclosed in [(0.5, [[-1.0], [1.0]]), (1.7, [[-1.0, 1.0]]),
                        (1.0, [[-1.0], [1.0]])]:
        curves = lemniscate_level_curve(Z2M1, ONE, c, WIN)
        assert_closed_components(Z2M1, ONE, curves, sites, enclosed)
    for loop in lemniscate_level_curve(Z2M1, ONE, 1.0, WIN):
        assert loop[0] == loop[-1] == 0j


def test_level_curves_of_a_ratio_with_poles():
    # the saddle level makes loops about the poles -1 and -2; 0.2 one curve
    # about both zeros
    p, q = RATIO
    for c, enclosed in [(RATIO_SADDLE_LEVEL, [[-1.0], [-2.0]]), (0.2, [[0.0, 1.0]])]:
        curves = lemniscate_level_curve(p, q, c, (-4.0, -3.0, 3.0, 3.0))
        assert_on_level(p, q, c, curves)
        assert_closed_components(p, q, curves, RATIO_SITES, enclosed)


@pytest.mark.parametrize("window, pieces", [
    ((1.5, -0.5, 2.5, 0.5), 1),            # holds no zero of r: found on its edges
    ((-1.5, -2.5, 1.5, 2.5), 2),           # cut into an upper and a lower arc
])
def test_level_curve_cut_by_the_window(window, pieces):
    # |z^2 - 1| = 2.6 crosses the real axis at +-1.897: each piece inside the
    # window is drawn once, and runs out of the window at both ends
    x0, y0, x1, y1 = window
    curves = lemniscate_level_curve(Z2M1, ONE, 2.6, window)
    assert len(curves) == pieces
    assert_on_level(Z2M1, ONE, 2.6, curves)
    for poly in curves:
        inside = (x0 <= poly.real) & (poly.real <= x1) & (y0 <= poly.imag) & (poly.imag <= y1)
        assert not inside[0] and not inside[-1]
        assert np.count_nonzero(inside[1:] != inside[:-1]) == 2      # one run inside


def test_level_curve_cut_at_the_saddle_level():
    # a window that cuts the ratio's saddle loop about -2: its rays leave the
    # window, and infinity is regular, so the critical graph files them
    # unresolved; they are drawn from the saddle
    p, q = RATIO
    curves = lemniscate_level_curve(p, q, RATIO_SADDLE_LEVEL, (-2.2, -0.6, 1.5, 0.6))
    assert len(curves) == 3
    assert_on_level(p, q, RATIO_SADDLE_LEVEL, curves)
    assert all(abs(poly[0] - RATIO_SADDLE) < 1e-12 for poly in curves)
    assert sum(abs(poly[-1] - poly[0]) < 1e-12 for poly in curves) == 1


@pytest.mark.parametrize("pq, c, window", [
    *[((Z2M1, ONE), c, (-2.5, -2.5, 2.5, 2.5)) for c in (0.45, 0.75, 1.0, 1.6, 2.6)],
    # circles of Apollonius, which the tracer crosses in steps of up to a radian
    *[(MOBIUS, c, (-3.0, -3.0, 3.0, 3.0)) for c in (0.5, 0.75, 1.5)],
], ids=[f"z2m1-{c}" for c in (0.45, 0.75, 1.0, 1.6, 2.6)] + [f"mobius-{c}" for c in (0.5, 0.75, 1.5)])
def test_level_curve_chords_stay_within_two_pixels(pq, c, window):
    # the midpoint m of each chord is |log|r(m)| - log c| / |r'/r(m)| from the
    # curve to first order, which must stay below 2 px at the canvas scale
    p, q = pq
    dp, dq = p.derivative(), q.derivative()
    scale = WIDTH / (window[2] - window[0])
    for poly in lemniscate_level_curve(p, q, c, window):
        m = 0.5 * (poly[1:] + poly[:-1])
        g = dp.eval_array(m) / p.eval_array(m) - dq.eval_array(m) / q.eval_array(m)
        off = np.abs(np.log(np.abs(r_of(p, q, m)) / c)) / np.abs(g)
        assert off.max() * scale <= 2.0


def test_level_curve_empty_raises():
    with pytest.raises(EmptyLevel):
        lemniscate_level_curve(Z2M1, ONE, 9.0, (-2.0, -2.0, 2.0, 2.0))


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
def test_level_curve_nonpositive_level_raises(c):
    with pytest.raises(ValueError, match="positive"):
        lemniscate_level_curve(Z2M1, ONE, c, (-2.0, -2.0, 2.0, 2.0))


def test_marching_squares_circle():
    xs = np.linspace(-2, 2, 201)
    ys = np.linspace(-2, 2, 201)
    X, Y = np.meshgrid(xs, ys)
    field = np.hypot(X, Y)
    curves = marching_squares(xs, ys, field, 1.0)
    assert len(curves) == 1
    loop = curves[0]
    assert abs(loop[0] - loop[-1]) < 1e-12
    radii = np.abs(loop)
    assert np.max(np.abs(radii - 1.0)) < 5e-4


def test_marching_squares_empty():
    xs = np.linspace(-1, 1, 11)
    field = np.zeros((11, 11))
    assert marching_squares(xs, xs, field, 0.5) == []


def test_marching_squares_open_curve_hits_boundary():
    xs = np.linspace(-1, 1, 41)
    X, Y = np.meshgrid(xs, xs)
    curves = marching_squares(xs, xs, Y, 0.0)      # the line y = 0
    assert len(curves) == 1
    line = curves[0]
    assert abs(line[0] - line[-1]) > 1.5           # open, spans the window
    assert np.max(np.abs(line.imag)) < 1e-12
