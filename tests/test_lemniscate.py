import cmath
import math

import numpy as np
import pytest

from qdsphere.contour import marching_squares
from qdsphere.errors import ConvergenceFailure, EmptyLevel
from qdsphere.lemniscate import analyze_lemniscate, lemniscate_level_curve
from qdsphere.polyalg import Polynomial
from qdsphere.qdiff import QuadraticDifferential, lemniscate_qd
from qdsphere.tracer import TraceOptions, trace_horizontal

ONE = Polynomial([1.0])
Z2M1 = Polynomial([-1.0, 0.0, 1.0])     # z^2 - 1


def assert_contours_are_trajectories(p, q, polylines, window, n, points=5):
    """Trajectories of -(r'/r)^2 dz^2 traced from a few points of the
    longest contour stay within a grid cell or two of the contours: the
    curves are the same object seen two ways."""
    qd = lemniscate_qd(p, q)
    x0, y0, x1, y1 = window
    cell = math.hypot((x1 - x0) / max(n - 1, 1), (y1 - y0) / max(n - 1, 1))
    tol = max(1e-3 * qd.diameter(), 2.0 * cell)
    flat = np.concatenate(polylines)
    longest = max(polylines, key=len)
    opts = TraceOptions.for_qd(qd)
    opts = opts.replace(max_phi_length=min(opts.max_phi_length, 40.0))
    for i in np.linspace(0, len(longest) - 2, points).astype(int):
        ray = trace_horizontal(qd, complex(longest[i]), opts=opts)
        for w in ray.points[np.linspace(0, len(ray.points) - 1, 24).astype(int)]:
            assert np.abs(flat - w).min() <= tol


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


def test_level_curve_tracks_modulus():
    win = (-2.5, -2.0, 2.5, 2.0)
    curves = lemniscate_level_curve(Z2M1, ONE, 1.3, win, 160)
    assert curves
    assert_contours_are_trajectories(Z2M1, ONE, curves, win, 160)
    for poly in curves:
        for z in poly[:: max(1, len(poly) // 50)]:
            assert abs(abs(z * z - 1) - 1.3) < 2e-2


def test_level_curve_component_counts():
    # |z^2 - 1| = c: two ovals below the critical level, one curve above
    win = (-2.5, -2.0, 2.5, 2.0)
    low = lemniscate_level_curve(Z2M1, ONE, 0.5, win, 220)
    assert len(low) == 2
    high = lemniscate_level_curve(Z2M1, ONE, 1.7, win, 220)
    assert len(high) == 1
    for poly in low + high:
        assert abs(poly[0] - poly[-1]) < 1e-9      # closed loops
    assert_contours_are_trajectories(Z2M1, ONE, low, win, 220)
    assert_contours_are_trajectories(Z2M1, ONE, high, win, 220)


def test_level_curve_empty_raises():
    with pytest.raises(EmptyLevel):
        lemniscate_level_curve(Z2M1, ONE, 9.0, (-2.0, -2.0, 2.0, 2.0), 64)


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
