"""The chart u = 1/(z - c) in which the tracer passes a regular infinity.

qdiff.inverted builds phi(c + 1/u) / u^4 from the root clusters, and a ray
carries (z, w) to (u, -w (z - c)^2) and back by w = -w_u u^2. On the
rectangular pillowcase 1/((z^2 - 1)(z^2 - 4)), whose four simple poles are
real and whose infinity is regular, every horizontal trajectory off the
real axis is closed at the real period 2 K(1/2) of its elliptic curve,
inside the circle through the poles and beyond it alike, and every vertical
one off the imaginary axis at the imaginary period K(sqrt(3)/2).
"""

import math

import numpy as np
import pytest

from qdsphere.graph import detect_recurrence
from qdsphere.polyalg import Polynomial, RootCluster
from qdsphere.qdiff import (
    QuadraticDifferential,
    critical_points,
    inverted,
    order_at_infinity,
    principal_sqrt,
    qd_new,
)
from qdsphere import tracer
from qdsphere.tracer import (
    CLOSED,
    HIT_CRITICAL,
    TraceOptions,
    _Scene,
    trace_horizontal,
    trace_vertical,
)

# 2 K(1/2) = pi / AGM(1, sqrt(3) / 2), Legendre's complete elliptic integral
PILLOWCASE_PERIOD = 3.371500709625192
# K(sqrt(3)/2) = pi / (2 AGM(1, 1/2)), the integral of |dy| / sqrt((y^2 + 1)(y^2 + 4))
# along the imaginary axis
PILLOWCASE_VERTICAL_PERIOD = 2.1565156474996434


def pillowcase_length_through_infinity(x0):
    """The phi-length of the pillowcase's real axis from x0 > 2 out through infinity and in
    to the pole -2: the integrals from x0 and from 2 to infinity of
    dx / sqrt((x^2 - 1)(x^2 - 4)). With x = 1 / y and y = sin(t) / 2, each is half the
    integral of dt / sqrt(1 - sin(t)^2 / 4) from 0 to arcsin(2 / x0) or pi / 2, whose
    integrand is smooth: 40-node Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(40)

    def half_elliptic(b):
        t = 0.5 * b * (nodes + 1.0)
        return 0.25 * b * np.sum(weights / np.sqrt(1.0 - 0.25 * np.sin(t) ** 2))

    return float(half_elliptic(math.asin(2.0 / x0)) + half_elliptic(0.5 * math.pi))


def winding_qd():
    return qd_new(Polynomial([-1.0]), Polynomial([0.5j, 0.0, -0.25 - 2.0j, 0.0, 1.0]))


def pillowcase_qd():
    return qd_new(Polynomial([1.0]), Polynomial([4.0, 0.0, -5.0, 0.0, 1.0]))


def centred_pole_qd():
    # 2i / (z^2 (z^2 - 1)): the double pole at 0 is the centre of the critical
    # set's bounding box, so it goes to the chart's infinity
    return QuadraticDifferential(2j, [], [RootCluster(-1.0, 1, 0.0), RootCluster(0j, 2, 0.0),
                                          RootCluster(1.0, 1, 0.0)])


def skewed_qd():
    # a double zero and six simple poles off the axes, infinity regular
    poles = [1.5 + 0.2j, -0.7 + 1.1j, 0.3 - 1.4j, -1.2 - 0.5j, 2.1 - 0.9j, -0.4 + 2.3j]
    return QuadraticDifferential(0.8 - 0.6j, [RootCluster(0.25 + 0.5j, 2, 0.0)],
                                 [RootCluster(p, 1, 0.0) for p in poles])


def segment_qd():
    # 1 - z^2: infinity is a pole of order 6, and so is u = 0
    return qd_new(Polynomial([1.0, 0.0, -1.0]), Polynomial([1.0]))


@pytest.mark.parametrize("make", [winding_qd, pillowcase_qd, centred_pole_qd, skewed_qd,
                                  segment_qd])
def test_inverted_is_phi_in_the_chart(make):
    qd = make()
    scene = _Scene.of(qd)
    c = scene.centre if scene.centre is not None else 0.25 - 0.5j
    qu = inverted(qd, c)
    # the image's infinity is z = c: the cluster there, or a regular point
    at_c = [sign * cl.multiplicity for cs, sign in ((qd.zeros, 1), (qd.poles, -1))
            for cl in cs if cl.location == c]
    assert order_at_infinity(qu) == (at_c[0] if at_c else 0)
    rng = np.random.default_rng(7)
    radius = 1.0 / max(abs(cl.location - c) for cl in qd.zeros + qd.poles)
    us = radius * (0.05 + 0.55 * rng.random(1000)) * np.exp(2j * math.pi * rng.random(1000))
    for u in us.tolist():
        want = qd.phi(c + 1 / u) / u ** 4
        assert abs(qu.phi(u) - want) <= 1e-13 * abs(want)


def test_inverted_sends_the_clusters_and_infinity():
    qu = inverted(centred_pole_qd(), 0j)
    # the double pole at the centre is the image's infinity; -1 and 1 are fixed
    assert [(cl.location, cl.multiplicity) for cl in qu.poles] == [(-1.0, 1), (1.0, 1)]
    assert qu.zeros == [] and order_at_infinity(qu) == -2
    # 1 - z^2 about 0: u = 0 takes the order -6 of infinity
    qs = inverted(segment_qd(), 0j)
    assert (qs.poles[-1].location, qs.poles[-1].multiplicity) == (0j, 6)


@pytest.mark.parametrize("make", [winding_qd, pillowcase_qd, centred_pole_qd, skewed_qd])
def test_chart_change_round_trips(make):
    # (z, w) -> (u, -w (z - c)^2) -> (c + 1/u, -w_u u^2) as the tracer writes it,
    # and w_u is a root of the chart's phi
    qd = make()
    scene = _Scene.of(qd)
    c, rho = scene.centre, scene.rho
    qu = inverted(qd, c)
    rng = np.random.default_rng(11)
    for r, t in zip(rho * (2.0 + 1e3 * rng.random(200)), rng.random(200)):
        z = c + r * complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))
        w = principal_sqrt(qd.phi(z))
        d = z - c
        u, w_u = 1 / d, -w * (d * d)
        assert abs(w_u * w_u - qu.phi(u)) <= 1e-14 * abs(w_u * w_u)
        z_back, w_back = c + 1 / u, -w_u * (u * u)
        assert abs(z_back - z) <= 4 * math.ulp(abs(z))
        assert abs(w_back - w) <= 1e-15 * abs(w)


def test_only_a_regular_infinity_has_a_far_chart():
    assert _Scene.of(segment_qd()).centre is None
    scene = _Scene.of(pillowcase_qd())
    assert scene.centre == 0j and scene.rho == 2.0


def test_pillowcase_periods_are_the_agm_forms():
    for b, form, period in ((math.sqrt(3.0) / 2.0, 1.0, PILLOWCASE_PERIOD),
                            (0.5, 0.5, PILLOWCASE_VERTICAL_PERIOD)):
        a = 1.0
        for _ in range(8):
            a, b = 0.5 * (a + b), math.sqrt(a * b)
        assert abs(form * math.pi / a - period) <= 1e-15


def test_pillowcase_length_through_infinity_is_the_quadrature():
    # from 2 alone the quadrature is a quarter of the period, K(1/2)
    assert abs(4.0 * pillowcase_length_through_infinity(2.0) - 2.0 * PILLOWCASE_PERIOD) <= 1e-14
    assert abs(pillowcase_length_through_infinity(3.0) - 1.2154184) <= 1e-7


@pytest.mark.xfail(strict=True, reason="a ray aimed straight at a regular infinity stalls: the "
                   "clamp CHORD_ALPHA |u| at u = 0 shrinks its steps geometrically, and the "
                   "widened window ends it EscapedWindow at |z| ~ 1.6e5 (ROADMAP item 2, "
                   "infinity is a point of the sphere)")
def test_pillowcase_probe_along_the_real_axis_passes_infinity():
    # the horizontal trajectory through 3 is the real axis beyond 2: it runs out
    # through the regular infinity and in from -infinity to the simple pole -2
    qd = pillowcase_qd()
    ray = detect_recurrence(qd, 3.0).ray
    assert ray.termination.kind == HIT_CRITICAL
    assert critical_points(qd)[ray.termination.cp_index].at == -2
    assert abs(ray.phi_length - pillowcase_length_through_infinity(3.0)) <= 1e-9


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("seed", [0.3j, 3j, 6 + 1j, 20j, -7 - 2j])
def test_pillowcase_rays_close_at_the_period(seed, orientation):
    # 0.3i and 3i lie within |z| = FAR_OUT * rho = 4, where a ray steps in z;
    # the others lie beyond it, where the ray starts in the far chart
    qd = pillowcase_qd()
    opts = TraceOptions.for_qd(qd, window=(-1e6, -1e6, 1e6, 1e6))
    ray = trace_horizontal(qd, seed, orientation, opts)
    assert ray.termination.kind == CLOSED
    assert abs(ray.phi_length - PILLOWCASE_PERIOD) <= 1e-9


@pytest.mark.parametrize("orientation", [1, -1])
def test_pillowcase_ray_from_the_centre_runs_into_a_pole(orientation):
    # c = 0 is a regular point, with no image in the far chart: the horizontal
    # trajectory through it is the segment between the simple poles -1 and 1,
    # a quarter of the period from 0
    qd = pillowcase_qd()
    opts = TraceOptions.for_qd(qd, window=(-1e6, -1e6, 1e6, 1e6))
    ray = trace_horizontal(qd, 0j, orientation, opts)
    assert ray.termination.kind == HIT_CRITICAL
    assert critical_points(qd)[ray.termination.cp_index].at == orientation
    assert abs(ray.phi_length - PILLOWCASE_PERIOD / 4) <= 1e-9


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("seed", [1e-5, 1e-3 + 1e-3j, 0.3])
def test_pillowcase_vertical_rays_from_near_the_centre_close(monkeypatch, seed, orientation):
    # the vertical trajectory through a point near 0 runs out to |z| ~ 2 / |seed|
    # in the far chart and closes in z: the closure's trigger reads z, and a far
    # step's stays ~0.74 rho from c, so a seed near c is never looked for in u
    far_closures = []
    real = tracer._close_at_seed
    monkeypatch.setattr(tracer, "_close_at_seed",
                        lambda *a: far_closures.append(a[-1]) or real(*a))
    qd = pillowcase_qd()
    opts = TraceOptions.for_qd(qd, window=(-1e6, -1e6, 1e6, 1e6))
    ray = trace_vertical(qd, seed, orientation, opts)
    assert np.abs(ray.points).max() > 1.0 / abs(seed)
    assert ray.termination.kind == CLOSED
    assert abs(ray.phi_length - PILLOWCASE_VERTICAL_PERIOD) <= 1e-9
    assert not any(far_closures)
