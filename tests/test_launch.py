"""Launch and arrival at finite critical points through the local normal
form: zeta(z) = integral of sqrt(phi) from the critical point."""

import cmath
import collections
import math
import re

import numpy as np
import pytest

from qdsphere import tracer
from qdsphere.errors import PoleOnPath, QdError
from qdsphere.graph import build_critical_graph
from qdsphere.polyalg import Polynomial, RootCluster
from qdsphere.qdiff import (
    AT_POLE,
    QuadraticDifferential,
    continue_sqrt,
    critical_directions,
    critical_points,
    qd_from_p_over_q_squared,
    qd_new,
    sqrt_panel_integrals,
    zeta_from,
)
from qdsphere.tracer import (
    HIT_CRITICAL,
    LOCAL_RADIUS,
    TraceOptions,
    _Scene,
    trace_from_critical,
    trace_horizontal,
)

ONE = Polynomial([1.0])


def segment_qd():
    return qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)


def three_poles_qd():
    return qd_new(ONE, Polynomial([-1.0, 0.0, 0.0, 1.0]))


FIXTURES = {
    "segment": segment_qd,                                           # zeros of order 1
    "double_zero": lambda: qd_new(Polynomial.from_roots([0.0, 0.0, 1.0]), ONE),
    "simple_poles": three_poles_qd,
    "pole_and_zero": lambda: qd_new(Polynomial([-1.0, 1.0]), Polynomial([0.0, 1.0])),
    "winding": lambda: qd_new(Polynomial([-1.0]),
                              Polynomial([0.5j, 0.0, -0.25 - 2.0j, 0.0, 1.0])),
}


def _launches(qd):
    opts = TraceOptions.for_qd(qd, max_phi_length=5.0)
    for cp in critical_points(qd):
        if cp.at is None or not cp.is_finite_critical:
            continue
        for k in range(cp.signed_order + 2):
            yield cp, k, trace_from_critical(qd, cp, k, opts)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_launch_point_lies_on_a_critical_ray(name):
    qd = FIXTURES[name]()
    orders = set()
    for cp, k, ray in _launches(qd):
        p, n = cp.at, cp.signed_order
        orders.add(n)
        z = complex(ray.points[0])
        zeta, _w = zeta_from(qd, p, z)
        assert abs(zeta.imag) <= 1e-12 * abs(zeta)
        assert abs(z - p) == pytest.approx(LOCAL_RADIUS * qd.local_scale(p), rel=1e-12)
        # the phi-length counts from p
        assert ray.taus[0] == pytest.approx(abs(zeta), rel=1e-14)
        # the k-th direction of the local model, corrected by less than half
        # the spacing of the critical rays
        u = critical_directions(qd, cp)[k]
        assert abs(cmath.phase((z - p) / u)) < math.pi / (n + 2)
        # the ray moves away from p
        assert abs(ray.points[1] - p) > abs(z - p)
    assert orders


def test_launch_takes_under_two_quadratures(monkeypatch):
    # Newton starts from the first-order local model and finishes its last
    # step by the trapezoid rule: 44 quadratures for these 24 directions.
    # From the leading-order direction alone, or with the first-order term
    # of the wrong sign, it takes more than 2 per direction.
    calls = []
    monkeypatch.setattr(tracer, "zeta_from",
                        lambda qd, p, z: calls.append(z) or zeta_from(qd, p, z))
    per_direction = []
    for name in FIXTURES:
        qd = FIXTURES[name]()
        disks = _Scene.of(qd).disks
        for k, cp in enumerate(critical_points(qd)):
            if cp.at is None or not cp.is_finite_critical:
                continue
            for u in critical_directions(qd, cp):
                calls.clear()
                tracer._launch_point(qd, cp, u, disks[k])
                per_direction.append(len(calls))
    assert len(per_direction) == 24 and min(per_direction) >= 1
    assert sum(per_direction) < 2 * len(per_direction)


def test_launch_error_stays_with_its_direction():
    # phi = -(z - P - 10) / (z - P), P = -2.04e12, where floats are 2.4e-4
    # apart: the pole launches along the real axis and its smallest
    # quadrature nodes round onto it, so its launch raises PoleOnPath,
    # naming the node. The zero's three launches do not see it.
    big = -2.04e12
    qd = QuadraticDifferential(-1.0, [RootCluster(big + 10.0, 1, 0.0)],
                               [RootCluster(big, 1, 0.0)])
    nodes = critical_points(qd)
    opts = TraceOptions.for_qd(qd, max_phi_length=1.0)
    with pytest.raises(PoleOnPath, match=re.escape(AT_POLE.format(complex(big)))):
        trace_from_critical(qd, nodes[0], 0, opts)
    # the zero's launch points, pinned: the pole's failure does not move them
    want = [-2039999999989.754 - 0.4351768569083792j, -2039999999989.754 + 0.4351768569083792j,
            -2039999999990.5 - 1.9034603683595325e-14j]
    radius = _Scene.of(qd).disks[1]
    for j, u in enumerate(critical_directions(qd, nodes[1])):
        assert tracer._launch_point(qd, nodes[1], u, radius)[0] == want[j]
        try:
            ray = trace_from_critical(qd, nodes[1], j, opts)
        except QdError as err:          # a step at |z| ~ 1e12 may break the drift bound
            assert not isinstance(err, PoleOnPath)
        else:
            assert ray.points[0] == want[j]


def test_launch_orders_covered():
    orders = {cp.signed_order for name in FIXTURES for cp in critical_points(FIXTURES[name]())
              if cp.at is not None and cp.is_finite_critical}
    assert {-1, 1, 2} <= orders


def test_regular_ray_passing_through_a_disk_keeps_going():
    # the horizontal trajectory through 0.5 + 1e-7 i passes the zero at 1
    # at about twice the snap radius
    qd = segment_qd()
    opts = TraceOptions.for_qd(qd, max_phi_length=6.0)
    ray = trace_horizontal(qd, 0.5 + 1e-7j, 1, opts)
    d = np.abs(ray.points - 1.0)
    radius = LOCAL_RADIUS * qd.local_scale(1.0)
    assert opts.snap_radius < d.min() < radius
    assert ray.termination.kind != HIT_CRITICAL
    assert d[-1] > radius                          # and leaves the disk again
    # a hair closer, it arrives
    hit = trace_horizontal(qd, 0.5 + 1e-9j, 1, opts)
    assert hit.termination.kind == HIT_CRITICAL
    assert abs(hit.points[-1] - 1.0) < radius


def test_ray_leaving_a_disk_is_not_called_back():
    # started on the segment inside the disk of the zero at 1 and moving
    # away from it, the ray must end at the zero at -1, a phi-length of
    # the integral of sqrt(1 - x^2) over [-1, 0.97] further on
    qd = segment_qd()
    nodes = critical_points(qd)
    for orientation in (1, -1):
        ray = trace_horizontal(qd, 0.97, orientation)
        if abs(ray.points[1] - 1.0) > 0.03:
            break
    assert ray.termination.kind == HIT_CRITICAL
    assert nodes[ray.termination.cp_index].at == -1.0
    x = 0.97
    want = 0.5 * (x * math.sqrt(1 - x * x) + math.asin(x)) + math.pi / 4
    assert ray.phi_length == pytest.approx(want, abs=1e-9)


def test_critical_loop_returns_to_its_own_point():
    # phi = -z / ((z - 0.5)(z - 1 - i)(z - 2 + i)): a critical trajectory
    # leaves the zero at 0 and comes back to it around the pole at 0.5; the
    # ray leaves its own disk first, so the disk is tested again on its return
    den = Polynomial.from_roots([0.5, 1.0 + 1.0j, 2.0 - 1.0j])
    qd = qd_new(Polynomial([0.0, -1.0]), den)
    loops = [e for e in build_critical_graph(qd).edges if e.from_node == e.to_node]
    assert len(loops) == 1 and loops[0].is_short
    assert critical_points(qd)[loops[0].from_node].at == 0.0
    assert loops[0].ray.termination.kind == HIT_CRITICAL
    assert abs(loops[0].phi_length - 2 * math.pi) <= 1e-9


def _chebyshev_edge_integral(g, p, q, n=200):
    """|integral over the segment p -> q of g(z) / sqrt((z - p)(z - q)) dz|
    by n-node Gauss-Chebyshev quadrature, exact up to rounding for g
    analytic near the segment."""
    k = np.arange(1, n + 1)
    x = np.cos((2 * k - 1) * np.pi / (2 * n))
    z = 0.5 * (p + q) + 0.5 * (q - p) * x
    return abs(np.pi / n * np.sum(g(z)))


def _short_edges(qd):
    return [e for e in build_critical_graph(qd).edges if e.is_short]


def test_short_edge_phi_length_segment():
    # integral of sqrt(1 - x^2) over [-1, 1] is pi / 2; the ray's integration
    # error, not the ends, is what is left
    (edge,) = _short_edges(segment_qd())
    assert abs(edge.phi_length - math.pi / 2) <= 1.7e-10
    # Gauss-Chebyshev of the second kind: sqrt(1 - x^2) = (1 - x^2) / sqrt(1 - x^2)
    ref = _chebyshev_edge_integral(lambda z: 1.0 - z * z, -1.0, 1.0)
    assert ref == pytest.approx(math.pi / 2, rel=1e-15)


def test_short_edge_phi_length_between_simple_poles():
    # phi = 1 / (z^3 - 1): the edge joins the poles at exp(+-2 pi i / 3);
    # along the segment between them 1 / sqrt(z^3 - 1) = g / sqrt((z - p)(z - q))
    # with g = 1 / sqrt(z - 1) analytic there, so Gauss-Chebyshev is exact
    qd = three_poles_qd()
    (edge,) = _short_edges(qd)
    p, q = (critical_points(qd)[i].at for i in (edge.from_node, edge.to_node))
    ref = _chebyshev_edge_integral(lambda z: 1.0 / np.sqrt(1.0 - z), p, q)
    assert ref == pytest.approx(2.4286506478875, abs=1e-12)
    assert abs(edge.phi_length - ref) <= 1e-10


@pytest.mark.parametrize("name", ["segment", "simple_poles", "double_zero"])
def test_edge_polylines_run_from_their_critical_points(name):
    qd = FIXTURES[name]()
    nodes = critical_points(qd)
    for e in build_critical_graph(qd).edges:
        assert e.polyline[0] == nodes[e.from_node].at
        if e.is_short:
            assert e.polyline[-1] == nodes[e.to_node].at
            assert e.ray.taus[0] > 0.0 and e.phi_length > e.ray.taus[-1]


def _random_qds(rng, n):
    """Random differentials whose roots may repeat, so that poles of order
    two and more occur."""
    out = []
    while len(out) < n:
        roots = [rng.normal(size=k) + 1j * rng.normal(size=k) for k in rng.integers(1, 5, size=2)]
        num, den = (np.repeat(r, rng.integers(1, 4, size=len(r))) for r in roots)
        try:
            out.append(qd_new(Polynomial.from_roots(num), Polynomial.from_roots(den)))
        except QdError:
            continue
    return out


def test_scene_disks_are_apart_and_nearest():
    # a ray ends at a critical point only on entry into the disk of the
    # nearest one: the disks are disjoint, every point of a disk has the
    # disk's point as its unique nearest finite critical point, and the
    # rows are indexed as critical_points is
    rng = np.random.default_rng(11)
    fixtures = [f() for f in FIXTURES.values()] + _random_qds(rng, 40)
    kinds = set()
    for qd in fixtures:
        scene = _Scene.of(qd)
        finite = [c for c in critical_points(qd) if c.at is not None]
        pos = np.array([c.at for c in finite])
        assert [row[:2] for row in scene.rows] == list(enumerate(pos.tolist()))
        for k, (c, radius) in enumerate(zip(finite, scene.disks)):
            kinds.add(c.is_finite_critical)
            others = np.delete(np.arange(len(pos)), k)
            gaps = np.abs(pos[others] - pos[k]) - np.asarray(scene.disks)[others]
            assert np.all(gaps > radius)
            # uniform in the disk, and just inside its circle
            scale = np.append(np.sqrt(rng.uniform(size=64)), np.full(16, 1 - 1e-15))
            for z in pos[k] + radius * scale * np.exp(2j * np.pi * rng.uniform(size=80)):
                d = np.abs(pos - z)
                assert np.all(np.delete(d, k) > d[k])
                # scan names the disk by the loop's own test, |z - p| < r in floats
                inside = abs(complex(z) - complex(pos[k])) < radius
                assert scene.scan(complex(z))[0] == (k if inside else -1)
    # both kinds of disk: analytic ones, and those of poles of order >= 2
    assert kinds == {True, False}


def reference_scan(scene, z):
    """scan as a plain loop over the rows and the disks."""
    k, clamp = -1, math.inf
    for (i, p, alpha), r in zip(scene.rows, scene.disks):
        d = abs(z - p)
        clamp = min(clamp, d * alpha)
        if d < r:
            k = i
    return k, clamp


def test_generated_scan_is_the_loop_to_the_bit():
    # points uniform in each disk, on its circle, just outside it and far
    # off, and a NaN: the disk index and the clamp as the plain loop's
    rng = np.random.default_rng(23)
    fixtures = [f() for f in FIXTURES.values()] + _random_qds(rng, 40)
    code, scenes = {}, collections.Counter()
    for qd in fixtures:
        scene = _Scene.of(qd)
        code.setdefault(len(scene.rows), scene.scan.__code__)
        assert scene.scan.__code__ is code[len(scene.rows)]
        scenes[len(scene.rows)] += 1
        zs = [complex("nan"), complex(1e300, -1e300)]
        zs += (1e3 * (rng.normal(size=16) + 1j * rng.normal(size=16))).tolist()
        for (_k, p, _alpha), r in zip(scene.rows, scene.disks):
            turn = np.exp(2j * np.pi * rng.uniform(size=96))
            scale = np.concatenate([np.sqrt(rng.uniform(size=48)), np.ones(16),
                                    np.full(16, 1 + 1e-15), np.full(16, 1 + 1e-9)])
            zs += (p + r * scale * turn).tolist()
        for z in zs:
            got, want = scene.scan(z), reference_scan(scene, z)
            assert got[0] == want[0] and got[1].hex() == want[1].hex()
    # several row counts occur, and some count is shared by several scenes
    assert len(scenes) >= 4 and max(scenes.values()) >= 2


def test_disk_model_bound_holds():
    # inside each analytic disk zeta is (z - p) sqrt(phi(z)) / e to within
    # the scene's slack, which lets the tracer skip zeta_from for rays that
    # cannot reach p
    rng = np.random.default_rng(5)
    fixtures = [f() for f in FIXTURES.values()]
    for _ in range(20):
        n_num, n_den = rng.integers(1, 7, size=2)
        fixtures.append(qd_new(Polynomial.from_roots(rng.normal(size=n_num) + 1j * rng.normal(size=n_num)),
                               Polynomial.from_roots(rng.normal(size=n_den) + 1j * rng.normal(size=n_den))))
    worst = 0.0
    for qd in fixtures:
        scene = _Scene.of(qd)
        for radius, model in zip(scene.disks, scene.models):
            if model is None:
                continue
            p, e, _c, slack = model
            for z in p + radius * rng.uniform(0.01, 1.0, 8) * np.exp(2j * np.pi * rng.uniform(size=8)):
                zeta, w = zeta_from(qd, p, z)
                model = (z - p) * w / e
                err = abs(zeta - model)
                assert err <= slack * abs(model) + 1e-13 * abs(zeta)
                worst = max(worst, err / (slack * abs(model)))
    # the bound is not vacuous: some points come within a factor 10 of it
    assert 0.1 < worst <= 1.0


@pytest.mark.parametrize("n", [-1, 1, 2, 3])
def test_zeta_from_of_a_pure_power_is_its_closed_form(n):
    # phi = a (z - p)^n: zeta = sqrt(a) (z - p)^e / e, e = (n + 2) / 2, up to
    # the sign of the branch, and the root it was taken with gives zeta =
    # (z - p) sqrt(phi(z)) / e with the sign as well. The nodes p + s^2 are
    # rounded to the ulp of p, which moves the factor z - p there by ~eps |p|
    # and zeta by up to ~60 eps |p| / |z - p|, at a simple pole, where the
    # integrand does not vanish at p.
    rng = np.random.default_rng(31 + n)
    e = 0.5 * n + 1.0
    for _ in range(200):
        a, p, v = (complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-3, 3) for _ in range(3))
        cluster = [RootCluster(p, abs(n), 0.0)]
        qd = QuadraticDifferential(a, cluster if n > 0 else [], cluster if n < 0 else [])
        z = p + v
        zeta, w = zeta_from(qd, p, z)
        want = cmath.sqrt(a) * cmath.sqrt(z - p) ** (n + 2) / e
        bound = 1e-14 + 1e-13 * abs(p) / abs(z - p)
        assert min(abs(zeta - want), abs(zeta + want)) <= bound * abs(want)
        assert abs(zeta - (z - p) * w / e) <= bound * abs(zeta)


def test_zeta_from_is_the_kernel_on_its_two_panels():
    # the kernel on the same two panels in t = sqrt(z - p), from points of
    # each launch disk of random differentials
    rng = np.random.default_rng(37)
    checked = 0
    for qd in [f() for f in FIXTURES.values()] + _random_qds(rng, 30):
        scene = _Scene.of(qd)
        for radius, model in zip(scene.disks, scene.models):
            if model is None:
                continue
            p = model[0]
            for v in radius * np.sqrt(rng.uniform(size=4)) * np.exp(2j * np.pi * rng.uniform(size=4)):
                z = p + complex(v)
                t = cmath.sqrt(z - p)
                running, [last] = sqrt_panel_integrals(
                    [0j, 0.5 * t], [0.5 * t, t], lambda s: 4.0 * s * s * qd.phi_array(p + s * s))
                zeta, w = zeta_from(qd, p, z)
                assert abs(zeta - running[-1]) <= 1e-14 * abs(zeta)
                assert w == continue_sqrt(4.0 * t * t * qd.phi(z), last) / (2.0 * t)
                checked += 1
    assert checked >= 200
