import cmath
import math

import numpy as np
import pytest

from qdsphere import polyalg, qdiff
from qdsphere.errors import ConstantRational, NotCoprime, NotFiniteCritical, PoleOnPath, WrongOrder
from qdsphere.polyalg import Polynomial, RootCluster
from qdsphere.qdiff import (
    CIRCULAR,
    RADIAL,
    SPIRAL,
    QuadraticDifferential,
    cauchy_qd,
    classify_double_pole,
    continue_sqrt_along,
    critical_directions,
    critical_points,
    lemniscate_qd,
    measure_density,
    measure_mass,
    local_leading_coefficient,
    order_at_infinity,
    qd_from_p_over_q_squared,
    qd_new,
    single_valued,
    squared_residue,
)


def rand_qd(rng, n_num=3, n_den=4):
    while True:
        num = Polynomial.from_roots(list(rng.normal(size=n_num) + 1j * rng.normal(size=n_num)))
        den = Polynomial.from_roots(list(rng.normal(size=n_den) + 1j * rng.normal(size=n_den)))
        try:
            return qd_new(num, den)
        except NotCoprime:          # astronomically unlikely, but be safe
            continue


def test_orders_sum_to_minus_four():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n_num = int(rng.integers(0, 5))
        n_den = int(rng.integers(1, 6))
        qd = rand_qd(rng, n_num, n_den)
        total = sum(c.signed_order for c in critical_points(qd))
        assert total == -4


def test_order_at_infinity_matches_degrees():
    num = Polynomial([1.0])
    den = Polynomial.from_roots([0.0, 1.0, 2.0, 3.0])
    qd = qd_new(num, den)
    assert order_at_infinity(qd) == 0          # deg den - deg num - 4
    qd2 = qd_new(Polynomial([0.0, 0.0, 1.0]), Polynomial([1.0]))
    assert order_at_infinity(qd2) == -6


def test_exact_common_root_cancels():
    qd = qd_new(Polynomial([-1.0, 1.0]), Polynomial([-1.0, 1.0]))
    assert qd.zeros == [] and qd.poles == []


def test_ambiguous_near_collision_rejected():
    # a numerator root 1e-7 from a denominator root is neither clearly
    # shared nor clearly distinct
    with pytest.raises(NotCoprime):
        qd_new(Polynomial([-1.0, 1.0]), Polynomial.from_roots([1 + 1e-7, 5.0]))


def test_critical_directions_simple_zero():
    # phi = z: three horizontal rays at angles 2pi k / 3
    qd = qd_new(Polynomial([0.0, 1.0]), Polynomial([1.0]))
    (cp,) = [c for c in critical_points(qd) if c.signed_order == 1]
    dirs = critical_directions(qd, cp)
    assert len(dirs) == 3
    want = sorted((2 * math.pi * k / 3) % (2 * math.pi) for k in range(3))
    got = sorted(math.atan2(d.imag, d.real) % (2 * math.pi) for d in dirs)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-12


def test_critical_directions_shifted_zero():
    # phi = (z - 1j): directions rotate by -arg(a)/(n+2) with a the local
    # leading coefficient (here 1, so same angles as at the origin)
    qd = qd_new(Polynomial([-1j, 1.0]), Polynomial([1.0]))
    (cp,) = [c for c in critical_points(qd) if c.signed_order == 1]
    dirs = critical_directions(qd, cp)
    assert len(dirs) == 3
    for d in dirs:
        # each direction must satisfy arg(a d^3) = 0 mod 2pi
        assert abs(math.remainder(3 * math.atan2(d.imag, d.real), 2 * math.pi)) < 1e-10


def test_double_pole_classification():
    # -1/z^2: circle trajectories; +1/z^2: radial; (i complex) residue: spiral
    q = Polynomial([0.0, 1.0])
    circ = qd_from_p_over_q_squared(Polynomial([1.0]), q, sign=-1)
    assert classify_double_pole(circ, 0.0) == CIRCULAR
    rad = qd_from_p_over_q_squared(Polynomial([1.0]), q, sign=1)
    assert classify_double_pole(rad, 0.0) == RADIAL
    spir = qd_new(Polynomial([2j]), Polynomial([0.0, 0.0, 1.0]))
    assert classify_double_pole(spir, 0.0) == SPIRAL


def test_classify_rejects_wrong_order():
    qd = qd_new(Polynomial([1.0]), Polynomial([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(WrongOrder):
        classify_double_pole(qd, 0.0)


@pytest.mark.parametrize("c, kind", [(-1.0, CIRCULAR), (1.0, RADIAL), (cmath.exp(0.5j), SPIRAL)])
def test_double_pole_at_infinity_classified_like_the_origin(c, kind):
    # phi = c/z^2 is c/w^2 in w = 1/z: the same residue at 0 and at infinity
    qd = qd_from_p_over_q_squared(Polynomial([c]), Polynomial([0.0, 1.0]))
    assert order_at_infinity(qd) == -2
    assert classify_double_pole(qd, None) == classify_double_pole(qd, 0.0) == kind


def test_classify_at_infinity_rejects_a_regular_point_and_a_higher_pole():
    winding = qd_new(Polynomial([-1.0]), Polynomial([0.5j, 0.0, -0.25 - 2.0j, 0.0, 1.0]))
    with pytest.raises(WrongOrder, match="regular"):
        classify_double_pole(winding, None)
    segment = qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), Polynomial([1.0]))
    with pytest.raises(WrongOrder, match="order -6"):
        classify_double_pole(segment, None)


def test_critical_directions_at_a_double_pole_names_where():
    qd = qd_from_p_over_q_squared(Polynomial([1.0]), Polynomial([0.0, 1.0]), sign=-1)
    origin, infinity = critical_points(qd)
    with pytest.raises(NotFiniteCritical, match="at infinity"):
        critical_directions(qd, infinity)
    with pytest.raises(NotFiniteCritical, match=r"at 0j$"):
        critical_directions(qd, origin)


def quadrature_residue(qd, pole, n=4096):
    """Res(sqrt(phi)) at a pole of even order by the n-point trapezoid rule
    on the circle of half the distance to the nearest other cluster, sqrt(phi)
    continued round it: the rule is exact to rounding for an integrand
    analytic on an annulus that wide."""
    b = pole.location
    r = 0.5 * min(abs(c.location - b) for c in qd.zeros + qd.poles if c is not pole)
    w = np.exp(2j * np.pi * np.arange(n) / n)
    roots = continue_sqrt_along(qd.phi_array(b + r * w))
    return complex(np.sum(roots * r * w)) / n


def random_clusters(rng, count, orders):
    """count clusters at least 0.4 apart in the square [-2, 2]^2, of random
    orders from orders."""
    locs = []
    while len(locs) < count:
        z = complex(*rng.uniform(-2.0, 2.0, size=2))
        if all(abs(z - w) >= 0.4 for w in locs):
            locs.append(z)
    return [RootCluster(z, int(rng.choice(orders)), 0.0) for z in locs]


@pytest.mark.parametrize("order", [2, 4, 6])
def test_squared_residue_matches_quadrature(order):
    rng = np.random.default_rng(order)
    worst = 0.0
    for _ in range(20):
        pole, *others = random_clusters(rng, 6, [1, 2, 3])
        pole = RootCluster(pole.location, order, 0.0)
        zeros, poles = others[:3], [pole] + others[3:]
        lead = complex(*rng.normal(size=2))
        qd = QuadraticDifferential(lead, zeros, poles)
        r2 = squared_residue(qd, pole)
        if order == 2:
            assert r2 == local_leading_coefficient(qd, pole.location)
        want = quadrature_residue(qd, pole) ** 2
        worst = max(worst, abs(r2 - want) / abs(want))
        # the residue of the one-form sqrt(phi) dz is unmoved by a change of
        # variable z = a w + b0, the clusters moved and lead scaled by a^(2 + d)
        a, b0 = complex(*rng.uniform(0.5, 2.0, size=2)), complex(*rng.normal(size=2))
        moved = lambda cs: [RootCluster((c.location - b0) / a, c.multiplicity, c.radius / abs(a))
                            for c in cs]
        d = sum(c.multiplicity for c in zeros) - sum(c.multiplicity for c in poles)
        img = QuadraticDifferential(lead * a ** (2 + d), moved(zeros), moved(poles))
        assert squared_residue(img, img.poles[0]) == pytest.approx(r2, rel=1e-13)
    assert worst <= 1e-13


@pytest.mark.parametrize("lead", [complex(2.0, -0.0), complex(-0.0, -2.0)])
def test_squared_residue_of_a_double_pole_is_its_quadratic_residue_to_the_bit(lead):
    qd = QuadraticDifferential(lead, [], [RootCluster(0j, 2, 0.0)])
    want = local_leading_coefficient(qd, 0j)
    got = squared_residue(qd, qd.poles[0])
    assert [math.copysign(1.0, x) for x in (got.real, got.imag)] == \
        [math.copysign(1.0, x) for x in (want.real, want.imag)]
    assert got == want == critical_points(qd)[0].quadratic_residue


def test_single_valued_at_zero_and_circular_residues():
    # 1/z^4 has residue 0, which double_pole_kind alone would call Radial
    qd = qd_new(Polynomial([1.0]), Polynomial([0.0, 0.0, 0.0, 0.0, 1.0]))
    assert squared_residue(qd, qd.poles[0]) == 0
    assert single_valued(0j)
    for c, want in ((-1.0 + 0j, True), (1.0 + 0j, False), (2j, False),
                    (-complex(math.cos(2e-9), math.sin(2e-9)), False)):
        assert single_valued(c) is want


def test_residue_zero_by_symmetry_is_zero_to_rounding():
    # the power sums vanish analytically at 0 but not in floats: the roots
    # of unity are a rounding off, and the raw Res^2 ~ 1e-32 would have a
    # random argument
    for p, q, k in (([-1.0, 0, 0, 0, 0, 1.0], [0, 0, 0, 1.0], 3),          # (z^5 - 1) / z^6
                    ([1.0], [0, 0, -1.0, 0, 0, 1.0], 2),                    # 1 / (z^2 (z^3 - 1))^2
                    ([np.exp(0.4j), 0, 0, 0, np.exp(-0.4j)], [0, 0, 1.0], 2)):
        qd = qd_from_p_over_q_squared(Polynomial(p), Polynomial(q))
        [pole] = [c for c in qd.poles if c.location == 0]
        sums = [sum(sign * c.multiplicity / c.location ** j
                    for cs, sign in ((qd.zeros, 1), (qd.poles, -1)) for c in cs if c is not pole)
                for j in range(1, k)]
        assert any(s != 0 for s in sums)
        assert squared_residue(qd, pole) == 0j
    # a residue of 1e-9 relative, far above rounding, is kept: zeros at
    # +-1, i and -i (1 + 1e-9) give p_1 = i 1e-9 / (1 + 1e-9) at 0
    zeros = [RootCluster(z, 1, 0.0) for z in (-1.0, 1.0, 1j, -1j * (1 + 1e-9))]
    qd = QuadraticDifferential(1.0, zeros, [RootCluster(0j, 4, 0.0)])
    h1 = -0.5 * sum(1 / c.location for c in zeros)
    got = squared_residue(qd, qd.poles[0])
    assert got != 0 and got == pytest.approx(local_leading_coefficient(qd, 0j) * h1 * h1, rel=1e-6)
    assert not single_valued(got)


def test_sqrt_branch_continuity_small_steps():
    rng = np.random.default_rng(31)
    qd = rand_qd(rng)
    # walk a smooth arc; consecutive sqrt values must not jump sign
    th = np.linspace(0.0, 2 * math.pi, 400)
    zs = 5.0 + 0.3 * np.exp(1j * th)
    ws = continue_sqrt_along(qd.phi_array(zs))
    assert np.all(np.abs(ws[1:] - ws[:-1]) < np.abs(ws[1:] + ws[:-1]))


def test_sqrt_monodromy_around_simple_zero():
    # a loop around one simple zero must flip the branch
    qd = qd_new(Polynomial([0.0, 1.0]), Polynomial([1.0]))
    th = np.linspace(0.0, 2 * math.pi, 600)
    zs = 0.5 * np.exp(1j * th)
    ws = continue_sqrt_along(qd.phi_array(zs))
    assert abs(ws[-1] + ws[0]) < 1e-6 * abs(ws[0])


def test_sqrt_monodromy_trivial_around_pair():
    # a loop enclosing two simple zeros returns to the same branch
    qd = qd_new(Polynomial([-1.0, 0.0, 1.0]), Polynomial([1.0]))
    th = np.linspace(0.0, 2 * math.pi, 800)
    zs = 3.0 * np.exp(1j * th)
    ws = continue_sqrt_along(qd.phi_array(zs))
    assert abs(ws[-1] - ws[0]) < 1e-6 * abs(ws[0])


def test_guard_radius_positive_and_scales():
    qd = qd_new(Polynomial([-1.0, 0.0, 1.0]), Polynomial([0.0, 1.0]))
    g = qd.guard_radius(1.0)
    assert g > 0
    big = qd_new(Polynomial.from_roots([1e3, -1e3]), Polynomial([0.0, 1.0]))
    assert big.guard_radius(1e3) == pytest.approx(1e3 * g, rel=1e-9)


def test_phi_array_matches_scalar():
    rng = np.random.default_rng(7)
    qd = rand_qd(rng)
    zs = rng.normal(size=20) + 1j * rng.normal(size=20)
    arr = qd.phi_array(zs)
    for z, v in zip(zs, arr):
        assert v == pytest.approx(qd.phi(complex(z)), rel=1e-13)


@pytest.mark.parametrize("n_zeros, n_poles", [(6, 0), (0, 1), (4, 3), (9, 5)])
def test_phi_array_is_phi_to_rounding_not_to_the_bit(n_zeros, n_poles):
    # numpy rounds complex products and quotients apart from Python, poles
    # or not. phi takes m factors into v and n into b, then divides: m + n - 1
    # products and a quotient, each side. A product is within sqrt(5) u of
    # the exact one (u = 2^-53), and the quotient is counted as two, so the
    # two sides are within 2 sqrt(5) (m + n + 1) u of each other.
    rng = np.random.default_rng(n_zeros + 10 * n_poles)
    zeros = [RootCluster(complex(*rng.normal(size=2)), 1, 0.0) for _ in range(n_zeros)]
    poles = [RootCluster(complex(*rng.normal(size=2)), 1, 0.0) for _ in range(n_poles)]
    qd = QuadraticDifferential(complex(*rng.normal(size=2)), zeros, poles)
    zs = 1.5 * np.exp(2j * np.pi * np.arange(516) / 516)
    arr = qd.phi_array(zs)
    ref = np.array([qd.phi(complex(z)) for z in zs])
    assert np.any(arr != ref)
    bound = 2 * math.sqrt(5) * (n_zeros + n_poles + 1) * 2.0 ** -53
    assert np.max(np.abs(arr - ref) / np.abs(ref)) <= bound


def _phi_array_loops(qd, z):
    """phi at an array of points by loops over the clusters: lead and the
    factors multiplied in once per unit of their order, in cluster order,
    the pole factors into a product that starts at one."""
    z = np.asarray(z, dtype=complex)
    v = np.full(z.shape, qd.lead)
    for c in qd.zeros:
        f = z - c.location
        for _ in range(c.multiplicity):
            v = v * f
    if not qd.poles:
        return v
    b = np.ones(z.shape, dtype=complex)
    for c in qd.poles:
        f = z - c.location
        for _ in range(c.multiplicity):
            b = b * f
    return v / b


@pytest.mark.parametrize("n_zeros, n_poles", [(0, 0), (3, 0), (0, 2), (1, 1), (6, 2), (4, 3)])
def test_phi_array_is_the_loop_form_to_the_bit(n_zeros, n_poles):
    # phi_array runs phi's generated product lines on arrays; off the axes,
    # where no imaginary part is an exact zero of either sign, that is the
    # loop form bit for bit, at any multiplicities and array shape
    rng = np.random.default_rng(100 + 10 * n_zeros + n_poles)
    for _ in range(20):
        zeros, poles = ([RootCluster(complex(*rng.normal(size=2)), int(rng.integers(1, 4)), 0.0)
                         for _ in range(n)] for n in (n_zeros, n_poles))
        qd = QuadraticDifferential(complex(*rng.normal(size=2)), zeros, poles)
        zs = 2.0 * (rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64)))
        got, want = qd.phi_array(zs), _phi_array_loops(qd, zs)
        assert got.shape == zs.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_phi_array_of_a_constant_is_a_fresh_array_shaped_like_z():
    lead = complex(-0.0, 2.5)
    qd = QuadraticDifferential(lead, [], [])
    zs = np.zeros((3, 2), dtype=complex)
    out = qd.phi_array(zs)
    assert out.shape == zs.shape and out.dtype == complex and out.flags.writeable
    np.testing.assert_array_equal(out.view(np.uint64), np.full(zs.shape, lead).view(np.uint64))
    out[0, 0] = 7.0
    assert qd.phi_array(zs)[0, 0] == lead and qd.phi_array(zs[0, 0]) == lead


def test_measure_density_semicircle():
    # p=1, q=-z, r=1: density along the real segment is sqrt(4-x^2)/(2 pi)
    qd = cauchy_qd(Polynomial([1.0]), Polynomial([0.0, -1.0]), Polynomial([1.0]))
    xs = np.linspace(-1.5, 1.5, 7)
    dens = measure_density(qd, [complex(x) for x in xs])
    for x, d in zip(xs, dens):
        want = math.sqrt(4 - x * x) / (2 * math.pi)
        assert d.real == pytest.approx(want, rel=1e-12)
        assert abs(d.imag) < 1e-12
    mid = dens[3]
    assert mid.real == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_measure_mass_semicircle():
    qd = cauchy_qd(Polynomial([1.0]), Polynomial([0.0, -1.0]), Polynomial([1.0]))
    pts = [complex(x) for x in np.linspace(-2.0, 2.0, 4001)]
    assert measure_mass(qd, pts) == pytest.approx(1.0, abs=2e-5)
    # resampling a coarse polyline should recover the same mass
    coarse = [complex(x) for x in np.linspace(-2.0, 2.0, 9)]
    assert measure_mass(qd, coarse, max_step=1e-3) == pytest.approx(1.0, abs=2e-5)


def _compose(p, a, b):
    """p(a z + b), by Horner's rule over polynomials."""
    acc = Polynomial()
    for c in reversed(p.coeffs):
        acc = acc * Polynomial([b, a]) + Polynomial([c])
    return acc


def _semicircle(shift, scale):
    """p = 1, q = -(z - shift) / scale, r = 1: the semicircle law on the
    segment of half-length 2 scale about shift, of mass scale."""
    return (Polynomial([1.0]), Polynomial([shift / scale, -1.0 / scale]), Polynomial([1.0])), scale


def _moved(triple, a, b=0.0):
    """p C^2 + q C + r = 0 in w, z = a w + b: p(a w + b), a q(a w + b) and
    a^2 r(a w + b), whose measure is the image of p, q, r's, of equal mass."""
    p, q, r = (_compose(f, a, b) for f in triple)
    return p, q * a, r * (a * a)


# p = z^2 - 4, q = -2 p, r = p - 1: phi = -4 / (z^2 - 4), the arcsine law on
# [-2, 2], of mass 1, whose support ends at simple poles
ARCSINE = (Polynomial([-4.0, 0.0, 1.0]), Polynomial([8.0, 0.0, -2.0]), Polynomial([-5.0, 0.0, 1.0]))


@pytest.mark.parametrize("triple, mass", [
    *(pytest.param(*_semicircle(shift, scale), id=f"{shift}-{scale}")
      for shift, scale in [(0.0, 1.0), (0.3, 1.0), (-1.7, 0.6), (0.5, 1.9)]),
    *(pytest.param(_moved(_semicircle(0.0, 1.0)[0], 1.3 * cmath.exp(1j * t), 0.4 - 0.2j), 1.0,
                   id=f"semicircle-turned-{t:.3g}") for t in (0.3, 1.0, math.pi / 2, 2.5)),
    pytest.param(ARCSINE, 1.0, id="arcsine"),
    pytest.param(_moved(ARCSINE, cmath.exp(0.7j)), 1.0, id="arcsine-turned-0.7"),
])
def test_measure_mass_resolves_square_root_ends(triple, mass):
    # the ends of a support arc, zeros or simple poles, are taken in the
    # charts of zeta_from, so the mass is exact to rounding there; it does
    # not depend on the support's direction, and reversing the polyline
    # keeps it
    from qdsphere.graph import find_short_trajectories
    qd = cauchy_qd(*triple)
    (edge,) = find_short_trajectories(qd)
    for step in (None, qd.diameter() / 2000):
        for polyline in (edge.polyline, edge.polyline[::-1]):
            got = measure_mass(qd, polyline, max_step=step)
            assert got == pytest.approx(mass, abs=1e-12)
            assert got == pytest.approx(edge.phi_length / (2 * math.pi), abs=1e-9)


def test_measure_mass_at_a_vertex_on_a_pole_is_pole_on_path():
    # the charts of the end segments evaluate phi at the polyline's second
    # and second-to-last points, not only at quadrature nodes
    qd = cauchy_qd(*ARCSINE)
    for pts in ([0j, 2 + 0j, 3 + 0j], [3 + 0j, 2 + 0j, 0j]):
        with pytest.raises(PoleOnPath, match=r"^\(2\+0j\) is numerically at a pole"):
            measure_mass(qd, pts)


def test_provenance_round_trip():
    p = Polynomial([-1.0, 0.0, 1.0])
    q = Polynomial([0.0, 1.0])
    qd = qd_from_p_over_q_squared(p, q, sign=-1)
    assert qd.form == "p_over_q_squared"
    p_eff = p * -1
    assert qd.lead == p_eff.coeffs[-1] / (q * q).coeffs[-1]
    plain = qd_new(p_eff, q * q)
    assert plain.form is None
    assert (plain.lead, plain.zeros, plain.poles) == (qd.lead, qd.zeros, qd.poles)


def test_critical_point_at_infinity_reported():
    # constant phi: the only critical point is the order -4 pole at infinity
    qd = qd_new(Polynomial([2.0]), Polynomial([1.0]))
    cps = critical_points(qd)
    assert len(cps) == 1
    assert cps[0].at is None
    assert cps[0].signed_order == -4


def test_double_pole_at_infinity_quadratic_residue():
    # phi = 1/(z^2-1): order at infinity is -2, residue recorded
    qd = qd_new(Polynomial([1.0]), Polynomial([-1.0, 0.0, 1.0]))
    inf = [c for c in critical_points(qd) if c.at is None]
    assert len(inf) == 1
    assert inf[0].signed_order == -2
    assert inf[0].quadratic_residue is not None


# -- the p/q^2 and lemniscate constructors ----------------------------------


def test_lemniscate_high_multiplicity_roots():
    # r = (z-5)^6 (z-1) / (z+1)^4: r'/r = 6/(z-5) + 1/(z-1) - 4/(z+1), whose
    # numerator is 3 (3z^2 + 20z - 31)
    p = Polynomial.from_roots([5.0] * 6 + [1.0])
    q = Polynomial.from_roots([-1.0] * 4)
    qd = lemniscate_qd(p, q)
    assert [c.multiplicity for c in qd.poles] == [2, 2, 2]
    for c, want in zip(qd.poles, [-1.0, 1.0, 5.0]):
        assert abs(c.location - want) < 1e-12
    assert [c.multiplicity for c in qd.zeros] == [2, 2]
    for c, want in zip(qd.zeros, [(-10 - math.sqrt(193)) / 3, (-10 + math.sqrt(193)) / 3]):
        assert abs(c.location - want) < 1e-12


def test_lemniscate_sweep_one_double_pole_per_root():
    # p = (z-a)^m (z-b), q = (z-c)^k: a double pole at each of a, b, c with
    # quadratic residue -m_a^2, m_a the signed multiplicity in r = p/q
    rng = np.random.default_rng(8)
    for _ in range(60):
        a, b, c = (float(x) for x in rng.choice(np.arange(-6, 7), size=3, replace=False))
        m, k = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        qd = lemniscate_qd(Polynomial.from_roots([a] * m + [b]), Polynomial.from_roots([c] * k))
        assert len(qd.poles) == 3 and all(pc.multiplicity == 2 for pc in qd.poles)
        cps = critical_points(qd)
        assert sum(cp.signed_order for cp in cps) == -4
        residues = {round(cp.at.real): cp.quadratic_residue
                    for cp in cps if cp.signed_order == -2 and cp.at is not None}
        assert set(residues) == {a, b, c}
        for at, want in ((a, m * m), (b, 1), (c, k * k)):
            assert residues[at] == pytest.approx(-want, rel=1e-9)


@pytest.mark.parametrize("build", [qd_from_p_over_q_squared, lemniscate_qd])
def test_constructors_reject_shared_root(build):
    with pytest.raises(NotCoprime):
        build(Polynomial.from_roots([1.0, -2.0]), Polynomial.from_roots([1.0]))


def test_lemniscate_of_constant_ratio_rejected():
    with pytest.raises(ConstantRational):
        lemniscate_qd(Polynomial([2.0]), Polynomial([3.0]))


def test_constructors_find_each_root_set_once(monkeypatch):
    calls = []
    real = polyalg.poly_roots

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(polyalg, "poly_roots", counted)
    monkeypatch.setattr(qdiff, "poly_roots", counted)
    p = Polynomial.from_roots([1.0, 2.0, 2.0])
    q = Polynomial.from_roots([-1.0, 3.0])
    qd_from_p_over_q_squared(p, q)
    assert calls == [p, q]
    calls.clear()
    qd = lemniscate_qd(p, q)
    assert calls[:2] == [p, q] and len(calls) == 3
    assert calls[2].degree == 3                 # the reduced numerator over 4 sites
    assert [c.location for c in qd.zeros] == [c.location for c in real(calls[2])]
