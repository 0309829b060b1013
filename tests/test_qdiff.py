import math

import numpy as np
import pytest

from qdsphere import polyalg, qdiff
from qdsphere.errors import ConstantRational, NotCoprime, WrongOrder
from qdsphere.polyalg import Polynomial
from qdsphere.qdiff import (
    CIRCULAR,
    RADIAL,
    SPIRAL,
    SpherePoint,
    cauchy_qd,
    classify_double_pole,
    continue_sqrt_along,
    critical_directions,
    critical_points,
    lemniscate_qd,
    measure_density,
    measure_mass,
    order_at_infinity,
    qd_from_p_over_q_squared,
    qd_new,
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


@pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (0.3, 1.0), (-1.7, 0.6), (0.5, 1.9)])
def test_measure_mass_resolves_square_root_ends(shift, scale):
    # p = 1, q = -(z - shift) / scale, r = 1: the support is the segment of
    # half-length 2 scale about shift, of mass scale; graded end panels give
    # it to rounding, where the trapezoid rule lost 4.65e-5 at the ends
    from qdsphere.graph import find_short_trajectories
    q = Polynomial([shift / scale, -1.0 / scale])
    qd = cauchy_qd(Polynomial([1.0]), q, Polynomial([1.0]))
    (edge,) = find_short_trajectories(qd)
    for step in (None, qd.diameter() / 2000):
        mass = measure_mass(qd, edge.polyline, max_step=step)
        assert mass == pytest.approx(scale, abs=1e-10)
        assert mass == pytest.approx(edge.phi_length / (2 * math.pi), abs=1e-9)


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
    assert cps[0].at.is_infinite
    assert cps[0].signed_order == -4


def test_double_pole_at_infinity_quadratic_residue():
    # phi = 1/(z^2-1): order at infinity is -2, residue recorded
    qd = qd_new(Polynomial([1.0]), Polynomial([-1.0, 0.0, 1.0]))
    inf = [c for c in critical_points(qd) if c.at.is_infinite]
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
        residues = {round(cp.at.value.real): cp.quadratic_residue
                    for cp in cps if cp.signed_order == -2 and not cp.at.is_infinite}
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
