import dataclasses
import math

import numpy as np
import pytest

from qdsphere.errors import (
    BranchAmbiguity,
    EmptyLevel,
    GuardViolation,
    PathBlocked,
    ResidueObstruction,
    WrongProvenance,
)
from qdsphere import level
from qdsphere.criteria import residue_criterion
from qdsphere.graph import PairingFailure, pair_zeros_by_short_trajectories
from qdsphere.level import level_function, level_grid, verify_level
from qdsphere.polyalg import Polynomial, RootCluster
from qdsphere.qdiff import QuadraticDifferential, qd_from_p_over_q_squared, qd_new
from qdsphere.tracer import TraceOptions, trace_horizontal

ONE = Polynomial([1.0])
Z = Polynomial([0.0, 1.0])


def circle_setup():
    # p = 1, q = z, sign -1: f = integral of i/z = i log z, so the level
    # Im f equals ln|z| once the base point sits on the unit circle
    qd = qd_from_p_over_q_squared(ONE, Z, sign=-1)
    pairing = pair_zeros_by_short_trajectories(qd)
    return qd, pairing


def segment_setup():
    qd = qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)
    pairing = pair_zeros_by_short_trajectories(qd)
    return qd, pairing


def segment_exact(x):
    # |Im F| for the antiderivative F of sqrt(1 - z^2) vanishing on [-1, 1],
    # evaluated at real x: (|x| sqrt(x^2-1) - arccosh|x|)/2 beyond the cut
    ax = abs(x)
    if ax <= 1:
        return 0.0
    return 0.5 * (ax * math.sqrt(ax * ax - 1) - math.acosh(ax))


def test_log_modulus_oracle_random_points():
    qd, pairing = circle_setup()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(25):
        z = complex(*rng.uniform(-4, 4, size=2))
        if abs(z) < 0.05:
            continue
        v = level_function(qd, pairing, z)
        worst = max(worst, abs(v - math.log(abs(z))))
    assert worst < 1e-10


def test_log_modulus_oracle_grid():
    qd, pairing = circle_setup()
    field = level_grid(qd, pairing, (-2.0, -2.0, 2.0, 2.0), 17)
    xs = np.linspace(-2, 2, 17)
    for iy, y in enumerate(xs):
        for ix, x in enumerate(xs):
            if field.undefined_mask[iy, ix]:
                continue
            want = math.log(abs(complex(x, y)))
            assert abs(field.grid[iy, ix] - want) < 1e-9


def test_grid_row_major_orientation():
    qd, pairing = circle_setup()
    field = level_grid(qd, pairing, (-2.0, -2.0, 2.0, 2.0), 9)
    # grid[iy, ix] follows y then x; the top row sits at y = +2 only if
    # iy indexes ascending y values
    assert field.grid[0, 0] == pytest.approx(math.log(abs(-2 - 2j)), abs=1e-9)
    assert field.n == 9
    assert field.grid.shape == (9, 9)


def test_level_and_residues_depend_on_phi_alone():
    # phi = -1/z^2 written as three (p, q) pairs, sign -1: the level and the
    # residue criterion read phi, not the pair it was built from
    results = []
    for p, q in (([1.0], [0.0, 1.0]), ([1.0], [0.0, -1.0]), ([4.0], [0.0, 2.0])):
        qd = qd_from_p_over_q_squared(Polynomial(p), Polynomial(q), sign=-1)
        pairing = pair_zeros_by_short_trajectories(qd)
        values = [level_function(qd, pairing, z) for z in (2.0, 0.5 + 1.0j, -3.0j)]
        grid = level_grid(qd, pairing, (-2.0, -2.0, 2.0, 2.0), 9).grid
        residue = residue_criterion(qd, pairing)
        results.append((values, grid.tobytes(), residue.verdict, residue.evidence["residues"]))
    assert results[0][0][0] == pytest.approx(math.log(2.0), abs=1e-10)
    assert results[1] == results[0] and results[2] == results[0]


def test_segment_level_spot_values():
    # the field is defined up to one global sign picked by the branch seed,
    # so compare magnitudes and check the symmetry Im f(-z) = Im f(z)
    qd, pairing = segment_setup()
    for x in (3.0, -3.0, 2.0, -1.7, 0.999):
        v = level_function(qd, pairing, complex(x))
        assert abs(v) == pytest.approx(abs(segment_exact(x)), abs=1e-7)
    assert level_function(qd, pairing, 3.0 + 0j) == pytest.approx(
        level_function(qd, pairing, -3.0 + 0j), abs=1e-9)
    # points on the short trajectory itself sit at level zero
    v_up = level_function(qd, pairing, 0.3 + 1e-7j)
    v_dn = level_function(qd, pairing, 0.3 - 1e-7j)
    assert v_up == pytest.approx(0.0, abs=1e-6)
    assert v_dn == pytest.approx(0.0, abs=1e-6)


def test_level_constant_along_trajectory():
    qd, pairing = segment_setup()
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=4.0)
    ray = trace_horizontal(qd, 1.5 + 1.0j, opts=opts)
    pts = ray.points[:: max(1, len(ray.points) // 40)]
    vals = [level_function(qd, pairing, complex(z)) for z in pts]
    assert np.std(vals) <= 1e-5 * (1 + abs(np.mean(vals)))


def test_level_two_calls_identical():
    qd, pairing = segment_setup()
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = complex(*rng.uniform(-3, 3, size=2))
        if abs(z - 1) < 0.3 or abs(z + 1) < 0.3:
            continue
        assert level_function(qd, pairing, z) == level_function(qd, pairing, z)


def test_grid_shares_leg_with_pointwise_values():
    # the grid integrates the base -> probe leg once for all samples; every
    # sample must still agree with its own level_function call, which
    # reaches the point through a different lattice
    qd, pairing = segment_setup()
    field = level_grid(qd, pairing, (-3.0, -2.5, 3.0, 2.5), 7)
    xs = np.linspace(-3.0, 3.0, 7)
    ys = np.linspace(-2.5, 2.5, 7)
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            v = level_function(qd, pairing, complex(x, y))
            assert abs(field.grid[iy, ix] - v) <= 1e-12 * (1.0 + abs(v))


def test_residue_obstruction_detected():
    # p = z^2 - 1, q = z - 2: sqrt(p)/q carries residue sqrt(3) at 2, so
    # paths on either side of the pole disagree by 2 pi sqrt(3)
    qd = qd_from_p_over_q_squared(Polynomial([-1.0, 0.0, 1.0]), Polynomial([-2.0, 1.0]))
    with pytest.raises(ResidueObstruction) as ei:
        level_function(qd, None, 4.0 + 0j)
    gap = ei.value.gap
    assert gap == pytest.approx(2 * math.pi * math.sqrt(3), rel=1e-6)


def test_guard_violation_near_pole():
    qd, pairing = circle_setup()
    with pytest.raises(GuardViolation):
        level_function(qd, pairing, 1e-9 + 0j)


def test_wrong_provenance_rejected():
    qd = qd_new(Polynomial([1.0, 0.0, -1.0]), ONE)
    with pytest.raises(WrongProvenance):
        level_function(qd, None, 2.0)


def test_grid_masks_pole_disks():
    qd, pairing = circle_setup()
    field = level_grid(qd, pairing, (-1.0, -1.0, 1.0, 1.0), 21)
    # the center sample coincides with the pole and must be masked
    assert field.undefined_mask[10, 10]
    assert not field.undefined_mask[0, 0]
    assert np.isnan(field.grid[10, 10]) or field.grid[10, 10] == 0.0


def test_verify_level_passes_clean_field():
    qd, pairing = segment_setup()
    field = level_grid(qd, pairing, (-3.0, -3.0, 3.0, 3.0), 24)
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=4.0)
    rays = [trace_horizontal(qd, z0, opts=opts)
            for z0 in (1.5 + 1.0j, -0.5 - 1.2j, 2.0 + 0.3j)]
    report = verify_level(field, rays)
    assert report.passed_i and report.passed_ii and report.passed_iii
    assert report.details["degenerate_blocks"] == 0


def test_verify_level_flags_flat_plateau():
    qd, pairing = segment_setup()
    field = level_grid(qd, pairing, (-3.0, -3.0, 3.0, 3.0), 24)
    g = field.grid.copy()
    g[5:7, 5:7] = 1.2345          # an exactly constant 2x2 block
    fake = dataclasses.replace(field, grid=g)
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=4.0)
    rays = [trace_horizontal(qd, 1.5 + 1.0j, opts=opts)]
    report = verify_level(fake, rays)
    assert not report.passed_iii
    assert report.details["degenerate_blocks"] >= 1


def test_verify_level_flags_corrupted_sample():
    qd, pairing = segment_setup()
    field = level_grid(qd, pairing, (-3.0, -3.0, 3.0, 3.0), 24)
    g = field.grid.copy()
    g[3, 3] += 8.0                # continuity breach far from any cut
    fake = dataclasses.replace(field, grid=g)
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=4.0)
    rays = [trace_horizontal(qd, 1.5 + 1.0j, opts=opts)]
    report = verify_level(fake, rays)
    assert not report.passed_i


def continuity_worst_reference(field, qd):
    # the double loop verify_level ran before it tabulated |sqrt(phi)|
    g, m, n = field.grid, field.undefined_mask, field.n
    x0, y0, x1, y1 = field.window
    hx = (x1 - x0) / max(n - 1, 1)
    hy = (y1 - y0) / max(n - 1, 1)
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    zs = np.empty((n, n), dtype=complex)
    zs.real, zs.imag = xs[None, :], ys[:, None]
    cut_x = level._crosses_cut(zs[:, :-1], zs[:, 1:], field.cuts)
    cut_y = level._crosses_cut(zs[:-1, :], zs[1:, :], field.cuts)
    worst, evaluated = 0.0, set()
    for iy in range(n):
        for ix in range(n):
            if m[iy, ix]:
                continue
            za = complex(xs[ix], ys[iy])
            for jy, jx, h, split in ((iy, ix + 1, hx, cut_x), (iy + 1, ix, hy, cut_y)):
                if jy >= n or jx >= n or m[jy, jx] or split[iy, ix]:
                    continue
                zb = complex(xs[jx], ys[jy])
                evaluated |= {za, zb}
                ga = math.sqrt(abs(qd.phi(za)))
                gb = math.sqrt(abs(qd.phi(zb)))
                bound = 4.0 * h * max(ga, gb)
                jump = abs(g[iy, ix] - g[jy, jx])
                if bound > 0:
                    worst = max(worst, jump / bound)
    return worst, evaluated


def _continuity_ratio(monkeypatch, field, rays, qd):
    """verify_level's worst continuity ratio and the points of its last
    radicand call, the one that tabulates |sqrt(phi)| for the check."""
    calls = []
    phi = field.setup.phi
    monkeypatch.setattr(field.setup, "phi", lambda z: calls.append(z.tolist()) or phi(z))
    ratio = verify_level(field, rays).details["continuity_worst_ratio"]
    return ratio, calls[-1]


@pytest.mark.parametrize("p, window, n", [
    ([1.0, 0.0, -1.0], (-3.0, -2.5, 3.0, 2.5), 17),
    ([4.0, 0.0, -1.0], (-3.5, -3.0, 3.5, 2.0), 13),
], ids=["1-z^2", "-(z^2-4)"])
def test_continuity_ratio_matches_double_loop(monkeypatch, p, window, n):
    qd = qd_from_p_over_q_squared(Polynomial(p), ONE)
    pairing = pair_zeros_by_short_trajectories(qd)
    field = level_grid(qd, pairing, window, n)
    rays = [trace_horizontal(qd, 0.3 + 0.5j, opts=TraceOptions.for_qd(qd, max_phi_length=4.0))]
    got, tabulated = _continuity_ratio(monkeypatch, field, rays, qd)
    want, evaluated = continuity_worst_reference(field, qd)
    assert got == want and got > 0.0
    assert len(tabulated) == len(evaluated) and set(tabulated) == evaluated


def test_continuity_check_skips_masked_points(monkeypatch):
    # q = z vanishes at the masked centre of the grid; a table that
    # evaluated every point would divide by zero there
    qd, pairing = circle_setup()
    field = level_grid(qd, pairing, (-2.0, -2.0, 2.0, 2.0), 11)
    assert field.undefined_mask[5, 5]
    rays = [trace_horizontal(qd, 1.5, opts=TraceOptions.for_qd(qd, max_phi_length=4.0))]
    got, tabulated = _continuity_ratio(monkeypatch, field, rays, qd)
    want, evaluated = continuity_worst_reference(field, qd)
    assert got == want and got > 0.0
    assert len(tabulated) == len(evaluated) and set(tabulated) == evaluated


def test_continuity_ratio_matches_double_loop_under_random_masks(monkeypatch):
    # q = 1 vanishes nowhere, so any mask may be laid over the field; sparse
    # masks leave points whose only checked pair is vertical
    qd, pairing = segment_setup()
    field = level_grid(qd, pairing, (-3.0, -2.5, 3.0, 2.5), 12)
    rays = [trace_horizontal(qd, 0.3 + 0.5j, opts=TraceOptions.for_qd(qd, max_phi_length=4.0))]
    rng = np.random.default_rng(7)
    for density in (0.3, 0.5, 0.7):
        fake = dataclasses.replace(field, undefined_mask=rng.random((12, 12)) < density)
        got, tabulated = _continuity_ratio(monkeypatch, fake, rays, qd)
        want, evaluated = continuity_worst_reference(fake, qd)
        assert got == want
        assert len(tabulated) == len(evaluated) and set(tabulated) == evaluated


def test_verify_level_needs_rays():
    qd, pairing = segment_setup()
    field = level_grid(qd, pairing, (-3.0, -3.0, 3.0, 3.0), 8)
    with pytest.raises(EmptyLevel):
        verify_level(field, [])


def test_level_harmonic_away_from_cuts():
    # Im f is harmonic off the critical set: the five-point Laplacian on a
    # fine local stencil must vanish to refinement order
    qd, pairing = segment_setup()
    z0 = 1.3 + 1.1j
    h = 1e-3
    f = lambda z: level_function(qd, pairing, z)
    lap = (f(z0 + h) + f(z0 - h) + f(z0 + 1j * h) + f(z0 - 1j * h) - 4 * f(z0)) / h**2
    assert abs(lap) < 1e-4


def test_cut_crossing_continuity():
    # Im f extends continuously across the cut even though the branch flips
    qd, pairing = segment_setup()
    eps = 1e-7
    for x in (-0.6, 0.0, 0.7):
        up = level_function(qd, pairing, complex(x, eps))
        dn = level_function(qd, pairing, complex(x, -eps))
        assert abs(up - dn) < 1e-5


def test_default_segment_grid_on_the_cut():
    # the default level example (window +-4, n = 65): the row y = 0 holds 17
    # samples on the cut, both zeros included; they get values but pass no
    # branch on, so neither half of the lattice leaks into the other
    qd, pairing = segment_setup()
    field = level_grid(qd, pairing, (-4.0, -4.0, 4.0, 4.0), 65)
    xs = np.linspace(-4.0, 4.0, 65)
    row = field.grid[32]
    on_cut = np.abs(xs) <= 1.0
    assert np.count_nonzero(on_cut) == 17
    assert np.all(np.abs(row[on_cut]) <= 1e-12)
    for x, v in zip(xs[~on_cut], row[~on_cut]):
        assert abs(abs(v) - segment_exact(x)) <= 1e-10 * (1.0 + segment_exact(x))
    assert np.all(np.isnan(field.branch[32][on_cut]))


def test_residue_obstruction_sits_at_the_pole(monkeypatch):
    # decided by the residue of sqrt(phi) at the pole, whatever the target,
    # with no quadrature at all
    monkeypatch.setattr(level, "sqrt_panel_integrals", None)
    qd = qd_from_p_over_q_squared(Polynomial([-1.0, 0.0, 1.0]), Polynomial([-2.0, 1.0]))
    for z in (4.0 + 0j, -3.0 + 1j):
        with pytest.raises(ResidueObstruction) as ei:
            level_function(qd, None, z)
        assert ei.value.at == 2.0
        assert ei.value.gap == pytest.approx(2 * math.pi * math.sqrt(3), rel=1e-12)
    with pytest.raises(ResidueObstruction):
        level_grid(qd, None, (-3.0, -3.0, 3.0, 3.0), 5)


def test_zero_residue_publishes_a_grid():
    # 1/z^4: sqrt(phi) = 1/z^2 has residue 0, single-valued round the pole
    qd = qd_from_p_over_q_squared(ONE, Polynomial([0.0, 0.0, 1.0]))
    field = level_grid(qd, pair_zeros_by_short_trajectories(qd), (-3.0, -3.0, 3.0, 3.0), 9)
    assert field.undefined_mask[4, 4] and not field.undefined_mask[0, 0]
    # Im of -1/z + 1 from the base 1
    assert field.grid[0, 0] == pytest.approx((-1 / complex(-3.0, -3.0)).imag, abs=1e-10)


def test_odd_order_pole_is_a_branch_ambiguity_before_any_lattice(monkeypatch):
    # a pole of order 3 at 2i beside the segment's zeros: a branch point of
    # sqrt(phi) that no cut ends at, reached only through a forged pairing
    seg, pairing = segment_setup()
    qd = QuadraticDifferential(1.0, seg.zeros, [RootCluster(2.0j, 3, 0.0)], "p_over_q_squared")
    forged = dataclasses.replace(pairing, method="forged")
    monkeypatch.setattr(level._LevelSetup, "continue_over", None)
    with pytest.raises(BranchAmbiguity, match=r"^the pole at 2j has odd order 3$"):
        level_grid(qd, forged, (-3.0, -3.0, 3.0, 3.0), 8)
    with pytest.raises(BranchAmbiguity, match=r"^the pole at 2j has odd order 3$"):
        level_function(qd, forged, 1.5 + 1.0j)


def test_lattice_loop_gate_catches_a_cut_that_misses_a_zero():
    # half a cut leaves the zero at 1 free: a lattice loop around it flips
    # the branch, and the non-tree edge that closes the loop must say so
    qd, pairing = segment_setup()
    cut = pairing.polylines[0]
    broken = dataclasses.replace(pairing, polylines=[cut[: len(cut) // 2]])
    with pytest.raises(BranchAmbiguity):
        level_grid(qd, broken, (-3.0, -2.5, 3.0, 2.5), 9)


def test_unreachable_sample_is_path_blocked():
    qd, pairing = segment_setup()
    with pytest.raises(PathBlocked):
        level_grid(qd, pairing, (-0.9, -1.0, 0.9, 1.0), 8)


def test_level_without_a_pairing_continues_no_lattice(monkeypatch):
    # the poles are checked, then BranchAmbiguity: without the paired cuts a
    # lattice loop can go round a lone zero; the base still reads 0
    qd, _pairing = segment_setup()
    failure = PairingFailure([0, 1], [z.location for z in qd.zeros], "no short trajectory")
    monkeypatch.setattr(level._LevelSetup, "continue_over", None)
    for pairing in (None, failure):
        with pytest.raises(BranchAmbiguity):
            level_grid(qd, pairing, (-3.0, -3.0, 3.0, 3.0), 8)
        with pytest.raises(BranchAmbiguity):
            level_function(qd, pairing, 2.0 + 1.0j)
        assert level_function(qd, pairing, qd.zeros[0].location) == 0.0


def test_verify_level_reads_the_setup_of_its_field(monkeypatch):
    qd, pairing = segment_setup()
    field = level_grid(qd, pairing, (-3.0, -3.0, 3.0, 3.0), 8)
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=4.0)
    rays = [trace_horizontal(qd, 1.5 + 1.0j, opts=opts)]
    want = verify_level(field, rays)
    monkeypatch.setattr(level, "_LevelSetup", None)
    monkeypatch.setattr(level, "_lattice", None)
    assert verify_level(field, rays) == want
