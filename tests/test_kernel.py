"""The vectorized branch-continuation kernel against the scalar loops it
replaced, which are kept here as references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsphere import level
from qdsphere.errors import PoleOnPath
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
    qd_from_p_over_q_squared,
    qd_new,
    sqrt_panel_integrals,
)
from qdsphere.tracer import TraceOptions, imag_drift_of, trace_horizontal

ONE = Polynomial([1.0])
Z = Polynomial([0.0, 1.0])


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


def _panel_reference(p, q, a, b, hint, singular, depth):
    mid = 0.5 * (a + b)
    d = min((abs(mid - s) for s in singular), default=math.inf)
    if abs(b - a) <= 0.4 * d or depth >= 26:
        half = 0.5 * (b - a)
        zs = mid + half * GL_NODES
        pv, qv = p.eval_array(zs), q.eval_array(zs)
        seg = 0j
        for k in range(len(zs)):
            hint = continue_sqrt(complex(pv[k]), hint)
            seg += GL_WEIGHTS[k] * hint / complex(qv[k])
        return seg * half, hint
    s1, hint = _panel_reference(p, q, a, mid, hint, singular, depth + 1)
    s2, hint = _panel_reference(p, q, mid, b, hint, singular, depth + 1)
    return s1 + s2, hint


def integrate_reference(p, q, path, seed_hint, singular):
    hint, total = seed_hint, 0j
    for a, b in zip(path[:-1], path[1:]):
        if a != b:
            seg, hint = _panel_reference(p, q, a, b, hint, singular, 0)
            total += seg
    return total, hint


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


# ---------------------------------------------------------------- kernel

# magnitudes bounded so no square root lands in the subnormal range
_coord = st.one_of(st.just(0.0), st.floats(min_value=1e-100, max_value=1e100),
                   st.floats(min_value=-1e100, max_value=-1e-100))
_value = st.builds(complex, _coord, _coord)


@st.composite
def _walks(draw):
    """Sequences mixing random values, small steps and near-antipodal jumps."""
    n = draw(st.integers(min_value=0, max_value=40))
    vals = []
    for _ in range(n):
        move = draw(st.sampled_from(("fresh", "step", "antipode")))
        if move == "fresh" or not vals:
            vals.append(draw(_value))
        elif move == "step":
            vals.append(vals[-1] * complex(1.0, draw(st.floats(-0.3, 0.3))))
        else:
            vals.append(-vals[-1] * complex(1.0, draw(st.floats(-1e-12, 1e-12))))
    return vals


@settings(max_examples=200, deadline=None)
@given(_walks(), st.one_of(st.none(), _value))
def test_continue_sqrt_along_matches_loop(values, hint):
    got = continue_sqrt_along(np.asarray(values, dtype=complex), hint)
    assert got.tolist() == continue_sqrt_loop(values, hint)


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


def test_panel_integrals_cross_block_edges():
    # sqrt(z)/z once around |z| = 1.5: the branch flips sign past the
    # negative axis, in the second block, and must stay flipped in the third
    n = 2 * PANEL_BLOCK + 3
    pts = 1.5 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n + 1))
    running, hint = sqrt_panel_integrals(pts[:-1], pts[1:], Z.eval_array, Z.eval_array)
    ref_hint, acc = None, 0j
    for k, (a, b) in enumerate(zip(pts[:-1], pts[1:])):
        seg, ref_hint = _panel_reference(Z, Z, complex(a), complex(b), ref_hint, [], 26)
        acc += seg
        assert abs(running[k] - acc) <= 1e-14 * (1.0 + abs(acc))
    assert hint == ref_hint
    # the integral of z^(-1/2) dz from 1.5 round to 1.5 e^(2 pi i)
    assert running[-1] == pytest.approx(-4.0 * math.sqrt(1.5), rel=1e-12)


def test_panel_integrals_node_on_pole_raises():
    q = Polynomial([-GL_NODES[3], 1.0])
    with pytest.raises(PoleOnPath):
        sqrt_panel_integrals([-1.0], [1.0], ONE.eval_array, q.eval_array)


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
    monkeypatch.setattr(level, "_integrate", integrate_reference)
    want = level.level_grid(qd, pairing, window, 6).grid
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_measure_density_matches_scalar_reference():
    triple = (ONE, Polynomial([0.0, -1.0]), ONE)
    pts = list(np.linspace(-2.0, 2.0, 41) + 1e-3j)
    got = measure_density(cauchy_qd(*triple), pts)
    want = measure_density_reference(*triple, pts)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15
