import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsphere import polyalg
from qdsphere.errors import ZeroPolynomial
from qdsphere.polyalg import P, I_P, Polynomial, exact_multiplicities, gaussian, poly_roots


def from_roots(roots, lead=1.0):
    return Polynomial.from_roots([complex(r) for r in roots], lead)


def test_eval_and_derivative():
    p = Polynomial([1.0, -2.0, 3.0])          # 1 - 2z + 3z^2
    assert p(0) == 1
    assert p(1j) == 1 - 2j - 3
    dp = p.derivative()
    assert dp.coeffs == (-2 + 0j, 6 + 0j)


def test_arithmetic_identities():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = Polynomial(rng.normal(size=4) + 1j * rng.normal(size=4))
        b = Polynomial(rng.normal(size=3) + 1j * rng.normal(size=3))
        z = complex(*rng.normal(size=2))
        assert (a * b)(z) == pytest.approx(a(z) * b(z), rel=1e-12)
        assert (a + b)(z) == pytest.approx(a(z) + b(z), rel=1e-12)


def test_simple_roots_random():
    rng = np.random.default_rng(5)
    for _ in range(40):
        roots = rng.normal(size=5) + 1j * rng.normal(size=5)
        p = from_roots(roots)
        found = poly_roots(p)
        assert sum(c.multiplicity for c in found) == 5
        got = sorted((c.location for c in found), key=lambda z: (z.real, z.imag))
        want = sorted(roots, key=lambda z: (z.real, z.imag))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-7 * max(1.0, abs(w))


def test_triple_root_detected():
    p = from_roots([2.0, 2.0, 2.0, -1.0])
    found = {round(c.location.real, 6): c.multiplicity for c in poly_roots(p)}
    assert found == {2.0: 3, -1.0: 1}


def test_two_nearby_double_roots_not_merged():
    # a quadruple-root hypothesis at the midpoint must be rejected
    eps = 2e-3
    p = from_roots([1 - eps, 1 - eps, 1 + eps, 1 + eps])
    found = sorted(poly_roots(p), key=lambda c: c.location.real)
    assert [c.multiplicity for c in found] == [2, 2]
    assert abs(found[0].location - (1 - eps)) < 1e-9
    assert abs(found[1].location - (1 + eps)) < 1e-9


def test_huge_scale_roots():
    p = from_roots([1e6, 1e6, 1e6, 3e6])
    ms = sorted((round(c.location.real), c.multiplicity) for c in poly_roots(p))
    assert ms == [(1000000, 3), (3000000, 1)]


def test_high_multiplicity():
    p = from_roots([1j] * 6, lead=2.0)
    (c,) = poly_roots(p)
    assert c.multiplicity == 6
    assert abs(c.location - 1j) < 1e-8


def test_constant_has_no_roots():
    assert poly_roots(Polynomial([3.0])) == []
    with pytest.raises(ZeroPolynomial):
        poly_roots(Polynomial([0.0]))


def test_magnitude_bound_dominates():
    rng = np.random.default_rng(23)
    p = Polynomial(rng.normal(size=6) + 1j * rng.normal(size=6))
    for _ in range(50):
        z = complex(*rng.normal(size=2)) * 3
        assert abs(p(z)) <= p.magnitude_bound(z) * (1 + 1e-12)


def test_ghost_coefficients_trimmed():
    # (z - 1)(z + 1) built via arithmetic must not keep a ~1e-17 z^3 term
    a = Polynomial([-1.0, 1.0]) * Polynomial([1.0, 1.0])
    assert a.degree == 2
    b = Polynomial([1.0, 1e-18]) + Polynomial([1.0, -1e-18])
    assert b.degree == 0


# -- Aberth-Ehrlich reference ---------------------------------------------
#
# An independent source of raw roots for poly_roots, which takes them from
# the companion-matrix eigenvalues (np.roots): the Aberth-Ehrlich
# simultaneous iteration, fed through the same clustering, multiplicity and
# polish pipeline.

ABERTH_MAX_ITER = 400


def _aberth(monic: np.ndarray) -> np.ndarray:
    """Simultaneous root iteration on a monic coefficient array (ascending)."""
    n = len(monic) - 1
    dcoef = monic[1:] * np.arange(1, n + 1)
    center = -monic[n - 1] / n
    # Fujiwara bound on root moduli
    radius = 2.0 * max(
        (abs(monic[n - k]) ** (1.0 / k) for k in range(1, n + 1) if monic[n - k] != 0),
        default=0.0,
    )
    radius = max(radius, 1.0)
    angles = 2.0 * np.pi * np.arange(n) / n + 0.41
    x = center + radius * np.exp(1j * angles) * (0.6 + 0.4 * np.arange(1, n + 1) / n)

    for _ in range(ABERTH_MAX_ITER):
        pv = np.zeros(n, dtype=complex)
        for c in monic[::-1]:
            pv = pv * x + c
        dv = np.zeros(n, dtype=complex)
        for c in dcoef[::-1]:
            dv = dv * x + c
        dv = np.where(dv == 0, 1e-300, dv)
        newton = pv / dv
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        sums = inv.sum(axis=1)
        denom = 1.0 - newton * sums
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        corr = newton / denom
        x = x - corr
        if np.max(np.abs(corr) / (1.0 + np.abs(x))) < 1e-14:
            break
    return x


def _reference_roots(p, monkeypatch):
    """poly_roots with its raw roots taken from the Aberth iteration
    (np.roots is patched only for the duration of the call)."""
    with monkeypatch.context() as m:
        m.setattr(polyalg.np, "roots",
                  lambda desc: _aberth(np.asarray(desc)[::-1] / desc[0]))
        return poly_roots(p)


def _seeded(degree, seed):
    rng = np.random.default_rng(seed)
    return Polynomial(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))


MULTIPLE_ROOT_FIXTURES = [
    (from_roots([2.0, 2.0, 2.0, -1.0]), 1e-12),
    # two double roots 4e-3 apart: the slope of p' at each is ~1e-4, so
    # rounding in p's coefficients sets the polished location only to ~1e-10
    # (both pipelines land within 4e-11 of the exact roots)
    (from_roots([1 - 2e-3, 1 - 2e-3, 1 + 2e-3, 1 + 2e-3]), 1e-10),
    (from_roots([1e6, 1e6, 1e6, 3e6]), 1e-12),
    (from_roots([1j] * 6, lead=2.0), 1e-12),
    (from_roots([5.0] * 6 + [1.0]), 1e-12),
]


@pytest.mark.parametrize("p, rel", [(_seeded(d, s), 1e-12) for d in (4, 16, 64) for s in range(3)]
                         + MULTIPLE_ROOT_FIXTURES)
def test_companion_roots_match_aberth_reference(p, rel, monkeypatch):
    got = poly_roots(p)
    want = _reference_roots(p, monkeypatch)
    assert [c.multiplicity for c in got] == [c.multiplicity for c in want]
    for g, w in zip(got, want):
        assert abs(g.location - w.location) <= rel * max(1.0, abs(w.location))


# ---------------------------------------------------------------- exact multiplicities

ONE = Polynomial([1.0])
# distinct small Gaussian integers with multiplicities: their expansion is exact in floats
_SITES = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(1, 3),
                         max_size=3)


def _expanded(sites, lead=1.0):
    """lead prod (z - a)^m, exactly: the monic coefficients are at most (1 + 3 sqrt 2)^9 <
    3e6 in modulus, so times a lead whose parts are at most 2^31 they stay below 2^53."""
    monic = Polynomial.from_roots([complex(*a) for a, m in sites.items() for _ in range(m)])
    return Polynomial([c * lead for c in monic.coeffs])


@settings(max_examples=60, deadline=None)
@given(_SITES, _SITES, st.sampled_from([1, 2]),
       st.sampled_from([1.0, -0.75 + 2.5j, 13 + 2.0 ** 31 * 1j]))
def test_exact_multiplicities_of_gaussian_integer_roots(zeros, poles, k, lead):
    # num / den^k in lowest terms: a root shared by num and den^k cancels down to the
    # difference of its multiplicities. The lead 13 + 2^31 i vanishes mod P = 2^62 + 13^2,
    # so it takes the exact path whatever the roots
    num, den = _expanded(zeros, lead), _expanded(poles)
    left = {a: m - k * poles.get(a, 0) for a, m in zeros.items()}
    left.update({a: -k * m for a, m in poles.items() if a not in zeros})
    want = (sorted(m for m in left.values() if m > 0), sorted(-m for m in left.values() if m < 0))
    assert exact_multiplicities(*gaussian(num, den), k) == want


def test_exact_multiplicities_read_a_square_as_a_square():
    assert exact_multiplicities(*gaussian(Polynomial([0.0, 0.0, 1.0]), ONE)) == ([2], [])
    cubic = _expanded({(1, 0): 2, (-1, 0): 1})                # (z - 1)^2 (z + 1)
    assert exact_multiplicities(*gaussian(cubic, ONE)) == ([1, 2], [])
    assert (13 + 2 ** 31 * I_P) % P == 0      # the lead that takes the exact path above


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([16, 64]))
def test_float_rounded_squares_read_square_free(seed, degree):
    # np.polymul rounds each product of full-mantissa coefficients, so the typed
    # polynomial is no longer a square, and the modular test alone says so
    rng = np.random.default_rng(seed)
    f = rng.normal(size=degree // 2 + 1) + 1j * rng.normal(size=degree // 2 + 1)
    square, one = gaussian(Polynomial(np.polymul(f, f)), ONE)
    assert len(square) == degree + 1
    assert polyalg._square_free_mod_p(square, one)


def test_exact_multiplicities_of_the_close_pole_family():
    for eps in (1e-3, 1e-6, 1e-9, 1e-12):
        den = Polynomial(np.polynomial.polynomial.polyfromroots([0.0, 1.0, 2.0, 2.0 + eps]))
        num = Polynomial([np.exp(0.3j)])
        assert exact_multiplicities(*gaussian(num, den)) == ([], [1, 1, 1, 1])
