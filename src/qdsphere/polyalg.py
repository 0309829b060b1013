"""Complex polynomial algebra on floating coefficients.

Coefficients are stored ascending in degree. The zero polynomial has an empty
coefficient tuple and degree -1. All tolerances are relative to a scale built
from the largest coefficient or root modulus, so rescaled inputs behave the
same.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceFailure, ZeroPolynomial

COEFF_TRIM = 1e-14
ROOT_TOL = 1e-8


class Polynomial:
    """Dense polynomial over the complex floats."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [complex(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _trimmed(cls, cs, refs):
        """Build from coefficients, dropping trailing entries that are
        rounding ghosts relative to the per-index operand magnitudes."""
        cs = list(cs)
        while cs and abs(cs[-1]) <= COEFF_TRIM * refs[len(cs) - 1]:
            cs.pop()
        return cls(cs)

    @classmethod
    def from_roots(cls, roots, lead=1.0):
        cs = [complex(lead)]
        for r in roots:
            r = complex(r)
            cs = [0j] + cs
            for i in range(len(cs) - 1):
                cs[i] -= r * cs[i + 1]
        return cls(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(z, dtype=complex)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = [c + (b[i] if i < len(b) else 0j) for i, c in enumerate(a)]
        refs = [abs(c) + (abs(b[i]) if i < len(b) else 0.0) for i, c in enumerate(a)]
        return Polynomial._trimmed(cs, refs)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial()
            a = np.asarray(self.coeffs)
            b = np.asarray(other.coeffs)
            return Polynomial._trimmed(np.convolve(a, b), np.convolve(np.abs(a), np.abs(b)))
        return Polynomial([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def deflated(self, r: complex):
        """Divide by (z - r). Returns (quotient, remainder)."""
        r = complex(r)
        q = [0j] * max(len(self.coeffs) - 1, 0)
        acc = 0j
        for i in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * r + self.coeffs[i]
            q[i - 1] = acc
        rem = acc * r + (self.coeffs[0] if self.coeffs else 0j)
        return Polynomial(q), rem

    def magnitude_bound(self, z: complex) -> float:
        """Sum of |coeff| * max(1, |z|)^k: the natural residual scale at z."""
        x = max(1.0, abs(z))
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + abs(c)
        return acc

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


@dataclass(frozen=True)
class RootCluster:
    location: complex
    multiplicity: int
    radius: float


def _union_groups(points: list[complex], radius_of) -> list[list[int]]:
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= radius_of(points[i], points[j]):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = list(groups.values())
    out.sort(key=lambda g: (points[g[0]].real, points[g[0]].imag))
    return out


class _DerivLadder:
    """p and its derivatives, plus per-derivative evaluation-noise bounds."""

    def __init__(self, p: Polynomial):
        self.ders = [p]
        while self.ders[-1].degree >= 1:
            self.ders.append(self.ders[-1].derivative())

    def value(self, k: int, z: complex) -> complex:
        return self.ders[k](z) if k < len(self.ders) else 0j

    def noise(self, k: int, z: complex) -> float:
        if k >= len(self.ders):
            return 0.0
        der = self.ders[k]
        return 2.3e-16 * len(der.coeffs) * der.magnitude_bound(z)


def _verify_multiple(ladder: _DerivLadder, y: complex, m: int) -> bool:
    """Is y indistinguishable (at clustering resolution) from a root of
    multiplicity m? Requires p^(m)(y) clearly nonzero and all lower
    derivatives zero within evaluation noise plus the displacement a
    ROOT_TOL-sized offset of the root location could explain."""
    lead = abs(ladder.value(m, y))
    if lead <= 1e3 * ladder.noise(m, y):
        return False
    delta = ROOT_TOL * max(1.0, abs(y))
    for k in range(m):
        bound = 32.0 * ladder.noise(k, y) + 10.0 * lead * delta ** (m - k) / math.factorial(m - k)
        if abs(ladder.value(k, y)) > bound:
            return False
    return True


def _newton_simple(p: Polynomial, dp: Polynomial, z: complex, cap: float) -> complex | None:
    z0 = z
    for _ in range(30):
        dv = dp(z)
        if dv == 0:
            return None
        step = p(z) / dv
        if not (cmath.isfinite(step.real) and cmath.isfinite(step.imag)):
            return None
        z -= step
        if abs(z - z0) > cap:
            return None
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return z


def _resolve_group(ladder: _DerivLadder, members: list[complex],
                   out: list[tuple[complex, int, float]]):
    if len(members) == 1:
        z = _newton_simple(ladder.ders[0], ladder.ders[1], members[0],
                           cap=0.1 * (1.0 + abs(members[0])))
        out.append((z if z is not None else members[0], 1, 0.0))
        return
    centroid = sum(members) / len(members)
    cap = 8.0 * max(abs(x - centroid) for x in members) + ROOT_TOL * max(1.0, abs(centroid))
    for m in range(len(members), 1, -1):
        if m >= len(ladder.ders):
            continue
        y = _newton_simple(ladder.ders[m - 1], ladder.ders[m], centroid, cap)
        if y is None or not _verify_multiple(ladder, y, m):
            continue
        ordered = sorted(members, key=lambda x: abs(x - y))
        taken, rest = ordered[:m], ordered[m:]
        out.append((y, m, max(abs(x - y) for x in taken)))
        if rest:
            _resolve_group(ladder, rest, out)
        return
    # no multiplicity hypothesis held for the whole group: split at the
    # widest separation and retry the halves
    besta, bestb, bestd = 0, 0, -1.0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            d = abs(members[i] - members[j])
            if d > bestd:
                besta, bestb, bestd = i, j, d
    half_a = [x for x in members if abs(x - members[besta]) <= abs(x - members[bestb])]
    half_b = [x for x in members if abs(x - members[besta]) > abs(x - members[bestb])]
    if half_a and half_b and len(half_a) < len(members):
        _resolve_group(ladder, half_a, out)
        _resolve_group(ladder, half_b, out)
        return
    for x in members:
        _resolve_group(ladder, [x], out)


# loose pre-grouping radius: covers the root-jitter of moderate multiplicities
LOOSE_FACTOR = 5e-3


def poly_roots(p: Polynomial) -> list[RootCluster]:
    """All roots as clusters with multiplicities.

    Companion-matrix eigenvalues (np.roots), then multiple-root resolution:
    candidate groups are polished as simple roots of the (m-1)-th derivative
    and kept only if the lower derivatives vanish within evaluation noise. Final
    single-linkage clustering at ROOT_TOL * max(1, largest root modulus); the
    cluster center is the multiplicity-weighted mean. Raises
    ConvergenceFailure when a cluster center fails the residual test.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot take roots of the zero polynomial")
    if p.degree < 1:
        return []
    raw = [complex(z) for z in np.roots(p.coeffs[::-1])]

    ladder = _DerivLadder(p)
    resolved: list[tuple[complex, int, float]] = []
    loose = _union_groups(raw, lambda a, b: LOOSE_FACTOR * (1.0 + min(abs(a), abs(b))))
    for g in loose:
        _resolve_group(ladder, [raw[i] for i in g], resolved)

    rmax = max(abs(z) for z, _m, _r in resolved)
    thr = ROOT_TOL * max(1.0, rmax)
    pts = [z for z, _m, _r in resolved]
    fine = _union_groups(pts, lambda a, b: thr)

    clusters = []
    for g in fine:
        tot = sum(resolved[i][1] for i in g)
        loc = sum(resolved[i][0] * resolved[i][1] for i in g) / tot
        rad = max(abs(resolved[i][0] - loc) + resolved[i][2] for i in g)
        if abs(p(loc)) > ROOT_TOL * p.magnitude_bound(loc):
            raise ConvergenceFailure(
                f"root candidate {loc} has residual {abs(p(loc)):.3e} beyond tolerance"
            )
        clusters.append(RootCluster(loc, tot, rad))
    clusters.sort(key=lambda c: (c.location.real, c.location.imag))
    return clusters


# -- exact multiplicities over Q(i) -------------------------------------------
# A float is a dyadic rational, so typed coefficients are exact Gaussian rationals,
# and whether their roots repeat is decidable (Yun, "On square-free decomposition
# algorithms", 1976).

P = 2 ** 62 + 13 ** 2            # a prime = 1 mod 4: a + bi -> a + b I_P maps Z[i][1/2] onto Z/P
I_P = 2 ** 31 * pow(13, -1, P) % P   # (2^31 / 13)^2 = 2^62 / 13^2 = -1 mod P


def gaussian(*polys: Polynomial) -> list[list[tuple[int, int]]]:
    """The polynomials times the one power of 2 that makes every coefficient a
    Gaussian integer (re, im), exactly; their roots are the typed ones, as are those
    of any sum of products of them in which every term has the same number of factors."""
    ratios = [[(c.real.as_integer_ratio(), c.imag.as_integer_ratio()) for c in p.coeffs]
              for p in polys]
    scale = max([d for rs in ratios for pair in rs for _n, d in pair], default=1)
    return [[(a * (scale // s), b * (scale // t)) for (a, s), (b, t) in rs] for rs in ratios]


def gmul(f: list, g: list) -> list:
    """f g for Gaussian-integer polynomials, lists of (re, im) ascending in degree."""
    out = [[0, 0] for _ in range(len(f) + len(g) - 1)]
    for i, (a, b) in enumerate(f):
        for j, (c, d) in enumerate(g):
            o = out[i + j]
            o[0] += a * c - b * d
            o[1] += a * d + b * c
    return [tuple(o) for o in out]


def gsub(f: list, g: list) -> list:
    """f - g for Gaussian-integer polynomials, without trailing zeros."""
    n = max(len(f), len(g))
    f, g = f + [(0, 0)] * (n - len(f)), g + [(0, 0)] * (n - len(g))
    out = [(a - c, b - d) for (a, b), (c, d) in zip(f, g)]
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def _mod_p(f: list) -> list[int]:
    return [(a + b * I_P) % P for a, b in f]


def _square_free_mod_p(f: list, g: list) -> bool:
    """Whether h = f g has a lead nonzero mod P and deg gcd(h, h') mod P = 0. The map to
    Z/P is then a ring map that keeps h's degree, so h is square-free over Q(i)."""
    h = [0] * (len(f) + len(g) - 1)
    b = _mod_p(g)
    for i, x in enumerate(_mod_p(f)):
        h[i:i + len(b)] = [c + x * y for c, y in zip(h[i:i + len(b)], b)]
    a = [c % P for c in h]
    if not a[-1]:
        return False
    b = [k * c % P for k, c in enumerate(a)][1:]
    while b:
        # a, b = b, a pseudo-remainder of a by b: lead(b) a - t z^lo b takes a's top term t
        # z^(lo + n - 1) off with no inverse mod P, and leaves the gcd's degree as it is
        lead, n = b[-1], len(b)
        for lo in range(len(a) - n, -1, -1):
            t = a.pop()
            a = [lead * c % P for c in a[:lo]] + [(lead * c - t * y) % P
                                                   for c, y in zip(a[lo:], b)]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) == 1


class _Qi:
    """A Gaussian rational re + i im, re and im Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __sub__(self, o):
        return _Qi(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _Qi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return _Qi((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __bool__(self):
        return bool(self.re or self.im)


def _qdivmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of polynomials over Q(i), lists of _Qi ascending; b has no
    trailing zero, and the remainder none either."""
    a, n = a[:], len(b)
    q = [_Qi(0)] * max(len(a) - n + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = a[k + n - 1] / b[-1]
        if c:
            for i in range(n):
                a[k + i] = a[k + i] - c * b[i]
    return q, _qtrim(a[:n - 1])


def _qtrim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _qgcd(a: list, b: list) -> list:
    """A gcd of a and b over Q(i) by Euclid's algorithm, each remainder made monic so
    that its rationals stay small."""
    while b:
        r = _qdivmod(a, b)[1]
        a, b = b, [c / r[-1] for c in r]
    return a


def _qderiv(a: list) -> list:
    return [c * _Qi(k) for k, c in enumerate(a)][1:]


def _yun(f: list) -> list[int]:
    """The multiplicities of the distinct roots of f over Q(i), sorted, by Yun's
    square-free decomposition: the factor found at the k-th step holds the roots of
    multiplicity k."""
    df = _qderiv(f)
    g = _qgcd(f, df)
    b, c = _qdivmod(f, g)[0], _qdivmod(df, g)[0]
    out, k = [], 1
    while len(b) > 1:
        d = _qtrim([x - y for x, y in zip(c, _qderiv(b))])
        g = _qgcd(b, d)
        out += [k] * (len(g) - 1)
        b, c = _qdivmod(b, g)[0], _qdivmod(d, g)[0]
        k += 1
    return out


def exact_multiplicities(num: list, den: list, k: int = 1) -> tuple[list[int], list[int]]:
    """The multiplicities of the distinct roots of num and of den^k, each sorted, once
    gcd(num, den^k) is cancelled: exact for Gaussian-integer polynomials (gaussian).
    When the typed product num den is square-free mod P, each root of num is simple
    and each of den has multiplicity k; otherwise Yun's decomposition decides."""
    if _square_free_mod_p(num, den):
        return [1] * (len(num) - 1), [k] * (len(den) - 1)
    power = den
    for _ in range(k - 1):
        power = gmul(power, den)
    num, den = ([_Qi(a, b) for a, b in f] for f in (num, power))
    g = _qgcd(num, den)
    return _yun(_qdivmod(num, g)[0]), _yun(_qdivmod(den, g)[0])
