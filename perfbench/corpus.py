"""Seeded input corpus for the qdsphere benchmark.

Every analytic input is an affine image w = (z - b) / a of a fixture from the
README and the test suite: the image differential is a^2 * phi(a w + b),
seeds and windows are mapped with the same transform, and the lemniscate and
Cauchy forms are transported so that their defining equations keep holding.
phi-lengths, exit codes and verdicts are invariant under the map, so every
generated input carries a known answer at every seed.

The `verdict` workload also draws random `general` and `p_over_q_squared`
differentials from separated random roots. Their known answers are the two
exact counting criteria (pole count and odd-order count), which follow from
the roots the generator chose.

The program receives only the JSON specs written by `Op.write_spec`.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

DEFAULT_SEED = 1
WORKLOADS = ("probe", "verdict", "level", "render")

# -- fixtures in the z plane (ascending complex coefficients) -----------------

SEGMENT_P = [1.0, 0.0, -1.0]                     # 1 - z^2, short phi-length pi/2
WIDE_P = [-4.0, 0.0, 1.0]                        # z^2 - 4, used with sign -1
CIRCLE_Q = [0.0, 1.0]                            # -1 / z^2 via p = 1, sign -1
WINDING_DEN = [0.5j, 0.0, -0.25 - 2.0j, 0.0, 1.0]
FIG1_RIGHT_DEN = [complex(c) for c in P.polyfromroots([0.5, 1 + 1j, 2 - 1j])]
LEMNISCATE_P = [-1.0, 0.0, 1.0]                  # r = z^2 - 1, critical level 1

SEGMENT_SHORT_LENGTH = math.pi / 2
CIRCLE_LENGTH = 2 * math.pi

ORACLE_TOL = {
    "segment_short_length": 1e-4,
    "circle_closed_length": 1e-4,
    "semicircle_mass": 1e-3,
    "lemniscate_level": 2e-3,
}

POLY_ROOTS_DEGREES = (4, 16, 64)


@dataclass
class Op:
    """One closed-loop call: a CLI command on a generated spec, or a direct
    `poly_roots` call."""

    id: str
    family: str
    command: str                       # CLI subcommand, or "poly_roots"
    args: list = field(default_factory=list)
    spec: dict | None = None
    expect: dict = field(default_factory=dict)

    def argv(self, spec_path: str, out_path: str) -> list:
        argv = [self.command, spec_path]
        if self.command != "criteria":
            argv += ["--out", out_path]
        return argv + list(self.args)

    def write_spec(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spec, fh)


# -- transport of fixtures ---------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """z = a * w + b; images live in the w plane."""

    a: complex
    b: complex

    def point(self, z: complex) -> complex:
        return (complex(z) - self.b) / self.a

    def compose(self, coeffs) -> np.ndarray:
        """Ascending coefficients of c(a w + b)."""
        cs = [complex(c) for c in coeffs]
        lin = np.array([self.b, self.a], dtype=complex)
        out = np.array([cs[-1]], dtype=complex)
        for c in reversed(cs[:-1]):
            out = P.polymul(out, lin)
            out[0] += c
        return out

    def window(self, win) -> list:
        """Axis-aligned square around the image of the window centre, with
        the window's larger half-width divided by |a|."""
        x0, y0, x1, y1 = win
        c = self.point(complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)))
        h = 0.5 * max(x1 - x0, y1 - y0) / abs(self.a)
        return [c.real - h, c.imag - h, c.real + h, c.imag + h]


def draw_affine(rng: np.random.Generator, rotate: bool = True,
                place: tuple | None = None) -> Affine:
    """|a| log-uniform in [0.7, 1.4], arg a uniform (or 0), b uniform in
    the unit disk.

    `place` = (u, v, w, x) in [0, 1)^4 fixes arg a = 2 pi u, the position v
    of log |a| in its range, |b| = sqrt(w) and arg b = 2 pi x, instead of
    drawing them. Op cost depends on the map by up to a factor of three,
    so build_pass places a run's ops on a lattice that covers the maps
    evenly (independent draws would make a run's totals seed-dependent).
    """
    u, v, w, x = place if place is not None else rng.uniform(size=4)
    mod = math.exp(math.log(0.7) + v * (math.log(1.4) - math.log(0.7)))
    arg = 2 * math.pi * u if rotate else 0.0
    b = cmath.rect(math.sqrt(w), 2 * math.pi * x)
    return Affine(cmath.rect(mod, arg), b)


def pairs(coeffs) -> list:
    return [[float(complex(c).real), float(complex(c).imag)] for c in coeffs]


def _xy(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def general_image(t: Affine, num, den) -> dict:
    return {"numerator": pairs(t.a ** 2 * t.compose(num)),
            "denominator": pairs(t.compose(den))}


def pq_image(t: Affine, p, q, sign: int) -> dict:
    return {"p": pairs(t.a ** 2 * t.compose(p)), "q": pairs(t.compose(q)),
            "sign": sign}


def cauchy_image(t: Affine, p, q, r) -> dict:
    """p C^2 + q C + r = 0 transported by C~(w) = a C(a w + b)."""
    return {"p": pairs(t.compose(p)), "q": pairs(t.a * t.compose(q)),
            "r": pairs(t.a ** 2 * t.compose(r))}


def lemniscate_image(t: Affine, p, q) -> dict:
    return {"p": pairs(t.compose(p)), "q": pairs(t.compose(q))}


def _spec(form: str, body: dict, **extra) -> dict:
    return {"format_version": 1, form: body, **extra}


# -- op builders ---------------------------------------------------------------


def winding_analyze(rng, tag: str, place: tuple | None = None) -> Op:
    t = draw_affine(rng, place=place)
    spec = _spec("general", general_image(t, [-1.0], WINDING_DEN),
                 seeds=[_xy(t.point(1.0))], budgets={"max_phi_length": 200.0})
    return Op(tag, "winding", "analyze", spec=spec,
              expect={"exit": 20, "recurrent_min_crossings": 20})


def fig1_right_analyze(rng, tag: str, place: tuple | None = None) -> Op:
    t = draw_affine(rng, place=place)
    spec = _spec("general", general_image(t, [0.0, -1.0], FIG1_RIGHT_DEN),
                 seeds=[_xy(t.point(-1.0 + 0.5j))],
                 budgets={"max_phi_length": 200.0})
    return Op(tag, "fig1_right", "analyze", spec=spec, expect={"exit": 10})


def segment_analyze(rng, tag: str, place: tuple | None = None) -> Op:
    t = draw_affine(rng, place=place)
    spec = _spec("p_over_q_squared", pq_image(t, SEGMENT_P, [1.0], 1),
                 window=t.window((-3.0, -3.0, 3.0, 3.0)),
                 seeds=[_xy(t.point(1.0 + 0.5j))],
                 budgets={"max_phi_length": 200.0})
    return Op(tag, "segment", "analyze", spec=spec,
              expect={"exit": 0, "short_length": SEGMENT_SHORT_LENGTH})


def circle_analyze(rng, tag: str, place: tuple | None = None) -> Op:
    t = draw_affine(rng, place=place)
    spec = _spec("p_over_q_squared", pq_image(t, [1.0], CIRCLE_Q, -1),
                 seeds=[_xy(t.point(0.8 + 0.6j))],
                 budgets={"max_phi_length": 200.0})
    return Op(tag, "circle", "analyze", spec=spec,
              expect={"exit": 0, "closed_seeds": True})


def circle_trace(rng, tag: str, place: tuple | None = None) -> Op:
    t = draw_affine(rng, place=place)
    r = rng.uniform(0.5, 2.0)
    z0 = t.point(cmath.rect(r, rng.uniform(0.0, 2 * math.pi)))
    spec = _spec("p_over_q_squared", pq_image(t, [1.0], CIRCLE_Q, -1),
                 budgets={"max_phi_length": 200.0})
    # "--from=x,y" in one word: argparse would take a negative x for an option
    return Op(tag, "circle", "trace", args=[f"--from={z0.real!r},{z0.imag!r}"],
              spec=spec, expect={"exit": 0, "closed_length": CIRCLE_LENGTH})


def semicircle_cauchy(rng, tag: str) -> Op:
    # a real and positive: the support stays horizontal, so the density
    # along it stays real (a rotated support has a complex density)
    t = draw_affine(rng, rotate=False)
    spec = _spec("cauchy", cauchy_image(t, [1.0], [0.0, -1.0], [1.0]))
    return Op(tag, "semicircle", "cauchy", spec=spec,
              expect={"exit": 0, "mass": 1.0})


def _separated_roots(rng, n: int, taken: list, sep: float = 0.35,
                     radius: float = 1.6) -> list:
    """n points in the disk |z| < radius, each at least sep from the
    others and from `taken`."""
    out = []
    while len(out) < n:
        z = cmath.rect(radius * math.sqrt(rng.uniform()), rng.uniform(0, 2 * math.pi))
        if all(abs(z - w) >= sep for w in taken + out):
            out.append(z)
    return out


# numerator degree -> (simple poles of a `general` differential,
#                     simple roots of q and sign of a `p_over_q_squared` one)
CRITERIA_SHAPES = {2: (1, 0, 1), 4: (2, 1, -1), 6: (3, 2, 1), 8: (4, 1, -1)}


def random_criteria(rng, tag: str, form: str, degree: int) -> Op:
    """criteria on a random differential with `degree` simple zeros.

    The pole structure is fixed per degree (CRITERIA_SHAPES); the zeros,
    poles and leading coefficient are random. In the p_over_q_squared form
    every finite pole is double. The expected ThreePole and OddMultiplicity
    verdicts follow from the orders, infinity included.
    """
    n_poles, n_qroots, sign = CRITERIA_SHAPES[degree]
    zeros = _separated_roots(rng, degree, [])
    lead = cmath.rect(math.exp(rng.uniform(-0.5, 0.5)), rng.uniform(0, 2 * math.pi))
    num = lead * P.polyfromroots(zeros)
    if form == "general":
        poles = _separated_roots(rng, n_poles, zeros)
        den = P.polyfromroots(poles)
        body = {"numerator": pairs(num), "denominator": pairs(den)}
        finite_orders = [1] * degree + [-1] * len(poles)
        n_inf = -(degree - len(poles) + 4)
    else:
        qroots = _separated_roots(rng, n_qroots, zeros)
        q = P.polyfromroots(qroots) if qroots else np.array([1.0 + 0j])
        body = {"p": pairs(num), "q": pairs(q), "sign": sign}
        finite_orders = [1] * degree + [-2] * len(qroots)
        n_inf = -(degree - 2 * len(qroots) + 4)
    orders = finite_orders + ([n_inf] if n_inf != 0 else [])
    spec = _spec(form, body, budgets={"max_phi_length": 60.0})
    return Op(tag, f"random_{form}", "criteria", spec=spec, expect={
        "exit_in": [0, 10],
        "poles": sum(1 for o in orders if o < 0),
        "odd": sum(1 for o in orders if o % 2 != 0),
    })


def poly_roots_op(rng, tag: str, degree: int) -> Op:
    """A polynomial with known, well-conditioned roots.

    Below degree 64 the roots are jittered around a centred circle of
    random radius and expanded into coefficients. At degree 64 that
    expansion would lose the roots to rounding, so the polynomial is
    lead * (z^64 - c), whose coefficients are exact.
    """
    radius = rng.uniform(0.5, 2.0)
    lead = cmath.rect(1.0, rng.uniform(0, 2 * math.pi))
    if degree < 64:
        k = np.arange(degree)
        angles = 2 * np.pi * (k + rng.uniform(-0.25, 0.25, degree)) / degree
        roots = radius * (1.0 + rng.uniform(-0.02, 0.02, degree)) * np.exp(1j * angles)
        coeffs = lead * P.polyfromroots(roots)
    else:
        theta = rng.uniform(0, 2 * math.pi / degree)
        roots = radius * np.exp(1j * (theta + 2 * np.pi * np.arange(degree) / degree))
        coeffs = np.zeros(degree + 1, dtype=complex)
        coeffs[0], coeffs[-1] = -lead * cmath.rect(radius ** degree, degree * theta), lead
    return Op(tag, f"poly_roots_deg{degree}", "poly_roots", expect={
        "coeffs": [complex(c) for c in coeffs], "roots": [complex(z) for z in roots]})


def _level(rng, tag: str, family: str, grid: int, p, sign: int, half: float,
           ray_seed: complex, budget: float, place: tuple | None) -> Op:
    """level on an image of p / 1^2, verified along the image of one
    fixture ray (the spec's seed) of phi-length `budget`."""
    t = draw_affine(rng, place=place)
    spec = _spec("p_over_q_squared", pq_image(t, p, [1.0], sign),
                 window=t.window((-half, -half, half, half)),
                 seeds=[_xy(t.point(ray_seed))], budgets={"max_phi_length": budget})
    return Op(tag, family, "level", args=["--grid", str(grid)], spec=spec,
              expect={"exit": 0, "grid": grid})


def segment_level(rng, tag: str, grid: int, place: tuple | None = None) -> Op:
    # the first ray of tests/test_acceptance.py::test_11 and its budget of 4,
    # halved; it stays above the short phi-length pi/2
    return _level(rng, tag, "segment", grid, SEGMENT_P, 1, 3.0, 1.5 + 1.0j, 2.0, place)


def wide_level(rng, tag: str, grid: int, place: tuple | None = None) -> Op:
    # the segment case scaled by 2: phi-lengths scale by 4
    return _level(rng, tag, "wide_segment", grid, WIDE_P, -1, 4.0, 3.0 + 2.0j, 8.0, place)


def winding_render(rng, tag: str, grid: int, place: tuple | None = None) -> Op:
    t = draw_affine(rng, place=place)
    spec = _spec("general", general_image(t, [-1.0], WINDING_DEN),
                 budgets={"max_phi_length": 200.0})
    return Op(tag, "winding", "render", args=["--grid", str(grid)], spec=spec,
              expect={"exit": 0, "svg_min_traj": 4, "svg_poles": 4})


def lemniscate_render(rng, tag: str, place: tuple | None = None) -> Op:
    t = draw_affine(rng, place=place)
    spec = _spec("lemniscate", lemniscate_image(t, LEMNISCATE_P, [1.0]),
                 window=t.window((-2.5, -2.5, 2.5, 2.5)))
    return Op(tag, "lemniscate", "lemniscate", spec=spec, expect={
        "exit": 0, "level": 1.0,
        "r_p": [complex(c) for c in t.compose(LEMNISCATE_P)],
    })


# -- workloads -----------------------------------------------------------------

LEVEL_GRID = 8
WARMUP_PASS = 2 ** 32 - 1          # stream of the warm-up op, apart from the passes
LATTICE_STREAM = 2 ** 32 - 2       # stream of the lattice offset
# Steps of the R3 low-discrepancy sequence (powers of 1 / 1.2207...,
# the real root of x^4 = x + 1) for the scale and the translation.
LATTICE_STEPS = tuple(1.2207440846057595 ** -d for d in (1, 2, 3))
RENDER_GRID = 2
# Passes per run: one sweep over them takes 16-30 s on a 2-core x86-64
# host, and their op count sets the tail percentile (at least 24 ops).
# level has the costliest and most input-dependent ops, so it gets the
# longest sweep.
# The family mix puts call_p50_s and call_tail_s inside one family's range
# (winding ops on probe and render, criteria on verdict), away from the
# jump between a cheap and a dear family.
PASSES = {"probe": 4, "verdict": 8, "level": 10, "render": 6}


def _pass_rng(workload: str, seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, k])


def build_pass(workload: str, seed: int, k: int) -> list:
    """The op list of pass k. Each pass draws fresh inputs. The m ops of a
    family in pass k take the affine maps k*m .. k*m + m - 1 of a lattice
    of PASSES[workload] * m maps (rotation evenly spaced, scale and
    translation on a low-discrepancy sequence), shifted by an offset drawn
    from the seed, so the run's passes cover the maps evenly."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _pass_rng(workload, seed, k)
    offset = _pass_rng(workload, seed, LATTICE_STREAM).uniform(size=4)
    tag = f"{workload}/{seed}/{k}"
    n = PASSES[workload]

    def lattice(j: int = 0, m: int = 1) -> tuple:
        i, total = (k % n) * m + j, n * m
        return ((i + offset[0]) / total,
                *((i * step + o) % 1.0 for step, o in zip(LATTICE_STEPS, offset[1:])))

    if workload == "probe":
        return [winding_analyze(rng, f"{tag}/winding{i}", lattice(i, 4)) for i in range(4)] + [
            fig1_right_analyze(rng, f"{tag}/fig1_right", lattice()),
            segment_analyze(rng, f"{tag}/segment", lattice()),
            circle_analyze(rng, f"{tag}/circle", lattice()),
            circle_trace(rng, f"{tag}/trace", lattice())]
    if workload == "verdict":
        ops = []
        for form in ("general", "p_over_q_squared"):
            for degree in (2, 4, 6, 8):
                ops.append(random_criteria(rng, f"{tag}/{form}{degree}", form, degree))
        ops.append(semicircle_cauchy(rng, f"{tag}/semicircle"))
        for degree in POLY_ROOTS_DEGREES:
            ops.append(poly_roots_op(rng, f"{tag}/roots{degree}", degree))
        return ops
    if workload == "level":
        return [segment_level(rng, f"{tag}/segment", LEVEL_GRID, lattice()),
                wide_level(rng, f"{tag}/wide0", LEVEL_GRID, lattice(0, 2)),
                wide_level(rng, f"{tag}/wide1", LEVEL_GRID, lattice(1, 2))]
    return [winding_render(rng, f"{tag}/winding{i}", RENDER_GRID, lattice(i, 3))
            for i in range(3)] + [lemniscate_render(rng, f"{tag}/lemniscate", lattice())]


def warmup_op(workload: str) -> Op:
    """A small op of the workload's main kind, run once during set-up; the
    same at every seed, so set-up time does not depend on the seed."""
    rng = _pass_rng(workload, DEFAULT_SEED, WARMUP_PASS)
    tag = f"{workload}/warmup"
    if workload == "probe":
        return circle_trace(rng, tag)
    if workload == "verdict":
        return random_criteria(rng, tag, "general", 2)
    if workload == "level":
        return segment_level(rng, tag, 4)
    return winding_render(rng, tag, 0)
