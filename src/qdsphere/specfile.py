"""JSON input descriptions of differentials for the command line tools.

A description holds exactly one construction form plus optional window,
seeds and budget overrides. Polynomials are ascending lists of [re, im]
coefficient pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import DegreeCap, SchemaError
from .polyalg import Polynomial
from .qdiff import (QuadraticDifferential, cauchy_qd, lemniscate_qd, qd_new,
                    qd_from_p_over_q_squared)

DEGREE_CAP = 64
FORMS = ("general", "p_over_q_squared", "lemniscate", "cauchy")
_FORM_POLYS = {
    "general": ("numerator", "denominator"),
    "p_over_q_squared": ("p", "q"),
    "lemniscate": ("p", "q"),
    "cauchy": ("p", "q", "r"),
}


@dataclass
class InputSpec:
    kind: str
    polys: dict                       # name -> Polynomial
    sign: int = 1
    window: tuple | None = None
    seeds: list = field(default_factory=list)
    budgets: dict = field(default_factory=dict)

    def defaults_echo(self) -> dict:
        """The resolved optional fields, for echoing into reports."""
        return {
            "form": self.kind,
            "sign": self.sign,
            "window": self.window,
            "seeds": self.seeds,
            "budgets": self.budgets,
        }


def _is_number(v) -> bool:
    """A finite JSON number; bools are ints to Python but not numbers here."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_pair(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v))


def _poly(form: str, name: str, raw) -> Polynomial:
    where = f"{form}.{name}"
    if not isinstance(raw, list) or not raw:
        raise SchemaError(where, "expected a nonempty list of [re, im] pairs")
    coeffs = []
    for i, pair in enumerate(raw):
        if not _is_pair(pair):
            raise SchemaError(f"{where}[{i}]", "expected an [re, im] pair of finite numbers")
        coeffs.append(complex(pair[0], pair[1]))
    if len(coeffs) - 1 > DEGREE_CAP:
        raise DegreeCap(where, len(coeffs) - 1, DEGREE_CAP)
    if all(c == 0 for c in coeffs) and (form, name) != ("cauchy", "r"):
        # the cubic term of a cauchy triple may vanish; everything else must not
        raise SchemaError(where, "zero polynomial")
    return Polynomial(coeffs)


def parse_obj(obj) -> InputSpec:
    if not isinstance(obj, dict):
        raise SchemaError("$", "top level must be an object")
    ver = obj.get("format_version", 1)
    if ver != 1:
        raise SchemaError("format_version", f"unsupported version {ver!r}")
    forms = [k for k in FORMS if k in obj]
    if len(forms) != 1:
        raise SchemaError("$", f"need exactly one of {'/'.join(FORMS)}, got {forms}")
    kind = forms[0]
    body = obj[kind]
    if not isinstance(body, dict):
        raise SchemaError(kind, "expected an object")
    polys = {}
    for name in _FORM_POLYS[kind]:
        if name not in body:
            raise SchemaError(f"{kind}.{name}", "missing polynomial")
        polys[name] = _poly(kind, name, body[name])
    extra = set(body) - set(_FORM_POLYS[kind]) - ({"sign"} if kind == "p_over_q_squared" else set())
    if extra:
        raise SchemaError(kind, f"unknown fields {sorted(extra)}")

    sign = 1
    if kind == "p_over_q_squared":
        sign = body.get("sign", 1)
        if type(sign) is not int or sign not in (1, -1):
            raise SchemaError("p_over_q_squared.sign", "must be the integer 1 or -1")

    # a window, seeds or budgets given as null is the same as an absent one
    window = None
    if obj.get("window") is not None:
        window = parse_window(obj["window"], "window")

    raw_seeds = obj.get("seeds")
    if not isinstance(raw_seeds, (list, type(None))):
        raise SchemaError("seeds", "expected a list of [x, y] pairs")
    seeds = [parse_point(s, f"seeds[{i}]") for i, s in enumerate(raw_seeds or [])]

    budgets = {}
    raw_budgets = obj.get("budgets")
    if not isinstance(raw_budgets, (dict, type(None))):
        raise SchemaError("budgets", "expected an object")
    raw_budgets = raw_budgets or {}
    for key in ("max_phi_length", "max_steps", "rk_tol"):
        if key in raw_budgets:
            parse = parse_max_steps if key == "max_steps" else parse_positive
            budgets[key] = parse(raw_budgets[key], f"budgets.{key}")
    unknown = set(raw_budgets) - {"max_phi_length", "max_steps", "rk_tol"}
    if unknown:
        raise SchemaError("budgets", f"unknown fields {sorted(unknown)}")

    known_top = set(FORMS) | {"format_version", "window", "seeds", "budgets"}
    extra_top = set(obj) - known_top
    if extra_top:
        raise SchemaError("$", f"unknown fields {sorted(extra_top)}")
    return InputSpec(kind, polys, sign, window, seeds, budgets)


def parse_window(w, where: str) -> tuple:
    """A window [x0, y0, x1, y1] of finite numbers with x0 < x1 and y0 < y1."""
    if not isinstance(w, (list, tuple)) or len(w) != 4 or not all(map(_is_number, w)):
        raise SchemaError(where, "expected [x0, y0, x1, y1] of finite numbers")
    if not (w[0] < w[2] and w[1] < w[3]):
        raise SchemaError(where, "expected x0 < x1 and y0 < y1")
    return tuple(float(v) for v in w)


def parse_point(v, where: str) -> complex:
    """An [x, y] pair of finite numbers, not bools, as the point x + iy."""
    if not _is_pair(v):
        raise SchemaError(where, "expected an [x, y] pair of finite numbers")
    return complex(v[0], v[1])


def parse_positive(v, where: str):
    """A positive finite number, not a bool; returned as given."""
    if not _is_number(v) or v <= 0:
        raise SchemaError(where, f"expected a positive finite number, got {v!r}")
    return v


def parse_max_steps(v, where: str) -> int:
    """A step budget: a positive integer, not a bool or a float."""
    if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
        raise SchemaError(where, f"expected a positive integer, got {v!r}")
    return v


def parse_input(path: str) -> InputSpec:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise SchemaError(path, e.strerror or str(e)) from e
    except json.JSONDecodeError as e:
        raise SchemaError(f"line {e.lineno}", e.msg) from e
    return parse_obj(obj)


def build_qd(spec: InputSpec) -> QuadraticDifferential:
    if spec.kind == "general":
        return qd_new(spec.polys["numerator"], spec.polys["denominator"])
    if spec.kind == "p_over_q_squared":
        return qd_from_p_over_q_squared(spec.polys["p"], spec.polys["q"], spec.sign)
    if spec.kind == "lemniscate":
        return lemniscate_qd(spec.polys["p"], spec.polys["q"])
    return cauchy_qd(spec.polys["p"], spec.polys["q"], spec.polys["r"])
