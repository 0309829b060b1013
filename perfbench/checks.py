"""Known-answer checks for the outputs of one op.

`check(op, code, out_path, stdout)` returns a `Verdict`: whether the output
is correct, why not, and the analytic oracle ratios (error / tolerance) the
op contributes to `oracle_err_max`.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from corpus import ORACLE_TOL, Op

_CERTIFIED = "CertifiedNoRecurrence"
_SUPPORTED = "NumericallySupported"


@dataclass
class Verdict:
    ok: bool = True
    reason: str | None = None
    oracles: dict = field(default_factory=dict)     # name -> error / tolerance

    def fail(self, reason: str) -> "Verdict":
        if self.ok:
            self.ok, self.reason = False, reason
        return self

    def oracle(self, name: str, err: float, tol: float) -> None:
        ratio = err / tol
        self.oracles[name] = max(self.oracles.get(name, 0.0), ratio)
        if not ratio <= 1.0:
            self.fail(f"{name}: error {err:.3e} exceeds tolerance {tol:.1e}")


def check(op: Op, code, out_path: str, stdout: str) -> Verdict:
    v = Verdict()
    if op.command == "poly_roots":
        return _check_roots(op, code, v)
    want = op.expect.get("exit_in", [op.expect.get("exit")])
    if code not in want:
        return v.fail(f"exit code {code}, expected {want}")
    if op.command == "criteria":
        return _check_criteria(op, code, json.loads(stdout), v)
    if op.command in ("render", "lemniscate"):
        with open(out_path, "rb") as fh:
            text = fh.read().decode()
        try:
            root = ET.fromstring(text)
        except ET.ParseError as e:
            return v.fail(f"SVG does not parse: {e}")
        return _check_svg(op, root, v)
    with open(out_path) as fh:
        doc = json.load(fh)
    return _CHECKERS[op.command](op, doc, v)


def _check_analyze(op: Op, doc: dict, v: Verdict) -> Verdict:
    rec = doc["recurrence"]
    if not rec:
        return v.fail("no recurrence probe in the report")
    if "recurrent_min_crossings" in op.expect:
        r = rec[0]
        if r["verdict"] != "SuspectedRecurrent":
            return v.fail(f"seed verdict {r['verdict']}, expected SuspectedRecurrent")
        if r["crossings"] < op.expect["recurrent_min_crossings"]:
            return v.fail(f"{r['crossings']} crossings, expected at least "
                          f"{op.expect['recurrent_min_crossings']}")
    elif any(r["verdict"] == "SuspectedRecurrent" for r in rec):
        return v.fail("a seed is flagged SuspectedRecurrent")
    if op.expect.get("closed_seeds") and not all(r["closed"] for r in rec):
        return v.fail("a seed ray on the circle domain did not close")
    if "short_length" in op.expect:
        shorts = doc["short_trajectories"]
        if len(shorts) != 1:
            return v.fail(f"{len(shorts)} short trajectories, expected 1")
        v.oracle("segment_short_length",
                 abs(shorts[0]["phi_length"] - op.expect["short_length"]),
                 ORACLE_TOL["segment_short_length"])
    if op.expect["exit"] == 0 and doc["overall"] not in (_CERTIFIED, _SUPPORTED):
        return v.fail(f"overall verdict {doc['overall']}")
    return v


def _check_trace(op: Op, doc: dict, v: Verdict) -> Verdict:
    if doc["termination"]["kind"] != "Closed":
        return v.fail(f"termination {doc['termination']['kind']}, expected Closed")
    v.oracle("circle_closed_length",
             abs(doc["phi_length"] - op.expect["closed_length"]),
             ORACLE_TOL["circle_closed_length"])
    return v


def _check_criteria(op: Op, code, doc: dict, v: Verdict) -> Verdict:
    by_name = {c["criterion"]: c["verdict"] for c in doc["criteria"]}
    for name, count in (("ThreePole", op.expect["poles"]),
                        ("OddMultiplicity", op.expect["odd"])):
        want = _CERTIFIED if count <= 3 else "Inconclusive"
        if by_name.get(name) != want:
            return v.fail(f"{name} verdict {by_name.get(name)}, expected {want}")
    certifying = doc["overall"] in (_CERTIFIED, _SUPPORTED)
    if certifying != (code == 0):
        return v.fail(f"overall {doc['overall']} disagrees with exit code {code}")
    return v


def _check_cauchy(op: Op, doc: dict, v: Verdict) -> Verdict:
    v.oracle("semicircle_mass", abs(doc["total_mass"] - op.expect["mass"]),
             ORACLE_TOL["semicircle_mass"])
    return v


def _check_level(op: Op, doc: dict, v: Verdict) -> Verdict:
    ver = doc["verification"]
    failed = [k for k in ("passed_i", "passed_ii", "passed_iii") if not ver[k]]
    if failed:
        return v.fail(f"level verifier failed {failed}")
    if doc["n"] != op.expect["grid"]:
        return v.fail(f"grid size {doc['n']}, expected {op.expect['grid']}")
    for ray in ver["details"]["rays"]:
        v.oracle("level_ray_std", ray["std"], 1e-5 * (1.0 + abs(ray["mean"])))
    return v


def _check_svg(op: Op, root, v: Verdict) -> Verdict:
    elems = list(root.iter())
    classes = [el.get("class") for el in elems]
    if op.command == "render":
        if classes.count("traj") < op.expect["svg_min_traj"]:
            return v.fail(f"{classes.count('traj')} trajectory polylines")
        if classes.count("pole") != 2 * op.expect["svg_poles"]:
            return v.fail(f"{classes.count('pole') // 2} pole markers")
        return v
    if "level" not in classes or "bg" not in classes:
        return v.fail("lemniscate SVG lacks level or bg curves")
    # pixel transform of the canvas: px = (x - x0) s, py = (y1 - y) s
    x0, _y0, x1, y1 = op.spec["window"]
    s = float(root.get("width")) / (x1 - x0)
    coeffs = op.expect["r_p"]
    worst = 0.0
    for el in elems:
        if el.get("class") != "level":
            continue
        for pair in el.get("points").split():
            px, py = (float(t) for t in pair.split(","))
            z = complex(x0 + px / s, y1 - py / s)
            r = 0j
            for c in reversed(coeffs):
                r = r * z + c
            worst = max(worst, abs(abs(r) - op.expect["level"]))
    v.oracle("lemniscate_level", worst, ORACLE_TOL["lemniscate_level"])
    return v


def _check_roots(op: Op, clusters, v: Verdict) -> Verdict:
    want = op.expect["roots"]
    if sum(c.multiplicity for c in clusters) != len(want):
        return v.fail("root multiplicities do not sum to the degree")
    for z in want:
        d = min(abs(c.location - z) for c in clusters)
        if not d <= 1e-6 * (1.0 + abs(z)):
            return v.fail(f"root {z} not found (nearest at {d:.2e})")
    return v


_CHECKERS = {"analyze": _check_analyze, "trace": _check_trace,
             "cauchy": _check_cauchy, "level": _check_level}


def oracle_max(verdicts) -> float | None:
    """Largest oracle ratio over the verdicts; None when no oracle ran."""
    return max((r for v in verdicts for r in v.oracles.values()), default=None)
