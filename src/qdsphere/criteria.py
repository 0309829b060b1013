"""Certificates for the absence of recurrent trajectories.

Two exact counting criteria (pole count, odd-order count) can outright
certify; the remaining three rest on traced short trajectories and are
capped at NumericallySupported. The Teichmuller polygon identity is checked
in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import polyalg
from .graph import (
    CriticalGraph,
    PairingFailure,
    build_critical_graph,
    pair_zeros_by_short_trajectories,
)
from .qdiff import (QuadraticDifferential, critical_points, principal_sqrt, require_form,
                    single_valued)

CERTIFIED = "CertifiedNoRecurrence"
SUPPORTED = "NumericallySupported"
INCONCLUSIVE = "Inconclusive"
_STRENGTH = {CERTIFIED: 2, SUPPORTED: 1, INCONCLUSIVE: 0}

# criteria root-finds nothing itself; the name stays resolvable here because
# perfbench/tracing.py (TARGETS) wraps poly_roots in this module by name
poly_roots = polyalg.poly_roots


@dataclass
class CriterionVerdict:
    criterion: str
    verdict: str
    evidence: dict               # may hold complex and SpherePoint values


def stronger(a: str, b: str) -> str:
    return a if _STRENGTH[a] >= _STRENGTH[b] else b


def _pole_list(qd: QuadraticDifferential):
    return [cp for cp in critical_points(qd) if cp.signed_order < 0]


def three_pole(qd: QuadraticDifferential) -> CriterionVerdict:
    """At most three distinct poles leave no room for a recurrent
    trajectory; the count includes the point at infinity."""
    poles = _pole_list(qd)
    ev = {"poles": [[cp.at, cp.signed_order] for cp in poles],
          "count": len(poles)}
    verdict = CERTIFIED if len(poles) <= 3 else INCONCLUSIVE
    return CriterionVerdict("ThreePole", verdict, ev)


def odd_multiplicity(qd: QuadraticDifferential) -> CriterionVerdict:
    """At most three critical points of odd order (zeros or poles,
    infinity included) also exclude recurrence."""
    odd = [cp for cp in critical_points(qd) if cp.signed_order % 2 != 0]
    ev = {"odd_points": [[cp.at, cp.signed_order] for cp in odd],
          "count": len(odd)}
    verdict = CERTIFIED if len(odd) <= 3 else INCONCLUSIVE
    return CriterionVerdict("OddMultiplicity", verdict, ev)


def no_short_trajectory_criterion(qd: QuadraticDifferential,
                                  graph: CriticalGraph) -> CriterionVerdict:
    """With at least one pole of order two or more present, a differential
    without finite critical trajectories has no recurrent ones. Tracing can
    only support this: unresolved rays block the conclusion."""
    has_inf_cp = any(cp.signed_order <= -2 for cp in graph.nodes)
    shorts = sum(1 for e in graph.edges if e.is_short)
    ev = {"infinite_critical_present": has_inf_cp,
          "short_edges": shorts,
          "unresolved_rays": len(graph.unresolved)}
    if has_inf_cp and shorts == 0 and not graph.unresolved:
        return CriterionVerdict("NoShortTrajectory", SUPPORTED, ev)
    return CriterionVerdict("NoShortTrajectory", INCONCLUSIVE, ev)


def _pairing_evidence(pairing) -> dict:
    if isinstance(pairing, PairingFailure):
        return {"pairing": "failed", "reason": pairing.reason,
                "unmatched": pairing.locations}
    return {"pairing": pairing.method, "pairs": pairing.locations}


def parity_pairs(qd: QuadraticDifferential, pairing) -> CriterionVerdict:
    """Paired zeros must carry multiplicities of equal parity; the matching
    pairs only such zeros, so this holds exactly when a pairing exists."""
    require_form(qd, "criterion")
    verdict = INCONCLUSIVE if isinstance(pairing, PairingFailure) else SUPPORTED
    return CriterionVerdict("ParityPairs", verdict, _pairing_evidence(pairing))


def residue_criterion(qd: QuadraticDifferential, pairing) -> CriterionVerdict:
    """Each finite double pole b of phi must give a purely imaginary residue
    of sqrt(phi), the principal root of its quadratic residue c, with
    phi ~ c / (z - b)^2 (for phi = p / q^2, c = p(b) / q'(b)^2): c must pass
    qdiff.single_valued, level's test too, whatever the branch of the square
    root. Any other finite pole order leaves the test inapplicable;
    infinity is not tested."""
    require_form(qd, "criterion")
    ev = _pairing_evidence(pairing)
    poles = [cp for cp in critical_points(qd) if cp.signed_order < 0 and not cp.at.is_infinite]
    if any(cp.signed_order != -2 for cp in poles):
        ev["note"] = "a finite pole is not double; the simple-pole residue test does not apply"
        return CriterionVerdict("ResidueCriterion", INCONCLUSIVE, ev)
    residues = [[cp.at.value, principal_sqrt(cp.quadratic_residue)] for cp in poles]
    ev["residues"] = residues
    ev["max_real_ratio"] = max([0.0] + [abs(r.real) / max(abs(r), 1e-300) if r != 0 else 0.0
                                        for _b, r in residues])
    single = all(single_valued(cp.quadratic_residue) for cp in poles)
    if single and not isinstance(pairing, PairingFailure):
        return CriterionVerdict("ResidueCriterion", SUPPORTED, ev)
    return CriterionVerdict("ResidueCriterion", INCONCLUSIVE, ev)


@dataclass(frozen=True)
class QdPolygon:
    """Vertices carry (order n_j, interior angle t_j as a Fraction multiple
    of pi); interior_orders lists the orders of enclosed critical points."""
    vertices: tuple
    interior_orders: tuple

    @classmethod
    def build(cls, vertices, interior_orders) -> "QdPolygon":
        vs = []
        for n, t in vertices:
            t = Fraction(t)
            if not (0 < t <= 2):
                raise ValueError(f"angle {t} pi outside (0, 2 pi]")
            vs.append((int(n), t))
        return cls(tuple(vs), tuple(int(m) for m in interior_orders))


def teichmuller_check(polygon: QdPolygon) -> Fraction:
    """LHS - RHS of the polygon identity
    sum_j (1 - (n_j + 2) t_j / 2 pi) = 2 + sum_i m_i, exactly."""
    lhs = Fraction(0)
    for n, t in polygon.vertices:
        lhs += 1 - Fraction(n + 2) * t / 2
    rhs = 2 + sum(polygon.interior_orders)
    return lhs - rhs


def run_all(qd: QuadraticDifferential, opts=None,
            graph: CriticalGraph | None = None) -> list[CriterionVerdict]:
    """Every applicable criterion, strongest verdict first; the graph is
    built once and shared."""
    g = graph if graph is not None else build_critical_graph(qd, opts)
    out = [three_pole(qd), odd_multiplicity(qd),
           no_short_trajectory_criterion(qd, g)]
    if qd.form is not None:
        pairing = pair_zeros_by_short_trajectories(qd, opts, graph=g)
        out.append(parity_pairs(qd, pairing))
        out.append(residue_criterion(qd, pairing))
    out.sort(key=lambda v: -_STRENGTH[v.verdict])     # stable: ties keep the order above
    return out


def overall_verdict(verdicts: list[CriterionVerdict]) -> str:
    v = INCONCLUSIVE
    for x in verdicts:
        v = stronger(v, x.verdict)
    return v

