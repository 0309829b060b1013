"""Certificates for the absence of recurrent trajectories.

Two exact counting criteria (pole count, odd-order count) can outright
certify, on orders that exact algebra confirms; the remaining three rest on
traced short trajectories and are capped at NumericallySupported, so no
traced row can overturn a count's certificate. The Teichmuller polygon
identity is checked in exact rational arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import polyalg
from .graph import (
    CriticalGraph,
    PairingFailure,
    build_critical_graph,
    pair_zeros_by_short_trajectories,
)
from .qdiff import (QuadraticDifferential, critical_points, exact_orders, principal_sqrt,
                    require_form, single_valued)

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
    evidence: dict               # may hold complex values, and None for infinity


def stronger(a: str, b: str) -> str:
    return a if _STRENGTH[a] >= _STRENGTH[b] else b


def _pole_list(qd: QuadraticDifferential):
    return [cp for cp in critical_points(qd) if cp.signed_order < 0]


def _exactly(qd: QuadraticDifferential, row: CriterionVerdict, reads) -> CriterionVerdict:
    """row, a count of the critical points whose orders n have reads(n), when those
    orders are the exact ones (qdiff.exact_orders) or qd was given by its clusters.
    Otherwise row turned Inconclusive: its evidence adds the exact orders it reads,
    and, as merged_clusters, the critical points of an order that the exact orders
    hold fewer of than the clusters do."""
    exact = exact_orders(qd)
    if exact is None:
        return row
    cps = critical_points(qd)
    want = [n for n in exact if reads(n)]
    if sorted(cp.signed_order for cp in cps if reads(cp.signed_order)) == want:
        return row
    excess = Counter(cp.signed_order for cp in cps) - Counter(exact)
    ev = {**row.evidence, "exact_orders": want,
          "merged_clusters": [[cp.at, cp.signed_order] for cp in cps if cp.signed_order in excess]}
    return CriterionVerdict(row.criterion, INCONCLUSIVE, ev)


def three_pole(qd: QuadraticDifferential) -> CriterionVerdict:
    """At most three distinct poles leave no room for a recurrent
    trajectory; the count includes the point at infinity."""
    poles = _pole_list(qd)
    ev = {"poles": [[cp.at, cp.signed_order] for cp in poles],
          "count": len(poles)}
    verdict = CERTIFIED if len(poles) <= 3 else INCONCLUSIVE
    return _exactly(qd, CriterionVerdict("ThreePole", verdict, ev), lambda n: n < 0)


def odd_multiplicity(qd: QuadraticDifferential) -> CriterionVerdict:
    """At most three critical points of odd order (zeros or poles,
    infinity included) also exclude recurrence."""
    odd = [cp for cp in critical_points(qd) if cp.signed_order % 2 != 0]
    ev = {"odd_points": [[cp.at, cp.signed_order] for cp in odd],
          "count": len(odd)}
    verdict = CERTIFIED if len(odd) <= 3 else INCONCLUSIVE
    return _exactly(qd, CriterionVerdict("OddMultiplicity", verdict, ev), lambda n: n % 2 != 0)


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
    poles = [cp for cp in critical_points(qd) if cp.signed_order < 0 and cp.at is not None]
    if any(cp.signed_order != -2 for cp in poles):
        ev["note"] = "a finite pole is not double; the simple-pole residue test does not apply"
        return CriterionVerdict("ResidueCriterion", INCONCLUSIVE, ev)
    residues = [[cp.at, principal_sqrt(cp.quadratic_residue)] for cp in poles]
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


def _strongest_first(rows: list[CriterionVerdict]) -> list[CriterionVerdict]:
    return sorted(rows, key=lambda v: -_STRENGTH[v.verdict])     # stable: ties keep their order


def count_rows(qd: QuadraticDifferential) -> list[CriterionVerdict]:
    """ThreePole and OddMultiplicity, strongest first: the rows that read the
    critical points alone. A certificate from either stands whatever the
    traced rows read, since those are capped at NumericallySupported."""
    return _strongest_first([three_pole(qd), odd_multiplicity(qd)])


def traced_rows(qd: QuadraticDifferential) -> list[str]:
    """The names of the rows of run_all that read the critical graph."""
    pairing_rows = ["ParityPairs", "ResidueCriterion"] if qd.form is not None else []
    return ["NoShortTrajectory"] + pairing_rows


def run_all(qd: QuadraticDifferential, opts=None,
            graph: CriticalGraph | None = None) -> list[CriterionVerdict]:
    """Every applicable criterion, strongest verdict first; the graph is
    built once and shared."""
    g = graph if graph is not None else build_critical_graph(qd, opts)
    out = count_rows(qd) + [no_short_trajectory_criterion(qd, g)]
    if qd.form is not None:
        pairing = pair_zeros_by_short_trajectories(qd, opts, graph=g)
        out.append(parity_pairs(qd, pairing))
        out.append(residue_criterion(qd, pairing))
    return _strongest_first(out)


def overall_verdict(verdicts: list[CriterionVerdict]) -> str:
    v = INCONCLUSIVE
    for x in verdicts:
        v = stronger(v, x.verdict)
    return v

