import cmath
import math
from fractions import Fraction

import pytest

from qdsphere.criteria import (
    CERTIFIED,
    INCONCLUSIVE,
    SUPPORTED,
    QdPolygon,
    no_short_trajectory_criterion,
    odd_multiplicity,
    overall_verdict,
    run_all,
    stronger,
    teichmuller_check,
    three_pole,
)
from qdsphere.errors import WrongProvenance
from qdsphere.graph import build_critical_graph, detect_recurrence
from qdsphere.polyalg import Polynomial
from qdsphere.qdiff import (CIRCULAR, SPIRAL, classify_double_pole, qd_from_p_over_q_squared,
                            qd_new)
from qdsphere.tracer import TraceOptions

ONE = Polynomial([1.0])


def test_three_pole_certifies_small_catalogs():
    # -1/z^2: poles at 0 and infinity only
    qd = qd_from_p_over_q_squared(ONE, Polynomial([0.0, 1.0]), sign=-1)
    v = three_pole(qd)
    assert v.verdict == CERTIFIED
    assert v.evidence["count"] == 2


def test_three_pole_inconclusive_four_poles():
    qd = qd_new(Polynomial([-1.0]), Polynomial([0.5j, 0.0, -0.25 - 2.0j, 0.0, 1.0]))
    v = three_pole(qd)
    assert v.verdict == INCONCLUSIVE
    assert v.evidence["count"] == 4


def test_odd_multiplicity_counts_all_orders():
    # 1 - z^2: zeros of order 1 at +-1 (two odd) and a pole of order -6 at
    # infinity (even): certified
    qd = qd_new(Polynomial([1.0, 0.0, -1.0]), ONE)
    v = odd_multiplicity(qd)
    assert v.verdict == CERTIFIED
    assert v.evidence["count"] == 2


def test_odd_multiplicity_inconclusive():
    # four simple finite poles (odd each) plus regular infinity
    qd = qd_new(Polynomial([-1.0]), Polynomial([0.5j, 0.0, -0.25 - 2.0j, 0.0, 1.0]))
    v = odd_multiplicity(qd)
    assert v.verdict == INCONCLUSIVE
    assert v.evidence["count"] == 4


def test_no_short_trajectory_supported():
    # -1/z^2 has no zeros at all, so no finite critical trajectory exists
    qd = qd_from_p_over_q_squared(ONE, Polynomial([0.0, 1.0]), sign=-1)
    g = build_critical_graph(qd)
    v = no_short_trajectory_criterion(qd, g)
    assert v.verdict == SUPPORTED
    assert v.evidence["short_edges"] == 0


def test_no_short_trajectory_blocked_by_shorts():
    qd = qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)
    g = build_critical_graph(qd)
    v = no_short_trajectory_criterion(qd, g)
    assert v.verdict == INCONCLUSIVE
    assert v.evidence["short_edges"] >= 1


def test_run_all_requires_provenance_for_pq_criteria():
    qd = qd_new(Polynomial([1.0, 0.0, -1.0]), ONE)
    names = [v.criterion for v in run_all(qd)]
    assert "ParityPairs" not in names          # no p/q^2 provenance
    qd2 = qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)
    names2 = [v.criterion for v in run_all(qd2)]
    assert {"ParityPairs", "ResidueCriterion"} <= set(names2)


def test_run_all_sorted_strongest_first():
    qd = qd_from_p_over_q_squared(Polynomial([1.0, 0.0, -1.0]), ONE)
    vs = run_all(qd)
    ranks = {"CertifiedNoRecurrence": 2, "NumericallySupported": 1, "Inconclusive": 0}
    seq = [ranks[v.verdict] for v in vs]
    assert seq == sorted(seq, reverse=True)


def test_residue_criterion_circle_family():
    # p = -1, q = z: residue of sqrt(p)/q at 0 is +-i, purely imaginary
    qd = qd_from_p_over_q_squared(ONE, Polynomial([0.0, 1.0]), sign=-1)
    vs = {v.criterion: v for v in run_all(qd)}
    v = vs["ResidueCriterion"]
    assert v.verdict == SUPPORTED
    assert v.evidence["max_real_ratio"] <= 1e-8


def test_residue_criterion_blocks_real_part():
    # p = 1, q = z: residue +-1 is real, not imaginary
    qd = qd_from_p_over_q_squared(ONE, Polynomial([0.0, 1.0]), sign=1)
    vs = {v.criterion: v for v in run_all(qd)}
    assert vs["ResidueCriterion"].verdict == INCONCLUSIVE


@pytest.mark.parametrize("angle, kind, verdict", [
    (0.0, CIRCULAR, SUPPORTED), (5e-10, CIRCULAR, SUPPORTED), (5e-9, SPIRAL, INCONCLUSIVE),
    (-5e-9, SPIRAL, INCONCLUSIVE), (3e-8, SPIRAL, INCONCLUSIVE)])
def test_residue_criterion_and_pole_class_agree(angle, kind, verdict):
    # phi = -e^(i angle) / z^2: arg(-c) = angle at the double pole at 0.
    # |Re sqrt(c)| / |sqrt(c)| = sin(angle / 2) stays below 1e-8 up to
    # angle 2e-8, yet past 1e-9 the pole is not circular: the criterion
    # passes exactly when classify_double_pole says Circular
    qd = qd_from_p_over_q_squared(Polynomial([cmath.exp(1j * angle)]), Polynomial([0.0, 1.0]),
                                  sign=-1)
    assert classify_double_pole(qd, 0.0) == kind
    v = {v.criterion: v for v in run_all(qd)}["ResidueCriterion"]
    assert v.verdict == verdict
    assert v.evidence["max_real_ratio"] == pytest.approx(abs(math.sin(angle / 2)), abs=1e-16)


def test_verdict_lattice():
    assert stronger(CERTIFIED, SUPPORTED) == CERTIFIED
    assert stronger(INCONCLUSIVE, SUPPORTED) == SUPPORTED
    assert overall_verdict([]) == INCONCLUSIVE


def test_overall_verdict_scale_invariance():
    # rescaling z by 1000 must not change any verdict
    p = Polynomial([1.0, 0.0, -1.0])
    qd = qd_from_p_over_q_squared(p, ONE)
    scaled_p = Polynomial([1.0, 0.0, -1e-6])          # roots at +-1000
    qd_s = qd_from_p_over_q_squared(scaled_p, ONE)
    a = {v.criterion: v.verdict for v in run_all(qd)}
    b = {v.criterion: v.verdict for v in run_all(qd_s)}
    assert a == b


def test_teichmuller_identity_exact():
    # six order-1 vertices at angle 2 pi / 3 around two enclosed simple
    # poles: each vertex term vanishes and 2 + (-1) + (-1) = 0
    poly = QdPolygon.build(
        vertices=[(1, Fraction(2, 3))] * 6, interior_orders=[-1, -1])
    assert teichmuller_check(poly) == 0
    # violating the identity by one vertex angle gives an exact nonzero gap
    bad = QdPolygon.build(
        vertices=[(1, Fraction(2, 3))] * 5 + [(1, Fraction(1, 3))],
        interior_orders=[-1, -1])
    assert teichmuller_check(bad) == Fraction(1, 2)


def test_teichmuller_rejects_bad_angles():
    with pytest.raises(ValueError):
        QdPolygon.build(vertices=[(0, Fraction(5, 2))], interior_orders=[])
    with pytest.raises(ValueError):
        QdPolygon.build(vertices=[(0, 0)], interior_orders=[])


def test_soundness_on_winding_example():
    # the densely winding four-pole example must never be certified, and
    # the recurrence detector must flag it
    qd = qd_new(Polynomial([-1.0]), Polynomial([0.5j, 0.0, -0.25 - 2.0j, 0.0, 1.0]))
    opts = TraceOptions.for_qd(qd).replace(max_phi_length=200.0)
    vs = run_all(qd, opts=opts)
    assert overall_verdict(vs) == INCONCLUSIVE
    report = detect_recurrence(qd, 1.0 + 0.0j, opts=opts)
    assert report.verdict == "SuspectedRecurrent"
