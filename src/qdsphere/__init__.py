"""Numerical study of rational quadratic differentials on the sphere:
trajectory tracing, critical graphs, short trajectories, recurrence
criteria, level functions, lemniscates and Cauchy-transform measures."""

__version__ = "0.1.0"

from .polyalg import Polynomial, poly_roots
from .qdiff import (QuadraticDifferential, SpherePoint, CriticalPoint,
                    qd_new, qd_from_p_over_q_squared, lemniscate_qd, cauchy_qd,
                    critical_points, critical_directions, classify_double_pole,
                    order_at_infinity, local_leading_coefficient,
                    principal_sqrt, continue_sqrt, continue_sqrt_along,
                    zeta_from, measure_density, measure_mass)
from .tracer import (TraceOptions, TrajectoryRay, Termination,
                     trace_horizontal, trace_vertical, trace_from_critical,
                     imag_drift_of)
from .graph import (CriticalGraph, CriticalEdge, Pairing, PairingFailure,
                    RecurrenceReport, build_critical_graph,
                    find_short_trajectories, pair_zeros_by_short_trajectories,
                    detect_recurrence)
from .criteria import (CriterionVerdict, QdPolygon, run_all, overall_verdict,
                       three_pole, odd_multiplicity, parity_pairs,
                       residue_criterion, no_short_trajectory_criterion,
                       teichmuller_check, CERTIFIED, SUPPORTED, INCONCLUSIVE)
from .level import LevelField, VerificationReport, level_function, level_grid, verify_level
from .lemniscate import LemniscateReport, analyze_lemniscate, lemniscate_level_curve
from .contour import marching_squares
from .specfile import InputSpec, parse_input, parse_obj, build_qd
from . import errors

__all__ = [
    "Polynomial", "poly_roots",
    "QuadraticDifferential", "SpherePoint", "CriticalPoint",
    "qd_new", "qd_from_p_over_q_squared", "lemniscate_qd", "cauchy_qd",
    "critical_points", "critical_directions", "classify_double_pole",
    "order_at_infinity", "local_leading_coefficient",
    "principal_sqrt", "continue_sqrt", "continue_sqrt_along",
    "zeta_from", "measure_density", "measure_mass",
    "TraceOptions", "TrajectoryRay", "Termination",
    "trace_horizontal", "trace_vertical", "trace_from_critical",
    "imag_drift_of",
    "CriticalGraph", "CriticalEdge", "Pairing", "PairingFailure",
    "RecurrenceReport", "build_critical_graph", "find_short_trajectories",
    "pair_zeros_by_short_trajectories", "detect_recurrence",
    "CriterionVerdict", "QdPolygon", "run_all", "overall_verdict",
    "three_pole", "odd_multiplicity", "parity_pairs", "residue_criterion",
    "no_short_trajectory_criterion", "teichmuller_check",
    "CERTIFIED", "SUPPORTED", "INCONCLUSIVE",
    "LevelField", "VerificationReport", "level_function", "level_grid",
    "verify_level",
    "LemniscateReport", "analyze_lemniscate", "lemniscate_level_curve",
    "marching_squares",
    "InputSpec", "parse_input", "parse_obj", "build_qd",
    "errors",
]
