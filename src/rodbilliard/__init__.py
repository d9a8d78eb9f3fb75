"""Billiard of a point mass in a half-plane bounded by a uniformly rotating rod.

Exact event-driven simulation via the closed-form impact recurrences,
cross-validated against a brute-force scanning oracle, with diagnostics
for the long-orbit asymptotics (delta_n ~ 3/(2n), r_{n+1}/r_n ~ 1 + 3/(2n),
t_n ~ (3/2) ln n).
"""

from .core import (BilliardError, DEFAULT_CONFIG, PhaseState, SimConfig,
                   unit_rotation)
from .flight import (FlightSegment, FreeFlight, flight_position,
                     flight_velocity, reflect, segment_position,
                     segment_velocity, to_lab_frame)
from .rootfind import (FirstImpact, RootFindError, RootResult, T_STAR,
                       UnsupportedFirstImpact, first_impact, hybrid_root,
                       solve_delta, solve_tstar)
from .impact_map import (ContractViolation, DEGENERATE, GRAZING, ImpactEvent,
                         TRANSVERSAL, classify_impact, in_degenerate_set,
                         recurrence, recurrence_kernels, segment_max_height,
                         step)
from .simulator import (ConvergenceRow, ConvergenceTable, QuasiTrajectory,
                        TrajectoryRecord, convergence_experiment,
                        quasi_position, quasi_velocity, record_state,
                        simulate)
from .oracle import OracleMismatch, oracle_simulate
from .analysis import AsymptoticRow, asymptotic_table, estimate_growth_constant
from .cli_io import (ExportOptions, export_trajectory, record_from_json,
                     record_to_json, trajectory_samples)

__all__ = [
    "AsymptoticRow", "BilliardError", "ContractViolation", "ConvergenceRow",
    "ConvergenceTable", "DEFAULT_CONFIG", "DEGENERATE",
    "ExportOptions", "FirstImpact", "FlightSegment", "FreeFlight", "GRAZING",
    "ImpactEvent", "OracleMismatch", "PhaseState",
    "QuasiTrajectory", "RootFindError", "RootResult", "SimConfig", "T_STAR",
    "TRANSVERSAL", "TrajectoryRecord", "UnsupportedFirstImpact",
    "asymptotic_table", "classify_impact", "convergence_experiment",
    "estimate_growth_constant", "export_trajectory", "first_impact",
    "flight_position", "flight_velocity", "hybrid_root", "in_degenerate_set",
    "oracle_simulate", "quasi_position",
    "quasi_velocity", "record_from_json", "record_state", "record_to_json",
    "recurrence", "recurrence_kernels", "reflect", "segment_max_height",
    "segment_position", "segment_velocity", "simulate", "solve_delta",
    "solve_tstar", "step", "to_lab_frame", "trajectory_samples",
    "unit_rotation",
]

__version__ = "0.1.0"
