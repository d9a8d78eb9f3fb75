"""Billiard of a point mass in a half-plane bounded by a uniformly rotating rod.

Exact event-driven simulation via the closed-form impact recurrences,
cross-validated against a brute-force scanning oracle, with diagnostics
for the long-orbit asymptotics (delta_n ~ 3/(2n), r_{n+1}/r_n ~ 1 + 3/(2n),
t_n ~ (3/2) ln n).
"""

from .core import (BilliardError, ContractViolation, DEFAULT_CONFIG,
                   DEGENERATE, GRAZING, PhaseState, SimConfig, TRANSVERSAL,
                   classify_impact, unit_rotation)
from .flight import (FlightSegment, flight_position, flight_velocity,
                     segment_position, segment_velocity)
from .rootfind import (T_STAR, UnsupportedFirstImpact, first_impact,
                       solve_delta, solve_tstar)
from .impact_map import (ImpactEvent, in_degenerate_set, segment_max_height,
                         step)
from .simulator import (ConvergenceRow, QuasiTrajectory, TrajectoryRecord,
                        convergence_experiment, quasi_position,
                        quasi_velocity, record_state, simulate)
from .oracle import OracleMismatch, oracle_simulate
from .analysis import AsymptoticRow, asymptotic_table, estimate_growth_constant
from .cli_io import (ExportOptions, export_trajectory, record_from_json,
                     record_to_json)

__version__ = "0.1.0"
