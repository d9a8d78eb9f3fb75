"""Full-trajectory orchestration: first impact, recurrence iteration,
degenerate handling and record assembly.

``simulate`` finds the first rod contact in closed form from the angle
of the free flight, then generates every further impact purely from the
closed-form (r, a, b) recurrences; no flight is searched again, which
removes root-finding drift from long orbits.  The brute-force verifier
in ``oracle`` exists precisely to validate that choice.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import attrgetter

from .core import (DEFAULT_CONFIG, GRAZING_TOL, PhaseState, SimConfig,
                   require_finite, unit_rotation)
from .flight import (FlightSegment, FreeFlight, flight_position,
                     flight_velocity, reflect, segment_position,
                     segment_velocity)
from .impact_map import (DEGENERATE, TRANSVERSAL, ContractViolation,
                         ImpactEvent, in_degenerate_set,
                         incoming_to_map_state, step)
from .rootfind import T_STAR, UnsupportedFirstImpact, first_impact

_log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class QuasiTrajectory:
    """Sliding continuation past a full stop: the ball rides the rod.

    With unit angular velocity the centrifugal pull gives x'' = x along
    the rod, hence x(t) = r cosh(t - t1) from rest at radius r.
    """

    r: float
    t1: float


@dataclass(frozen=True, slots=True)
class TrajectoryRecord:
    """Initial data, ordered impacts/segments and the termination reason.

    ``segments[k]`` is the arc leaving ``impacts[k]``; the last segment is
    open (``delta`` None) unless the record ended at a degenerate impact,
    which has no continuation arc.  ``heights[k]`` is the peak height of
    closed segment ``k``.  The approach arc before the first impact is
    implicit in (z0, v0).
    """

    z0: complex
    v0: complex
    config: SimConfig
    impacts: tuple[ImpactEvent, ...]
    segments: tuple[FlightSegment, ...]
    heights: tuple[float, ...]
    termination: str
    quasi_start: QuasiTrajectory | None = None


def simulate(z0: complex, v0: complex,
             cfg: SimConfig | None = None) -> TrajectoryRecord:
    """Run a billiard trajectory from lab-frame line data (z0, v0).

    The rotating-frame motion is (z0 + v0 t) e^{-it} until the first rod
    contact; afterwards impacts follow from the closed-form recurrences.
    Stops after cfg.n_max impacts or past cfg.t_max, at a degenerate
    (full-stop) impact per cfg.quasi_mode, or immediately when the first
    contact is off the positive semiaxis (reported, not simulated).
    """
    cfg = cfg or DEFAULT_CONFIG
    # stored as complex even from simulate(1j, 1), as record_from_json reads it
    z0 = require_finite(complex(z0), "z0")
    v0 = require_finite(complex(v0), "v0")
    if z0.imag < 0.0:
        raise ValueError(f"initial position {z0!r} lies below the rod")

    def finished(impacts, segments, heights, termination, quasi=None):
        return TrajectoryRecord(z0=z0, v0=v0, config=cfg,
                                impacts=tuple(impacts),
                                segments=tuple(segments),
                                heights=tuple(heights),
                                termination=termination, quasi_start=quasi)

    def finish_degenerate(impacts):
        ev = impacts[-1]
        if cfg.quasi_mode == "extend":
            return finished(impacts, (), (), "degenerate_quasi",
                            QuasiTrajectory(r=ev.r, t1=ev.t))
        return finished(impacts, (), (), "degenerate_stop")

    # analytic early exit: exact full-stop initial data need no root search
    member, r_m, tau = in_degenerate_set(z0, v0 - 1j * z0)
    if member and tau <= cfg.t_max:
        ev = ImpactEvent(n=1, t=tau, r=r_m, zdot_in=0j, zdot_out=0j,
                         kind=DEGENERATE)
        return finish_degenerate([ev])

    ff = FreeFlight(z0, v0)
    try:
        t1, r1, kind = first_impact(ff)
    except UnsupportedFirstImpact:
        return finished((), (), (), "unsupported_first_impact")
    if t1 > cfg.t_max:
        return finished((), (), (), "reached_t_max")

    zdot_in = flight_velocity(ff, t1)
    zdot_out = reflect(zdot_in)
    impacts = [ImpactEvent(n=1, t=t1, r=r1, zdot_in=zdot_in,
                           zdot_out=zdot_out, kind=kind)]
    if kind == DEGENERATE:
        return finish_degenerate(impacts)

    segments: list[FlightSegment] = []
    heights: list[float] = []
    ms = incoming_to_map_state(r1, zdot_in)
    t_rec = t1
    t_sum = t1
    comp = 0.0  # Neumaier compensation for the running time sum
    termination = "reached_n_max"
    while len(impacts) < cfg.n_max:
        delta, ms_next, height = step(ms)
        s = t_sum + delta
        comp += (t_sum - s) + delta if t_sum >= delta else (delta - s) + t_sum
        t_sum = s
        t_next = t_sum + comp
        if t_next > cfg.t_max:
            termination = "reached_t_max"
            break
        # the incoming velocity whose reflection ms_next describes
        zdot_in = complex(ms_next.r * ms_next.a, -ms_next.r * ms_next.beta)
        if not (ms_next.a > 0.0 and ms_next.beta > 0.0):
            raise ContractViolation(
                f"inadmissible step at n={ms.n}: state {ms}, "
                f"next {ms_next}, incoming {zdot_in!r}")
        if zdot_in.imag >= -GRAZING_TOL * (1.0 + abs(zdot_in)):
            # within roundoff of grazing; the dynamics forbids true grazing
            # past the first impact, so keep it transversal
            _log.warning("near-grazing incoming velocity %r at n=%d",
                         zdot_in, ms_next.n)
        segments.append(FlightSegment(n=ms.n, t_start=t_rec, r=ms.r,
                                      a=ms.a, b=ms.b, delta=delta))
        heights.append(height)
        impacts.append(ImpactEvent(n=ms_next.n, t=t_next, r=ms_next.r,
                                   zdot_in=zdot_in,
                                   zdot_out=reflect(zdot_in),
                                   kind=TRANSVERSAL))
        ms = ms_next
        t_rec = t_next
    segments.append(FlightSegment(n=ms.n, t_start=t_rec, r=ms.r,
                                  a=ms.a, b=ms.b, delta=None))
    return finished(impacts, segments, heights, termination)


def quasi_position(q: QuasiTrajectory, t: float) -> complex:
    """Sliding position (r cosh(t - t1), 0); defined for t >= t1."""
    if t < q.t1:
        raise ValueError(f"t = {t} precedes the sliding start {q.t1}")
    return complex(q.r * math.cosh(t - q.t1), 0.0)


def quasi_velocity(q: QuasiTrajectory, t: float) -> complex:
    """Sliding velocity (r sinh(t - t1), 0); zero at t1, matching the stop."""
    if t < q.t1:
        raise ValueError(f"t = {t} precedes the sliding start {q.t1}")
    return complex(q.r * math.sinh(t - q.t1), 0.0)


def record_state(record: TrajectoryRecord, t: float) -> PhaseState:
    """Phase state along a record at time t (right limits at impacts)."""
    if t < 0.0:
        raise ValueError(f"t = {t} precedes the start of the record")
    impacts = record.impacts
    if not impacts or t < impacts[0].t:
        ff = FreeFlight(record.z0, record.v0)
        return PhaseState(t=t, z=flight_position(ff, t),
                          zdot=flight_velocity(ff, t))
    k = bisect_right(impacts, t, key=attrgetter("t")) - 1
    if k < len(record.segments):
        seg = record.segments[k]
        s = t - seg.t_start
        return PhaseState(t=t, z=segment_position(seg, s),
                          zdot=segment_velocity(seg, s))
    if record.quasi_start is not None:
        q = record.quasi_start
        return PhaseState(t=t, z=quasi_position(q, t),
                          zdot=quasi_velocity(q, t))
    last = impacts[-1]
    if t == last.t:
        return PhaseState(t=t, z=complex(last.r, 0.0), zdot=last.zdot_out)
    raise ValueError(f"record ends at t = {last.t} ({record.termination}); "
                     f"no state at t = {t}")


@dataclass(frozen=True, slots=True)
class ConvergenceRow:
    epsilon: float
    sup_pos: float
    sup_vel: float
    n_impacts: int
    termination: str


@dataclass(frozen=True, slots=True)
class ConvergenceTable:
    r: float
    t1: float
    horizon: float
    grid_points: int
    perturbation: str
    rows: tuple[ConvergenceRow, ...]


def convergence_experiment(r: float, t1: float, epsilons: list[float],
                           T: float, cfg: SimConfig | None = None,
                           grid_points: int = 1000) -> ConvergenceTable:
    """Distance of perturbed trajectories from the sliding continuation.

    Starts from the full-stop initial condition with parameters (r, t1),
    scales the lab-frame velocity by (1 + eps), simulates, and reports
    sup |z - z_quasi| and sup |zdot - zdot_quasi| over a uniform grid on
    [0, T].  Report only: whether these suprema vanish as eps -> 0 is an
    open conjecture, so nothing here asserts a trend.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not 0.0 < t1 < T_STAR:
        raise ValueError(f"t1 must lie in (0, {T_STAR}), got {t1}")
    if not (r > 0.0 and T > 0.0):
        raise ValueError("r and T must be positive")
    rot = unit_rotation(t1)
    z0 = r * complex(1.0, -t1) * rot
    zdot0 = -r * t1 * rot
    v0 = zdot0 + 1j * z0
    quasi = QuasiTrajectory(r=r, t1=t1)
    run_cfg = replace(cfg, quasi_mode="extend", t_max=T,
                      n_max=max(cfg.n_max, 1_000_000))

    def quasi_state(t: float) -> tuple[complex, complex]:
        if t >= t1:
            return quasi_position(quasi, t), quasi_velocity(quasi, t)
        s = t - t1
        rot_s = unit_rotation(-s)
        return r * complex(1.0, s) * rot_s, r * s * rot_s

    rows = []
    grid = [T * j / grid_points for j in range(grid_points + 1)]
    for eps in epsilons:
        record = simulate(z0, v0 * (1.0 + eps), run_cfg)
        sup_pos = 0.0
        sup_vel = 0.0
        for t in grid:
            state = record_state(record, t)
            zq, zdq = quasi_state(t)
            sup_pos = max(sup_pos, abs(state.z - zq))
            sup_vel = max(sup_vel, abs(state.zdot - zdq))
        rows.append(ConvergenceRow(epsilon=eps, sup_pos=sup_pos,
                                   sup_vel=sup_vel,
                                   n_impacts=len(record.impacts),
                                   termination=record.termination))
    return ConvergenceTable(r=r, t1=t1, horizon=T, grid_points=grid_points,
                            perturbation="v0-scale", rows=tuple(rows))
