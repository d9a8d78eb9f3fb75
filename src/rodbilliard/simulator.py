"""Full-trajectory orchestration: first impact, degenerate handling and
record assembly.

``simulate`` finds the first rod contact in closed form from the angle
of the free flight, and ``impact_map.cascade`` generates every further
impact purely from the closed-form (r, a, beta) recurrences; no flight is
searched again, which removes root-finding drift from long orbits.  The
brute-force verifier in ``oracle`` exists precisely to validate that choice.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial

from .core import (DEFAULT_CONFIG, DEGENERATE, TRANSVERSAL, PhaseState,
                   SimConfig, require_finite, unit_rotation)
from .flight import (FlightSegment, flight_position, flight_velocity,
                     segment_position, segment_velocity)
from .impact_map import (ImpactEvent, cascade, in_degenerate_set,
                         segment_max_height)
from .rootfind import (T_STAR, UnsupportedFirstImpact, first_impact,
                       solve_delta)


@dataclass(frozen=True, slots=True)
class QuasiTrajectory:
    """Sliding continuation past a full stop: the ball rides the rod.

    With unit angular velocity the centrifugal pull gives x'' = x along
    the rod, hence x(t) = r cosh(t - t1) from rest at radius r.
    """

    r: float
    t1: float


class RowView(Sequence):
    """Rows ``row(k)`` for k in ``rows``, built on access; a slice is a
    view over the sub-range, and a view equals the tuple of its rows."""

    __slots__ = ("_row", "_rows")

    def __init__(self, row: Callable[[int], object], rows: range) -> None:
        self._row = row
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, k):
        rows = self._rows[k]
        if isinstance(rows, range):
            return RowView(self._row, rows)
        return self._row(rows)

    def __iter__(self) -> Iterator:
        return map(self._row, self._rows)

    def __eq__(self, other) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, RowView)
                               else other)


@dataclass(frozen=True, slots=True)
class TrajectoryRecord:
    """Initial data, the orbit as float64 columns, and the termination.

    Impact k + 1 happens at ``t[k]``, radius ``r[k]``; the arc leaving it
    has ``a[k]``, ``beta[k]`` = b - 1 and, once closed, ``delta[k]``.  The
    last arc is open, or absent after a degenerate impact.  Every impact
    but the first is transversal with incoming velocity r (a - i beta).
    ``impacts``, ``segments``, ``heights``, ``quasi_start`` and
    ``first_zdot_in`` are derived on access.  (z0, v0): the approach arc.

    ``simulate``, ``record_from_json`` and the field defaults give each
    column as an ``array('d')``, 8 bytes a value, so their records of one
    orbit compare equal and print alike; the columns are mutable buffers,
    and a record is not hashable.
    """

    z0: complex
    v0: complex
    config: SimConfig
    termination: str
    t: array = field(default_factory=partial(array, "d"))
    r: array = field(default_factory=partial(array, "d"))
    a: array = field(default_factory=partial(array, "d"))
    beta: array = field(default_factory=partial(array, "d"))
    delta: array = field(default_factory=partial(array, "d"))
    first_kind: str | None = None

    @property
    def impacts(self) -> RowView:
        """ImpactEvent per impact; ``zdot_out`` reflects ``zdot_in``,
        except that an exact full stop keeps 0j."""
        return RowView(self._impact, range(len(self.t)))

    @property
    def segments(self) -> RowView:
        """FlightSegment per arc; ``segments[k]`` leaves ``impacts[k]``."""
        return RowView(self._segment, range(len(self.a)))

    @property
    def heights(self) -> RowView:
        """Peak height of each closed arc, solved on access."""
        return RowView(self._height, range(len(self.delta)))

    @property
    def quasi_start(self) -> QuasiTrajectory | None:
        """Sliding start of a ``degenerate_quasi`` record, else None."""
        if self.termination == "degenerate_quasi":
            return QuasiTrajectory(r=self.r[0], t1=self.t[0])
        return None

    @property
    def first_zdot_in(self) -> complex | None:
        """The first impact's incoming velocity: 0j at ``simulate``'s analytic
        full stop, else the approach arc's at t[0]; None without impacts."""
        if not self.t:
            return None
        if self.first_kind == DEGENERATE and in_degenerate_set(
                self.z0, self.v0 - 1j * self.z0)[0]:
            return 0j
        return flight_velocity(self.z0, self.v0, self.t[0])

    @property
    def open_delta(self) -> float | None:
        """Time from the open last arc's start to its next impact, solved
        on access from beta rather than b - 1; None without an open arc."""
        if len(self.delta) < len(self.a):
            return solve_delta(self.a[-1], self.beta[-1])
        return None

    def _impact(self, k: int) -> ImpactEvent:
        r = self.r[k]
        if k:
            zdot_in = complex(r * self.a[k], -r * self.beta[k])
            zdot_out, kind = zdot_in.conjugate(), TRANSVERSAL
        else:
            zdot_in, kind = self.first_zdot_in, self.first_kind
            zdot_out = zdot_in.conjugate() if zdot_in else 0j
        return ImpactEvent(k + 1, self.t[k], r, zdot_in, zdot_out, kind)

    def _segment(self, k: int) -> FlightSegment:
        return FlightSegment(
            n=k + 1, t_start=self.t[k], r=self.r[k], a=self.a[k],
            b=1.0 + self.beta[k],
            delta=self.delta[k] if k < len(self.delta) else None)

    def _height(self, k: int) -> float:
        return segment_max_height(self.r[k], self.a[k], self.beta[k])


def simulate(z0: complex, v0: complex,
             cfg: SimConfig | None = None) -> TrajectoryRecord:
    """Run a billiard trajectory from lab-frame line data (z0, v0).

    The rotating-frame motion is (z0 + v0 t) e^{-it} until the first rod
    contact; ``cascade`` iterates the closed-form recurrences from there.
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

    zdot0 = require_finite(v0 - 1j * z0, "zdot0")

    # the full-stop set is tested only where first_impact finds a full stop
    # or raises ValueError: a member stops there in closed form, and a
    # near-tangent line in the set's band passes on
    try:
        t1, r1, kind = first_impact(z0, v0)
    except UnsupportedFirstImpact:
        return TrajectoryRecord(z0, v0, cfg, "unsupported_first_impact")
    except ValueError:
        member, r_m, tau = in_degenerate_set(z0, zdot0)
        if not member:
            raise
        kind = DEGENERATE
    else:
        member, r_m, tau = (in_degenerate_set(z0, zdot0) if kind == DEGENERATE
                            else (False, 0.0, 0.0))
    if member:
        t1, r1 = tau, r_m
    if t1 > cfg.t_max:
        return TrajectoryRecord(z0, v0, cfg, "reached_t_max")
    if kind == DEGENERATE:
        return TrajectoryRecord(
            z0, v0, cfg, "degenerate_quasi" if cfg.quasi_mode == "extend"
            else "degenerate_stop", t=array("d", [t1]), r=array("d", [r1]),
            first_kind=kind)

    # the first arc from the contact's verdict: beta > 0 if transversal,
    # and a grazing touch gets beta = 0 where rounding made it negative
    zdot_in = flight_velocity(z0, v0, t1)
    ts, rs, as_, betas, deltas = cascade(
        t1, r1, zdot_in.real / r1, max(-zdot_in.imag / r1, 0.0),
        cfg.n_max - 1, cfg.t_max)
    termination = "reached_n_max" if len(ts) == cfg.n_max else "reached_t_max"
    return TrajectoryRecord(z0, v0, cfg, termination, t=ts, r=rs, a=as_,
                            beta=betas, delta=deltas, first_kind=kind)


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
    """Phase state along a record at time t (right limits at impacts), up
    to the next impact of its open last arc."""
    if t < 0.0:
        raise ValueError(f"t = {t} precedes the start of the record")
    ts = record.t
    if not ts or t < ts[0]:
        z0, v0 = record.z0, record.v0
        return PhaseState(t=t, z=flight_position(z0, v0, t),
                          zdot=flight_velocity(z0, v0, t))
    k = bisect_right(ts, t) - 1
    if k == len(record.delta) < len(record.a):
        # the open last arc holds the orbit up to its next impact only
        t_end = ts[k] + record.open_delta
        if t > t_end:
            raise ValueError(f"record ends at t = {t_end}, the next impact "
                             f"of its open last arc; no state at t = {t}")
    if k < len(record.a):
        seg = record.segments[k]
        s = t - seg.t_start
        return PhaseState(t=t, z=segment_position(seg, s),
                          zdot=segment_velocity(seg, s))
    if (q := record.quasi_start) is not None:
        return PhaseState(t=t, z=quasi_position(q, t),
                          zdot=quasi_velocity(q, t))
    last = record.impacts[-1]
    if t == last.t:
        return PhaseState(t=t, z=complex(last.r, 0.0), zdot=last.zdot_out)
    raise ValueError(f"record ends at t = {last.t} ({record.termination}); "
                     f"no state at t = {t}")


# impact budget of each perturbed run of ``convergence_experiment``
CONVERGENCE_N_MAX = 1_000_000


@dataclass(frozen=True, slots=True)
class ConvergenceRow:
    """One perturbed run; the suprema are over the grid points up to
    ``horizon``, the end of what its record covers (T, or earlier when
    the run spent its impact budget first)."""

    epsilon: float
    sup_pos: float
    sup_vel: float
    n_impacts: int
    termination: str
    horizon: float


def convergence_experiment(r: float, t1: float, epsilons: list[float],
                           T: float, grid_points: int = 1000
                           ) -> tuple[ConvergenceRow, ...]:
    """Distance of perturbed trajectories from the sliding continuation.

    Starts from the full-stop initial condition with parameters (r, t1),
    scales the lab-frame velocity by (1 + eps), simulates, and gives per
    eps a row of sup |z - z_quasi| and sup |zdot - zdot_quasi| over a
    uniform grid on [0, T], cut at the next impact of a record's open last
    arc when the run ends on its ``CONVERGENCE_N_MAX`` impacts before T.
    Report only: whether these suprema vanish as eps -> 0 is an open
    conjecture, so nothing here asserts a trend.
    """
    if not 0.0 < t1 < T_STAR:
        raise ValueError(f"t1 must lie in (0, {T_STAR}), got {t1}")
    if not (r > 0.0 and T > 0.0):
        raise ValueError("r and T must be positive")
    if type(grid_points) is not int or grid_points < 1:  # no bool either
        raise ValueError(f"grid_points must be an int >= 1: {grid_points!r}")
    rot = unit_rotation(t1)
    z0 = r * complex(1.0, -t1) * rot
    zdot0 = -r * t1 * rot
    v0 = zdot0 + 1j * z0
    quasi = QuasiTrajectory(r=r, t1=t1)
    run_cfg = SimConfig(n_max=CONVERGENCE_N_MAX, t_max=T, quasi_mode="extend")

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
        horizon, open_delta = T, record.open_delta
        if open_delta is not None:
            horizon = min(T, record.t[-1] + open_delta)
        sup_pos = 0.0
        sup_vel = 0.0
        for t in grid[:bisect_right(grid, horizon)]:
            state = record_state(record, t)
            zq, zdq = quasi_state(t)
            sup_pos = max(sup_pos, abs(state.z - zq))
            sup_vel = max(sup_vel, abs(state.zdot - zdq))
        rows.append(ConvergenceRow(epsilon=eps, sup_pos=sup_pos,
                                   sup_vel=sup_vel,
                                   n_impacts=len(record.t),
                                   termination=record.termination,
                                   horizon=horizon))
    return tuple(rows)
