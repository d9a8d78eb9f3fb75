import dis
import logging
import math
import random
import sys
import tracemalloc
from array import array

import pytest

from rodbilliard import (DEGENERATE, TRANSVERSAL, ContractViolation,
                         SimConfig, convergence_experiment, flight_position,
                         quasi_position, quasi_velocity, record_state,
                         record_from_json, record_to_json, segment_position,
                         simulate, step, QuasiTrajectory, TrajectoryRecord)
from rodbilliard.core import (DEFAULT_CONFIG, GRAZING_TOL, require_finite,
                              unit_rotation)
from rodbilliard.flight import FlightSegment, flight_velocity
from rodbilliard import rootfind, simulator
from rodbilliard.impact_map import (ImpactEvent, cascade, in_degenerate_set,
                                    segment_max_height)
from rodbilliard.rootfind import (UnsupportedFirstImpact, first_impact,
                                 solve_delta)
from rodbilliard.simulator import RowView
from conftest import (GRAZING_V0, GRAZING_Z0, in_reversion_box,
                      make_grazing_start, outside_box_arcs,
                      random_supported_starts, reference_step,
                      stopping_set_point)

_log = logging.getLogger("rodbilliard.simulator")

# frozen 50-digit values for the z0 = i, v0 = 1 orbit
CHAIN = [
    (0.8603335890193798, 1.3191565048905179),
    (1.9223637703449957, 4.1301500953693300),
    (2.5525310753237768, 7.6733845735313235),
]


def test_worked_chain(orbit_i1):
    for ev, (t, r) in zip(orbit_i1.impacts, CHAIN):
        assert abs(ev.t - t) <= 1e-12 * (1 + t)
        assert abs(ev.r - r) <= 1e-12 * r
    assert orbit_i1.impacts[0].kind == "transversal"


def test_first_arc_worked_example():
    # the reflection of the first contact's velocity,
    # 0.6521846239091868 - 2.0772166715899908i at r = 1.3191565048905179
    record = simulate(1j, 1 + 0j, SimConfig(n_max=1))
    assert abs(record.a[0] - 0.4943951847194312) < 1e-12
    assert abs(1.0 + record.beta[0] - 2.5746552163364326) < 1e-12


def test_determinism():
    cfg = SimConfig(n_max=25)
    a = simulate(1j, 1 + 0j, cfg)
    b = simulate(1j, 1 + 0j, cfg)
    assert a == b  # bit-identical records


def test_pure_rotation_cascade(orbit_i0):
    assert abs(orbit_i0.impacts[0].t - math.pi / 2) < 1e-12
    assert abs(orbit_i0.impacts[0].r - 1.0) < 1e-12
    assert all(ev.kind == "transversal" for ev in orbit_i0.impacts)


def test_record_monotonicity(orbit_i1, orbit_i0):
    for record in (orbit_i1, orbit_i0):
        impacts = record.impacts
        assert all(impacts[k].t < impacts[k + 1].t
                   for k in range(len(impacts) - 1))
        assert all(impacts[k].r < impacts[k + 1].r
                   for k in range(len(impacts) - 1))
        deltas = [seg.delta for seg in record.segments if seg.delta is not None]
        assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))


def test_record_segment_alignment(orbit_i1):
    record = orbit_i1
    assert len(record.segments) == len(record.impacts)
    assert record.segments[-1].delta is None
    for k, seg in enumerate(record.segments):
        ev = record.impacts[k]
        assert seg.t_start == ev.t
        assert seg.r == ev.r
        assert seg.n == ev.n
        if seg.delta is not None:
            # impact times carry a compensated sum, so agreement is to ulps
            gap = record.impacts[k + 1].t - record.impacts[k].t
            assert abs(seg.delta - gap) <= 4e-16 * record.impacts[k + 1].t
    assert len(record.heights) == len(record.impacts) - 1


def test_segment_endpoints_hit_next_radius(orbit_i1):
    for k, seg in enumerate(orbit_i1.segments[:-1]):
        nxt = orbit_i1.impacts[k + 1]
        end = segment_position(seg, seg.delta)
        assert abs(end.real - nxt.r) <= 1e-11 * nxt.r
        assert abs(end.imag) <= 1e-11 * nxt.r


def test_reflection_preserves_speed_exactly(orbit_i1):
    for ev in orbit_i1.impacts:
        assert abs(ev.zdot_out) == abs(ev.zdot_in)
        assert ev.zdot_out == ev.zdot_in.conjugate()


def test_speed_growth_settles(orbit_i1):
    speeds = [abs(ev.zdot_in) for ev in orbit_i1.impacts]
    for k in range(10, len(speeds) - 1):
        assert speeds[k + 1] >= speeds[k]


def test_t_max_termination():
    record = simulate(1j, 1 + 0j, SimConfig(n_max=100, t_max=2.0))
    assert record.termination == "reached_t_max"
    assert len(record.impacts) == 2  # t3 ~ 2.55 lies past the budget
    assert all(ev.t <= 2.0 for ev in record.impacts)
    assert record.segments[-1].delta is None


def test_t_max_cut_at_a_recorded_time():
    # the cut compares the compensated time of each impact: t_max equal to
    # a recorded t keeps that impact, and an ulp less drops it, before the
    # box and in it
    full = simulate(1j, 1 + 0j, SimConfig(n_max=2000))
    for k in range(1, 1990, 37):
        t = full.t[k]
        kept = simulate(1j, 1 + 0j, SimConfig(n_max=2000, t_max=t))
        cut = simulate(1j, 1 + 0j, SimConfig(n_max=2000,
                                             t_max=math.nextafter(t, 0.0)))
        assert kept.t == full.t[:k + 1] and cut.t == full.t[:k], k
        assert kept.delta == full.delta[:k] and cut.delta == full.delta[:k - 1]
        assert kept.termination == cut.termination == "reached_t_max"


def test_t_max_before_first_impact():
    record = simulate(1j, 1 + 0j, SimConfig(n_max=100, t_max=0.5))
    assert record.termination == "reached_t_max"
    assert record.impacts == ()
    assert record.segments == ()


def test_degenerate_stop_by_membership():
    z0, v0 = stopping_set_point(1.0, 1.0)
    record = simulate(z0, v0, SimConfig(n_max=50))
    assert record.termination == "degenerate_stop"
    assert len(record.impacts) == 1
    ev = record.impacts[0]
    assert abs(ev.t - 1.0) < 1e-12
    assert abs(ev.r - 1.0) < 1e-12
    assert ev.kind == "degenerate"
    assert ev.zdot_in == 0j
    assert record.segments == ()
    assert record.quasi_start is None


def test_degenerate_quasi_mode():
    z0, v0 = stopping_set_point(2.0, 0.5)
    record = simulate(z0, v0, SimConfig(n_max=50, quasi_mode="extend"))
    assert record.termination == "degenerate_quasi"
    assert abs(record.quasi_start.r - 2.0) < 1e-12
    assert abs(record.quasi_start.t1 - 0.5) < 1e-12


def test_grazing_first_impact_orbit():
    record = simulate(GRAZING_Z0, GRAZING_V0, SimConfig(n_max=20))
    first = record.impacts[0]
    assert first.kind == "grazing"
    assert abs(first.t - 1.2) < 1e-7
    assert abs(first.zdot_in.real - (-0.4)) < 1e-7
    assert abs(first.zdot_in.imag) < 1e-10  # tangential approach
    assert first.zdot_out == first.zdot_in.conjugate()
    assert all(ev.kind == "transversal" for ev in record.impacts[1:])
    seg0 = record.segments[0]
    assert abs(seg0.b - 1.0) < 1e-7
    assert abs(seg0.a - (-0.4)) < 1e-7


def near_grazing_starts(count: int, seed: int):
    """Tangent starts moved across the tangency by a few GRAZING_TOL:
    ``make_grazing_start`` with r log-uniform in [1e-4, 10],
    a = -10^U(-2, 1.5) and t1 in [0.05, 3], Im z0 shifted by
    U(-3, 3) 1e-10 (1 + |z0|)."""
    rng = random.Random(seed)
    for _ in range(count):
        z0, v0 = make_grazing_start(10.0 ** rng.uniform(-4.0, 1.0),
                                    -10.0 ** rng.uniform(-2.0, 1.5),
                                    rng.uniform(0.05, 3.0))
        yield z0 + 1j * rng.uniform(-3.0, 3.0) * 1e-10 * (1.0 + abs(z0)), v0


def test_near_grazing_starts_simulate():
    # the tangency's kind is decided once, where first_impact snaps to it;
    # the kind and the first arc's beta used to be re-checked in bands that
    # disagree within rounding of a tangency, and about a quarter of these
    # starts raised ContractViolation
    kinds = set()
    lifted = 0
    for z0, v0 in near_grazing_starts(200, seed=20261018):
        record = simulate(z0, v0, SimConfig(n_max=25))
        assert record.termination == "reached_n_max"
        if record.first_kind == "grazing":
            assert record.beta[0] >= 0.0 > record.a[0]
            # a grazing beta rounded below 0 starts the arc at exactly 0
            if -record.first_zdot_in.imag / record.r[0] < 0.0:
                assert record.beta[0] == 0.0
                lifted += 1
        kinds.add(record.first_kind)
    assert kinds == {"grazing", "transversal"}
    assert lifted > 0


def test_unsupported_first_impact_record():
    record = simulate(1j, complex(-1, -10), SimConfig(n_max=5))
    assert record.termination == "unsupported_first_impact"
    assert record.impacts == ()
    assert record.segments == ()


def test_simulate_preconditions():
    with pytest.raises(ValueError):
        simulate(complex(0, -1), 0j)
    with pytest.raises(ValueError):
        simulate(complex(math.inf, 1), 0j)


def test_start_with_an_infinite_full_stop_ratio_sits_on_the_rod():
    # z0/v0 overflows in the full-stop test, which now rejects it, so the
    # start gets first_impact's verdict and not a math domain error
    with pytest.raises(ValueError, match="^initial state sits on the rod "
                       "without departing from it$"):
        simulate(1e300 + 1e-300j, 1e-300)


def test_full_stop_start_near_the_rod_stops():
    # a full-stop start within GRAZING_TOL of the rod, moving down: simulate
    # takes the analytic full-stop exit, as convergence_experiment needs
    # for any 0 < t1 < T_STAR; the root search would count it on the rod
    z0, v0 = stopping_set_point(1.0, 1e-4)
    assert in_degenerate_set(z0, v0 - 1j * z0)[0]
    record = simulate(z0, v0)
    assert record.termination == "degenerate_stop"
    assert record.impacts[0].kind == DEGENERATE
    assert abs(record.t[0] - 1e-4) <= 1e-15
    # the stop lies past a shorter time budget
    record = simulate(z0, v0, SimConfig(t_max=5e-5))
    assert record.termination == "reached_t_max"
    row, = convergence_experiment(1.0, 1e-4, [0.0], 1.0)
    assert row.termination == "degenerate_quasi"
    with pytest.raises(ValueError, match="sits on the rod"):
        first_impact(z0, v0)


def test_full_stop_start_with_tiny_tau_stops():
    # tau < 1e-6: zdot0 = v0 - i z0 cancels to a relative error eps/tau,
    # and membership is tested on z0/v0 = -tau - i, which does not cancel
    row, = convergence_experiment(3.1952324545280613, 4.777886050771952e-07,
                                  [0.0], 1.0)
    assert row.termination == "degenerate_quasi"
    assert row.n_impacts == 1
    z0, v0 = stopping_set_point(3.1952324545280613, 4.777886050771952e-07)
    member, r, tau = in_degenerate_set(z0, v0 - 1j * z0)
    assert member
    assert abs(r - 3.1952324545280613) <= 1e-15 * r
    assert abs(tau - 4.777886050771952e-07) <= 1e-9 * tau


@pytest.mark.parametrize("angle", [1e-6, -1e-6, 0.1])
def test_rotated_full_stop_start_is_no_member(angle):
    # turning z0 and v0 together keeps z0/v0 = -tau - i but lifts the rest
    # point off the rod: the line crosses it, as first_impact finds
    z0, v0 = stopping_set_point(1.0, 1.0)
    rot = unit_rotation(angle)
    z0, v0 = z0 * rot, v0 * rot
    assert not in_degenerate_set(z0, v0 - 1j * z0)[0]
    record = simulate(z0, v0, SimConfig(n_max=3))
    assert record.termination == "reached_n_max"
    hit = first_impact(z0, v0)
    assert (record.t[0], record.r[0], record.first_kind) == hit
    assert hit.kind == TRANSVERSAL


def test_near_tangent_member_keeps_its_contact(caplog):
    # a line touching the rod at speed |a| r has Im(z0/v0) + 1 =
    # a^2/(1 + a^2), inside the full-stop set's band for small |a|; its
    # contact is the grazing one first_impact finds, not a full stop
    z0, v0 = make_grazing_start(1.0, -1e-5, 1.0)
    assert in_degenerate_set(z0, v0 - 1j * z0)[0]
    record = simulate(z0, v0, SimConfig(n_max=3))
    assert record.termination == "reached_n_max"
    assert record.first_kind == "grazing"
    assert (record.t[0], record.r[0]) == first_impact(z0, v0)[:2]
    assert abs(record.first_zdot_in) > 1e3 * GRAZING_TOL * (1.0 + record.r[0])
    z0, v0 = make_grazing_start(1.0, -1e-6, 1.0)
    with caplog.at_level(logging.WARNING, logger="rodbilliard"):
        record = simulate(z0, v0, SimConfig(n_max=3))
    assert record.first_kind == "grazing"
    # the later impacts are slow (|zdot| ~ 1e-6) but far from grazing
    # (Im zdot/|zdot| ~ 1.5e-6): nothing is logged
    assert caplog.records == []


def test_impact_map_logs_nothing_near_grazing(caplog):
    # arcs whose next arc has beta'/a' <= GRAZING_TOL: the map carries beta
    # to full relative precision, so such an arc is no roundoff, and the
    # delta solve, one impact and a record's open arc report nothing
    arcs = [(a, beta) for seed in (1, 2, 3)
            for a, beta in outside_box_arcs(seed, 400)
            if (nxt := reference_step(1.0, a, beta))[3] <= GRAZING_TOL * nxt[2]]
    assert len(arcs) == 11
    assert (0.10404560304807475, 2.7587408913199368e-12) in arcs
    with caplog.at_level(logging.DEBUG, logger="rodbilliard"):
        for a, beta in arcs:
            delta = solve_delta(a, beta)
            assert step(1.0, a, beta) == reference_step(1.0, a, beta)
            record = TrajectoryRecord(
                1j, 1 + 0j, DEFAULT_CONFIG, "reached_n_max", t=(1.0,),
                r=(1.0,), a=(a,), beta=(beta,), first_kind=TRANSVERSAL)
            assert record.open_delta == delta
    assert caplog.records == []


def test_record_state_phases(orbit_i1):
    record = orbit_i1
    st0 = record_state(record, 0.4)
    assert st0.z == flight_position(record.z0, record.v0, 0.4)
    t1 = record.impacts[0].t
    seg0 = record.segments[0]
    mid = t1 + 0.5 * seg0.delta
    st1 = record_state(record, mid)
    assert st1.z == segment_position(seg0, mid - t1)
    # just past the last impact the open segment is still above the rod
    last_gap = record.impacts[-1].t - record.impacts[-2].t
    st_last = record_state(record, record.impacts[-1].t + 0.4 * last_gap)
    assert st_last.z.imag > 0
    with pytest.raises(ValueError):
        record_state(record, -0.1)


def test_record_state_refuses_times_past_the_record():
    # the open last arc of a reached_n_max record holds the orbit up to its
    # next impact, 0.278 after t[-1] here, and no further: past it the arc
    # formula dips below the rod (t[-1] + 0.5) or leaves it far behind
    # (t[-1] + 4.0, z = -118.09 + 4.35i)
    record = simulate(1j, 1 + 0j, SimConfig(n_max=5))
    assert record.termination == "reached_n_max"
    t_end = record.t[-1] + solve_delta(record.a[-1], record.beta[-1])
    assert record_state(record, t_end).z.imag == pytest.approx(0.0, abs=1e-12)
    for t in (record.t[-1] + 0.5, record.t[-1] + 4.0):
        with pytest.raises(ValueError, match=f"record ends at t = {t_end}"):
            record_state(record, t)


def test_record_state_after_degenerate():
    z0, v0 = stopping_set_point(1.0, 1.0)
    stopped = simulate(z0, v0, SimConfig(n_max=5))
    assert record_state(stopped, 1.0).zdot == 0j
    with pytest.raises(ValueError):
        record_state(stopped, 1.5)
    extended = simulate(z0, v0, SimConfig(n_max=5, quasi_mode="extend"))
    state = record_state(extended, 1.5)
    assert state.z.imag == 0.0
    assert abs(state.z.real - math.cosh(0.5)) < 1e-12


def test_quasi_trajectory_values():
    q = QuasiTrajectory(r=1.5, t1=2.0)
    assert quasi_position(q, 2.0) == complex(1.5, 0.0)
    assert quasi_velocity(q, 2.0) == 0j
    with pytest.raises(ValueError):
        quasi_position(q, 1.9)
    with pytest.raises(ValueError):
        quasi_velocity(q, 1.9)


def test_quasi_satisfies_centrifugal_ode():
    # x'' = x by central differences
    q = QuasiTrajectory(r=1.0, t1=1.0)
    h = 1e-4
    for t in (1.2, 1.8, 2.7, 3.9):
        x0 = quasi_position(q, t - h).real
        x1 = quasi_position(q, t).real
        x2 = quasi_position(q, t + h).real
        assert abs((x2 - 2 * x1 + x0) / (h * h) - x1) < 1e-6


def test_quasi_matches_degenerate_arc_c1():
    # the incoming arc ends at (r, 0) with zero velocity; so does cosh start
    z0, v0 = stopping_set_point(1.0, 1.0)
    record = simulate(z0, v0, SimConfig(quasi_mode="extend"))
    q = record.quasi_start
    eps = 1e-7
    z_in = flight_position(record.z0, record.v0, q.t1 - eps)
    z_out = quasi_position(q, q.t1 + eps)
    assert abs(z_in - z_out) < 1e-12 + 2e-13 * abs(z_in) + eps * eps  # C^0
    from rodbilliard import flight_velocity
    v_in = flight_velocity(record.z0, record.v0, q.t1 - eps)
    v_out = quasi_velocity(q, q.t1 + eps)
    assert abs(v_in) < 2 * eps  # both one-sided velocities vanish at t1
    assert abs(v_out) < 2 * eps


def test_convergence_experiment_reports():
    rows = convergence_experiment(1.0, 1.0, [0.0, 1e-2, 1e-3], T=2.5,
                                  grid_points=400)
    assert [row.epsilon for row in rows] == [0.0, 1e-2, 1e-3]
    assert all(row.horizon == 2.5 for row in rows)
    zero_row = rows[0]
    assert zero_row.termination == "degenerate_quasi"
    assert zero_row.sup_pos < 1e-9
    assert zero_row.sup_vel < 1e-9
    for row in rows[1:]:
        assert math.isfinite(row.sup_pos) and row.sup_pos > 0
        assert math.isfinite(row.sup_vel) and row.sup_vel > 0
        assert row.n_impacts >= 1


def test_convergence_row_ends_where_its_record_does(monkeypatch):
    # at eps = 1e-10 the run grazes and then chatters along the rod, so its
    # impact budget runs out long before T (at t = 1.0908 with 10^6
    # impacts, 1.00095 with 500): the row reports the horizon its record
    # covers and the suprema over the grid points up to it
    monkeypatch.setattr(simulator, "CONVERGENCE_N_MAX", 500)
    T, points = 3.0, 1000
    chatter, far = convergence_experiment(1.0, 1.0, [1e-10, 1e-2], T,
                                          points)
    assert (far.termination, far.horizon) == ("reached_t_max", T)
    z0, v0 = stopping_set_point(1.0, 1.0)
    record = simulate(z0, v0 * (1.0 + 1e-10),
                      SimConfig(n_max=500, t_max=T, quasi_mode="extend"))
    assert (chatter.termination, chatter.n_impacts) == ("reached_n_max", 500)
    assert chatter.horizon == record.t[-1] + record.open_delta < 1.001
    quasi = QuasiTrajectory(r=1.0, t1=1.0)
    sup_pos = sup_vel = 0.0
    grid = [T * j / points for j in range(points + 1)]
    covered = [t for t in grid if t <= chatter.horizon]
    for t in covered:
        state = record_state(record, t)
        if t >= 1.0:
            zq, zdq = quasi_position(quasi, t), quasi_velocity(quasi, t)
        else:
            rot_s = unit_rotation(1.0 - t)
            zq, zdq = complex(1.0, t - 1.0) * rot_s, (t - 1.0) * rot_s
        sup_pos = max(sup_pos, abs(state.z - zq))
        sup_vel = max(sup_vel, abs(state.zdot - zdq))
    assert (chatter.sup_pos, chatter.sup_vel) == (sup_pos, sup_vel)
    with pytest.raises(ValueError, match="open last arc"):
        record_state(record, grid[len(covered)])


def test_convergence_experiment_preconditions():
    with pytest.raises(ValueError):
        convergence_experiment(1.0, 5.0, [1e-3], T=2.0)  # t1 past t*
    with pytest.raises(ValueError):
        convergence_experiment(-1.0, 1.0, [1e-3], T=2.0)
    # grid_points = 0 would divide by zero, and -3 give an empty grid: a
    # row of zero suprema that reads as converged
    for grid_points in (0, -3, True, 10.0, "10"):
        with pytest.raises(ValueError, match="grid_points"):
            convergence_experiment(1.0, 1.0, [1e-3], T=2.0,
                                   grid_points=grid_points)


def test_parallel_simulations_match_serial():
    # no shared mutable state: a thread pool reproduces serial records
    from concurrent.futures import ThreadPoolExecutor
    starts = [(complex(0.3 * k, 1.0 + 0.2 * k), complex(1.0, -0.1 * k))
              for k in range(8)]
    cfg = SimConfig(n_max=15)
    serial = [simulate(z0, v0, cfg) for z0, v0 in starts]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda s: simulate(*s, cfg), starts))
    assert parallel == serial


# the impact of the reference orbit z0 = i, v0 = 1 whose arc is the first
# in solve_delta's reversion box
BOX_ENTRY = 301


def test_reference_orbit_enters_the_box_at_box_entry():
    record = simulate(1j, 1 + 0j, SimConfig(n_max=2000))
    inside = [in_reversion_box(a, beta)
              for a, beta in zip(record.a, record.beta)]
    assert inside.index(True) == BOX_ENTRY - 1 and all(inside[BOX_ENTRY:])


def reference_simulate(z0: complex, v0: complex,
                       cfg: SimConfig | None = None) -> tuple:
    """``simulate`` as it assembled the record from per-impact objects.

    Returns (impacts, segments, heights, termination, quasi_start); the
    body is that version's, with ``finished`` returning the tuple and each
    impact taken by ``reference_step``, apart from ``cascade``.
    """
    cfg = cfg or DEFAULT_CONFIG
    # stored as complex even from simulate(1j, 1), as record_from_json reads it
    z0 = require_finite(complex(z0), "z0")
    v0 = require_finite(complex(v0), "v0")
    if z0.imag < 0.0:
        raise ValueError(f"initial position {z0!r} lies below the rod")

    def finished(impacts, segments, heights, termination, quasi=None):
        return (tuple(impacts), tuple(segments), tuple(heights),
                termination, quasi)

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

    try:
        t1, r1, kind = first_impact(z0, v0)
    except UnsupportedFirstImpact:
        return finished((), (), (), "unsupported_first_impact")
    if t1 > cfg.t_max:
        return finished((), (), (), "reached_t_max")

    zdot_in = flight_velocity(z0, v0, t1)
    zdot_out = zdot_in.conjugate()
    impacts = [ImpactEvent(n=1, t=t1, r=r1, zdot_in=zdot_in,
                           zdot_out=zdot_out, kind=kind)]
    if kind == DEGENERATE:
        return finish_degenerate(impacts)

    segments: list[FlightSegment] = []
    heights: list[float] = []
    # the arc (r, a, beta) leaving impact n
    r, a, beta, n = r1, zdot_in.real / r1, max(-zdot_in.imag / r1, 0.0), 1
    t_rec = t1
    t_sum = t1
    comp = 0.0  # Neumaier compensation for the running time sum
    termination = "reached_n_max"
    while len(impacts) < cfg.n_max:
        delta, r_next, a_next, beta_next = reference_step(r, a, beta)
        height = segment_max_height(r, a, beta)
        s = t_sum + delta
        comp += (t_sum - s) + delta if t_sum >= delta else (delta - s) + t_sum
        t_sum = s
        t_next = t_sum + comp
        if t_next > cfg.t_max:
            termination = "reached_t_max"
            break
        # the incoming velocity whose reflection the next arc describes
        zdot_in = complex(r_next * a_next, -r_next * beta_next)
        if not (a_next > 0.0 and beta_next > 0.0):
            raise ContractViolation(
                f"inadmissible step at n={n}: arc {(r, a, beta)}, "
                f"next {(r_next, a_next, beta_next)}, incoming {zdot_in!r}")
        if zdot_in.imag >= -GRAZING_TOL * (1.0 + abs(zdot_in)):
            # within roundoff of grazing; the dynamics forbids true grazing
            # past the first impact, so keep it transversal
            _log.warning("near-grazing incoming velocity %r at n=%d",
                         zdot_in, n + 1)
        segments.append(FlightSegment(n=n, t_start=t_rec, r=r,
                                      a=a, b=1.0 + beta, delta=delta))
        heights.append(height)
        impacts.append(ImpactEvent(n=n + 1, t=t_next, r=r_next,
                                   zdot_in=zdot_in,
                                   zdot_out=zdot_in.conjugate(),
                                   kind=TRANSVERSAL))
        r, a, beta, n = r_next, a_next, beta_next, n + 1
        t_rec = t_next
    segments.append(FlightSegment(n=n, t_start=t_rec, r=r,
                                  a=a, b=1.0 + beta, delta=None))
    return finished(impacts, segments, heights, termination)


def _full_stop_via_first_impact(quasi_mode):
    # a full stop at r = 1e-3 with the velocity scaled by 1 - 1e-8: off the
    # analytic set's tolerance, within classify_impact's
    z0, v0 = stopping_set_point(1e-3, 1.0)
    zdot0 = (v0 - 1j * z0) * (1.0 - 1e-8)
    assert not in_degenerate_set(z0, zdot0)[0]
    return z0, zdot0 + 1j * z0, SimConfig(n_max=5, quasi_mode=quasi_mode)


_ASSEMBLY_CASES = [
    *((z0, v0, SimConfig(n_max=25))
      for z0, v0 in random_supported_starts(30, seed=9151)),
    (1j, 1 + 0j, SimConfig(n_max=100, t_max=2.0)),
    *((z0, v0, SimConfig(n_max=40, t_max=4.0))
      for z0, v0 in random_supported_starts(5, seed=9152)),
    (GRAZING_Z0, GRAZING_V0, SimConfig(n_max=25)),
    *((*stopping_set_point(1.0, 1.0), SimConfig(n_max=5, quasi_mode=quasi))
      for quasi in ("stop", "extend")),
    *(_full_stop_via_first_impact(quasi) for quasi in ("stop", "extend")),
    (1j, complex(-1, -10), SimConfig(n_max=5)),
    (1j, 1 + 0j, SimConfig(n_max=2000)),
    # the cascade from BOX_ENTRY on: no impact of it, none, one, and an
    # orbit cut by t_max near n = 420
    *((1j, 1 + 0j, SimConfig(n_max=BOX_ENTRY + k)) for k in (-1, 0, 1)),
    (1j, 1 + 0j, SimConfig(n_max=2000, t_max=10.0)),
]


@pytest.mark.parametrize("z0, v0, cfg", _ASSEMBLY_CASES)
def test_views_equal_object_assembly(z0, v0, cfg):
    record = simulate(z0, v0, cfg)
    impacts, segments, heights, termination, quasi = reference_simulate(
        z0, v0, cfg)
    assert (record.termination, record.quasi_start) == (termination, quasi)
    # equal reprs also tell -0.0 from 0.0
    for view, expected in ((record.impacts, impacts),
                           (record.segments, segments),
                           (record.heights, heights)):
        assert tuple(view) == expected
        assert repr(tuple(view)) == repr(expected)


def test_loop_crosses_a_narrowed_box_edge(monkeypatch):
    # the one known exit, a = 1 exactly (step(1, 1, 1e-6)), is reached by
    # no orbit measured, so the box's top edge is lowered to 0.99999, which
    # the reference orbit's a crosses near n = 340: its arcs take Newton's
    # delta, then the series from BOX_ENTRY on, then Newton's again, and
    # the five-term head of p and m on both sides of that edge
    monkeypatch.setattr(rootfind, "REVERSION_A_MAX", 0.99999)
    cfg = SimConfig(n_max=600)
    record = simulate(1j, 1 + 0j, cfg)
    impacts, segments, heights, termination, _ = reference_simulate(
        1j, 1 + 0j, cfg)
    assert repr((tuple(record.impacts), tuple(record.segments),
                 tuple(record.heights), record.termination)) == repr(
        (impacts, segments, heights, termination))
    inside = list(map(in_reversion_box, record.a, record.beta))
    exit_ = inside.index(False, BOX_ENTRY)
    first = BOX_ENTRY - 1  # the arc leaving impact BOX_ENTRY
    assert inside == ([False] * first + [True] * (exit_ - first)
                      + [False] * (cfg.n_max - exit_))
    assert exit_ < cfg.n_max - 100
    assert max(record.delta[BOX_ENTRY - 100:]) < 0.01


def test_both_full_stop_paths_are_covered():
    analytic = simulate(*stopping_set_point(1.0, 1.0), SimConfig(n_max=5))
    searched = simulate(*_full_stop_via_first_impact("stop"))
    for record in (analytic, searched):
        assert record.termination == "degenerate_stop"
        assert record.first_kind == "degenerate"
    assert analytic.impacts[0].zdot_out == 0j
    assert searched.impacts[0].zdot_in != 0j


def test_row_views_index_slice_and_compare(orbit_i1):
    impacts = orbit_i1.impacts
    assert impacts[-1] == impacts[len(impacts) - 1]
    assert impacts[1:3] == (impacts[1], impacts[2])
    assert impacts == tuple(impacts) and impacts == orbit_i1.impacts
    assert impacts != list(impacts)
    with pytest.raises(IndexError):
        impacts[len(impacts)]
    with pytest.raises(TypeError):
        impacts[1.0]


def test_impact_rows_are_immutable_hashable_tuples(orbit_i1):
    # a row is the same from keywords or positions, read-only and
    # hashable; the view equals the tuple of its rows (tested above)
    ev = orbit_i1.impacts[1]
    assert ev == ImpactEvent(n=ev.n, t=ev.t, r=ev.r, zdot_in=ev.zdot_in,
                             zdot_out=ev.zdot_out, kind=ev.kind)
    assert ev == ImpactEvent(ev.n, ev.t, ev.r, ev.zdot_in, ev.zdot_out,
                             ev.kind)
    with pytest.raises(AttributeError):
        ev.t = 0.0
    assert hash(ev) == hash(orbit_i1.impacts[1])
    assert len(set(orbit_i1.impacts)) == len(orbit_i1.t)


def test_row_view_slices_are_views(orbit_i1):
    # a slice is a view over the sub-range that builds no row until read,
    # and equals the tuple of its rows from either side
    built = []
    view = RowView(lambda k: built.append(k) or 10 * k, range(20))
    rows = tuple(10 * k for k in range(20))
    for key in (slice(2, 15), slice(None, None, 3), slice(-5, None),
                slice(15, 2, -2), slice(None, None, -1), slice(7, 7),
                slice(-100, 100)):
        part = view[key]
        assert isinstance(part, RowView) and built == []
        assert len(part) == len(rows[key])
        assert part == rows[key] and rows[key] == part
        assert list(part) == list(rows[key])
        built.clear()
    nested = view[3:][::2][1:-1]
    assert isinstance(nested, RowView)
    assert nested == rows[3:][::2][1:-1] and nested[-1] == rows[3:][::2][-2]
    assert view[1:3] != [10, 20] and view[1:3] != (10, 30)
    tail = orbit_i1.impacts[1:]
    assert isinstance(tail, RowView) and len(tail) == len(orbit_i1.t) - 1
    assert tail == tuple(orbit_i1.impacts)[1:]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the warm-up rule is CPython 3.11's")
def test_impact_loop_closes_with_an_unconditional_jump():
    # CPython 3.11 counts a function's warm-up only at RESUME and at the
    # unconditional JUMP_BACKWARD; a while loop closes with a conditional
    # back jump instead, which leaves a loop unspecialised until about the
    # 8th call of its function in a process
    assert any(ins.opname == "JUMP_BACKWARD"
               for ins in dis.get_instructions(cascade))


def test_record_build_peaks_below_48_bytes_per_impact():
    # cascade packs its floats into the record's float64 columns every
    # _CHUNK impacts, so building 2.5e4 impacts peaks at 46.1 bytes per
    # impact: 8 a column value, 42 B with the arrays' spare room, and one
    # chunk of float objects.  Float objects in tuples peaked at 168 at
    # any length
    simulate(1j, 1 + 0j, SimConfig(n_max=50))  # first-call allocations
    n = 25_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        record = simulate(1j, 1 + 0j, SimConfig(n_max=n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(record.t) == n
    assert peak - base <= 48 * n


@pytest.mark.parametrize("z0, v0, cfg, termination", [
    (1j, 1 + 0j, SimConfig(n_max=3000), "reached_n_max"),
    (1j, 1 + 0j, SimConfig(n_max=10**5, t_max=12.0), "reached_t_max"),
    (1j, 1 + 0j, SimConfig(t_max=0.5), "reached_t_max"),
    (*stopping_set_point(1.0, 1.0), SimConfig(), "degenerate_stop"),
    (*stopping_set_point(2.0, 0.5), SimConfig(quasi_mode="extend"),
     "degenerate_quasi"),
    (1j, complex(-1, -10), SimConfig(), "unsupported_first_impact")])
def test_every_record_holds_float64_columns(z0, v0, cfg, termination):
    # simulate on each termination (3000 impacts span two chunks of
    # cascade; the t_max cuts fall past one and before the first impact),
    # record_from_json and the field defaults all give array('d') columns,
    # so the records they build of one orbit are equal and print alike
    record = simulate(z0, v0, cfg)
    assert record.termination == termination
    built = [record, record_from_json(record_to_json(record))]
    if not record.t:
        built.append(TrajectoryRecord(record.z0, record.v0, cfg, termination))
    for other in built:
        assert all(type(col) is array and col.typecode == "d" for col in (
            other.t, other.r, other.a, other.beta, other.delta))
        assert other == record and repr(other) == repr(record)
