"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the summary lines;
the long reference orbit (10^5 impacts) is built once per session.
"""

import math
import time
from contextlib import contextmanager

import pytest

from rodbilliard import (SimConfig, asymptotic_table,
                         convergence_experiment, estimate_growth_constant,
                         flight_velocity, oracle_simulate, quasi_position,
                         simulate, solve_tstar)
from conftest import (random_supported_starts, recurrence, recurrence_direct,
                      stopping_set_point)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{label}]: FAIL")
        raise
    print(f"criterion {num:2d} [{label}]: PASS")


@pytest.fixture(scope="session")
def big_orbit():
    """(z0=i, v0=1) run to 10^5 impacts, with its wall-clock build time."""
    t0 = time.perf_counter()
    record = simulate(1j, 1 + 0j, SimConfig(n_max=100_001))
    return record, time.perf_counter() - t0


@pytest.fixture(scope="session")
def random_suite():
    """10^3 random supported starts, each simulated for 25 impacts."""
    starts = random_supported_starts(1000, seed=715)
    cfg = SimConfig(n_max=25)
    return [simulate(z0, v0, cfg) for z0, v0 in starts]


def test_criterion_1_tstar():
    with criterion(1, "t* reproduction"):
        solve_tstar()  # warm the call path before timing
        t0 = time.perf_counter()
        t_star = solve_tstar()
        elapsed = time.perf_counter() - t0
        assert abs(t_star - 4.49341) <= 5e-6
        assert elapsed < 1e-3


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle equivalence, 100 starts x 50 impacts"):
        t0 = time.perf_counter()
        starts = random_supported_starts(100, seed=99)
        # tight roots keep each path's own noise well under the 1e-9
        # comparison band: radii grow like e^t, so anchor errors of
        # r * root_abs_tol would otherwise eat most of the budget
        cfg = SimConfig(n_max=50, root_abs_tol=1e-15)
        for z0, v0 in starts:
            record = simulate(z0, v0, cfg)
            reference = oracle_simulate(z0, v0, 50, cfg)
            assert len(record.impacts) == 50
            for ev, (t_o, r_o) in zip(record.impacts, reference):
                tol = 1e-9 * (1.0 + ev.t)
                assert abs(ev.t - t_o) <= tol
                assert abs(ev.r - r_o) <= tol
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0


@pytest.fixture(scope="session")
def checkpoint_rows(big_orbit):
    record, _ = big_orbit
    rows = asymptotic_table(record, [10**4, 10**5])
    return {row.n: row for row in rows}


def test_criterion_3_radius_ratio_law(big_orbit, checkpoint_rows):
    with criterion(3, "radius ratio n*(r_{n+1}/r_n - 1) -> 3/2"):
        _, build_seconds = big_orbit
        assert build_seconds < 10.0
        assert 1.48 <= checkpoint_rows[10**4].ratio_scaled <= 1.52
        assert 1.49 <= checkpoint_rows[10**5].ratio_scaled <= 1.51
        assert (abs(checkpoint_rows[10**5].ratio_scaled - 1.5)
                < abs(checkpoint_rows[10**4].ratio_scaled - 1.5))


def test_criterion_4_interval_law(checkpoint_rows):
    with criterion(4, "interval law n*delta_n and (b_n-1)/delta_n"):
        row = checkpoint_rows[10**4]
        assert 1.48 <= row.n_delta_n <= 1.52
        assert 0.99 <= row.b_minus_1_scaled / row.n_delta_n <= 1.01


def test_criterion_5_time_law(checkpoint_rows):
    with criterion(5, "impact times t_n ~ (3/2) ln n"):
        assert 1.45 <= checkpoint_rows[10**5].t_over_logn <= 1.55


def test_criterion_6_monotonicity(big_orbit, random_suite):
    with criterion(6, "delta strictly down, r strictly up (exact)"):
        for record in [big_orbit[0]] + random_suite:
            impacts = record.impacts
            for k in range(len(impacts) - 1):
                assert impacts[k + 1].r > impacts[k].r
                assert impacts[k + 1].t > impacts[k].t
            deltas = [seg.delta for seg in record.segments
                      if seg.delta is not None]
            for d1, d2 in zip(deltas, deltas[1:]):
                assert d2 < d1


def test_criterion_7_box_invariants(big_orbit, random_suite):
    with criterion(7, "box invariants for n >= 2"):
        for record in [big_orbit[0]] + random_suite:
            for seg in record.segments[1:]:
                assert 1.0 < seg.b < 2.0
                assert seg.a > 0.0
                if seg.delta is not None:
                    assert seg.a * seg.delta < 1.0
                    assert (1.0 + seg.a * seg.delta) / seg.b < 1.0
            for ev in record.impacts[1:]:
                assert ev.zdot_in.real > 0.0
                assert ev.zdot_in.imag < 0.0


def test_criterion_8_grazing_only_first(random_suite):
    with criterion(8, "no grazing impact past n = 1 (10^3 starts)"):
        assert len(random_suite) == 1000
        for record in random_suite:
            for ev in record.impacts[1:]:
                assert ev.kind == "transversal"


def test_criterion_9_height_decay(big_orbit):
    with criterion(9, "arc height decay, n^0.4-scaled"):
        record, _ = big_orbit
        early = max(record.heights[n - 1] * n ** 0.4
                    for n in range(10**3, 10**4))
        late = max(record.heights[n - 1] * n ** 0.4
                   for n in range(10**4, 10**5))
        assert late < early


def test_criterion_10_degenerate_handling():
    with criterion(10, "full-stop starts: stop and cosh continuation"):
        for tau in (0.5, 1.0, 2.0, 4.0):
            z0, v0 = stopping_set_point(1.0, tau)
            record = simulate(z0, v0, SimConfig(n_max=10))
            assert record.termination == "degenerate_stop"
            ev = record.impacts[0]
            assert abs(ev.t - tau) <= 1e-12
            assert abs(ev.r - 1.0) <= 1e-12

            extended = simulate(z0, v0, SimConfig(n_max=10,
                                                  quasi_mode="extend"))
            assert extended.termination == "degenerate_quasi"
            q = extended.quasi_start
            # C^1 matching: the incoming arc stops dead where cosh starts
            assert abs(quasi_position(q, q.t1).real - ev.r) <= 1e-12
            v_in = flight_velocity(z0, v0, q.t1)
            assert abs(v_in) <= 1e-10 * (1.0 + ev.r)
            # sliding obeys x'' = x: central-difference residual
            h = 1e-4
            for t in (q.t1 + 0.3, q.t1 + 1.1, q.t1 + 2.4):
                x0 = quasi_position(q, t - h).real
                x1 = quasi_position(q, t).real
                x2 = quasi_position(q, t + h).real
                assert abs((x2 - 2 * x1 + x0) / (h * h) - x1) < 1e-6


def test_criterion_11_series_agreement():
    with criterion(11, "series vs closed-form recurrences"):
        deltas = [1.1e-4 * (1e-2 / 1.1e-4) ** (k / 60) for k in range(61)]
        for beta in (0.1, 0.5, 0.9):
            for d in deltas:
                a_s, beta_s, dos_s = recurrence(d, beta)
                a_d, beta_d, dos_d = recurrence_direct(d, beta)
                assert abs(a_s - a_d) <= 1e-12 * abs(a_d)
                assert abs(beta_s - beta_d) <= 1e-12 * abs(beta_d)
                assert abs(dos_s - dos_d) <= 1e-12 * dos_d


def test_criterion_12_report_only_experiments(big_orbit):
    with criterion(12, "conjecture experiments populated and finite"):
        record, _ = big_orbit
        c, residuals = estimate_growth_constant(record)
        assert math.isfinite(c) and c > 0.0
        assert len(residuals) > 0
        assert all(math.isfinite(res) for res in residuals)

        rows = convergence_experiment(1.0, 1.0, [1e-2, 1e-3, 1e-4], T=2.5)
        assert len(rows) == 3
        for row in rows:
            assert math.isfinite(row.sup_pos)
            assert math.isfinite(row.sup_vel)
            assert row.n_impacts >= 1
