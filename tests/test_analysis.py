import math

import pytest

from rodbilliard import (SimConfig, asymptotic_table,
                         estimate_growth_constant, segment_max_height,
                         simulate, step)


@pytest.fixture(scope="module")
def long_orbit():
    return simulate(1j, 1 + 0j, SimConfig(n_max=1500))


def test_table_columns(orbit_i1):
    rows = asymptotic_table(orbit_i1, [1, 2, 10, 30])
    assert [row.n for row in rows] == [1, 2, 10, 30]
    for row in rows:
        seg = orbit_i1.segments[row.n - 1]
        ev = orbit_i1.impacts[row.n - 1]
        ev_next = orbit_i1.impacts[row.n]
        assert row.delta_n == seg.delta
        assert row.n_delta_n == row.n * seg.delta
        assert row.b_minus_1_scaled == row.n * orbit_i1.beta[row.n - 1]
        assert row.ratio_scaled == row.n * (ev_next.r / ev.r - 1.0)
        assert row.a_n == seg.a
        assert row.height_n == orbit_i1.heights[row.n - 1]
        if row.n > 1:
            assert row.t_over_logn == ev.t / math.log(row.n)
        else:
            assert math.isnan(row.t_over_logn)


def test_b_minus_1_column_keeps_beta_precision():
    # n (b - 1) cancels: at n = 10^4 on the reference orbit it is off by
    # 3.4e-13 relative.  The column is n beta, against one 40-digit step of
    # beta' = (beta + 1 - (sin delta/delta)^2)/(1 + beta) from the arc before
    mpmath = pytest.importorskip("mpmath")
    n = 10_000
    record = simulate(1j, 1 + 0j, SimConfig(n_max=n + 1))
    [row] = asymptotic_table(record, [n])
    mp = mpmath.mp
    with mp.workdps(40):
        beta, delta = mp.mpf(record.beta[n - 2]), mp.mpf(record.delta[n - 2])
        ref = n * (beta + 1 - (mp.sin(delta) / delta) ** 2) / (1 + beta)
        assert abs(row.b_minus_1_scaled - ref) <= 1e-15 * ref


def test_table_heights_match_recomputation(orbit_i1):
    # the arc carries beta = b - 1 to more digits than the segment's b
    # holds, so the arcs are rebuilt by stepping from the first impact
    rows = asymptotic_table(orbit_i1, [3, 7])
    first = orbit_i1.impacts[0]
    arcs = [(first.r, first.zdot_in.real / first.r,
             max(-first.zdot_in.imag / first.r, 0.0))]
    while len(arcs) < 7:
        arcs.append(step(*arcs[-1])[1:])
    for row in rows:
        seg = orbit_i1.segments[row.n - 1]
        r, a, beta = arcs[row.n - 1]
        assert (seg.r, seg.a, seg.b) == (r, a, 1.0 + beta)
        assert row.height_n == segment_max_height(r, a, beta, seg.delta)


def test_table_deduplicates_and_sorts(orbit_i1):
    rows = asymptotic_table(orbit_i1, [10, 2, 10])
    assert [row.n for row in rows] == [2, 10]


def test_table_range_errors(orbit_i1):
    with pytest.raises(ValueError):
        asymptotic_table(orbit_i1, [len(orbit_i1.impacts)])  # needs n+1
    with pytest.raises(ValueError):
        asymptotic_table(orbit_i1, [0])
    assert asymptotic_table(orbit_i1, []) == []


def test_growth_constant_requires_long_record(orbit_i1):
    with pytest.raises(ValueError):
        estimate_growth_constant(orbit_i1)


def test_no_chatter_time_growth(long_orbit):
    # impact times outpace 1.4 ln n, so the delta series cannot sum finitely
    for n in range(1000, len(long_orbit.impacts) + 1):
        assert long_orbit.impacts[n - 1].t >= 1.4 * math.log(n)


def test_growth_constant_tail_estimate(long_orbit):
    record = long_orbit
    c, residuals = estimate_growth_constant(record)
    assert math.isfinite(c) and c > 0
    assert len(residuals) == 1500 - 1500 // 2
    assert all(math.isfinite(res) for res in residuals)
    assert max(abs(res) for res in residuals) < 0.5
    # the two tail halves should give nearby estimates (reported, not proven)
    half = len(residuals) // 2
    first = sum(res for res in residuals[:half]) / half
    second = sum(res for res in residuals[half:]) / (len(residuals) - half)
    assert abs(first - second) < 0.1
