import math

import pytest

import rodbilliard.oracle
from rodbilliard import (SimConfig, UnsupportedFirstImpact, flight_position,
                         oracle_simulate, simulate)
from rodbilliard.oracle import OracleMismatch
from conftest import GRAZING_V0, GRAZING_Z0, random_supported_starts


def test_pure_rotation_first_impact():
    [(t, r)] = oracle_simulate(1j, 0j, 1)
    assert abs(t - math.pi / 2) < 1e-10
    assert abs(r - 1.0) < 1e-10


def test_agrees_with_recurrence_path():
    record = simulate(1j, 1 + 0j, SimConfig(n_max=10))
    reference = oracle_simulate(1j, 1 + 0j, 10)
    for ev, (t_o, r_o) in zip(record.impacts, reference):
        assert abs(ev.t - t_o) <= 1e-9 * (1 + ev.t)
        assert abs(ev.r - r_o) <= 1e-9 * (1 + ev.t)


def test_agrees_past_the_lift_off_guard():
    # delta_n drops below the 10-scan-step guard near n = 150; the scan
    # then starts one scan step past each impact
    cfg = SimConfig(n_max=200, root_abs_tol=1e-15)
    record = simulate(1j, 1 + 0j, cfg)
    reference = oracle_simulate(1j, 1 + 0j, 200, cfg)
    assert len(reference) == len(record.impacts) == 200
    assert record.segments[-2].delta < 10 * cfg.scan_step
    for ev, (t_o, r_o) in zip(record.impacts, reference):
        assert abs(ev.t - t_o) <= 1e-9 * (1 + ev.t)
        assert abs(ev.r - r_o) <= 1e-9 * (1 + ev.t)


def test_oracle_radii_grow():
    reference = oracle_simulate(1j, 1 + 0j, 15)
    for (t1, r1), (t2, r2) in zip(reference, reference[1:]):
        assert t2 > t1
        assert r2 > r1


def test_lift_off_guard_point_is_above_rod():
    # after a transversal impact the guard point must sit above the rod;
    # reaching impact 2 at all proves it, since the guard is checked inside
    out = oracle_simulate(1j, 1 + 0j, 2)
    assert len(out) == 2


def test_grazing_touch_is_invisible_to_the_scan():
    # a grazing impact leaves the velocity unchanged, so the flight line
    # continues through it; the sign-change oracle reports the billiard
    # impact sequence with the tangential touch skipped
    record = simulate(GRAZING_Z0, GRAZING_V0, SimConfig(n_max=6))
    assert record.impacts[0].kind == "grazing"
    reference = oracle_simulate(GRAZING_Z0, GRAZING_V0, 5)
    for ev, (t_o, r_o) in zip(record.impacts[1:], reference):
        assert abs(ev.t - t_o) <= 1e-9 * (1 + ev.t)
        assert abs(ev.r - r_o) <= 1e-9 * (1 + ev.t)


def test_unsupported_start_raises():
    with pytest.raises(UnsupportedFirstImpact):
        oracle_simulate(1j, complex(-1, -10), 3)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        oracle_simulate(1j, 0j, 0)
    with pytest.raises(ValueError):
        oracle_simulate(complex(0, -1), 0j, 1)


def test_stops_at_t_max_like_simulate():
    # impacts 1-4 of the reference orbit come before t = 3, impact 5 after
    cfg = SimConfig(n_max=10, t_max=3.0, root_abs_tol=1e-15)
    record = simulate(1j, 1 + 0j, cfg)
    reference = oracle_simulate(1j, 1 + 0j, 10, cfg)
    assert record.termination == "reached_t_max"
    assert len(reference) == len(record.impacts) == 4
    for ev, (t_o, r_o) in zip(record.impacts, reference):
        assert abs(ev.t - t_o) <= 1e-9 * (1 + ev.t)
        assert abs(ev.r - r_o) <= 1e-9 * (1 + ev.t)
    assert oracle_simulate(1j, 1 + 0j, 10, SimConfig(t_max=0.5)) == []


@pytest.mark.parametrize("z0, v0", [(1 + 1e-4j, -1j), (3 + 1e-3j, 0.5 - 2j),
                                    (2 + 1e-3j, 0j)])
def test_first_contact_within_the_first_scan_step(z0, v0):
    # the first scan starts at z0 itself, so a contact before s = scan_step
    # is bracketed instead of skipped
    cfg = SimConfig(n_max=3, root_abs_tol=1e-15)
    record = simulate(z0, v0, cfg)
    reference = oracle_simulate(z0, v0, 3, cfg)
    assert record.impacts[0].t < cfg.scan_step
    assert len(reference) == len(record.impacts) == 3
    for ev, (t_o, r_o) in zip(record.impacts, reference):
        assert abs(ev.t - t_o) <= 1e-12 * (1 + ev.t)
        assert abs(ev.r - r_o) <= 1e-12 * (1 + ev.t)


def _complex_next_crossing(ff, s0, h0, cfg):
    """The scan as first written, sampling flight_position: the reference
    the flat scan must reproduce bit for bit."""
    window = s0 + 2.0 * math.pi + 0.1
    s_prev, h_prev = s0, h0
    s = s0
    while s < window:
        s += cfg.scan_step
        h = flight_position(ff, s).imag
        if h_prev > 0.0 and h <= 0.0:
            lo, hi = s_prev, s
            for _ in range(200):
                if hi - lo < cfg.root_abs_tol:
                    break
                mid = 0.5 * (lo + hi)
                if flight_position(ff, mid).imag > 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        s_prev, h_prev = s, h
    raise OracleMismatch(
        f"no rod crossing found within one extra turn past s = {s0}")


def _oracle_outcome(z0, v0, n, cfg):
    try:
        return oracle_simulate(z0, v0, n, cfg)
    except UnsupportedFirstImpact as exc:
        return ("unsupported", exc.t, exc.r)


_STARTS = random_supported_starts(12, seed=4417)


@pytest.mark.parametrize("z0, v0, n, cfg", [
    *((z0, v0, 50, SimConfig(root_abs_tol=1e-15)) for z0, v0 in _STARTS),
    *((z0, v0, 50, SimConfig()) for z0, v0 in _STARTS),
    (1j, 1 + 0j, 200, SimConfig(root_abs_tol=1e-15)),
    (GRAZING_Z0, GRAZING_V0, 20, SimConfig(root_abs_tol=1e-15)),
    (1j, 1 + 0j, 10, SimConfig(t_max=3.0, root_abs_tol=1e-15)),
    (1j, complex(-1, -10), 3, SimConfig(root_abs_tol=1e-15)),
])
def test_flat_scan_is_bit_identical_to_complex_scan(monkeypatch, z0, v0, n,
                                                    cfg):
    flat = _oracle_outcome(z0, v0, n, cfg)
    monkeypatch.setattr(rodbilliard.oracle, "_next_crossing",
                        _complex_next_crossing)
    assert flat == _oracle_outcome(z0, v0, n, cfg)


@pytest.mark.parametrize("v0", [-1j, 1j])
def test_start_on_the_rod_is_rejected_as_by_simulate(v0):
    # on the rod and not departing from it: the rotating-frame velocity
    # v0 - i z0 points down (-2i) or along the rod (0)
    with pytest.raises(ValueError) as by_simulate:
        simulate(1 + 0j, v0, SimConfig(n_max=3))
    with pytest.raises(ValueError) as by_oracle:
        oracle_simulate(1 + 0j, v0, 3)
    assert str(by_oracle.value) == str(by_simulate.value)
