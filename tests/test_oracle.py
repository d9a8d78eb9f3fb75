import math
import random

import pytest

import rodbilliard.oracle
from rodbilliard import (FreeFlight, SimConfig, UnsupportedFirstImpact,
                         flight_position, oracle_simulate, simulate)
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
    for n in (2.5, 3.0):
        with pytest.raises(ValueError, match="n_impacts must be an int"):
            oracle_simulate(1j, 1, n)


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


def _scan_outcome(scan, ff, s0, cfg):
    """A scan's root as its repr, or its OracleMismatch message."""
    try:
        return repr(scan(ff, s0, flight_position(ff, s0).imag, cfg))
    except OracleMismatch as exc:
        return str(exc)


def _adversarial_scans(seed):
    """Seeded scans (flight, s0, cfg): post-impact arcs
    r (1 + (a + i(1 + beta)) s) e^{-is} from the lift-off guard, one in two
    near-tangent (beta <= 1e-12); arcs that touch the rod tangentially at
    s = t1, beta within 1e-12 of 0; first scans of random starts from
    s0 = 0; starts just below the rod that rise and miss within the
    window.  r is log-uniform from 1e-3 to 1e10 and scan_step is 1e-5,
    1e-3 or 1e-2; at 1e-5 the arcs are short (delta below about 0.06)."""
    rng = random.Random(seed)
    scans = []
    for k in range(300):
        step = (1e-5, 1e-3, 1e-2)[k % 3]
        short = step == 1e-5
        r = 10.0 ** rng.uniform(-3.0, 10.0)
        kind = rng.randrange(2 if short else 4)
        if kind == 0:  # post-impact arc, near-tangent one time in two
            if rng.random() < 0.5:  # rises with a < 0, lands near 3|a|
                a = -10.0 ** rng.uniform(-3.0, -1.7 if short else 0.0)
                beta = 10.0 ** rng.uniform(-16.0, -12.0)
            elif short:  # lands near beta/a
                a, beta = rng.uniform(0.5, 3.0), 10.0 ** rng.uniform(-3, -1.5)
            else:
                a, beta = rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3, 1)
            ff = FreeFlight(complex(r, 0.0), r * complex(a, 1.0 + beta))
            s0 = 10.0 * step
        elif kind == 1:  # a tangential touch at t1, just above or below
            a = -10.0 ** rng.uniform(-3.0, -2.0 if short else -0.3)
            t1 = rng.uniform(0.001, 0.03) if short else rng.uniform(0.05, 3)
            w = complex(a, 1.0 + rng.uniform(-1e-12, 1e-12))
            rot = complex(math.cos(t1), math.sin(t1))
            ff, s0 = FreeFlight(r * (1.0 - w * t1) * rot, r * w * rot), 0.0
        elif kind == 2:  # first scan of a random start
            z0, v0 = random_supported_starts(1, seed=rng.randrange(2**32))[0]
            ff, s0 = FreeFlight(r * z0, r * v0), 0.0
        else:  # below the rod, rising, no downward crossing in the window
            ff = FreeFlight(r * complex(1.0, -rng.uniform(1e-3, 0.1)),
                            r * complex(rng.uniform(-0.1, 0.1), 1.0))
            s0 = 0.0
        scans.append((ff, s0, SimConfig(scan_step=step, root_abs_tol=1e-15)))
    return scans


@pytest.mark.parametrize("seed", [1, 2])
def test_skipping_scan_is_bit_identical_to_dense_scan(seed):
    # the same root to the bit, or the same miss (the dense reference's
    # message is the start of the oracle's)
    for ff, s0, cfg in _adversarial_scans(seed):
        dense = _scan_outcome(_complex_next_crossing, ff, s0, cfg)
        skipping = _scan_outcome(rodbilliard.oracle._next_crossing, ff, s0,
                                 cfg)
        if dense.startswith("no rod crossing"):
            assert skipping.startswith(dense + ";"), (ff, s0, cfg)
        else:
            assert skipping == dense, (ff, s0, cfg)


class _SinCountingMath:
    """``math`` as the oracle module sees it, with ``sin`` counted."""

    def __init__(self):
        self.sin_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def sin(self, x):
        self.sin_calls += 1
        return math.sin(x)


def test_skipping_scan_takes_under_a_third_of_the_evaluations(monkeypatch):
    # each scan evaluates sin once per sample and per halving, plus once
    # at its start; the dense reference once per flight_position call
    counting = _SinCountingMath()
    monkeypatch.setattr(rodbilliard.oracle, "math", counting)
    cfg = SimConfig(root_abs_tol=1e-15)
    skipping = [_oracle_outcome(z0, v0, 50, cfg) for z0, v0 in _STARTS]
    evals, dense_evals = counting.sin_calls, 0

    def counted_position(ff, s, position=flight_position):
        nonlocal dense_evals
        dense_evals += 1
        return position(ff, s)

    monkeypatch.setitem(globals(), "flight_position", counted_position)
    monkeypatch.setattr(rodbilliard.oracle, "_next_crossing",
                        _complex_next_crossing)
    assert skipping == [_oracle_outcome(z0, v0, 50, cfg) for z0, v0 in _STARTS]
    assert counting.sin_calls == evals == 29020
    assert 3 * evals < dense_evals == 112499


@pytest.mark.parametrize("v0", [-1j, 1j])
def test_start_on_the_rod_is_rejected_as_by_simulate(v0):
    # on the rod and not departing from it: the rotating-frame velocity
    # v0 - i z0 points down (-2i) or along the rod (0)
    with pytest.raises(ValueError) as by_simulate:
        simulate(1 + 0j, v0, SimConfig(n_max=3))
    with pytest.raises(ValueError) as by_oracle:
        oracle_simulate(1 + 0j, v0, 3)
    assert str(by_oracle.value) == str(by_simulate.value)
