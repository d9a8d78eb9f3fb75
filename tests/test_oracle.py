import ast
import math
import pathlib
import random

import pytest

import rodbilliard.oracle
from rodbilliard import (SimConfig, UnsupportedFirstImpact, flight_position,
                         flight_velocity, oracle_simulate, simulate)
from rodbilliard.core import EPS
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
    for n in (2.5, 3.0, True, False):
        with pytest.raises(ValueError, match="n_impacts must be an int"):
            oracle_simulate(1j, 1, n)


@pytest.mark.parametrize("z0, v0", [(2j, -3 + 1j), (1 + 2j, 0.5 - 1j)])
def test_overflowing_flight_is_rejected(z0, v0):
    # the flight rebuilt after an impact near the float range overflows;
    # the oracle rejects its non-finite (z, v) instead of refining over
    # infinite slopes
    with pytest.raises(ValueError, match="must have finite components"):
        oracle_simulate(z0 * 1e307, v0 * 1e307, 5)


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


def _complex_scan(ff, s0, h0, cfg):
    """The dense scan, sampling flight_position at every point
    s0 + k scan_step of the grid: the bracket (s_prev, s, h_prev, h) the
    skipping scan must reproduce bit for bit."""
    window = s0 + 2.0 * math.pi + 0.1
    s_prev, h_prev = s0, h0
    s, k = s0, 0
    while s < window:
        k += 1
        s = s0 + k * cfg.scan_step
        h = flight_position(*ff, s).imag
        if h_prev > 0.0 and h <= 0.0:
            return s_prev, s, h_prev, h
        s_prev, h_prev = s, h
    raise OracleMismatch(
        f"no rod crossing found within one extra turn past s = {s0}")


def _complex_refine(ff, lo, hi, h_lo, h_hi, tol):
    """The oracle's safeguarded Newton refinement, each sample's h and h'
    taken from flight_position and flight_velocity."""
    step_tol = max(0.5 * tol, math.ulp(hi))
    s = lo + (hi - lo) * (h_lo / (h_lo - h_hi))
    while hi - lo >= tol and lo < 0.5 * (lo + hi) < hi:
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        h, dh = flight_position(*ff, s).imag, flight_velocity(*ff, s).imag
        if h > 0.0:
            lo = s
        else:
            hi = s
        if -math.inf < dh < 0.0 and abs(h) <= -0.5 * dh * (hi - lo):
            d = -h / dh
            if abs(d) < step_tol:
                return s + d
            s += d
        else:
            s = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def _complex_oracle(z0, v0, n_impacts, cfg):
    """oracle_simulate as first written, its flight a pair (z, v) rebuilt by
    flight_position, flight_velocity and conjugation, over the dense scan:
    the reference the inline loop must reproduce bit for bit."""
    ff = (z0, v0)
    t_base = 0.0
    out = []
    guard = 10.0 * cfg.scan_step
    for k in range(n_impacts):
        if k == 0:
            s0, h0 = 0.0, z0.imag
        else:
            s0, h0 = guard, flight_position(*ff, guard).imag
        if k > 0 and h0 <= 0.0:
            s0 = cfg.scan_step
            h0 = flight_position(*ff, s0).imag
            if h0 <= 0.0:
                raise OracleMismatch("next impact within one scan step")
        s_hit = _complex_refine(ff, *_complex_scan(ff, s0, h0, cfg),
                                cfg.root_abs_tol)
        r_hit = flight_position(*ff, s_hit).real
        if k == 0 and r_hit <= 0.0:
            raise UnsupportedFirstImpact(s_hit, r_hit)
        if t_base + s_hit > cfg.t_max:
            break
        if k > 0 and r_hit <= out[-1][1]:
            raise OracleMismatch("radius failed to grow")
        t_base += s_hit
        out.append((t_base, r_hit))
        u = flight_velocity(*ff, s_hit).conjugate()
        ff = (complex(r_hit, 0.0), u + 1j * r_hit)
    return out


def _oracle_outcome(oracle, z0, v0, n, cfg):
    try:
        return oracle(z0, v0, n, cfg)
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
def test_inline_oracle_is_bit_identical_to_complex_reference(z0, v0, n, cfg):
    assert (_oracle_outcome(oracle_simulate, z0, v0, n, cfg)
            == _oracle_outcome(_complex_oracle, z0, v0, n, cfg))


def _parts(ff):
    z, v = ff
    return z.real, z.imag, v.real, v.imag


def _scan_outcome(scan, *args):
    """A scan's bracket as its repr, or its OracleMismatch message."""
    try:
        return repr(scan(*args))
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
            ff = complex(r, 0.0), r * complex(a, 1.0 + beta)
            s0 = 10.0 * step
        elif kind == 1:  # a tangential touch at t1, just above or below
            a = -10.0 ** rng.uniform(-3.0, -2.0 if short else -0.3)
            t1 = rng.uniform(0.001, 0.03) if short else rng.uniform(0.05, 3)
            w = complex(a, 1.0 + rng.uniform(-1e-12, 1e-12))
            rot = complex(math.cos(t1), math.sin(t1))
            ff, s0 = (r * (1.0 - w * t1) * rot, r * w * rot), 0.0
        elif kind == 2:  # first scan of a random start
            z0, v0 = random_supported_starts(1, seed=rng.randrange(2**32))[0]
            ff, s0 = (r * z0, r * v0), 0.0
        else:  # below the rod, rising, no downward crossing in the window
            ff = (r * complex(1.0, -rng.uniform(1e-3, 0.1)),
                  r * complex(rng.uniform(-0.1, 0.1), 1.0))
            s0 = 0.0
        scans.append((ff, s0, SimConfig(scan_step=step, root_abs_tol=1e-15)))
    return scans


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_skipping_scan_brackets_as_dense_scan(seed):
    # the same grid bracket and end heights to the bit, or the same miss
    # (the dense reference's message is the start of the oracle's)
    for ff, s0, cfg in _adversarial_scans(seed):
        h0 = flight_position(*ff, s0).imag
        dense = _scan_outcome(_complex_scan, ff, s0, h0, cfg)
        skipping = _scan_outcome(rodbilliard.oracle._scan, *_parts(ff), s0,
                                 h0, math.sin(-s0), math.cos(-s0),
                                 cfg.scan_step)
        if dense.startswith("no rod crossing"):
            assert skipping.startswith(dense + ";"), (ff, s0, cfg)
        else:
            assert skipping == dense, (ff, s0, cfg)


class _SinCountingMath:
    """``math`` as the oracle module sees it, with ``sin`` counted and its
    arguments kept."""

    def __init__(self):
        self.sin_calls = 0
        self.sin_args = []

    def __getattr__(self, name):
        return getattr(math, name)

    def sin(self, x):
        self.sin_calls += 1
        self.sin_args.append(x)
        return math.sin(x)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_scan_evaluates_only_points_of_the_indexed_grid(monkeypatch, seed):
    # every point s the scan evaluates h at, skipping or dense, lies within
    # an ulp of s0 + k scan_step for an integer k, as fl(k scan_step) and
    # the sum round once each; the sums fl(g + scan_step) of an additive
    # grid drift by hundreds of ulps over a window.  Checked exactly: every
    # float here is a multiple of 2^-1000 below 2^3, so times 2^1000 it is
    # an integer
    def exact(x):
        return int(math.ldexp(x, 1000))

    counting = _SinCountingMath()
    monkeypatch.setattr(rodbilliard.oracle, "math", counting)
    for ff, s0, cfg in _adversarial_scans(seed):
        counting.sin_args.clear()
        _scan_outcome(rodbilliard.oracle._scan, *_parts(ff), s0,
                      flight_position(*ff, s0).imag, math.sin(-s0),
                      math.cos(-s0), cfg.scan_step)
        assert counting.sin_args
        step, origin, unit = cfg.scan_step, exact(s0), exact(cfg.scan_step)
        for x in counting.sin_args:
            k = round((-x - s0) / step)
            assert abs(exact(-x) - origin - k * unit) <= exact(math.ulp(x)), (
                ff, s0, cfg, -x)


class _OffCeilMath(_SinCountingMath):
    """``_SinCountingMath`` with ``ceil`` off by ``offset``, as the
    rounding of the scan's index estimate could leave it."""

    def __init__(self, offset):
        super().__init__()
        self.offset = offset

    def ceil(self, x):
        return math.ceil(x) + self.offset


@pytest.mark.parametrize("seed", [1, 2])
def test_skip_settles_on_the_first_grid_point_past_its_limit(monkeypatch,
                                                              seed):
    # an index estimate off by a few steps either way is stepped to the
    # first grid point at or past the proven stretch's end: the scan
    # evaluates the same points and returns the same bracket
    scans = _adversarial_scans(seed)

    def points_and_outcomes(offset):
        recording = _OffCeilMath(offset)
        monkeypatch.setattr(rodbilliard.oracle, "math", recording)
        outcomes = [_scan_outcome(rodbilliard.oracle._scan, *_parts(ff), s0,
                                  flight_position(*ff, s0).imag,
                                  math.sin(-s0), math.cos(-s0), cfg.scan_step)
                    for ff, s0, cfg in scans]
        return recording.sin_args, outcomes

    exact = points_and_outcomes(0)
    for offset in (-1, 1, -3, 3):
        assert points_and_outcomes(offset) == exact, offset


def test_skipping_scan_takes_under_a_third_of_the_evaluations(monkeypatch):
    # the oracle evaluates sin once per scan or refinement sample and once
    # at each hit; the lift-off guard and its one-step fallback take one
    # sin each per call, and the scan takes its start's sin from the
    # caller.  The dense reference calls flight_position at every sample,
    # over fifteen times as often
    counting = _SinCountingMath()
    monkeypatch.setattr(rodbilliard.oracle, "math", counting)
    cfg = SimConfig(root_abs_tol=1e-15)
    inline = [_oracle_outcome(oracle_simulate, z0, v0, 50, cfg)
              for z0, v0 in _STARTS]
    evals, dense_evals = counting.sin_calls, 0

    def counted_position(z, v, s, position=flight_position):
        nonlocal dense_evals
        dense_evals += 1
        return position(z, v, s)

    monkeypatch.setitem(globals(), "flight_position", counted_position)
    assert inline == [_oracle_outcome(_complex_oracle, z0, v0, 50, cfg)
                      for z0, v0 in _STARTS]
    assert counting.sin_calls == evals == 4046
    assert 15 * evals < dense_evals == 91483


def test_a_step_that_stalls_the_grid_is_rejected():
    # below half the float spacing grid points repeat inside the window,
    # and the dense scan would take over 10^17 of them
    with pytest.raises(ValueError, match="the scan grid stalls"):
        oracle_simulate(1j, 1, 1, SimConfig(scan_step=1e-17))


def test_a_step_of_half_the_window_spacing_stalls():
    # at exactly half an ulp of the window, neighbouring grid points
    # s0 + k step round to one float below it, and the scan is rejected.
    # The rule is the spacing, not a sum at the window: from the lift-off
    # guard start the window is an odd multiple of its ulp, so
    # fl(window + step) > window.  One float more scans
    step = 0.5 * math.ulp(2.0 * math.pi + 0.1)
    with pytest.raises(ValueError, match="the scan grid stalls"):
        oracle_simulate(1j, 1, 1, SimConfig(scan_step=step))
    s0 = 10.0 * step
    window = s0 + 2.0 * math.pi + 0.1
    assert window == float.fromhex("0x1.98861baaa9383p+2")
    assert window + step > window and math.ulp(window) == 2.0 * step
    sn0, c0 = math.sin(-s0), math.cos(-s0)
    h0 = s0 * sn0 + c0  # the flight z = i, v = 1
    with pytest.raises(ValueError, match="the scan grid stalls"):
        rodbilliard.oracle._scan(0.0, 1.0, 1.0, 0.0, s0, h0, sn0, c0, step)
    lo, hi, h_lo, h_hi = rodbilliard.oracle._scan(
        0.0, 1.0, 1.0, 0.0, s0, h0, sn0, c0, math.nextafter(step, 1.0))
    assert h_lo > 0.0 >= h_hi and 0.0 < hi - lo < 1e-15
    assert abs(hi - 0.86033358901938) < 1e-14  # the first impact


@pytest.mark.parametrize("z0, v0", [(1j, 1 + 0j),
                                    *random_supported_starts(5, seed=1301)])
def test_fine_step_oracle_follows_simulate_to_ten_thousand_impacts(z0, v0):
    # at scan_step 1e-5 the oracle reaches delta_n near 1.5e-4, deep in the
    # reversion box.  The oracle's flight, rebuilt in floats after each
    # impact, drifts along the orbit, but its roots carry no bias that
    # compounds like n^2: the worst of these six starts reads 7.8e-11
    # relative in r and 5.1e-12 in t / (1 + t) to n = 10^4
    n = 10**4
    cfg = SimConfig(n_max=n, scan_step=1e-5, root_abs_tol=1e-15)
    record = simulate(z0, v0, cfg)
    reference = oracle_simulate(z0, v0, n, cfg)
    assert len(reference) == len(record.impacts) == n
    for ev, (t_o, r_o) in zip(record.impacts, reference):
        assert abs(ev.t - t_o) <= 1e-10 * (1 + ev.t)
        assert abs(ev.r - r_o) <= 1e-9 * ev.r


@pytest.mark.parametrize("tol", [1e-15, 1e-13])
def test_oracle_root_tolerance_leaves_no_drift(tol):
    # the reference orbit to n = 1000 at the default scan step: a root
    # biased by a fraction of tol would compound along the orbit (4e-9 at
    # 1e-13); the gap to simulate reads about 1.5e-12 at either tol
    n = 1000
    cfg = SimConfig(n_max=n, root_abs_tol=tol)
    record = simulate(1j, 1, cfg)
    reference = oracle_simulate(1j, 1, n, cfg)
    assert len(reference) == len(record.impacts) == n
    for t, r, (t_o, r_o) in zip(record.t, record.r, reference):
        assert abs(t_o - t) <= 5e-12
        assert abs(r_o / r - 1.0) <= 5e-12


def _mp_height(flight, s):
    """Im((z + v s) e^{-is}) of the float flight (zr, zi, vr, vi), exactly
    to the working precision of mpmath."""
    import mpmath
    zr, zi, vr, vi = (mpmath.mpf(x) for x in flight)
    s = mpmath.mpf(s)
    return (zr + vr * s) * mpmath.sin(-s) + (zi + vi * s) * mpmath.cos(-s)


def _bisection(flight, lo, hi, tol):
    """The refinement the oracle used before Newton: halve to tol."""
    zr, zi, vr, vi = flight
    for _ in range(200):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        if (zr + vr * mid) * math.sin(-mid) + (zi + vi * mid) * math.cos(
                -mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("tol", [1e-15, 1e-13])
def test_refined_roots_are_near_the_mpmath_roots(monkeypatch, tol):
    # every crossing of 12 seeded starts x 50 impacts; each root within
    # 5e-16 of the 50-digit root of the same float flight, where the
    # bisection to the same tol strays further on the same brackets, and
    # the roots unbiased: their mean signed error within 2e-17
    mpmath = pytest.importorskip("mpmath")
    crossings = []

    def recording(*args, refine=rodbilliard.oracle._refine):
        crossings.append((args, refine(*args)))
        return crossings[-1][1]

    monkeypatch.setattr(rodbilliard.oracle, "_refine", recording)
    cfg = SimConfig(root_abs_tol=tol)
    for z0, v0 in random_supported_starts(12, seed=7):
        assert len(oracle_simulate(z0, v0, 50, cfg)) == 50
    assert len(crossings) == 600
    worst = worst_bisection = total = 0.0
    with mpmath.workdps(50):
        for (*flight, lo, hi, _, _, _), root in crossings:
            exact = mpmath.findroot(lambda s: _mp_height(flight, s), root)
            assert lo < exact < hi
            zr, zi, vr, vi = (mpmath.mpf(x) for x in flight)
            slope = ((vr + zi + vi * exact) * mpmath.sin(-exact)
                     + (vi - zr - vr * exact) * mpmath.cos(-exact))
            assert slope < -1e-3 * (abs(zr) + abs(zi) + abs(vr) + abs(vi))
            total += root - exact
            worst = max(worst, abs(root - exact))
            worst_bisection = max(worst_bisection, abs(
                _bisection(flight, lo, hi, tol) - exact))
    assert worst <= 5e-16 < worst_bisection
    assert abs(total) <= 2e-17 * len(crossings)


@pytest.mark.parametrize("seed", [1, 2])
def test_refinement_of_adversarial_brackets(monkeypatch, seed):
    # near-tangent brackets included: the root lies in the grid bracket,
    # across which mpmath certifies the sign change, and the exact height
    # there is within rounding and tol of zero (two near-tangent
    # crossings in one bracket may give another root than bisection's);
    # no refinement takes more samples than bisection takes halvings
    mpmath = pytest.importorskip("mpmath")
    counting = _SinCountingMath()
    monkeypatch.setattr(rodbilliard.oracle, "math", counting)
    refined = 0
    with mpmath.workdps(50):
        for ff, s0, cfg in _adversarial_scans(seed):
            flight, tol = _parts(ff), cfg.root_abs_tol
            try:
                bracket = rodbilliard.oracle._scan(
                    *flight, s0, flight_position(*ff, s0).imag,
                    math.sin(-s0), math.cos(-s0), cfg.scan_step)
            except OracleMismatch:
                continue
            lo, hi = bracket[:2]
            counting.sin_calls = 0
            root = rodbilliard.oracle._refine(*flight, *bracket, tol)
            halvings, width = 0, hi - lo
            while width >= tol:
                halvings, width = halvings + 1, 0.5 * width
            assert counting.sin_calls <= halvings, (ff, s0, cfg)
            assert lo < root < hi
            assert _mp_height(flight, lo) > 0 >= _mp_height(flight, hi)
            zr, zi, vr, vi = flight
            scale = abs(zr) + abs(zi) + (abs(vr) + abs(vi)) * (1.0 + hi)
            assert abs(_mp_height(flight, root)) <= scale * (4 * EPS + tol)
            refined += 1
    assert refined > 200


def test_tolerance_below_the_float_spacing(monkeypatch):
    # at a tol of 1e-18, below the spacing of most roots, a Newton step
    # shorter than an ulp ends the refinement, or else adjacent floats
    counting = _SinCountingMath()
    monkeypatch.setattr(rodbilliard.oracle, "math", counting)
    fine = oracle_simulate(1j, 1, 200, SimConfig(root_abs_tol=1e-18))
    fine_evals, counting.sin_calls = counting.sin_calls, 0
    coarse = oracle_simulate(1j, 1, 200, SimConfig(root_abs_tol=1e-15))
    assert counting.sin_calls < fine_evals < 2 * counting.sin_calls
    assert len(fine) == len(coarse) == 200
    for (t_f, r_f), (t_c, r_c) in zip(fine, coarse):
        assert abs(t_f - t_c) <= 1e-13 * (1 + t_c)
        assert abs(r_f - r_c) <= 1e-13 * r_c


@pytest.mark.parametrize("v0", [-1j, 1j])
def test_start_on_the_rod_is_rejected_as_by_simulate(v0):
    # on the rod and not departing from it: the rotating-frame velocity
    # v0 - i z0 points down (-2i) or along the rod (0)
    with pytest.raises(ValueError) as by_simulate:
        simulate(1 + 0j, v0, SimConfig(n_max=3))
    with pytest.raises(ValueError) as by_oracle:
        oracle_simulate(1 + 0j, v0, 3)
    assert str(by_oracle.value) == str(by_simulate.value)


def test_scan_and_refinement_call_no_builtin_min_max_or_sorted():
    # on CPython 3.11 a two-argument min or max costs 119-140 ns against
    # 12-15 ns for the conditional expression that keeps its comparison
    # and argument order; the oracle made 6.6 such calls per impact
    tree = ast.parse(pathlib.Path(rodbilliard.oracle.__file__).read_text(
        encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    for name in ("_scan", "_refine", "oracle_simulate"):
        calls = {node.func.id for node in ast.walk(functions[name])
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)}
        assert not calls & {"min", "max", "sorted"}, name
