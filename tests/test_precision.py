"""Precision of the impact step against mpmath, and the work it takes.

The series kernels of the step are checked one by one at 30 digits, the
reversion series of delta over its box at 40 digits, the reference orbit
z0 = i, v0 = 1 against the 50-digit checkpoints stored with the benchmark,
every step of seeded orbits against the exact step from its stored state,
and the Newton evaluation counts.
"""

import json
import math
import random
from decimal import Decimal
from pathlib import Path

import pytest

from rodbilliard import (SimConfig, recurrence_kernels, segment_max_height,
                         simulate, solve_delta, step)
from rodbilliard import impact_map, rootfind
from rodbilliard.rootfind import (REVERSION_A_MAX, REVERSION_A_MIN,
                                  REVERSION_W_MAX, SERIES_MAX, reduced_arc)
from conftest import (box_state, cascade_impact, delta_root, in_reversion_box,
                      in_start_window, load_perfbench, outside_box_arcs,
                      peak_height, random_supported_starts, recurrence,
                      series_start, stopping_set_point, ulps_off, window_arc)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# log-spaced below the series/closed-form switch, linear above it
BELOW = [1e-6 * (0.999 * SERIES_MAX / 1e-6) ** (k / 60) for k in range(61)]
ABOVE = [SERIES_MAX * (1.0 + k / 100) for k in range(11)]


def relative_error(x, ref):
    return abs((x - ref) / ref)


def test_gap_kernels_match_mpmath():
    # k(s) = sin s/s - cos s; with a = beta = 0 the reduced arc function
    # returns -k
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(30):
        for s in BELOW + ABOVE:
            x = mp.mpf(s)
            k = mp.sin(x) / x - mp.cos(x)
            assert relative_error(-reduced_arc(s, 0.0, 0.0), k) <= 1e-15, s


def test_recurrence_kernels_match_mpmath():
    # p = 1 - (sin d/d)^2 and m = (d - sin d cos d)/d^3
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(30):
        for d in BELOW + ABOVE + [2.0, 3.0]:
            x = mp.mpf(d)
            p_ref = 1 - (mp.sin(x) / x) ** 2
            m_ref = (x - mp.sin(x) * mp.cos(x)) / x ** 3
            p, m = recurrence_kernels(d)
            assert relative_error(p, p_ref) <= 1e-15, d
            assert relative_error(m, m_ref) <= 1e-15, d


def test_five_term_head_is_the_full_series():
    # cascade keeps five terms of each kernel series below delta = 0.01, so
    # u < 1e-4 leaves the rest below 1e-26 relative, and its (a', beta')
    # must equal recurrence's, which sums all 11/12 terms: over the box,
    # where delta < 0.005, and over the arcs outside it with delta < 0.01
    p_coef = [(-1) ** n * 2 ** (2 * n + 3) / math.factorial(2 * n + 4)
              for n in range(11)]
    m_coef = [(-1) ** n * 4 ** (n + 1) / math.factorial(2 * n + 3)
              for n in range(12)]

    def horner(coef, u):
        acc = coef[-1]
        for c in reversed(coef[:-1]):
            acc = c + u * acc
        return acc

    rng = random.Random(1701)
    ws = [REVERSION_W_MAX * 10.0 ** rng.uniform(-8.0, 0.0)
          for _ in range(25_000)]
    ws += [rng.uniform(0.0, REVERSION_W_MAX) for _ in range(25_000)]
    arcs = []
    for w in ws:
        a = rng.uniform(REVERSION_A_MIN, REVERSION_A_MAX)
        if w > 0.0 and a > REVERSION_A_MIN:
            arcs.append(box_state(a, w))
    outside = 0
    for a, beta in arcs + outside_box_arcs(1702, 12_000):
        delta, _, a_next, beta_next = cascade_impact(1.0, a, beta)
        if not in_reversion_box(a, beta):
            if delta >= 0.01:
                continue
            outside += 1
        assert delta < 0.01
        assert (a_next, beta_next) == recurrence(delta, beta)[:2], (a, beta)
        u = delta * delta
        assert recurrence_kernels(delta) == (u * horner(p_coef, u),
                                             horner(m_coef, u)), delta
    assert outside >= 15_000


def test_reference_orbit_checkpoints():
    # the 50-digit checkpoints the benchmark gates on, up to n = 2 10^4
    record = simulate(1j, 1 + 0j, SimConfig(n_max=20_001))
    checkpoints = json.loads(REFERENCE.read_text())["checkpoints"]
    used = 0
    for key, ref in checkpoints.items():
        n = int(key)
        if n >= len(record.impacts):
            continue
        delta = Decimal(record.segments[n - 1].delta)
        t = Decimal(record.impacts[n - 1].t)
        assert abs(delta - Decimal(ref["delta"])) <= Decimal(ref["delta"]) * Decimal("1e-12"), n
        assert abs(t - Decimal(ref["t"])) <= Decimal("1e-12"), n
        used += 1
    assert used >= 15  # every checkpoint from n = 1 to n = 2 10^4


def test_grazing_arc_height_matches_mpmath():
    # beta = 0: h/r = s g(s) = s cos s - (1 + a s) sin s peaks where
    # h'/r = -a (sin s + s cos s) - s sin s vanishes, near s = -2a
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    for a in (-3.0, -1.5, -0.4, -1e-2, -1e-4, -1e-6):
        delta = solve_delta(a, 0.0)
        with mp.workdps(40):
            x = mp.mpf(a)
            s = mp.findroot(
                lambda s: -x * (mp.sin(s) + s * mp.cos(s)) - s * mp.sin(s),
                (mp.mpf(delta) / 1000, mp.mpf(delta)), solver="anderson")
            ref = s * mp.cos(s) - (1 + x * s) * mp.sin(s)
        height = segment_max_height(1.0, a, 0.0)
        assert relative_error(height, ref) <= 1e-15, a


def test_transversal_arc_heights_match_mpmath():
    # every closed arc of 40 seeded random starts to n = 25 and of the
    # reference orbit to n = 1000, against its 40-digit peak (3.86 ulps
    # at worst)
    mpmath = pytest.importorskip("mpmath")
    records = [simulate(z0, v0, SimConfig(n_max=25))
               for z0, v0 in random_supported_starts(40)]
    records.append(simulate(1j, 1 + 0j, SimConfig(n_max=1000)))
    arcs = 0
    for record in records:
        for k, height in enumerate(record.heights):
            ref = peak_height(mpmath.mp, record.r[k], record.a[k],
                              record.beta[k], record.delta[k])
            assert ulps_off(height, ref) <= 6.0, (record.z0, k)
            arcs += 1
    assert arcs > 1900


def box_top(a):
    # the largest beta of the box at this a
    return box_state(a, REVERSION_W_MAX)[1]


A_LOW = math.nextafter(REVERSION_A_MIN, 1.0)


def test_reversion_box_matches_mpmath():
    # a 26 x 26 grid over the box with its four edges (a just above 0.5,
    # a = 1, w = W_MAX, w = 1e-6 W_MAX): the series delta is within
    # 1.5 ulps of the root
    mpmath = pytest.importorskip("mpmath")
    fracs = [(k + 1) / 25 for k in range(25)]
    for a in [A_LOW] + [0.5 + 0.5 * f for f in fracs]:
        for f in fracs + [1e-6]:
            beta = box_top(a) * f
            assert in_reversion_box(a, beta)
            delta = solve_delta(a, beta)
            ref = delta_root(mpmath.mp, a, beta, delta)
            assert ulps_off(delta, ref) <= 1.5, (a, beta)


@pytest.mark.parametrize("edge", ["a_min", "a_max", "w_max", "w_min"])
def test_reversion_meets_newton_on_box_edges(edge):
    # the same (a, beta) on an edge of the box, from the series and from
    # Newton started at the quadratic, newton_delta's default.  Where the
    # orbit crosses, at w = W_MAX, they agree within 4 ulps, and within 2
    # on the other edges (the most seen over 5000 points an edge, where
    # the series is within 1.5 ulps of the root: test above)
    fracs = [(k + 1) / 40 for k in range(40)]
    points = {
        "a_min": [(A_LOW, box_top(A_LOW) * f) for f in fracs],
        "a_max": [(1.0, box_top(1.0) * f) for f in fracs],
        "w_max": [(a, box_top(a)) for a in (0.5 + 0.5 * f for f in fracs)],
        "w_min": [(a, box_top(a) * 1e-9) for a in (0.5 + 0.5 * f for f in fracs)],
    }[edge]
    assert all(in_reversion_box(a, beta) for a, beta in points)
    for a, beta in points:
        d = solve_delta(a, beta)
        newton, _ = rootfind.newton_delta(a, beta)
        assert ulps_off(d, newton) <= (4.0 if edge == "w_max" else 2.0), (
            a, beta)


def test_newton_delta_matches_mpmath():
    # outside the box delta is Newton's last iterate: within 2.5 ulps of a
    # 40-digit root on the arcs of seeded orbits, and within 3.5 on
    # synthetic arcs down to grazing ones (whose G = g s/sin s carries
    # about 3 ulps of rounding noise at small roots)
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(14)
    orbit_arcs = []
    for z0, v0 in random_supported_starts(60, seed=14):
        record = simulate(z0, v0, SimConfig(n_max=25))
        orbit_arcs += zip(record.a[:len(record.delta)], record.beta)
    synthetic = []
    for _ in range(300):
        synthetic.append((rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-6, 2)))
        synthetic.append((-(10.0 ** rng.uniform(-6, 1)), 0.0))
        synthetic.append((rng.uniform(0.5, 1.0), 10.0 ** rng.uniform(-7, -2)))
        synthetic.append((-(10.0 ** rng.uniform(0, 4)),
                          10.0 ** rng.uniform(-3, 3)))
    assert len(orbit_arcs) > 1000
    for arcs, bound in ((orbit_arcs, 2.5), (synthetic, 3.5)):
        for a, beta in arcs:
            delta, _ = rootfind.newton_delta(a, beta)
            ref = delta_root(mpmath.mp, a, beta, delta)
            assert ulps_off(delta, ref) <= bound, (a, beta)
    # an arc where the bracketed solve once returned the midpoint of a
    # collapsed bracket, 8.5 ulps off the root
    a, beta = 0.5000000000000001, 0.00095625
    delta, _ = rootfind.newton_delta(a, beta)
    assert ulps_off(delta, delta_root(mpmath.mp, a, beta, delta)) <= 1.0


@pytest.mark.parametrize("z0, v0, n_max", [(0.5j, 3 + 0j, 25),
                                           (1j, 1 + 0j, 300)])
def test_outside_box_record_equals_newton_record(monkeypatch, z0, v0, n_max):
    # the reference orbit's first 300 arcs, and a start whose first arcs
    # have a > 1, stay outside the box: their records are the ones Newton
    # alone builds (the box emptied), bit for bit.  That Newton starts from
    # the reversion series on the arcs of the start window, most of them,
    # and from the quadratic on the others
    record = simulate(z0, v0, SimConfig(n_max=n_max))
    closed = len(record.delta)
    arcs = list(zip(record.a[:closed], record.beta[:closed]))
    assert not any(in_reversion_box(a, beta) for a, beta in arcs)
    window = [in_start_window(a, beta) for a, beta in arcs]
    assert 0 < sum(window) < closed
    for (a, beta), d, inside in zip(arcs, record.delta, window):
        x0 = series_start(a, beta) if inside else None
        assert d == rootfind.newton_delta(a, beta, x0)[0], (a, beta)
    monkeypatch.setattr(rootfind, "REVERSION_W_MAX", 0.0)
    assert simulate(z0, v0, SimConfig(n_max=n_max)) == record


def test_newton_iterations_per_impact(monkeypatch):
    # from impact 301 of the reference orbit on, every arc lies in the
    # reversion box and its delta takes no solve; before that delta is one
    # Newton solve, from the series in the start window and from the
    # quadratic elsewhere, and every arc height is one monotone Newton
    # solve from its closed-form start.
    # In-box deltas are checked against mpmath at every 100th step
    mpmath = pytest.importorskip("mpmath")
    record = simulate(1j, 1 + 0j, SimConfig(n_max=1))
    r, a, beta, n = record.r[0], record.a[0], record.beta[0], 1
    counts = {"delta": [], "height": []}
    newton_delta, monotone_newton = (rootfind.newton_delta,
                                     rootfind.monotone_newton)

    def delta_counted(a, beta, x0=None):
        root, its = newton_delta(a, beta, x0)
        counts["delta"].append(its)
        return root, its

    def height_counted(*args, **kwargs):
        res = monotone_newton(*args, **kwargs)
        counts["height"].append(res.iterations)
        return res

    monkeypatch.setattr(impact_map, "monotone_newton", height_counted)
    monkeypatch.setattr(rootfind, "newton_delta", delta_counted)
    inside = []
    per_step = []  # delta evaluations per step, 0 for a series step
    for _ in range(10_000):
        before = len(counts["delta"])
        delta, r_next, a_next, beta_next = step(r, a, beta)
        segment_max_height(r, a, beta)
        its = counts["delta"][before:]
        if in_reversion_box(a, beta):
            assert its == [], n
            inside.append(n)
            if n % 100 == 0:
                ref = delta_root(mpmath.mp, a, beta, delta)
                assert ulps_off(delta, ref) <= 1.5, n
        else:
            assert len(its) == 1, n
        per_step.append(sum(its))
        r, a, beta, n = r_next, a_next, beta_next, n + 1
    assert inside == list(range(301, 10_001))
    # the 300 Newton solves before the box take 1.06 evaluations each
    # (1.35 from the quadratic start: the early arcs are long)
    assert sum(per_step[:300]) == 317
    assert len(counts["height"]) == 10_000
    for its in (per_step, counts["height"]):
        assert sum(its) / len(its) <= 3.0
        assert max(its) <= 8


def counted_delta_solves(monkeypatch):
    """The evaluation count of every later ``newton_delta`` call, in order."""
    counts = []
    newton_delta = rootfind.newton_delta

    def delta_counted(a, beta, x0=None):
        root, its = newton_delta(a, beta, x0)
        counts.append(its)
        return root, its

    monkeypatch.setattr(rootfind, "newton_delta", delta_counted)
    return counts


def test_newton_evaluations_per_delta_solve(monkeypatch):
    # the work of the delta solves on 1000 seeded starts x 25 impacts, all
    # outside the box: 24000 Newton solves, 1.6844 evaluations each (2.25
    # from the quadratic start), none taking more than 8
    starts = random_supported_starts(1000, seed=715)
    counts = counted_delta_solves(monkeypatch)
    cfg = SimConfig(n_max=25)
    for z0, v0 in starts:
        simulate(z0, v0, cfg)
    assert len(counts) == 24_000
    assert sum(counts) == 40_426
    assert sum(counts) / len(counts) <= 1.75
    assert max(counts) <= 8


@pytest.mark.parametrize("eps", [1e-10, -1e-12])
def test_near_stop_arcs_take_one_evaluation(monkeypatch, eps):
    # the (1, 1) full-stop start with v0 scaled by 1 + eps chatters on
    # short arcs, each a Newton solve from the quadratic start, which lies
    # within the stop's error bound of the root there: one evaluation per
    # solve (the bracketed solve took two)
    counts = counted_delta_solves(monkeypatch)
    z0, v0 = stopping_set_point(1.0, 1.0)
    simulate(z0, v0 * (1.0 + eps), SimConfig(n_max=3000))
    assert len(counts) == 2999
    assert sum(counts) / len(counts) <= 1.1


def test_series_started_delta_matches_mpmath():
    # Newton from the series start is within 2.5 ulps of a 40-digit root on
    # the window arcs of seeded orbits and on a grid over the window with
    # its edges (a just above 0.5, a = 1, w just above W_MAX, w = START_W_MAX)
    mpmath = pytest.importorskip("mpmath")
    orbit_arcs = []
    for z0, v0 in random_supported_starts(60, seed=22):
        record = simulate(z0, v0, SimConfig(n_max=25))
        orbit_arcs += [(a, beta) for a, beta in zip(record.a, record.beta[
            :len(record.delta)]) if in_start_window(a, beta)]
    w_lo, w_hi = REVERSION_W_MAX, rootfind.START_W_MAX
    grid = [window_arc(a, w_lo * (w_hi / w_lo) ** (j / 25))
            for a in [A_LOW] + [0.5 + 0.5 * (k + 1) / 25 for k in range(25)]
            for j in range(26)]
    assert len(orbit_arcs) > 1000
    for a, beta in orbit_arcs + grid:
        delta = solve_delta(a, beta)
        ref = delta_root(mpmath.mp, a, beta, delta)
        assert ulps_off(delta, ref) <= 2.5, (a, beta)


def step_errors(mp, record):
    """Per closed arc k, the ulps of (delta_k, r_k+1, a_k+1, beta_k+1) off
    the exact step from the stored (r_k, a_k, beta_k): delta solved and the
    map applied at 40 digits."""
    errors = []
    for k, delta in enumerate(record.delta):
        r, beta = record.r[k], record.beta[k]
        d = delta_root(mp, record.a[k], beta, delta)
        with mp.workdps(40):
            b, sd, cd = 1 + mp.mpf(beta), mp.sin(d), mp.cos(d)
            exact = (d, r * b * d / sd, 1 / d - cd * sd / (b * d * d),
                     1 - (sd / d) ** 2 / b)
        stored = (delta, record.r[k + 1], record.a[k + 1], record.beta[k + 1])
        errors.append([ulps_off(x, e) for x, e in zip(stored, exact)])
    return errors


def test_every_step_is_within_ulps_of_the_exact_step():
    # a local audit, apart from the error the orbit propagates: every
    # closed arc of 40 benchmark starts x 25 impacts and of the reference
    # orbit to 1000 impacts against the exact step from its own stored
    # state.  Measured worst (mean) in ulps: delta 1.18 (0.32) and 0.98
    # (0.33), r' 2.78 and 2.72, a' 3.67 and 3.64, beta' 2.02 and 2.10.
    # A delta (1 + 2^-52) bias planted in cascade reads 3.11 (1.43)
    mpmath = pytest.importorskip("mpmath")
    records = [simulate(z0, v0, SimConfig(n_max=25))
               for z0, v0 in load_perfbench("run").draw_starts(1, 40)]
    records.append(simulate(1j, 1 + 0j, SimConfig(n_max=1000)))
    errors = [e for record in records for e in step_errors(mpmath.mp, record)]
    assert len(errors) == 912 + 999
    worst = [max(column) for column in zip(*errors)]
    mean_delta = sum(e[0] for e in errors) / len(errors)
    assert worst[0] <= 1.5 and mean_delta <= 0.4, (worst, mean_delta)
    assert worst[1] <= 4.0 and worst[2] <= 6.0 and worst[3] <= 3.0, worst
