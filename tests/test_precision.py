"""Precision of the impact step against mpmath, and the work it takes.

The series kernels of the step are checked one by one at 30 digits, the
reference orbit z0 = i, v0 = 1 against the 50-digit checkpoints stored
with the benchmark, and the Newton iteration counts on that orbit.
"""

import json
from decimal import Decimal
from pathlib import Path

import pytest

from rodbilliard import (SimConfig, incoming_to_map_state,
                         recurrence_kernels, simulate, step)
from rodbilliard import impact_map, rootfind
from rodbilliard.rootfind import SERIES_MAX, reduced_arc

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# log-spaced below the series/closed-form switch, linear above it
BELOW = [1e-6 * (0.999 * SERIES_MAX / 1e-6) ** (k / 60) for k in range(61)]
ABOVE = [SERIES_MAX * (1.0 + k / 100) for k in range(11)]


def relative_error(x, ref):
    return abs((x - ref) / ref)


def test_gap_kernels_match_mpmath():
    # k(s) = sin s/s - cos s, k', k''; with a = beta = 0 the reduced arc
    # function returns (-k, -k', -k'').  k'' vanishes at sqrt(2), so the
    # samples above the switch stop at 1.1 SERIES_MAX
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(30):
        for s in BELOW + ABOVE:
            x = mp.mpf(s)
            k = mp.sin(x) / x - mp.cos(x)
            k1 = mp.sin(x) - k / x
            k2 = k * (2 / x ** 2 - 1)
            got = reduced_arc(s, 0.0, 0.0)
            for value, ref in zip(got, (k, k1, k2)):
                assert relative_error(-value, ref) <= 1e-15, s


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


def test_newton_iterations_per_impact(monkeypatch):
    # the delta and arc-height solves stay Newton solves from their
    # closed-form starts; a fall-back to bisection would take ~50 steps
    record = simulate(1j, 1 + 0j, SimConfig(n_max=1))
    first = record.impacts[0]
    ms = incoming_to_map_state(first.r, first.zdot_in)
    counts = {"delta": [], "height": []}
    solve = rootfind.hybrid_root

    def counted(name):
        def wrapper(*args, **kwargs):
            res = solve(*args, **kwargs)
            counts[name].append(res.iterations)
            return res
        return wrapper

    monkeypatch.setattr(impact_map, "hybrid_root", counted("height"))
    monkeypatch.setattr(rootfind, "hybrid_root", counted("delta"))
    for _ in range(10_000):
        _, ms, _ = step(ms)
    for name in ("delta", "height"):
        its = counts[name]
        assert len(its) == 10_000, name
        assert sum(its) / len(its) <= 3.0, name
        assert max(its) <= 8, name
