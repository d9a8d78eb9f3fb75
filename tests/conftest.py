"""Shared fixtures: reference orbits, the seeded random-start suite and
the closed-form references of the impact map.

``newton_delta``, ``reference_solve_delta``, ``recurrence_kernels``,
``recurrence`` and ``reference_step`` solve for delta and apply the map
apart from ``impact_map.cascade``, which is the only code of the package
that does either: they are what cascade, and ``solve_delta`` and
``step`` through it, must equal bit for bit."""

import importlib.util
import itertools
import math
import random
from collections import Counter
from array import array
from pathlib import Path

import pytest

from rodbilliard import (ContractViolation, SimConfig,
                         UnsupportedFirstImpact, first_impact, simulate,
                         unit_rotation)
from rodbilliard import impact_map, rootfind, solve_delta
from rodbilliard.impact_map import (_K0, _K1, _K2, _K3, _K4, _K5, _K6,
                                    _K7, _K8, _M0, _M1, _M2, _M3, _M4, _M5,
                                    _M6, _M7, _M8, _M9, _M10, _M11, _P0, _P1,
                                    _P2, _P3, _P4, _P5, _P6, _P7, _P8, _P9,
                                    _P10, _Q2, _Q30, _Q31, _Q40, _Q41, _Q50,
                                    _Q51, _Q52, _Q60, _Q61, _Q62, _Q70, _Q71,
                                    _Q72, _Q73, REVERSION_A_MAX,
                                    REVERSION_A_MIN, REVERSION_W_MAX,
                                    SERIES_MAX, cascade)
from rodbilliard.rootfind import ROOT_REL_TOL, small_root_guess


@pytest.fixture(scope="session")
def orbit_i1():
    """The worked reference orbit from z0 = i, v0 = 1 (lab frame)."""
    return simulate(1j, 1 + 0j, SimConfig(n_max=60))


@pytest.fixture(scope="session")
def orbit_i0():
    """Pure-rotation start: z0 = i, v0 = 0; first impact at t = pi/2."""
    return simulate(1j, 0j, SimConfig(n_max=60))


def stopping_set_point(r: float, tau: float) -> tuple[complex, complex]:
    """Initial (z0, lab v0) that reaches the rod at rest at time tau."""
    rot = unit_rotation(tau)
    z0 = r * complex(1.0, -tau) * rot
    zdot0 = -r * tau * rot
    return z0, zdot0 + 1j * z0


def make_grazing_start(r: float, a: float, t1: float) -> tuple[complex, complex]:
    """Initial data whose arc r(1 + (a + i)(t - t1))e^{-i(t-t1)} touches
    the rod tangentially at t1 with horizontal velocity (r*a, 0)."""
    w = complex(a, 1.0)
    rot = unit_rotation(t1)
    return r * (1.0 - w * t1) * rot, r * w * rot


# touches the rod tangentially at t = 1.2 with velocity (-0.4, 0);
# built from the arc r(1 + (a + i)s)e^{-is} with r = 1, a = -0.4
GRAZING_Z0 = complex(1.6547363797861485, 0.9445885418594867)
GRAZING_V0 = complex(-1.0769821877578958, -0.010457879910216962)


def random_supported_starts(count: int, seed: int = 20240817):
    """Seeded initial conditions with a supported (positive-axis) first impact.

    Im z0 in [0.1, 5], Re z0 in [-5, 5], |v0| <= 5.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        z0 = complex(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 5.0))
        v0 = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        if abs(v0) > 5.0:
            continue
        try:
            hit = first_impact(z0, v0)
        except UnsupportedFirstImpact:
            continue
        if hit.kind != "transversal":
            continue
        out.append((z0, v0))
    return out


def newton_delta(a: float, beta: float,
                 x0: float | None = None) -> tuple[float, int]:
    """(root, evaluations) of the delta equation by Newton on its concave
    form, from ``x0`` or by default from the right of the root: the solve
    ``impact_map.cascade`` runs in its impact loop (its docstring derives
    starts, stop and branches), kept here as the reference cascade must
    equal bit for bit, with its evaluations counted.  The caller checks
    a, beta (``require_arc``)."""
    one = 1.0
    if not (-2.0 ** 500 < a < 2.0 ** 500 and beta < 2.0 ** 500):
        one = math.ldexp(1.0, -math.frexp(max(abs(a), beta))[1])
        a, beta = a * one, beta * one
    b = one + beta
    x = small_root_guess(b / 3.0, a, beta) if x0 is None else x0
    if x < 2.0 ** -27 and x0 is None:  # the quadratic's root is delta's
        disc = math.hypot(a, 2.0 * math.sqrt(b / 3.0) * math.sqrt(beta))
        x = 2.0 * beta / (a + disc) if a > 0.0 else 1.5 * (disc - a) / b
        return max(x, 5e-324), 0
    if x >= 3.0:
        x = min(math.pi, small_root_guess(
            b - a * math.pi, math.pi * (beta + a * math.pi),
            math.pi * math.pi * beta))
    for it in itertools.count(1):
        sn, cs = math.sin(x), math.cos(x)
        if x < SERIES_MAX:
            u = x * x
            k = u * (_K0 + u * (_K1 + u * (_K2 + u * (_K3 + u * (
                _K4 + u * (_K5 + u * (_K6 + u * (_K7 + u * _K8))))))))
        else:
            k = sn / x - cs
        c = k / sn * x
        dg = -a - b * (x - c * (1.0 - c) / x)
        g = ((beta * cs - a * sn - one * k) * x / sn if a < 0.0
             else beta - a * x - b * c)
        if g >= 0.0 and (dg >= 0.0 or x == math.pi):
            return math.pi, it
        d = g / dg
        ad = abs(d)
        kd = b * c / sn / sn / -dg * ad
        if (kd * ad * (1.0 + 4.0 * kd) <= 2.0 ** -55 * x
                or ad < ROOT_REL_TOL * x):
            return (x - d if x - d < math.pi else math.pi), it
        x = x - d if x - d < math.pi else math.pi


def reference_solve_delta(a: float, beta: float) -> tuple[float, int]:
    """(delta, evaluations) for the arc (a, beta), the root in (0, pi) of
    b s cos s = (1 + a s) sin s: the 7-term reversion series in the box,
    with no evaluation, Newton from the series in the start window, Newton
    from its default start elsewhere, with the edges read from
    ``impact_map`` when called."""
    x0 = None
    if impact_map.REVERSION_A_MIN < a <= impact_map.REVERSION_A_MAX:
        u = a * a
        w = beta / u
        if 0.0 < w <= impact_map.START_W_MAX:
            d = beta / a
            x0 = d + d * w * (_Q2 + w * (_Q30 + _Q31 * u + w * (
                _Q40 + _Q41 * u + w * (_Q50 + u * (_Q51 + u * _Q52) + w * (
                    _Q60 + u * (_Q61 + u * _Q62) + w * (
                        _Q70 + u * (_Q71 + u * (_Q72 + u * _Q73))))))))
            if w <= impact_map.REVERSION_W_MAX:
                return x0, 0
    rootfind.require_arc(a, beta)
    return newton_delta(a, beta, x0)


def recurrence_kernels(delta: float) -> tuple[float, float]:
    """p = 1 - (sin delta/delta)^2 and m = (delta - sin delta cos delta)/delta^3.

    Both to about an ulp: Taylor series below SERIES_MAX, where the
    closed forms would cancel (p ~ delta^2/3, m ~ 2/3), closed forms above:
    the kernels ``impact_map.cascade`` sums inline, kept here as their
    reference; below delta = 0.01 cascade sums the five-term head of each
    series instead, which is the full series to the bit there.
    """
    if delta < SERIES_MAX:
        u = delta * delta
        p = u * (_P0 + u * (_P1 + u * (_P2 + u * (_P3 + u * (_P4 + u * (
            _P5 + u * (_P6 + u * (_P7 + u * (_P8 + u * (_P9 + u * _P10))))))))))
        m = _M0 + u * (_M1 + u * (_M2 + u * (_M3 + u * (_M4 + u * (_M5 + u * (
            _M6 + u * (_M7 + u * (_M8 + u * (_M9 + u * (_M10 + u * _M11))))))))))
        return p, m
    sd = math.sin(delta)
    return (1.0 - (sd / delta) ** 2,
            (delta - sd * math.cos(delta)) / (delta * delta * delta))


def recurrence(delta: float, beta: float) -> tuple[float, float, float]:
    """(a', beta', delta/sin delta) after an arc of duration ``delta``.

    The forms a' = (beta/delta + delta m)/b and beta' = (beta + p)/b add
    positive terms only, so both keep the relative precision of beta and
    delta at any step size.
    """
    p, m = recurrence_kernels(delta)
    b = 1.0 + beta
    return ((beta / delta + delta * m) / b, (beta + p) / b,
            delta / math.sin(delta))


def reference_step(r: float, a: float, beta: float
                   ) -> tuple[float, float, float, float]:
    """One impact of the arc (r, a, beta): (delta, r', a', beta'), with
    ContractViolation unless the radius grows."""
    delta = reference_solve_delta(a, beta)[0]
    a_next, beta_next, dos = recurrence(delta, beta)
    r_next = r * (1.0 + beta) * dos
    if not (math.isfinite(r_next) and r_next > r):
        raise ContractViolation(
            f"radius failed to grow: r={r} -> {r_next} "
            f"(a={a}, beta={beta}, delta={delta})")
    return delta, r_next, a_next, beta_next


def recurrence_direct(delta: float, beta: float
                      ) -> tuple[float, float, float]:
    """Textbook closed forms of ``recurrence``; cancel badly as delta -> 0.

    Kept as the independent reference the series path is checked against.
    """
    b = 1.0 + beta
    sd = math.sin(delta)
    cd = math.cos(delta)
    a_next = 1.0 / delta - cd * sd / (b * delta * delta)
    beta_next = 1.0 - (sd / delta) ** 2 / b
    return a_next, beta_next, delta / sd


def in_reversion_box(a: float, beta: float) -> bool:
    """Whether cascade takes its reversion series for the arc (a, beta),
    with the box edges as they are set in ``impact_map`` when called."""
    return (impact_map.REVERSION_A_MIN < a <= impact_map.REVERSION_A_MAX
            and 0.0 < beta / (a * a) <= impact_map.REVERSION_W_MAX)


def box_state(a: float, w: float) -> tuple[float, float]:
    """The arc (a, beta = w a^2), moved down by ulps into the box if
    rounding put beta/a^2 above REVERSION_W_MAX."""
    beta = w * a * a
    while beta / (a * a) > REVERSION_W_MAX:
        beta = math.nextafter(beta, 0.0)
    assert in_reversion_box(a, beta), (a, beta)
    return a, beta


def in_start_window(a: float, beta: float) -> bool:
    """Whether cascade starts Newton from its reversion series for the
    arc (a, beta): a as in the box, REVERSION_W_MAX < beta/a^2 <= START_W_MAX."""
    return (impact_map.REVERSION_A_MIN < a <= impact_map.REVERSION_A_MAX
            and impact_map.REVERSION_W_MAX < beta / (a * a)
            <= impact_map.START_W_MAX)


def window_arc(a: float, w: float) -> tuple[float, float]:
    """The arc (a, beta = w a^2), moved by ulps into the start window if
    rounding put beta/a^2 on or past one of its edges."""
    beta = w * a * a
    while beta / (a * a) > impact_map.START_W_MAX:
        beta = math.nextafter(beta, 0.0)
    while beta / (a * a) <= impact_map.REVERSION_W_MAX:
        beta = math.nextafter(beta, math.inf)
    assert in_start_window(a, beta), (a, beta)
    return a, beta


def series_start(a: float, beta: float) -> float:
    """Newton's start on a window arc: the reversion series, read from
    ``reference_solve_delta`` with its box widened to the window for this
    one call."""
    saved = impact_map.REVERSION_W_MAX
    impact_map.REVERSION_W_MAX = impact_map.START_W_MAX
    try:
        return reference_solve_delta(a, beta)[0]
    finally:
        impact_map.REVERSION_W_MAX = saved


def outside_box_arcs(seed: int, per_kind: int) -> list[tuple[float, float]]:
    """Seeded arcs (a, beta) outside the reversion box, ``per_kind`` of each
    kind: a > 1, a < 0.5, 0.5 < a <= 1 with beta/a^2 > REVERSION_W_MAX,
    delta >= SERIES_MAX, and grazing (beta = 0, a < 0).  beta/a^2 of the
    first two kinds and -a of the grazing kind are log-uniform down to
    1e-10 and 1e-8, so many of their arcs have delta < 0.01."""
    rng = random.Random(seed)

    def draw(kind: int) -> tuple[float, float]:
        if kind == 0 or kind == 1:
            a = 10.0 ** rng.uniform(0.0, 3.0) if kind == 0 else rng.uniform(
                -3.0, 0.5)
            return a, 10.0 ** rng.uniform(-10.0, 0.0) * max(a * a, 1e-6)
        if kind == 2:
            a = rng.uniform(REVERSION_A_MIN, REVERSION_A_MAX)
            return a, REVERSION_W_MAX * 10.0 ** rng.uniform(0.0, 4.0) * a * a
        if kind == 3:
            return rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-0.5, 1.5)
        return -10.0 ** rng.uniform(-8.0, 1.0), 0.0

    arcs = []
    for kind in range(5):
        kept = 0
        while kept < per_kind:
            a, beta = draw(kind)
            if in_reversion_box(a, beta) or (
                    kind == 3 and reference_solve_delta(a, beta)[0] < SERIES_MAX):
                continue
            arcs.append((a, beta))
            kept += 1
    return arcs


def cascade_impact(r: float, a: float, beta: float
                   ) -> tuple[float, float, float, float]:
    """One impact of ``cascade`` from the arc (r, a, beta), as
    (delta, r', a', beta') like ``reference_step``."""
    ts, rs, as_, betas, deltas = cascade(0.0, r, a, beta, 1, math.inf)
    assert len(deltas) == 1 and ts == array("d", [0.0, deltas[0]])
    return deltas[0], rs[1], as_[1], betas[1]


def shipped_delta(a: float, beta: float) -> float:
    """``solve_delta``'s value for the arc (a, beta), or the reference's
    where the radius check raises (cascade's delta equals it there too:
    ``test_cascade_delta_is_the_reference_newton``)."""
    try:
        return solve_delta(a, beta)
    except ContractViolation:
        return reference_solve_delta(a, beta)[0]


class CountingMath:
    """``math`` as the impact_map module sees it, with every call of a
    function counted by name."""

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        value = getattr(math, name)
        if not callable(value):
            return value

        def counted(*args):
            self.calls[name] += 1
            return value(*args)
        return counted


@pytest.fixture
def counting_math(monkeypatch):
    """A ``CountingMath`` in place of ``impact_map.math``.  cascade calls
    sin once an arc, for r', and sin and cos once a Newton evaluation, so
    the sin calls less the arcs are its evaluations."""
    counting = CountingMath()
    monkeypatch.setattr(impact_map, "math", counting)
    return counting


def counted_shipped_delta(counting: CountingMath, a: float, beta: float
                          ) -> tuple[float, int]:
    """(delta, evaluations) of ``shipped_delta``, the evaluations read off
    the sin calls of cascade, which it makes whether or not the radius
    check raises, that ``counting``, in place as ``impact_map.math``, saw."""
    before = counting.calls["sin"]
    delta = shipped_delta(a, beta)
    return delta, counting.calls["sin"] - before - 1


def delta_root(mp, a, beta, guess):
    """Root of g(s) = beta cos s - a sin s - (sin s/s - cos s) to 40 digits,
    by Newton steps from a float root."""
    with mp.workdps(40):
        a, beta, s = mp.mpf(a), mp.mpf(beta), mp.mpf(guess)
        for _ in range(3):
            sn, cs = mp.sin(s), mp.cos(s)
            g = beta * cs - a * sn - (sn / s - cs)
            g1 = -beta * sn - a * cs - (cs / s - sn / s ** 2 + sn)
            s -= g / g1
        return s


def peak_height(mp, r, a, beta, delta):
    """Peak of the arc's height r F(s), F = b s cos s - (1 + a s) sin s,
    over (0, delta) to 40 digits: F' = (beta - a s) cos s - (a + b s) sin s
    falls through 0 there, so it is bisected in floats and its root then
    refined by Newton steps."""
    b = 1.0 + beta
    lo, hi = 0.0, delta
    for _ in range(64):
        s = 0.5 * (lo + hi)
        if (beta - a * s) * math.cos(s) > (a + b * s) * math.sin(s):
            lo = s
        else:
            hi = s
    with mp.workdps(40):
        r, a, beta, s = map(mp.mpf, (r, a, beta, 0.5 * (lo + hi)))
        b = 1 + beta
        for _ in range(3):
            sn, cs = mp.sin(s), mp.cos(s)
            s -= (((beta - a * s) * cs - (a + b * s) * sn)
                  / (-(2 * a + b * s) * cs - (b + beta - a * s) * sn))
        return r * (b * s * mp.cos(s) - (1 + a * s) * mp.sin(s))


def ulps_off(x, ref) -> float:
    """|x - ref| in units of the last place of ref as a float."""
    return float(abs(x - ref)) / math.ulp(float(ref))


def load_perfbench(name: str):
    """The module ``perfbench/<name>.py`` of this checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
