"""Shared fixtures: reference orbits, the seeded random-start suite and
the closed-form references of the impact map.

``reference_solve_delta``, ``recurrence`` and ``reference_step`` make the
delta decision and apply the map apart from ``impact_map.cascade``, which
is the only code of the package that does either: they are what cascade,
and ``solve_delta`` and ``step`` through it, must equal bit for bit."""

import importlib.util
import math
import random
from array import array
from pathlib import Path

import pytest

from rodbilliard import (ContractViolation, SimConfig,
                         UnsupportedFirstImpact, first_impact, simulate,
                         unit_rotation)
from rodbilliard import rootfind
from rodbilliard.impact_map import cascade, recurrence_kernels
from rodbilliard.rootfind import (_Q2, _Q30, _Q31, _Q40, _Q41, _Q50, _Q51,
                                  _Q52, _Q60, _Q61, _Q62, _Q70, _Q71, _Q72,
                                  _Q73, REVERSION_A_MAX, REVERSION_A_MIN,
                                  REVERSION_W_MAX, SERIES_MAX)


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


def reference_solve_delta(a: float, beta: float) -> float:
    """The root in (0, pi) of b s cos s = (1 + a s) sin s for the arc
    (a, beta): the 7-term reversion series in the box, Newton from the
    series in the start window, Newton from its default start elsewhere,
    with the edges and ``newton_delta`` read from ``rootfind`` when called."""
    x0 = None
    if rootfind.REVERSION_A_MIN < a <= rootfind.REVERSION_A_MAX:
        u = a * a
        w = beta / u
        if 0.0 < w <= rootfind.START_W_MAX:
            d = beta / a
            x0 = d + d * w * (_Q2 + w * (_Q30 + _Q31 * u + w * (
                _Q40 + _Q41 * u + w * (_Q50 + u * (_Q51 + u * _Q52) + w * (
                    _Q60 + u * (_Q61 + u * _Q62) + w * (
                        _Q70 + u * (_Q71 + u * (_Q72 + u * _Q73))))))))
            if w <= rootfind.REVERSION_W_MAX:
                return x0
    rootfind.require_arc(a, beta)
    return rootfind.newton_delta(a, beta, x0)[0]


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
    delta = reference_solve_delta(a, beta)
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
    with the box edges as they are set in ``rootfind`` when called."""
    return (rootfind.REVERSION_A_MIN < a <= rootfind.REVERSION_A_MAX
            and 0.0 < beta / (a * a) <= rootfind.REVERSION_W_MAX)


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
    return (rootfind.REVERSION_A_MIN < a <= rootfind.REVERSION_A_MAX
            and rootfind.REVERSION_W_MAX < beta / (a * a)
            <= rootfind.START_W_MAX)


def window_arc(a: float, w: float) -> tuple[float, float]:
    """The arc (a, beta = w a^2), moved by ulps into the start window if
    rounding put beta/a^2 on or past one of its edges."""
    beta = w * a * a
    while beta / (a * a) > rootfind.START_W_MAX:
        beta = math.nextafter(beta, 0.0)
    while beta / (a * a) <= rootfind.REVERSION_W_MAX:
        beta = math.nextafter(beta, math.inf)
    assert in_start_window(a, beta), (a, beta)
    return a, beta


def series_start(a: float, beta: float) -> float:
    """Newton's start on a window arc: the reversion series, read from
    ``reference_solve_delta`` with its box widened to the window for this
    one call."""
    saved = rootfind.REVERSION_W_MAX
    rootfind.REVERSION_W_MAX = rootfind.START_W_MAX
    try:
        return reference_solve_delta(a, beta)
    finally:
        rootfind.REVERSION_W_MAX = saved


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
                    kind == 3 and reference_solve_delta(a, beta) < SERIES_MAX):
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
