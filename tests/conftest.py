"""Shared fixtures: reference orbits, the seeded random-start suite and
the closed-form recurrence reference."""

import math
import random

import pytest

from rodbilliard import (FreeFlight, SimConfig, UnsupportedFirstImpact,
                         first_impact, simulate, unit_rotation)
from rodbilliard.impact_map import cascade
from rodbilliard.rootfind import (REVERSION_A_MAX, REVERSION_A_MIN,
                                  REVERSION_W_MAX)


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
            hit = first_impact(FreeFlight(z0, v0))
        except UnsupportedFirstImpact:
            continue
        if hit.kind != "transversal":
            continue
        out.append((z0, v0))
    return out


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
    """Whether solve_delta takes its reversion series for the arc (a, beta)."""
    return (REVERSION_A_MIN < a <= REVERSION_A_MAX
            and 0.0 < beta / (a * a) <= REVERSION_W_MAX)


def box_state(a: float, w: float) -> tuple[float, float]:
    """The arc (a, beta = w a^2), moved down by ulps into the box if
    rounding put beta/a^2 above REVERSION_W_MAX."""
    beta = w * a * a
    while beta / (a * a) > REVERSION_W_MAX:
        beta = math.nextafter(beta, 0.0)
    assert in_reversion_box(a, beta), (a, beta)
    return a, beta


def cascade_impact(r: float, a: float, beta: float
                   ) -> tuple[float, float, float, float]:
    """One impact of ``cascade`` from the in-box arc (r, a, beta), as
    (delta, r', a', beta') like ``step``."""
    columns = ([0.0], [r], [a], [beta], [])
    state = cascade(columns, 0.0, 0.0, math.inf, iter(range(1)))
    ts, rs, as_, betas, deltas = columns
    assert len(deltas) == 1
    assert state == (rs[1], as_[1], betas[1], deltas[0], 0.0) == (
        rs[1], as_[1], betas[1], ts[1], 0.0)
    return deltas[0], rs[1], as_[1], betas[1]
