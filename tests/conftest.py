"""Shared fixtures: reference orbits and the seeded random-start suite."""

import math
import random

import pytest

from rodbilliard import (FreeFlight, SimConfig, UnsupportedFirstImpact,
                         first_impact, simulate, unit_rotation)


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
