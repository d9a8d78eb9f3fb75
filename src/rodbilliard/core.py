"""Shared numeric types and configuration for the rotating-rod billiard.

Positions and velocities live in the complex plane.  In the co-rotating
frame the rod is the real axis with the pivot at the origin, and time
equals the rod angle (the angular velocity is 1).  All arithmetic is
64-bit floating point; non-finite values are rejected at type boundaries
instead of being propagated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

EPS = sys.float_info.epsilon

# relative band within which a velocity, height or angle counts as zero
GRAZING_TOL = 1e-10


class BilliardError(Exception):
    """Base class for simulation failures."""


def require_finite(value: complex, name: str = "value") -> complex:
    """Reject values with NaN or infinite components."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must have finite components, got {value!r}")
    return value


def require_departing_start(z0: complex, v0: complex) -> None:
    """Reject a start below the rod, or on it with the rotating-frame
    velocity v0 - i z0 not pointing up."""
    if z0.imag < 0.0:
        raise ValueError(f"initial position {z0!r} lies below the rod")
    if (z0.imag <= GRAZING_TOL * (1.0 + abs(z0) + abs(v0))
            and (v0 - 1j * z0).imag <= 0.0):
        raise ValueError(
            "initial state sits on the rod without departing from it")


TRANSVERSAL = "transversal"
GRAZING = "grazing"
DEGENERATE = "degenerate"


class ContractViolation(BilliardError):
    """An impact state broke an invariant the dynamics guarantees.

    Signals a numerical failure or an input outside the supported class,
    never physics.
    """


def classify_impact(r: float, zdot_in: complex) -> str:
    """Sort an incoming impact velocity into transversal/grazing/degenerate.

    Degenerate is a full stop on the rod (cubic tangency of the arc, no
    billiard continuation); grazing is a tangential pass (quadratic
    tangency).  Anything else with non-negative vertical velocity is a
    ContractViolation: the dynamics never produces it.
    """
    if not r > 0:
        raise ValueError(f"impact radius must be positive, got {r}")
    require_finite(zdot_in, "zdot_in")
    if abs(zdot_in) <= GRAZING_TOL * (1.0 + r):
        return DEGENERATE
    tol = GRAZING_TOL * (1.0 + abs(zdot_in))
    if zdot_in.imag < -tol:
        return TRANSVERSAL
    if zdot_in.imag <= tol and zdot_in.real < -tol:
        return GRAZING
    raise ContractViolation(
        f"velocity {zdot_in!r} at r={r} is not an admissible rod approach")


def unit_rotation(theta: float) -> complex:
    """Unit complex number at angle ``theta``, i.e. cos(theta) + i sin(theta)."""
    return complex(math.cos(theta), math.sin(theta))


@dataclass(frozen=True, slots=True)
class PhaseState:
    """Rotating-frame state: time (= rod angle), position and velocity.

    Positions live in the closed upper half-plane; a small negative
    imaginary part (roundoff from impact-time evaluation) is tolerated.
    """

    t: float
    z: complex
    zdot: complex

    def __post_init__(self) -> None:
        require_finite(self.z, "z")
        require_finite(self.zdot, "zdot")
        if self.z.imag < -1e-9 * (1.0 + abs(self.z)):
            raise ValueError(f"position {self.z!r} lies below the rod")


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Run limits and the oracle's scan; the impact map has no setting.

    n_max, t_max: impact and time budget (CLI --n-max, --t-max; the
    benchmark sets n_max).  quasi_mode: at a full stop "stop" ends the
    record, "extend" slides on along cosh (CLI --quasi).
    ``convergence_experiment`` sets these three itself.  scan_step,
    root_abs_tol: the oracle's sampling step for Im z(t) (CLI
    --scan-step) and the width below which its Newton refinement stops
    (1e-15 from the CLI ``oracle`` command and the benchmark; a width
    below the float spacing stops at adjacent floats).
    """

    root_abs_tol: float = 1e-13
    scan_step: float = 1e-3
    n_max: int = 1000
    t_max: float = math.inf
    quasi_mode: str = "stop"

    def __post_init__(self) -> None:
        for name in ("root_abs_tol", "scan_step", "t_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or (  # where float(value) overflows
                    isinstance(value, int) and value >= 2 ** 1024 - 2 ** 970):
                raise ValueError(f"{name} must be a float, got {value!r:.20}")
        for name in ("root_abs_tol", "scan_step"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")
        if not self.t_max > 0:
            raise ValueError("t_max must be strictly positive")
        if (isinstance(self.n_max, bool) or not isinstance(self.n_max, int)
                or self.n_max < 1):
            raise ValueError(f"n_max must be an int >= 1, got {self.n_max!r}")
        if self.quasi_mode not in ("stop", "extend"):
            raise ValueError(
                f"quasi_mode must be 'stop' or 'extend', got {self.quasi_mode!r}")


DEFAULT_CONFIG = SimConfig()
