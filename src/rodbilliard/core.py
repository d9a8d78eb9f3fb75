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
    --scan-step) and bisection width (1e-15 from the CLI ``oracle``
    command and the benchmark).
    """

    root_abs_tol: float = 1e-13
    scan_step: float = 1e-3
    n_max: int = 1000
    t_max: float = math.inf
    quasi_mode: str = "stop"

    def __post_init__(self) -> None:
        for name in ("root_abs_tol", "scan_step", "t_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.quasi_mode not in ("stop", "extend"):
            raise ValueError(
                f"quasi_mode must be 'stop' or 'extend', got {self.quasi_mode!r}")


DEFAULT_CONFIG = SimConfig()
