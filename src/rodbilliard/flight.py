"""Free flight in the rotating frame and the inter-impact arcs.

Between impacts the ball moves along a straight lab-frame line, which in
the rotating frame reads z(t) = (z + v t) e^{-it}.  Anchored at an impact
time t_n with z(t_n) = r_n > 0 the same arc takes the normalized form

    f_n(s) = r_n (1 + w_n s) e^{-is},    s = t - t_n,   w_n = a_n + i b_n,

which is the representation the impact recurrences are written in; it
stays well conditioned as t_n grows, unlike the global (z, v) form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import unit_rotation


def flight_position(z: complex, v: complex, t: float) -> complex:
    """Rotating-frame position (z + v t) e^{-it}."""
    return (z + v * t) * unit_rotation(-t)


def flight_velocity(z: complex, v: complex, t: float) -> complex:
    """Rotating-frame velocity (v - i (z + v t)) e^{-it}."""
    return (v - 1j * (z + v * t)) * unit_rotation(-t)


@dataclass(frozen=True, slots=True)
class FlightSegment:
    """One arc r (1 + (a + ib) s) e^{-is} anchored at an impact.

    ``n`` is the number of the impact it leaves.  ``delta`` is the arc
    duration; ``None`` marks the open segment after the last computed
    impact, which accepts any s >= 0.
    """

    n: int
    t_start: float
    r: float
    a: float
    b: float
    delta: float | None = None

    def __post_init__(self) -> None:
        check_segment(self.r, self.delta)


_S_SLACK = 1e-12


def check_segment(r: float, delta: float | None, s: float = 0.0) -> None:
    """r > 0 and finite, delta in (0, pi) or None (open), s on the segment."""
    if not (r > 0 and math.isfinite(r)):
        raise ValueError(f"segment radius must be positive and finite, got {r}")
    if delta is not None and not 0.0 < delta < math.pi:
        raise ValueError(f"segment duration must lie in (0, pi), got {delta}")
    if s < -_S_SLACK:
        raise ValueError(f"s = {s} precedes the segment start")
    if delta is not None and s > delta + _S_SLACK:
        raise ValueError(f"s = {s} exceeds the segment duration {delta}")


def segment_position(seg: FlightSegment, s: float) -> complex:
    """Arc position f(s) = r (1 + w s) e^{-is}."""
    check_segment(seg.r, seg.delta, s)
    w = complex(seg.a, seg.b)
    return seg.r * (1.0 + w * s) * unit_rotation(-s)


def segment_velocity(seg: FlightSegment, s: float) -> complex:
    """Arc velocity f'(s) = r (w - i (1 + w s)) e^{-is}; f'(0) = r (a + i(b - 1))."""
    check_segment(seg.r, seg.delta, s)
    w = complex(seg.a, seg.b)
    return seg.r * (w - 1j * (1.0 + w * s)) * unit_rotation(-s)
