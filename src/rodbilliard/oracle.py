"""Brute-force trajectory verifier, independent of the impact recurrences.

Every impact is found by dense sampling of Im z(t) on the exact flight
formula followed by plain bisection; after each reflection the free
flight is rebuilt from the contact point and the reflected velocity.
Flights are parametrized in local time from their own impact (rebasing
the lab frame to the rod angle at the impact), which keeps magnitudes of
order r and avoids the loss of significance a global (z, v) anchor
suffers as t grows.  Deliberately slow (O(delta / scan_step) evaluations
per impact) and meant for cross-validation runs of at most ~10^3
impacts, where the inter-impact gaps stay above one scan step.  The scan
evaluates Im z inline from the flight's real and imaginary parts, with
the same rounding as ``flight_position``, so its samples and roots are
those of the complex formula without the cost of complex objects.
"""

from __future__ import annotations

import math

from .core import (BilliardError, DEFAULT_CONFIG, SimConfig,
                   require_departing_start)
from .flight import FreeFlight, flight_position, flight_velocity, reflect
from .rootfind import UnsupportedFirstImpact


class OracleMismatch(BilliardError):
    """The scan missed an impact or produced an inconsistent radius."""


def oracle_simulate(z0: complex, v0: complex, n_impacts: int,
                    cfg: SimConfig | None = None) -> list[tuple[float, float]]:
    """First ``n_impacts`` impact times and radii by scanning alone.

    The first scan starts at the initial position itself (h = Im z0), so
    a first contact inside the first scan step is bracketed.  Later scans
    start a lift-off guard of 10 scan_steps past each reflection (the
    outgoing vertical velocity is positive, so the ball is strictly above
    the rod there) and bisect the first sign change of Im z(t).  Once the
    gaps between impacts shrink below the guard the ball is back on the
    rod there, and the scan starts one scan_step past the reflection
    instead.  Strict radius growth is checked as a missed-impact
    diagnostic.  As in ``simulate``, an impact past cfg.t_max is not
    recorded and ends the list.
    """
    cfg = cfg or DEFAULT_CONFIG
    if n_impacts < 1:
        raise ValueError("n_impacts must be at least 1")
    # local-time flight: starts at the previous impact (t = 0 initially)
    ff = FreeFlight(z0, v0)
    require_departing_start(z0, v0)
    t_base = 0.0
    out: list[tuple[float, float]] = []
    guard = 10.0 * cfg.scan_step
    for k in range(n_impacts):
        if k == 0:
            s0, h0 = 0.0, z0.imag
        else:
            s0, h0 = guard, flight_position(ff, guard).imag
        if k > 0 and h0 <= 0.0:
            s0 = cfg.scan_step
            h0 = flight_position(ff, s0).imag
            if h0 <= 0.0:
                raise OracleMismatch(
                    f"the next impact after t = {t_base} comes within one "
                    f"scan step (h = {h0} there); reduce scan_step")
        s_hit = _next_crossing(ff, s0, h0, cfg)
        r_hit = flight_position(ff, s_hit).real
        if k == 0 and r_hit <= 0.0:
            raise UnsupportedFirstImpact(s_hit, r_hit)
        if t_base + s_hit > cfg.t_max:
            break
        if k > 0 and r_hit <= out[-1][1]:
            raise OracleMismatch(
                f"radius failed to grow at impact {k + 1}: "
                f"{out[-1][1]} -> {r_hit}; an impact was probably missed")
        t_base += s_hit
        out.append((t_base, r_hit))
        # rebase the lab frame to the rod angle at this impact: the next
        # arc reads (r + (u + i r) s) e^{-is} in local time s
        u = reflect(flight_velocity(ff, s_hit))
        ff = FreeFlight(z=complex(r_hit, 0.0), v=u + 1j * r_hit)
    return out


def _next_crossing(ff: FreeFlight, s0: float, h0: float,
                   cfg: SimConfig) -> float:
    """First downward sign change of Im z(s) past s0, bisected to tolerance.

    h is Im((z + v s) e^{-is}) term for term as CPython rounds the complex
    product in ``flight_position``, so it equals its ``.imag``.
    """
    zr, zi, vr, vi = ff.z.real, ff.z.imag, ff.v.real, ff.v.imag
    sin, cos = math.sin, math.cos
    step, tol = cfg.scan_step, cfg.root_abs_tol
    window = s0 + 2.0 * math.pi + 0.1
    s_prev, h_prev = s0, h0
    s = s0
    while s < window:
        s += step
        h = (zr + vr * s) * sin(-s) + (zi + vi * s) * cos(-s)
        if h_prev > 0.0 and h <= 0.0:
            lo, hi = s_prev, s
            for _ in range(200):  # 200 halvings reach any root_abs_tol
                if hi - lo < tol:
                    break
                mid = 0.5 * (lo + hi)
                h = (zr + vr * mid) * sin(-mid) + (zi + vi * mid) * cos(-mid)
                if h > 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        s_prev, h_prev = s, h
    raise OracleMismatch(
        f"no rod crossing found within one extra turn past s = {s0}; this "
        "contradicts the sweep argument or the scan started below the rod")
