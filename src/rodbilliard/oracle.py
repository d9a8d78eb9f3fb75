"""Brute-force trajectory verifier, independent of the impact recurrences.

Every impact is found by scanning Im z(t) on the exact flight formula
over a grid of step scan_step and bisecting; after each reflection the
free flight is rebuilt from the contact point and the reflected
velocity.  Flights are parametrized in local time from their own impact
(rebasing the lab frame to the rod angle there), which keeps magnitudes
of order r and avoids the loss of significance a global (z, v) anchor
suffers as t grows.  Meant for cross-validation runs of at most ~10^3
impacts, where the gaps stay above one scan step.  The scan evaluates
Im z inline with the rounding of ``flight_position`` and skips the grid
points a Taylor bound proves positive: its samples and roots are those
of the dense complex scan, at under a third of its evaluations.
"""

from __future__ import annotations

import math

from .core import (EPS, BilliardError, DEFAULT_CONFIG, SimConfig,
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
    if not isinstance(n_impacts, int) or n_impacts < 1:
        raise ValueError(f"n_impacts must be an int >= 1, got {n_impacts!r}")
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
    product in ``flight_position``, so it equals its ``.imag``.  Grid point
    s_k + d past an evaluated s_k is stepped over, not evaluated, while
    (h_k - 2E) + (h'_k - E) d - M2 d^2/2 > 0: up to s_hi past the window,
    |h''| = |Im((-2iv - z - vs) e^{-is})| <= M2 = 2|v|_1 + |z|_1 + |v|_1 s_hi,
    and an ulp per sin, cos, sum and product moves the computed h and h' =
    Im((v - iz - ivs) e^{-is}) under E/2 = 4 eps (|z|_1 + |v|_1 (1 + s_hi)).
    The root d of that quadratic has relative condition 2, so a cut of 2^-20
    relative and 2 eps s_hi covers its rounding and that of s_k + d.  The
    scan is dense from the first bound that skips under two points or is
    not finite and positive.
    """
    zr, zi, vr, vi = ff.z.real, ff.z.imag, ff.v.real, ff.v.imag
    sin, cos, step, tol = math.sin, math.cos, cfg.scan_step, cfg.root_abs_tol
    window = s0 + 2.0 * math.pi + 0.1
    s_hi = window + 2.0 * step
    zn, vn = abs(zr) + abs(zi), abs(vr) + abs(vi)
    m2, err = 2.0 * vn + zn + vn * s_hi, 8.0 * EPS * (zn + vn * (1.0 + s_hi))
    s, s_prev, h, h_prev = s0, s0, h0, h0
    sn, c, a, b = sin(-s), cos(-s), zr + vr * s, zi + vi * s
    while 0.0 < m2 < math.inf and s < window and (h_lo := h - 2.0 * err) > 0.0:
        s_prev, h_prev = s, h
        q = (vr + b) * sn + (vi - a) * c - err  # h' less its error
        disc = math.sqrt(q * q + 2.0 * m2 * h_lo)
        d = ((q + disc) / m2 if q > 0.0 else 2.0 * h_lo / (disc - q)
             if disc > q else 0.0) * (1.0 - 2.0 ** -20) - 2.0 * EPS * s_hi
        if not 2.0 * step <= d < math.inf:
            break
        lim, s = min(s + d, window), s + step
        while s < lim:  # proven positive
            s_prev, s = s, s + step
        sn, c, a, b = sin(-s), cos(-s), zr + vr * s, zi + vi * s
        h = a * sn + b * c
    while not (h_prev > 0.0 and h <= 0.0):
        if not s < window:
            raise OracleMismatch(
                f"no rod crossing found within one extra turn past s = {s0}; "
                "this contradicts the sweep argument or the scan started "
                "below the rod")
        s_prev, h_prev = s, h
        s += step
        h = (zr + vr * s) * sin(-s) + (zi + vi * s) * cos(-s)
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
