"""Brute-force trajectory verifier, independent of the impact recurrences.

Every impact is found by scanning Im z(t) on the exact flight formula over
a grid of step scan_step and refining the first downward sign change to
the end point of a converged step of safeguarded Newton; after each
reflection the free flight is rebuilt from the contact point and the
reflected velocity.  Flights are parametrized in local time from their own
impact (rebasing the lab frame to the rod angle there), which keeps
magnitudes of order r and avoids the loss of significance a global (z, v)
anchor suffers as t grows.  Meant for cross-validation runs while the gaps
between impacts stay above one scan step: on the reference orbit about
1500 impacts at the default scan_step 1e-3, and past 10^4 at 1e-5.  The
flight is carried as the four parts of z and v, and every height, slope
and hit point is computed inline with the rounding of ``flight_position``
and ``flight_velocity``; the reflected velocity is the incoming one's
conjugate.  The scan's grid is indexed, s0 + k scan_step, and it skips the
points a Taylor bound proves positive: its brackets are those of the dense
complex scan, at under a fifteenth of its evaluations.
"""

from __future__ import annotations

import math

from .core import (EPS, BilliardError, DEFAULT_CONFIG, SimConfig,
                   require_departing_start, require_finite)
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
    the rod there) and refine the first sign change of Im z(t).  Once the
    gaps between impacts shrink below the guard the ball is back on the
    rod there, and the scan starts one scan_step past the reflection
    instead.  Strict radius growth is checked as a missed-impact
    diagnostic.  As in ``simulate``, an impact past cfg.t_max is not
    recorded and ends the list.
    """
    cfg = cfg or DEFAULT_CONFIG
    if (isinstance(n_impacts, bool) or not isinstance(n_impacts, int)
            or n_impacts < 1):
        raise ValueError(f"n_impacts must be an int >= 1, got {n_impacts!r}")
    require_finite(z0, "z")
    require_finite(v0, "v")
    require_departing_start(z0, v0)
    # local-time flight (z + v s) e^{-is} from the previous impact (t = 0
    # initially), held as the parts of z and v
    zr, zi, vr, vi = z0.real, z0.imag, v0.real, v0.imag
    sin, cos, isfinite = math.sin, math.cos, math.isfinite
    step, tol = cfg.scan_step, cfg.root_abs_tol
    t_base = 0.0
    out: list[tuple[float, float]] = []
    # the scan's starts past a reflection, each with its sin/cos at -s0
    guard = 10.0 * step
    starts = ((guard, sin(-guard), cos(-guard)),
              (step, sin(-step), cos(-step)))
    for k in range(n_impacts):
        if k == 0:
            s0, sn0, c0, h0 = 0.0, -0.0, 1.0, zi  # sin(-0.0) is -0.0
        else:
            for s0, sn0, c0 in starts:
                h0 = (zr + vr * s0) * sn0 + (zi + vi * s0) * c0
                if h0 > 0.0:
                    break
            else:
                raise OracleMismatch(
                    f"the next impact after t = {t_base} comes within one "
                    f"scan step (h = {h0} there); reduce scan_step")
        s_hit = _refine(zr, zi, vr, vi,
                        *_scan(zr, zi, vr, vi, s0, h0, sn0, c0, step), tol)
        sn, c = sin(-s_hit), cos(-s_hit)
        a, b = zr + vr * s_hit, zi + vi * s_hit
        r_hit = a * c - b * sn
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
        # arc reads (r + (u + i r) s) e^{-is}, u the conjugate of the
        # velocity (v - i(z + v s)) e^{-is} at the hit
        p, q = vr + b, vi - a
        zr, zi, vr, vi = r_hit, 0.0, p * c - q * sn, r_hit - (p * sn + q * c)
        if not (isfinite(zr) and isfinite(vr) and isfinite(vi)):
            require_finite(complex(zr, zi), "z")
            require_finite(complex(vr, vi), "v")
    return out


def _scan(zr: float, zi: float, vr: float, vi: float, s0: float, h0: float,
          sn0: float, c0: float, step: float
          ) -> tuple[float, float, float, float]:
    """Grid bracket (s_prev, s, h_prev, h) of the first downward sign
    change of h(s) = Im z(s) past s0, where h is h0 and (sin, cos)(-s0)
    are (sn0, c0) as the caller evaluated them, on the grid
    g_k = fl(s0 + fl(k step)), k = 0, 1, ..., up to the window's end.  A
    step not above half the float spacing there lets grid points repeat,
    and from the oracle's starts the dense scan would take over 2^52 of
    them; it raises ValueError.

    h is Im((z + v s) e^{-is}) term for term as CPython rounds the complex
    product in ``flight_position``, so it equals its ``.imag``.  From an
    evaluated point s = g_k the scan proves h > 0 on [s, s + d), moves to
    the first index j with g_j at or past lim = s + d and evaluates h
    there; it is dense from the first d under two steps.  Every grid point
    it skips has a computed h > 0, so its bracket is the dense scan's.

    The index.  fl is monotone, so g is non-decreasing in k, and the
    first index j with g_j >= lim is the one with g_{j-1} < lim <= g_j.
    The skip estimates j as ceil((lim - s0)/step), whose rounding is a
    few eps relative, and steps the estimate to that condition.

    The bound.  h' = Im((v - iz - ivs) e^{-is}) and
    h'' = Im((-2iv - z - vs) e^{-is}) come from the same sin/cos pair, and
    |h'''| = |Im((i(z + vs) - 3v) e^{-is})| <= M3(s) = 3|v|_1 + |z|_1 +
    |v|_1 s.  By Taylor's theorem, for 0 <= x <= d <= w,
    h(s_k + x) >= h + h'x + (h'' - M3(s_k + w) d/3) x^2/2.  An ulp per
    sin, cos, sum and product moves each computed h, h' and h'' by under
    E/2 = 4 eps (|z|_1 + |v|_1 (1 + s_hi)).  The scan takes H = h - 2E,
    Q = h' - E and M = M3(s_k + w) w/3 - (h'' - E), so that
    H + Qx - Mx^2/2 > 0 leaves the computed h at s_k + x positive.  The
    span w is the first positive root of the Taylor quadratic
    H + Qx + (h'' - E) x^2/2, or the rest of the window without one, and
    d is the first positive root of H + Qx - Mx^2/2, or w if that is
    smaller.  The root's formula adds terms of one sign, except that for
    M < 0 the discriminant Q^2 + 2MH cancels: rounding moves it by under
    2 eps Q^2 and the root by under sqrt(2 eps) relative, and only a
    discriminant below -4 eps Q^2 proves no root.  A cut of 2^-20
    relative covers the root's rounding and that of M3 w/3 (the remainder
    needs only M3 d/3, and d <= w (1 - 2^-20)), and a cut of 2 eps s_hi
    that of s_k + d.
    """
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    window = s0 + 2.0 * math.pi + 0.1
    if not step > 0.5 * math.ulp(window):
        raise ValueError(f"scan_step {step!r} is not above half the float "
                         f"spacing at s = {window!r}; the scan grid stalls")
    s_hi = window + 2.0 * step
    zn, vn = abs(zr) + abs(zi), abs(vr) + abs(vi)
    m3, err = 3.0 * vn + zn, 8.0 * EPS * (zn + vn * (1.0 + s_hi))
    k, s, s_prev, h, h_prev = 0, s0, s0, h0, h0
    sn, c, a, b = sn0, c0, zr + vr * s, zi + vi * s
    while s < window and (h_lo := h - 2.0 * err) > 0.0:
        # h' and h'' less their errors
        q = (vr + b) * sn + (vi - a) * c - err
        h2 = (vi + vi - a) * sn - (vr + vr + b) * c - err
        if h2 >= 0.0 and q >= 0.0 or (dd := q * q - 2.0 * h2 * h_lo) < 0.0:
            span = window - s
        else:
            disc = sqrt(dd)
            span = (q + disc) / -h2 if q > 0.0 else 2.0 * h_lo / (disc - q)
        m = (m3 + vn * (s + span)) * span / 3.0 - h2
        if m <= 0.0 and q >= 0.0 or (dd := q * q + 2.0 * m * h_lo) < (
                -4.0 * EPS * q * q):
            d = span
        else:
            disc = sqrt(0.0 if dd < 0.0 else dd)
            d = (q + disc) / m if q > 0.0 else 2.0 * h_lo / (disc - q)
            d = d if d < span else span
        d = d * (1.0 - 2.0 ** -20) - 2.0 * EPS * s_hi
        if not 2.0 * step <= d < math.inf:
            break
        # the points below s + d are proven positive; h_prev = inf marks
        # the height at s_prev as not evaluated
        lim = s + d
        lim = window if window < lim else lim
        k = math.ceil((lim - s0) / step)
        while s0 + k * step < lim:
            k += 1
        while (s_prev := s0 + (k - 1) * step) >= lim:
            k -= 1
        s, h_prev = s0 + k * step, math.inf
        sn, c, a, b = sin(-s), cos(-s), zr + vr * s, zi + vi * s
        h = a * sn + b * c
    while not (h_prev > 0.0 and h <= 0.0):
        if not s < window:
            raise OracleMismatch(
                f"no rod crossing found within one extra turn past s = {s0}; "
                "this contradicts the sweep argument or the scan started "
                "below the rod")
        s_prev, h_prev = s, h
        k += 1
        s = s0 + k * step
        h = (zr + vr * s) * sin(-s) + (zi + vi * s) * cos(-s)
    if h_prev == math.inf:
        h_prev = (zr + vr * s_prev) * sin(-s_prev) + (zi + vi * s_prev) * cos(
            -s_prev)
    return s_prev, s, h_prev, h


def _refine(zr: float, zi: float, vr: float, vi: float, lo: float, hi: float,
            h_lo: float, h_hi: float, tol: float) -> float:
    """Root of h in a bracket with h(lo) > 0 >= h(hi), by safeguarded Newton.

    h and h' = Im((v - iz - ivs) e^{-is}) come from one sin/cos pair, as
    in ``_scan``.  The first sample is the bracket's secant point, and each
    sample replaces the end whose sign it shares.  The next sample is the
    Newton point if that lies toward the other end and at most half the
    bracket's width away, else the midpoint.  A Newton step shorter than
    tol/2 (or than an ulp of hi, for a tol below the float spacing) has
    converged: its end point, inside the bracket by the step test, is
    returned, unbiased by a midpoint.  Without such a step the refinement
    stops once the bracket is narrower than tol or its ends are adjacent
    floats, and returns its midpoint.
    """
    sin, cos = math.sin, math.cos
    step_tol, ulp = 0.5 * tol, math.ulp(hi)
    step_tol = ulp if ulp > step_tol else step_tol
    s = lo + (hi - lo) * (h_lo / (h_lo - h_hi))
    while hi - lo >= tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if not lo < s < hi:
            s = mid
        sn, c = sin(-s), cos(-s)
        a, b = zr + vr * s, zi + vi * s
        h, dh = a * sn + b * c, (vr + b) * sn + (vi - a) * c
        if h > 0.0:
            lo = s
        else:
            hi = s
        if -math.inf < dh < 0.0 and abs(h) <= -0.5 * dh * (hi - lo):
            d = -h / dh
            if abs(d) < step_tol:
                return s + d
            s += d
        else:
            s = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)
