"""Closed-form impact recurrences for the rotating-rod billiard.

An arc leaving the rod at radius r with reflected velocity r(a + i beta),
b = 1 + beta, returns to it after the time delta solving
b s cos s = (1 + a s) sin s, and the contact data advance in closed form:

    r'     =  r b delta / sin delta
    a'     =  1/delta - cos delta sin delta / (b delta^2)
           =  (beta/delta + delta m(delta)) / b
    beta'  =  1 - (sin delta / delta)^2 / b
           =  (beta + p(delta)) / b

with p = 1 - (sin delta/delta)^2 and m = (delta - sin delta cos delta)/delta^3.
Along an orbit delta_n ~ 3/(2n) and beta_n ~ delta_n, so the state
carries beta itself (b would keep only eps/beta of its relative
precision), p and m come from their Taylor series where the closed forms
cancel, and the second forms above add positive terms only.  ``cascade``
alone solves for delta and applies the map, with p and m inline, over
every impact after the first; ``step`` is one impact of it.
"""

from __future__ import annotations

import math
import struct
from array import array
from typing import NamedTuple

from . import rootfind
from .core import (GRAZING_TOL, ContractViolation, require_finite,
                   unit_rotation)
from .rootfind import (_Q2, _Q30, _Q31, _Q40, _Q41, _Q50, _Q51, _Q52, _Q60,
                       _Q61, _Q62, _Q70, _Q71, _Q72, _Q73, SERIES_MAX,
                       T_STAR, monotone_newton, reduced_arc, require_arc,
                       small_root_guess)

# Taylor coefficients in u = delta^2 of p/u, (-1)^n 2^(2n+3)/(2n+4)!, and
# of m, (-1)^n 4^(n+1)/(2n+3)!: exact to an ulp below SERIES_MAX
(_P0, _P1, _P2, _P3, _P4, _P5, _P6, _P7, _P8, _P9, _P10) = (
    (-1) ** n * 2 ** (2 * n + 3) / math.factorial(2 * n + 4)
    for n in range(11))
(_M0, _M1, _M2, _M3, _M4, _M5, _M6, _M7, _M8, _M9, _M10, _M11) = (
    (-1) ** n * 4 ** (n + 1) / math.factorial(2 * n + 3) for n in range(12))

# impacts that ``cascade`` holds as float objects before it packs them into
# its float64 columns: appending to a list costs 14 ns a value, to an array
# 46 ns, and a store into a preallocated array 35 ns.  A chunk's floats pack
# at about 7 ns a value, against 20 for ``array.fromlist``
_CHUNK = 1024
_PACK_CHUNK = struct.Struct(f"{_CHUNK}d").pack


class ImpactEvent(NamedTuple):
    """One collision: index, time, radius, velocities on both sides, kind."""

    n: int
    t: float
    r: float
    zdot_in: complex
    zdot_out: complex
    kind: str


def recurrence_kernels(delta: float) -> tuple[float, float]:
    """p = 1 - (sin delta/delta)^2 and m = (delta - sin delta cos delta)/delta^3.

    Both to about an ulp: Taylor series below SERIES_MAX, where the
    closed forms would cancel (p ~ delta^2/3, m ~ 2/3), closed forms above.
    ``cascade`` repeats it inline; below delta = 0.01 it sums the five-term
    head of each series instead, which is the full series to the bit there.
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


def cascade(t1: float, r: float, a: float, beta: float, n: int,
            t_max: float) -> tuple[array, ...]:
    """Columns (t, r, a, beta, delta) of the orbit from its first impact at
    t1, whose arc is (r, a, beta): n more impacts, fewer if one falls past
    t_max on the Neumaier-summed clock.  Each is an ``array('d')``: the
    loop appends to lists, packed into the columns every ``_CHUNK`` impacts.

    delta is the reversion series ``rootfind.REVERSION_Q`` in its box
    (where the long orbit stays from its 301st impact on), Newton's start
    in the start window beyond, up to w = beta/a^2 = ``START_W_MAX``, and
    elsewhere ``rootfind.newton_delta`` starts from its default; edges and
    solver are read from ``rootfind`` when called.  p and m repeat
    ``recurrence_kernels`` inline, but for five-term series heads below 0.01.

    Only the first arc is checked, by ``require_arc`` when n > 0: with
    beta >= 0, delta is in (0, pi), where p and m are positive (their
    series alternate from 1/3 and 2/3), so every later arc has finite
    a', beta' > 0.  ContractViolation unless r' = r b delta/sin delta > r.
    """
    a_min, a_max = rootfind.REVERSION_A_MIN, rootfind.REVERSION_A_MAX
    w_box, w_max = rootfind.REVERSION_W_MAX, rootfind.START_W_MAX
    newton_delta = rootfind.newton_delta
    sin, cos, inf = math.sin, math.cos, math.inf
    if n > 0:
        require_arc(a, beta)
    columns = (array("d", [t1]), array("d", [r]), array("d", [a]),
               array("d", [beta]), array("d"))
    lists = ts, rs, as_, betas, deltas = [], [], [], [], []
    t_sum, comp = t1, 0.0
    for done in range(0, n, _CHUNK):
        if done:  # the full chunk before, into the columns
            for column, values in zip(columns, lists):
                column.frombytes(_PACK_CHUNK(*values))
                values.clear()
        for _ in range(min(_CHUNK, n - done)):
            if (a_min < a <= a_max
                    and 0.0 < (w := beta / (u := a * a)) <= w_max):
                d = beta / a
                delta = d + d * w * (_Q2 + w * (_Q30 + _Q31 * u + w * (
                    _Q40 + _Q41 * u + w * (
                        _Q50 + u * (_Q51 + u * _Q52) + w * (
                            _Q60 + u * (_Q61 + u * _Q62) + w * (
                                _Q70 + u * (_Q71 + u * (
                                    _Q72 + u * _Q73))))))))
                if w > w_box:
                    delta = newton_delta(a, beta, delta)[0]
            else:
                delta = newton_delta(a, beta)[0]
            b = 1.0 + beta
            sd = sin(delta)
            r_next = r * b * (delta / sd)
            if not r < r_next < inf:
                raise ContractViolation(
                    f"radius failed to grow: r={r} -> {r_next} "
                    f"(a={a}, beta={beta}, delta={delta})")
            u = delta * delta
            if delta < 0.01:
                p = u * (_P0 + u * (_P1 + u * (_P2 + u * (_P3 + u * _P4))))
                m = _M0 + u * (_M1 + u * (_M2 + u * (_M3 + u * _M4)))
            elif delta < SERIES_MAX:  # recurrence_kernels' series
                p = u * (_P0 + u * (_P1 + u * (_P2 + u * (_P3 + u * (
                    _P4 + u * (_P5 + u * (_P6 + u * (_P7 + u * (
                        _P8 + u * (_P9 + u * _P10))))))))))
                m = _M0 + u * (_M1 + u * (_M2 + u * (_M3 + u * (_M4 + u * (
                    _M5 + u * (_M6 + u * (_M7 + u * (_M8 + u * (
                        _M9 + u * (_M10 + u * _M11))))))))))
            else:  # its closed forms, on this arc's sin delta
                p = 1.0 - (sd / delta) ** 2
                m = (delta - sd * cos(delta)) / (u * delta)
            r, a, beta = r_next, (beta / delta + delta * m) / b, (beta + p) / b
            s = t_sum + delta
            comp += ((t_sum - s) + delta if t_sum >= delta
                     else (delta - s) + t_sum)
            t_sum = s
            if (t := s + comp) > t_max:
                break
            deltas.append(delta)
            ts.append(t)
            rs.append(r)
            as_.append(a)
            betas.append(beta)
        else:
            continue
        break  # the impact loop stopped past t_max
    for column, values in zip(columns, lists):
        column.fromlist(values)
    return columns


def step(r: float, a: float, beta: float
         ) -> tuple[float, float, float, float]:
    """One impact of ``cascade`` from (r, a, beta): (delta, r', a', beta')."""
    _, rs, as_, betas, deltas = cascade(0.0, r, a, beta, 1, math.inf)
    return deltas[0], rs[1], as_[1], betas[1]


def segment_max_height(r: float, a: float, beta: float) -> float:
    """Peak of the arc's height r s g(s) before its next impact, g = F/s as
    in ``reduced_arc``.

    The arc's rotating-frame velocity is r V(s) e^{-is}, with
    V = a + b s + i(beta - a s), so h' = r |V| sin psi, psi = arg V - s.
    psi falls from arg(a + i beta) in [0, pi] with
    psi' = -(a^2 + b beta)/|V|^2 - 1 <= -1, so the peak is its one root,
    on grazing arcs (beta = 0, a < 0, psi(0+) = pi) too.  For a < 0 Newton
    starts at s_i = -a/(a^2 + b^2), where psi'' =
    2(a^2 + b beta)(a + (a^2 + b^2)s)/|V|^4 changes sign; for a >= 0, where
    psi is convex, at the root of (1 + 3 beta/2) s^2 + 2a s = beta, the
    quadratic part of h'/r, left of the peak on every arc checked.
    psi' divides by |V| twice, so no square under- or overflows; where
    |V| rounds to 0, h' = r |V| sin psi does too, and s is the peak.
    """
    if not (r > 0 and math.isfinite(r)
            and math.isfinite(a) and math.isfinite(beta)):
        raise ValueError(
            f"arc must be finite with r > 0, got r={r}, a={a}, beta={beta}")
    beta = max(0.0, beta)
    b = 1.0 + beta

    def f_df(s: float) -> tuple[float, float]:
        x, y = a + b * s, beta - a * s
        h = math.hypot(x, y)
        if not h:
            return 0.0, -1.0
        return math.atan2(y, x) - s, -((a / h) * a + (b / h) * beta) / h - 1.0
    s = (-a / math.hypot(a, b) / math.hypot(a, b) if a < 0.0
         else small_root_guess(1.0 + 1.5 * beta, 2.0 * a, beta))
    s = monotone_newton(f_df, s).root
    return r * s * reduced_arc(s, a, beta)


def in_degenerate_set(z0: complex, zdot0: complex
                      ) -> tuple[bool, float, float]:
    """Membership test for the full-stop set {(r(1 - i tau)e^{i tau}, -r tau e^{i tau})}.

    Such initial data (position, initial rotating-frame velocity) reach
    the rod with zero velocity at time tau, for 0 < tau < t*.  The test
    runs in the lab frame: there v0 = zdot0 + i z0 = i r e^{i tau} adds
    terms of sizes r tau and r without cancellation, however small tau
    is, and z0/v0 = -tau - i.  That ratio does not see z0 and v0 turn
    together, so membership is Im(z0/v0) = -1, 0 < tau = -Re(z0/v0) < t*
    and the rest point -i v0 e^{-i tau} = r = |v0| on the positive
    semiaxis, each within GRAZING_TOL.

    Returns (member, r, tau); r and tau are 0.0 for non-members.
    """
    require_finite(z0, "z0")
    require_finite(zdot0, "zdot0")
    v0 = zdot0 + 1j * z0
    if zdot0 == 0 or v0 == 0:
        return False, 0.0, 0.0
    q = z0 / v0
    tau = -q.real
    if (abs(q.imag + 1.0) > GRAZING_TOL * (1.0 + abs(q))
            or not 0.0 < tau < T_STAR):
        return False, 0.0, 0.0
    r = abs(v0)
    rest = -1j * v0 * unit_rotation(-tau)
    if not rest.real > 0.0 or abs(rest.imag) > GRAZING_TOL * (1.0 + r):
        return False, 0.0, 0.0
    return True, r, tau
