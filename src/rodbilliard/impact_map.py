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
cancel, and the second forms above add positive terms only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BilliardError, GRAZING_TOL, require_finite
from .rootfind import (ROOT_REL_TOL, SERIES_MAX, T_STAR, hybrid_root,
                       reduced_arc, small_root_guess, solve_delta)

# Taylor coefficients in u = delta^2 of p/u, (-1)^n 2^(2n+3)/(2n+4)!, and
# of m, (-1)^n 4^(n+1)/(2n+3)!: exact to an ulp below SERIES_MAX
(_P0, _P1, _P2, _P3, _P4, _P5, _P6, _P7, _P8, _P9, _P10) = (
    (-1) ** n * 2 ** (2 * n + 3) / math.factorial(2 * n + 4)
    for n in range(11))
(_M0, _M1, _M2, _M3, _M4, _M5, _M6, _M7, _M8, _M9, _M10, _M11) = (
    (-1) ** n * 4 ** (n + 1) / math.factorial(2 * n + 3) for n in range(12))

TRANSVERSAL = "transversal"
GRAZING = "grazing"
DEGENERATE = "degenerate"


class DegenerateImpact(BilliardError):
    """The ball reached the rod with (numerically) zero velocity.

    No billiard continuation exists past such an impact; the caller
    decides between stopping and the sliding quasi-continuation.
    """


class ContractViolation(BilliardError):
    """An impact state broke an invariant the dynamics guarantees.

    Signals a numerical failure or an input outside the supported class,
    never physics.
    """


@dataclass(frozen=True, slots=True)
class ImpactEvent:
    """One collision: index, time, radius, velocities on both sides, kind."""

    n: int
    t: float
    r: float
    zdot_in: complex
    zdot_out: complex
    kind: str


@dataclass(frozen=True, slots=True)
class MapState:
    """Arc parameters (r, a, beta = b - 1) right after impact number ``n``.

    The arc is r (1 + (a + ib) s) e^{-is}; beta is stored rather than b
    because it tends to 0 along an orbit.
    """

    r: float
    a: float
    beta: float
    n: int

    def __post_init__(self) -> None:
        if not (self.r > 0 and math.isfinite(self.r)
                and math.isfinite(self.a) and math.isfinite(self.beta)):
            raise ValueError(
                f"impact state must be finite with r > 0, got "
                f"r={self.r}, a={self.a}, beta={self.beta}")

    @property
    def b(self) -> float:
        return 1.0 + self.beta


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


def incoming_to_map_state(r: float, zdot_in: complex, n: int = 1) -> MapState:
    """Arc parameters after reflecting ``zdot_in`` at radius ``r``.

    a = Re zdot_in / r and beta = b - 1 = -Im zdot_in / r; admissible
    impacts give beta > 0, or beta = 0 with a < 0 (grazing).  A full-stop
    velocity raises DegenerateImpact, anything below the rod's reach
    ContractViolation.
    """
    if not r > 0:
        raise ValueError(f"impact radius must be positive, got {r}")
    require_finite(zdot_in, "zdot_in")
    if abs(zdot_in) <= GRAZING_TOL * (1.0 + r):
        raise DegenerateImpact(
            f"velocity {zdot_in!r} at r={r} is a full stop on the rod")
    a = zdot_in.real / r
    beta = -zdot_in.imag / r
    graz = GRAZING_TOL * max(1.0, abs(1.0 + beta))
    if beta <= graz and (beta < -graz or a >= 0.0):
        raise ContractViolation(
            f"reflection of {zdot_in!r} at r={r} gives a={a}, beta={beta}; "
            "admissible impacts have beta > 0, or beta = 0 with a < 0")
    return MapState(r=r, a=a, beta=beta, n=n)


def recurrence_kernels(delta: float) -> tuple[float, float]:
    """p = 1 - (sin delta/delta)^2 and m = (delta - sin delta cos delta)/delta^3.

    Both to about an ulp: Taylor series below SERIES_MAX, where the
    closed forms would cancel (p ~ delta^2/3, m ~ 2/3), closed forms above.
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


def step(ms: MapState) -> tuple[float, MapState, float]:
    """Advance one impact: (delta, next state, max arc height).

    The radius grows strictly: r' = r b delta/sin delta > r.
    """
    delta = solve_delta(ms.a, ms.beta)
    a_next, beta_next, dos = recurrence(delta, ms.beta)
    r_next = ms.r * ms.b * dos
    if not (math.isfinite(r_next) and r_next > ms.r):
        raise ContractViolation(
            f"radius failed to grow: r={ms.r} -> {r_next} at n={ms.n} "
            f"(a={ms.a}, beta={ms.beta}, delta={delta})")
    height = segment_max_height(ms, delta)
    return (delta, MapState(r=r_next, a=a_next, beta=beta_next, n=ms.n + 1),
            height)


def outgoing_components(ms: MapState, delta: float) -> tuple[float, float]:
    """Velocity components when the arc returns to the rod.

    Re = r (b/sin d - cos d/d) > 0 and Im = r (sin d/d - b d/sin d) < 0
    for every admissible state; delta must be the return time of ``ms``.
    The same velocity is r' (a' - i beta') in terms of the next state;
    this closed form is the independent check of that identity.
    """
    sd = math.sin(delta)
    cd = math.cos(delta)
    re_out = ms.r * (ms.b / sd - cd / delta)
    im_out = ms.r * (sd / delta - ms.b * delta / sd)
    return re_out, im_out


def segment_max_height(ms: MapState, delta: float) -> float:
    """Peak of the arc's height r s g(s) over (0, delta), g = F/s as in
    ``reduced_arc``.

    h'/r = g + s g' falls from beta > 0 at s = 0 to delta g'(delta) < 0 at
    the return, so its root is bracketed; Newton starts at the root of
    beta = 2a s + s^2, its small-s form.  A grazing arc (beta = 0) has
    h' = 0 at s = 0 as well, and is solved as h'/(r s) = g/s + g', which
    falls from -2a > 0.
    """
    r, a, beta = ms.r, ms.a, ms.beta
    if beta > 0.0:
        def f_df(s: float) -> tuple[float, float]:
            g, g1, g2 = reduced_arc(s, a, beta)
            return g + s * g1, 2.0 * g1 + s * g2
    else:
        beta = 0.0

        def f_df(s: float) -> tuple[float, float]:
            g, g1, g2 = reduced_arc(s, a, 0.0)
            g_s = g / s
            return g_s + g1, (g1 - g_s) / s + g2
    s = hybrid_root(f_df, 0.0, delta, abs_tol=0.0,
                    x0=small_root_guess(1.0, 2.0 * a, beta),
                    rel_tol=ROOT_REL_TOL, positive_lo=True).root
    return r * s * reduced_arc(s, a, beta)[0]


def in_degenerate_set(z0: complex, zdot0: complex
                      ) -> tuple[bool, float, float]:
    """Membership test for the full-stop set {(r(1 - i tau)e^{i tau}, -r tau e^{i tau})}.

    Such initial data (position, initial rotating-frame velocity) reach
    the rod with zero velocity at time tau, for 0 < tau < t*.  Dividing
    the two components gives z0/zdot0 = -1/tau + i, so membership reduces
    to Im(z0/zdot0) = 1 and Re(z0/zdot0) < -1/t*.

    Returns (member, r, tau); r and tau are 0.0 for non-members.
    """
    require_finite(z0, "z0")
    require_finite(zdot0, "zdot0")
    if zdot0 == 0:
        return False, 0.0, 0.0
    q = z0 / zdot0
    if abs(q.imag - 1.0) > GRAZING_TOL * (1.0 + abs(q)) or q.real >= 0.0:
        return False, 0.0, 0.0
    tau = -1.0 / q.real
    if not 0.0 < tau < T_STAR:
        return False, 0.0, 0.0
    return True, abs(zdot0) / tau, tau
