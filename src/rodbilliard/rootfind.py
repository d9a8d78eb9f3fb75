"""Scalar root finding for the impact-time equations.

Every solve is Newton from a side where it converges monotonically.
``monotone_newton`` finds the first contact of a free flight (from its
closed-form angle, split into at most three monotone pieces), the arc
peak and t = tan t, each from a start read off its curvature's sign.
The return time of an arc is solved in ``impact_map.cascade``'s loop,
whose module keeps that equation's tables and edges; ``solve_delta`` is
one impact of it.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

from .core import (BilliardError, EPS, GRAZING, GRAZING_TOL, ContractViolation,
                   classify_impact, require_departing_start, require_finite)
from .flight import flight_velocity


class UnsupportedFirstImpact(BilliardError):
    """The first contact is not on the positive semiaxis.

    Carries the contact time and (non-positive) radius.  Trajectories of
    this kind are detected and reported, not simulated.
    """

    def __init__(self, t: float, r: float):
        super().__init__(
            f"first contact at t = {t} has radius {r} <= 0 "
            "(hit on the non-positive semiaxis)")
        self.t = t
        self.r = r


class RootResult(NamedTuple):
    """A solve's root and its iterations (one evaluation of f each)."""

    root: float
    iterations: int


def monotone_newton(f_df: Callable[[float], tuple[float, float]],
                    x: float) -> RootResult:
    """Root of f by Newton steps from x; ``f_df(x)`` returns (f(x), f'(x)).

    The caller starts where the steps converge monotonically: on the side
    where f f'' > 0, with f' and f'' of one sign up to the root (Fourier's
    condition), or where the first step lands on that side (from an
    inflection point, or from the other side of a convex or concave f).
    Rounding ends the approach: the iterate is returned once a later step
    turns back, leaves x unchanged or is NaN, so no tolerance, bracket or
    cap is needed.
    """
    up = False
    for it in itertools.count(1):
        fx, dfx = f_df(x)
        xn = x - fx / dfx
        if xn == x or xn != xn or it > 2 and (xn > x) != up:
            return RootResult(x, it)
        up, x = xn > x, xn


# the old name, which perfbench/tracing.py wraps and its tests require;
# ROADMAP item 12 deletes it
hybrid_root = monotone_newton


# relative Newton stop of the delta solve, and the first contact's bound on
# its polishing step: a few ulps, above the rounding noise at the roots
ROOT_REL_TOL = 1e-15


def small_root_guess(c2: float, c1: float, beta: float) -> float:
    """Positive root of c2 s^2 + c1 s = beta (c2 > 0, beta >= 0), without
    cancellation; the leading terms of the small-s expansions solved here."""
    disc = math.sqrt(c1 * c1 + 4.0 * c2 * beta)
    return 2.0 * beta / (c1 + disc) if c1 > 0.0 else (disc - c1) / (2.0 * c2)


def solve_delta(a: float, beta: float) -> float:
    """Time to the next impact of the arc (a, beta = b - 1), the root in
    (0, pi) of b s cos s = (1 + a s) sin s: one impact of ``cascade`` from
    r = 1, so ContractViolation where b delta/sin delta rounds to 1."""
    from .impact_map import cascade  # not at the top: it imports this module
    return cascade(0.0, 1.0, a, beta, 1, math.inf)[4][0]


def require_arc(a: float, beta: float) -> None:
    """Raise ValueError unless (a, beta) is finite and describes a
    reflection: beta > 0, or beta = 0 with a < 0 (a grazing one)."""
    if not (math.isfinite(a) and math.isfinite(beta)):
        raise ValueError(f"non-finite arc parameters a={a}, beta={beta}")
    if not (beta > 0.0 or beta == 0.0 and a < 0.0):
        raise ValueError(
            f"arc parameters a={a}, beta={beta} do not describe a reflection "
            "(need beta > 0, or beta = 0 with a < 0)")


def solve_tstar() -> float:
    """Smallest positive solution of t = tan t, on the branch (pi, 3pi/2).

    Solved in product form f = sin t - t cos t = 0, which is concave
    (f'' = sin t + t cos t < 0) and falling (f' = t sin t < 0) on
    (pi, 3pi/2), so Newton from 3pi/2 falls to it monotonically; the
    value bounds the parameter range of the full-stop initial conditions.
    """

    def f_df(t: float) -> tuple[float, float]:
        sn = math.sin(t)
        cs = math.cos(t)
        return sn - t * cs, t * sn

    return monotone_newton(f_df, 1.5 * math.pi).root


T_STAR = solve_tstar()


class FirstImpact(NamedTuple):
    t: float
    r: float
    kind: str


def first_impact(z0: complex, v0: complex) -> FirstImpact:
    """Earliest rod contact of the free flight (z0, v0), in closed form.

    With u = z0 + v0 t the lab-frame position and c + iL = conj(z0) v0,
    the rotating-frame position z(t) = u e^{-it} has the angle

        phi(t) = arg z0 + atan2(L t, |z0|^2 + c t) - t,
        phi'(t) = L / |u|^2 - 1,

    continuous because a line subtends less than a half-turn.  phi starts
    in [0, pi]; contact is the first time it reaches 0 (the positive
    semiaxis) or pi (the negative one: UnsupportedFirstImpact).  phi
    rises only where |u|^2 < L, between the roots of the breakpoint
    quadratic |v0|^2 t^2 + 2c t + |z0|^2 - L = 0, so it has at most
    three monotone pieces, falling, rising, falling.  On the first falling
    piece that reaches 0, or rising piece that reaches pi, the contact is
    the root of phi, then polished by one Newton step on Im z(t).  A piece
    whose end (a stationary point of phi) lies within GRAZING_TOL of the
    rod ends in a tangency there: a grazing touch, or at a double root of
    the quadratic the cubic tangency of a full stop.  The last piece falls
    below 0 by t = arg z0 + atan2(L, c) (L > 0) or t = arg z0 (L < 0).
    With L = 0 the line runs through the pivot (or v0 = 0): phi = arg z0 - t
    until the ball reaches the pivot, an unsupported hit with r = 0.

    phi'' = -2L(c + w t)/|u|^4, w = |v0|^2, changes sign once, at the
    closest approach t_m = -c/w, midway between the breakpoints: Newton
    starts there if it lies inside the piece, else at the piece's end
    where phi - target and phi'' share a sign, never a breakpoint.

    Returns (t, r, kind), kind from ``classify_impact`` on the contact
    velocity.  A tangency touches the rod by construction: there a velocity
    neither degenerate nor transversal is grazing, never a violation.
    """
    require_finite(z0, "z")
    require_finite(v0, "v")
    require_departing_start(z0, v0)

    def hit(t: float, negative_side: bool = False,
            tangency: bool = False) -> FirstImpact:
        r = abs(z0 + v0 * t)
        if negative_side:
            raise UnsupportedFirstImpact(t, -r)
        if r == 0.0:  # the pivot, reached through rounding
            raise UnsupportedFirstImpact(t, 0.0)
        try:
            kind = classify_impact(r, flight_velocity(z0, v0, t))
        except ContractViolation:
            if not tangency:
                raise
            kind = GRAZING
        return FirstImpact(t, r, kind)

    if z0 == 0:
        return hit(math.atan2(v0.imag, v0.real))  # leaving the pivot
    theta0 = math.atan2(abs(z0.imag), z0.real)  # abs: -0.0 is on the rod
    # n0, p, w, phi and phi' are scale-free: they are formed from the pair
    # scaled by 2^k, its largest part in [0.5, 1), so |z0|^2 cannot overflow
    k = -math.frexp(max(map(abs, (z0.real, z0.imag, v0.real, v0.imag))))[1]
    zr, zi = math.ldexp(z0.real, k), math.ldexp(z0.imag, k)
    vr, vi = math.ldexp(v0.real, k), math.ldexp(v0.imag, k)
    n0 = zr * zr + zi * zi
    p = complex(zr, -zi) * complex(vr, vi)
    c, L = p.real, p.imag
    if L == 0.0:
        if c < 0.0 and -n0 / c <= theta0:
            raise UnsupportedFirstImpact(-n0 / c, 0.0)
        return hit(theta0)

    def phi(t: float) -> float:
        return theta0 + math.atan2(L * t, n0 + c * t) - t

    # breakpoints t1 <= t2; since |z0|^2 w = c^2 + L^2 the quadratic's
    # discriminant is L (w - L), and |w - L| within rounding of its terms
    # is the double root of a full stop
    w = vr * vr + vi * vi
    t1 = t2 = 0.0
    band = 8.0 * EPS * (w + math.sqrt(n0 * w))
    if L > 0.0 and w - L >= -band:
        sq = math.sqrt(L * (w - L)) if w - L > band else 0.0
        q = -(c + math.copysign(sq, c))
        t1, t2 = sorted((q / w, (n0 - L) / q if q else 0.0))
    # stationary piece ends: a local minimum at t1, a local maximum at t2
    ends = []
    if t1 > 0.0:
        ends.append((t1, False))
    if t2 > max(t1, 0.0):
        ends.append((t2, True))
    a = 0.0
    for b, rising in ends:
        target = math.pi if rising else 0.0
        short = target - phi(b) if rising else phi(b)  # < 0: target passed
        scale = 1.0 + abs(z0) + abs(v0) * b
        if abs(short) * abs(z0 + v0 * b) <= GRAZING_TOL * scale:
            return hit(b, rising, tangency=True)
        if short < 0.0:
            break
        a = b
    else:
        # the last piece falls below 0 by the asymptotic angle of the line
        b, rising, target = theta0 + max(0.0, math.atan2(L, c)), False, 0.0

    def phi_dphi(t: float) -> tuple[float, float]:
        x, y = zr + vr * t, zi + vi * t
        u2 = x * x + y * y
        if not u2:  # the pivot, reached through rounding: the contact
            return 0.0, -1.0
        return (theta0 + math.atan2(L * t, n0 + c * t) - t - target,
                L / u2 - 1.0)

    # w = 0 (v0 too small to square) leaves phi'' the sign of -L c
    t_m = -c / w if w else math.copysign(math.inf, -c)
    if not a < t_m < b:  # phi'' > 0 on the piece where convex is True
        convex = (L > 0.0) == (b <= t_m)
        t_m = a if convex != rising else b
    t = monotone_newton(phi_dphi, t_m).root
    # phi's terms are O(1), so its root is a few eps off in phi, that over
    # |phi'| in t, many ulps of a small t: one Newton step on the height
    # h = Im((z0 + v0 t) e^{-it}) of the scaled pair polishes it, unless
    # the step is longer than ROOT_REL_TOL (1 + t) (1 + 1/|phi'|) (h' near 0)
    sn, cs = math.sin(-t), math.cos(-t)
    x, y = zr + vr * t, zi + vi * t
    h, dh = x * sn + y * cs, (vr + y) * sn + (vi - x) * cs
    u2 = x * x + y * y
    dphi = abs(L - u2)  # |phi'| u2
    if abs(h) * dphi < ROOT_REL_TOL * (1.0 + t) * abs(dh) * (u2 + dphi):
        t -= h / dh
    return hit(t, rising)
