"""Safeguarded scalar root finding for the impact-time equations.

Three solvers live here: the generic bracketed Newton/bisection hybrid,
the return-time equation b s cos s = (1 + a s) sin s for an arc leaving
the rod (in the reduced form shared with the arc-height solve), and the
first contact of an arbitrary free flight, from the closed-form angle of
the flight split into at most three monotone pieces.  Newton steps
accelerate a sign-change bracket; any step that leaves the bracket falls
back to bisection, so convergence is guaranteed for continuous functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .core import BilliardError, EPS, GRAZING_TOL
from .flight import FreeFlight, flight_velocity


class RootFindError(BilliardError):
    """A bracketed solve failed to converge or lost its sign change."""


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


@dataclass(frozen=True, slots=True)
class RootResult:
    """A solve's root, f at the last iterate evaluated, the number of
    iterations (one evaluation of f each) and whether a bracket held."""

    root: float
    residual: float
    iterations: int
    bracketed: bool


def hybrid_root(f_df: Callable[[float], tuple[float, float]],
                lo: float, hi: float,
                abs_tol: float = 1e-13, *,
                x0: float | None = None,
                rel_tol: float = 0.0,
                positive_lo: bool | None = None) -> RootResult:
    """Root of f in [lo, hi] given a sign change, with Newton acceleration.

    ``f_df(x)`` returns (f(x), f'(x)).  Iteration starts at ``x0`` (the
    midpoint when it is absent or outside (lo, hi)).  A Newton step is
    taken whenever it stays strictly inside the current bracket and
    shrinks it at least as fast as bisection would; otherwise the
    midpoint is used.  Terminates when the step or the bracket falls below
    ``abs_tol + rel_tol * |x|``; RootFindError after 200 evaluations.

    The sign change is checked by evaluating f at both ends, unless the
    caller knows it: ``positive_lo`` then gives the sign of f just right
    of ``lo`` (f has the opposite sign just left of ``hi``), and f is
    never evaluated at the ends, where it may be undefined.
    """
    if positive_lo is None:
        flo, _ = f_df(lo)
        fhi, _ = f_df(hi)
        if flo == 0.0:
            return RootResult(lo, 0.0, 0, True)
        if fhi == 0.0:
            return RootResult(hi, 0.0, 0, True)
        if (flo > 0.0) == (fhi > 0.0):
            raise RootFindError(
                f"no sign change on [{lo}, {hi}]: f = {flo}, {fhi}")
        positive_lo = flo > 0.0

    x = x0 if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
    for it in range(1, 201):
        fx, dfx = f_df(x)
        if fx == 0.0:
            return RootResult(x, 0.0, it, True)
        if (fx > 0.0) == positive_lo:
            lo = x
        else:
            hi = x
        tol = abs_tol + rel_tol * abs(x)
        if hi - lo < 2.0 * tol:
            return RootResult(0.5 * (lo + hi), fx, it, True)
        if dfx != 0.0:
            step = fx / dfx
            xn = x - step
            if abs(step) < tol and lo <= xn <= hi:
                return RootResult(xn, fx, it, True)
            if lo < xn < hi and abs(step) <= 0.5 * (hi - lo):
                x = xn
                continue
        x = 0.5 * (lo + hi)
    raise RootFindError(
        f"no convergence after 200 iterations on [{lo}, {hi}]")


# Taylor coefficients of k(s)/s^2 in u = s^2, k(s) = sin s/s - cos s:
# (-1)^n 2(n+1)/(2n+3)!.  Nine terms are exact to an ulp below SERIES_MAX;
# from there on k >= 0.3 and the closed form cancels less than 2 ulps.
(_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7, _K8) = (
    (-1) ** n * 2 * (n + 1) / math.factorial(2 * n + 3) for n in range(9))
SERIES_MAX = 1.0

# relative Newton stop of the delta and arc-height solves: a few ulps,
# above the rounding noise of the reduced functions at their roots
ROOT_REL_TOL = 1e-15


def reduced_arc(s: float, a: float, beta: float
                ) -> tuple[float, float, float]:
    """g(s) = F(s)/s and its first two derivatives, for s > 0.

    F(s) = b s cos s - (1 + a s) sin s is the height of the arc with
    b = 1 + beta, divided by r, so

        g(s) = beta cos s - a sin s - k(s),    k(s) = sin s/s - cos s.

    k ~ s^2/3 is taken from its Taylor series below SERIES_MAX, so no
    term of g loses digits to cancellation as s -> 0; its derivatives
    follow exactly as k' = sin s - k/s and k'' = k (2/s^2 - 1).  With
    a = beta = 0 the result is (-k, -k', -k'').
    """
    sn = math.sin(s)
    cs = math.cos(s)
    if s < SERIES_MAX:
        u = s * s
        k = u * (_K0 + u * (_K1 + u * (_K2 + u * (_K3 + u * (
            _K4 + u * (_K5 + u * (_K6 + u * (_K7 + u * _K8))))))))
    else:
        k = sn / s - cs
    k1 = sn - k / s
    k2 = k * (2.0 / (s * s) - 1.0)
    return (beta * cs - a * sn - k,
            -beta * sn - a * cs - k1,
            -beta * cs + a * sn - k2)


def small_root_guess(c2: float, c1: float, beta: float) -> float:
    """Positive root of c2 s^2 + c1 s = beta (c2 > 0, beta >= 0), without
    cancellation; the leading terms of the small-s expansions solved here."""
    disc = math.sqrt(c1 * c1 + 4.0 * c2 * beta)
    return 2.0 * beta / (c1 + disc) if c1 > 0.0 else (disc - c1) / (2.0 * c2)


def solve_delta(a: float, beta: float) -> float:
    """Time to the next impact: the root in (0, pi) of b s cos s = (1 + a s) sin s.

    (a, beta = b - 1) parametrize the arc leaving the rod, with beta > 0
    for a transversal reflection or beta = 0, a < 0 for a grazing one.
    The equation is solved as g(s) = F(s)/s = 0 (see ``reduced_arc``),
    which has no trivial root at 0 and keeps full relative precision
    however small the root is: g falls from beta at 0 to -1 - beta at pi.
    Newton starts at the root of the quadratic beta = a s + s^2/3, the
    small-s form of g, and stops on a relative step.  A grazing arc has
    g(0) = 0, so its equation is divided once more by s: g/s falls from
    -a > 0, with the root near -3a.
    """
    if not (math.isfinite(a) and math.isfinite(beta)):
        raise ValueError(f"non-finite arc parameters a={a}, beta={beta}")
    if beta > 0.0:
        def f_df(s: float) -> tuple[float, float]:
            g, g1, _ = reduced_arc(s, a, beta)
            return g, g1
    elif beta >= -GRAZING_TOL * max(1.0, abs(1.0 + beta)) and a < 0.0:
        beta = 0.0

        def f_df(s: float) -> tuple[float, float]:
            g, g1, _ = reduced_arc(s, a, 0.0)
            g_s = g / s
            return g_s, (g1 - g_s) / s
    else:
        raise ValueError(
            f"arc parameters a={a}, beta={beta} do not describe a reflection "
            "(need beta > 0, or beta = 0 with a < 0)")
    res = hybrid_root(f_df, 0.0, math.pi, abs_tol=0.0,
                      x0=small_root_guess(1.0 / 3.0, a, beta),
                      rel_tol=ROOT_REL_TOL, positive_lo=True)
    return res.root


def solve_tstar() -> float:
    """Smallest positive solution of t = tan t, on the branch (pi, 3pi/2).

    Solved in product form sin t - t cos t = 0; the value bounds the
    parameter range of the full-stop initial conditions.
    """

    def f_df(t: float) -> tuple[float, float]:
        sn = math.sin(t)
        cs = math.cos(t)
        return sn - t * cs, t * sn

    res = hybrid_root(f_df, math.pi + 1e-3, 1.5 * math.pi - 1e-3,
                      abs_tol=1e-15)
    return res.root


T_STAR = solve_tstar()


class FirstImpact(NamedTuple):
    t: float
    r: float
    kind: str


def first_impact(ff: FreeFlight) -> FirstImpact:
    """Earliest contact of a free flight with the rod, in closed form.

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
    the root of phi, solved by Newton steps on the monotone bracket with a
    relative stop.  A piece whose end (a stationary point of phi) lies
    within GRAZING_TOL of the rod ends in a tangency there: a grazing
    touch, or at a double root of the quadratic the cubic tangency of a
    full stop.  The last piece falls below 0 by t = arg z0 + atan2(L, c)
    (L > 0) or t = arg z0 (L < 0).  With L = 0 the line runs through the
    pivot (or v0 = 0): phi = arg z0 - t until the ball reaches the pivot,
    an unsupported hit with r = 0.

    Returns (t, r, kind), kind from ``classify_impact`` on the contact
    velocity.
    """
    from .impact_map import classify_impact

    z0, v0 = ff.z, ff.v
    if z0.imag < 0.0:
        raise ValueError(f"initial position {z0!r} lies below the rod")
    if (z0.imag <= GRAZING_TOL * (1.0 + abs(z0) + abs(v0))
            and (v0 - 1j * z0).imag <= 0.0):
        raise ValueError(
            "initial state sits on the rod without departing from it")

    def hit(t: float, negative_side: bool = False) -> FirstImpact:
        r = abs(z0 + v0 * t)
        if negative_side:
            raise UnsupportedFirstImpact(t, -r)
        return FirstImpact(t, r, classify_impact(r, flight_velocity(ff, t)))

    if z0 == 0:
        return hit(math.atan2(v0.imag, v0.real))  # leaving the pivot
    theta0 = math.atan2(abs(z0.imag), z0.real)  # abs: -0.0 is on the rod
    n0 = z0.real * z0.real + z0.imag * z0.imag
    p = z0.conjugate() * v0
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
    w = v0.real * v0.real + v0.imag * v0.imag
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
            return hit(b, rising)  # a tangency
        if short < 0.0:
            break
        a = b
    else:
        # the last piece falls below 0 by the asymptotic angle of the line
        b, rising, target = theta0 + max(0.0, math.atan2(L, c)), False, 0.0

    def phi_dphi(t: float) -> tuple[float, float]:
        x = z0.real + v0.real * t
        y = z0.imag + v0.imag * t
        return phi(t) - target, L / (x * x + y * y) - 1.0

    res = hybrid_root(phi_dphi, a, b, abs_tol=ROOT_REL_TOL,
                      rel_tol=ROOT_REL_TOL, positive_lo=not rising)
    return hit(res.root, rising)
