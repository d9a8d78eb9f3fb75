"""Safeguarded scalar root finding for the impact-time equations.

Three solvers live here: the generic bracketed Newton/bisection hybrid,
the return-time equation b s cos s = (1 + a s) sin s for an arc leaving
the rod (in the reduced form shared with the arc-height solve), and the
first-contact event detector for an arbitrary free flight.  Newton steps
accelerate a sign-change bracket; any step that leaves the bracket falls
back to bisection, so convergence is guaranteed for continuous functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .core import BilliardError, DEFAULT_CONFIG, SimConfig
from .flight import FreeFlight, flight_position, flight_velocity


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
                abs_tol: float = 1e-13,
                max_iters: int = 200, *,
                x0: float | None = None,
                rel_tol: float = 0.0,
                positive_lo: bool | None = None) -> RootResult:
    """Root of f in [lo, hi] given a sign change, with Newton acceleration.

    ``f_df(x)`` returns (f(x), f'(x)).  Iteration starts at ``x0`` (the
    midpoint when it is absent or outside (lo, hi)).  A Newton step is
    taken whenever it stays strictly inside the current bracket and
    shrinks it at least as fast as bisection would; otherwise the
    midpoint is used.  Terminates when the step or the bracket falls below
    ``abs_tol + rel_tol * |x|``.

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
    for it in range(1, max_iters + 1):
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
        f"no convergence after {max_iters} iterations on [{lo}, {hi}]")


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


def solve_delta(a: float, beta: float, cfg: SimConfig | None = None) -> float:
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
    cfg = cfg or DEFAULT_CONFIG
    if not (math.isfinite(a) and math.isfinite(beta)):
        raise ValueError(f"non-finite arc parameters a={a}, beta={beta}")
    if beta > 0.0:
        def f_df(s: float) -> tuple[float, float]:
            g, g1, _ = reduced_arc(s, a, beta)
            return g, g1
    elif beta >= -cfg.grazing_tol * max(1.0, abs(1.0 + beta)) and a < 0.0:
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
                      max_iters=cfg.max_bisect_iters,
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
                      abs_tol=1e-15, max_iters=200)
    return res.root


T_STAR = solve_tstar()


class FirstImpact(NamedTuple):
    t: float
    r: float
    kind: str


def first_impact(ff: FreeFlight, cfg: SimConfig | None = None,
                 window: float = 2.0 * math.pi + 0.1) -> FirstImpact:
    """Earliest contact of a free flight with the rod.

    Scans h(t) = Im z(t) over (0, window] with step cfg.scan_step and
    refines every candidate with the safeguarded solver.  The rod sweeps
    every ray within one half-turn, so a contact always exists; the
    default window gives that argument generous slack.  Two candidate
    types:

    * sign changes of h (transversal crossings, and the cubic tangency of
      a full stop, which also changes sign);
    * local minima of h below a step-squared threshold (quadratic
      tangencies, i.e. grazing contacts, where h touches zero without a
      sign change).  The minimum is polished via h' = 0; if it turns out
      to dip below zero the left crossing of the hidden pair is used.

    Returns (t, r, kind).  Raises UnsupportedFirstImpact when the contact
    radius is not strictly positive.
    """
    from .impact_map import classify_impact

    cfg = cfg or DEFAULT_CONFIG

    def h_dh(t: float) -> tuple[float, float]:
        return flight_position(ff, t).imag, flight_velocity(ff, t).imag

    def ddh(t: float) -> float:
        # second derivative of h: Im of (-2iv - (z + vt)) e^{-it}
        u = ff.z + ff.v * t
        return ((-2j * ff.v - u) * complex(math.cos(t), -math.sin(t))).imag

    scale0 = 1.0 + abs(ff.z) + abs(ff.v)
    h0 = ff.z.imag
    if h0 < 0.0:
        raise ValueError(f"initial position {ff.z!r} lies below the rod")
    step = cfg.scan_step
    t_prev2 = h_prev2 = None
    if h0 <= cfg.grazing_tol * scale0:
        zdot0 = ff.v - 1j * ff.z
        if zdot0.imag <= 0.0:
            raise ValueError(
                "initial state sits on the rod without departing from it")
        t_begin = 10.0 * step  # lift-off guard past the departure
        t_prev = h_prev = None
    else:
        t_begin = step
        t_prev, h_prev = 0.0, h0  # so a crossing inside the first step counts

    n_steps = int(math.ceil((window - t_begin) / step)) + 1
    # a local minimum of h qualifies as a tangency candidate below this
    # (scale * curvature * step^2 covers the sampling error of a touch)
    def cand_tol(t: float) -> float:
        scale = 1.0 + abs(ff.z) + abs(ff.v) * t
        return scale * (cfg.grazing_tol + 4.0 * step * step)

    def refine_crossing(lo: float, hi: float) -> float:
        return hybrid_root(h_dh, lo, hi, abs_tol=cfg.root_abs_tol,
                           max_iters=cfg.max_bisect_iters).root

    def finish(t_hit: float) -> FirstImpact:
        r = flight_position(ff, t_hit).real
        if r <= 0.0:
            raise UnsupportedFirstImpact(t_hit, r)
        kind = classify_impact(r, flight_velocity(ff, t_hit), cfg)
        return FirstImpact(t_hit, r, kind)

    for k in range(n_steps + 1):
        t = t_begin + k * step
        ht = h_dh(t)[0]
        if h_prev is not None:
            if h_prev > 0.0 and ht <= 0.0:
                if ht == 0.0:
                    return finish(t)
                return finish(refine_crossing(t_prev, t))
            if h_prev == 0.0 and ht < 0.0:
                return finish(t_prev)  # an earlier sample sat on the rod
            if (h_prev2 is not None and h_prev2 >= h_prev and h_prev < ht
                    and h_prev <= cand_tol(t_prev)):
                scale = 1.0 + abs(ff.z) + abs(ff.v) * t_prev
                hit = _refine_tangency(h_dh, ddh, t_prev2, t, cfg, scale)
                if hit is not None:
                    return finish(hit)
        t_prev2, h_prev2 = t_prev, h_prev
        t_prev, h_prev = t, ht
    raise BilliardError(
        "no rod contact inside one full turn; this contradicts the sweep "
        f"argument (z0={ff.z!r}, v0={ff.v!r})")


def _refine_tangency(h_dh, ddh, lo: float, hi: float, cfg: SimConfig,
                     scale: float) -> float | None:
    """Polish a tangency candidate; returns the contact time or None.

    The local minimum of h is located via h' = 0 (h' changes sign from
    negative to positive across it).  A minimum within tolerance of zero
    is a tangential contact; a strictly negative one hides a crossing
    pair, and the left crossing is the impact.
    """
    def dh_ddh(t: float) -> tuple[float, float]:
        return h_dh(t)[1], ddh(t)

    if dh_ddh(lo)[0] >= 0.0 or dh_ddh(hi)[0] <= 0.0:
        return None  # not a bracketed minimum; sampling artifact
    t_min = hybrid_root(dh_ddh, lo, hi, abs_tol=cfg.root_abs_tol,
                        max_iters=cfg.max_bisect_iters).root
    h_min = h_dh(t_min)[0]
    if abs(h_min) <= cfg.grazing_tol * scale:
        return t_min
    if h_min < 0.0:
        return hybrid_root(h_dh, lo, t_min, abs_tol=cfg.root_abs_tol,
                           max_iters=cfg.max_bisect_iters).root
    return None
