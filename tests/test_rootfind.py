import math
import random
import time
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rodbilliard import (ContractViolation, SimConfig, T_STAR,
                         UnsupportedFirstImpact, first_impact, hybrid_root,
                         rootfind, simulate, solve_delta, solve_tstar)
from conftest import (GRAZING_V0, GRAZING_Z0, delta_root, in_start_window,
                      make_grazing_start, series_start, stopping_set_point,
                      ulps_off, window_arc)


def F(s, a, b):
    return b * s * math.cos(s) - (1.0 + a * s) * math.sin(s)


def test_hybrid_root_polynomial():
    res = hybrid_root(lambda x: (2.0 - x ** 3, -3 * x ** 2), 1.0, 2.0,
                      positive_lo=True)
    assert abs(res.root - 2.0 ** (1 / 3)) < 1e-14


def test_hybrid_root_collapsed_bracket_returns_midpoint():
    # with f' = 0 no Newton step is taken: bisection from the midpoint of
    # (0, 3) never hits the root 1, and returns the midpoint of the first
    # bracket narrower than 2 abs_tol
    res = hybrid_root(lambda x: (1.0 - x, 0.0), 0.0, 3.0, abs_tol=1e-6,
                      positive_lo=True)
    assert abs(res.root - 1.0) < 1e-6
    assert res.iterations == math.ceil(math.log2(3.0 / 2e-6))


def test_delta_tan_equals_2s():
    # tan s = 2s, smallest positive root
    d = solve_delta(0.0, 1.0)
    assert abs(d - 1.1655611852072113) < 1e-12


def test_delta_grazing_example():
    d = solve_delta(-0.1, 0.0)
    assert abs(d - 0.2982167973949602) < 1e-12


def test_delta_grazing_leading_order():
    # quadratic lobe gives delta ~ -3a for small |a|
    a = -1e-3
    assert abs(solve_delta(a, 0.0) / (-3 * a) - 1.0) < 1e-4


def test_delta_large_b_approaches_half_pi():
    assert abs(solve_delta(0.0, 999.0) - math.pi / 2) < 2e-3


def test_delta_residual_bound():
    for a, b in [(0.0, 2.0), (-0.1, 1.0), (3.0, 1.01), (-2.0, 4.0),
                 (0.494395184719431, 2.574655216336433)]:
        d = solve_delta(a, b - 1.0)
        assert abs(F(d, a, b)) <= 10 * 1e-13 * (1 + abs(a) + b)


def test_delta_quotient_form_agreement():
    # away from the tangent pole both writings of the equation agree
    for a, b in [(0.0, 2.0), (-0.5, 1.2), (1.0, 3.0)]:
        d = solve_delta(a, b - 1.0)
        if abs(d - math.pi / 2) < 0.1:
            continue
        assert abs(d / math.tan(d) - (1 + a * d) / b) <= 1e-10 * (1 + abs(a))


def test_delta_unique_sign_change():
    for a, b in [(0.0, 2.0), (-0.1, 1.0), (2.0, 1.5), (-2.0, 3.0)]:
        lo, hi = 1e-9, math.pi - 1e-9
        flips = 0
        prev = F(lo, a, b)
        for k in range(1, 10**4 + 1):
            cur = F(lo + (hi - lo) * k / 10**4, a, b)
            if (cur > 0) != (prev > 0):
                flips += 1
            prev = cur
        assert flips == 1


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(1.0001, 5.0))
def test_delta_contract_random(a, b):
    d = solve_delta(a, b - 1.0)
    assert 0.0 < d < math.pi
    assert abs(F(d, a, b)) <= 10 * 1e-13 * (1 + abs(a) + b)
    for k in range(1, 200):
        assert F(d * k / 200, a, b) > 0.0


def reversion_coefficients(a, order):
    """c_1..c_order of the root s = sum c_k beta^k of
    g(s) = beta cos s - a sin s - (sin s/s - cos s) = 0, exactly.

    Power series in beta are lists of Fractions truncated after beta^order;
    each pass of s <- (beta cos s - a (sin s - s) - k(s))/a fixes one more
    coefficient, since the terms after beta are O(s^2)."""
    def mul(x, y):
        z = [Fraction(0)] * (order + 1)
        for i, xi in enumerate(x):
            for j in range(order + 1 - i):
                z[i + j] += xi * y[j]
        return z

    # Taylor coefficients of cos s, sin s - s and k(s) = sin s/s - cos s
    coef = {"cos": [], "sin": [], "k": []}
    for m in range(order + 1):
        sign, even = (-1) ** (m // 2), m % 2 == 0
        coef["cos"].append(Fraction(sign, math.factorial(m)) if even else 0)
        coef["sin"].append(0 if even or m == 1 else
                           Fraction(sign, math.factorial(m)))
        coef["k"].append(Fraction(-sign * m, math.factorial(m + 1))
                         if even and m else 0)
    s = [Fraction(0)] * (order + 1)
    for _ in range(order):
        powers = [[Fraction(1)] + [Fraction(0)] * order]
        for _ in range(order):
            powers.append(mul(powers[-1], s))
        series = {name: [sum(c * p[i] for c, p in zip(cs, powers))
                         for i in range(order + 1)] for name, cs in coef.items()}
        beta_cos = [Fraction(0)] + series["cos"][:order]
        s = [(bc - a * sn - k) / a for bc, sn, k in
             zip(beta_cos, series["sin"], series["k"])]
    return s[1:]


def test_reversion_coefficients_rederived():
    # Q_k(a^2) = c_k a^(2k - 1) for the table in rootfind, at rational a
    # (a polynomial of degree <= 3 in u is fixed by four of the five);
    # the first omitted term, Q_8 w^7, is below 0.1 ulp inside the box
    q8 = ((-25025, 121275, -172395, 63657), 127575)
    for a in (Fraction(1), Fraction(3, 4), Fraction(2, 3), Fraction(5, 9),
              Fraction(7, 3)):
        c = reversion_coefficients(a, 8)
        u = a * a
        for k, (cs, d) in enumerate(rootfind.REVERSION_Q + (q8,), start=1):
            q = sum(Fraction(ci, d) * u ** i for i, ci in enumerate(cs))
            assert c[k - 1] * a ** (2 * k - 1) == q, (a, k)
    w7 = Fraction(rootfind.REVERSION_W_MAX) ** 7
    for j in range(101):
        u = Fraction(1, 4) + Fraction(3, 400) * j  # a in [0.5, 1]
        q = sum(Fraction(ci, q8[1]) * u ** i for i, ci in enumerate(q8[0]))
        assert abs(q) * w7 < Fraction(1, 10) * Fraction(1, 2 ** 53)


def test_newton_delta_matches_mpmath_over_seeded_arcs():
    # 6000 seeded arcs: transversal with a of either sign, grazing, roots
    # past SERIES_MAX and roots within 1e-3 of pi (a -> -inf).  Every root
    # is in (0, pi) after at most 10 evaluations, and within 2 ulps of a
    # 40-digit root, or 3.5 on grazing arcs (their G = g s/sin s carries
    # about 3 ulps of rounding noise at small roots)
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(14)
    arcs = []
    for _ in range(1500):
        arcs.append((rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-12, 2)))
        arcs.append((-(10.0 ** rng.uniform(-9, 1)), 0.0))
        arcs.append((-(10.0 ** rng.uniform(0, 5)), 10.0 ** rng.uniform(-6, 3)))
        arcs.append((rng.uniform(-0.5, 1.5), rng.uniform(0.0, 4.0) or 1.0))
    roots = []
    for a, beta in arcs:
        delta, evaluations = rootfind.newton_delta(a, beta)
        assert 0.0 < delta < math.pi and evaluations <= 10, (a, beta)
        ref = delta_root(mpmath.mp, a, beta, delta)
        assert ulps_off(delta, ref) <= (3.5 if beta == 0.0 else 2.0), (a, beta)
        roots.append(delta)
    assert sum(beta == 0.0 for _, beta in arcs) == 1500
    assert sum(a < 0.0 for a, _ in arcs) > 3000
    assert sum(d > rootfind.SERIES_MAX for d in roots) > 1000
    assert sum(d > math.pi - 1e-3 for d in roots) > 100


def test_newton_delta_from_the_series_matches_mpmath():
    # in the start window (0.5 < a <= 1, W_MAX < w <= START_W_MAX) solve_delta
    # runs Newton from the reversion series: within 1.5 ulps of a 40-digit
    # root after at most 3 evaluations, on 6400 seeded arcs, a quarter of
    # them on the window's edges w = W_MAX + ulps, w = START_W_MAX,
    # a = nextafter(0.5, 1) and a = 1
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(22)
    w_lo, w_hi = rootfind.REVERSION_W_MAX, rootfind.START_W_MAX
    a_lo = math.nextafter(rootfind.REVERSION_A_MIN, 1.0)
    arcs = []
    for _ in range(400):
        a, w = rng.uniform(a_lo, 1.0), rng.uniform(w_lo, w_hi)
        arcs += [window_arc(a, w_lo), window_arc(a, w_hi),
                 window_arc(a_lo, w), window_arc(1.0, w)]
        for _ in range(6):
            arcs.append(window_arc(rng.uniform(a_lo, 1.0),
                                   rng.uniform(w_lo, w_hi)))
            arcs.append(window_arc(rng.uniform(a_lo, 1.0),
                                   w_lo * (w_hi / w_lo) ** rng.random()))
    assert len(arcs) == 6400
    for a, beta in arcs:
        assert in_start_window(a, beta)
        delta, evaluations = rootfind.newton_delta(a, beta,
                                                   series_start(a, beta))
        assert solve_delta(a, beta) == delta, (a, beta)
        assert evaluations <= 3, (a, beta)
        ref = delta_root(mpmath.mp, a, beta, delta)
        assert ulps_off(delta, ref) <= 1.5, (a, beta)
    assert sum(beta / (a * a) < w_lo * (1.0 + 1e-15) for a, beta in arcs) >= 400
    assert sum(beta / (a * a) == w_hi for a, beta in arcs) >= 400
    assert sum(a == a_lo for a, _ in arcs) >= 400
    assert sum(a == 1.0 for a, _ in arcs) >= 400


def test_newton_delta_on_extreme_arcs():
    # 60,010 seeded arcs far outside any orbit: |a| and beta log-uniform in
    # [1e-300, 1e300], a of either sign, grazing arcs, and ten named ones.
    # Huge arcs are scaled, tiny roots do not underflow in the stop, and
    # roots in [math.pi, pi) stay at math.pi.  Every arc has a root in
    # (0, pi] after at most 10 evaluations, the smallest positive float
    # where the root underflows (beta/a below about 5e-324: 2142 arcs);
    # the bracketed solve took up to 200 on these arcs, 49 near pi, and
    # raised on 4344 of them
    rng = random.Random(36)
    arcs = [(1.18e145, 1.31e177), (-2.7e-151, 0.0), (-1e205, 1.0),
            (-1e20, 1.0), (-1e16, 1.0), (-1e300, 0.0), (1e300, 1e300),
            (-1e300, 1e300), (1e-300, 1e300), (1e300, 1e-10)]
    for _ in range(20000):
        arcs.append((10.0 ** rng.uniform(-300, 300),
                     10.0 ** rng.uniform(-300, 300)))
        arcs.append((-(10.0 ** rng.uniform(-300, 300)),
                     10.0 ** rng.uniform(-300, 300)))
        arcs.append((-(10.0 ** rng.uniform(-300, 300)), 0.0))
    assert len(arcs) == 60_010
    for a, beta in arcs:
        delta, evaluations = rootfind.newton_delta(a, beta)
        assert 0.0 < delta <= math.pi and evaluations <= 10, (a, beta)
    # delta = pi - 2.0e-20, whose nearest float is math.pi
    assert rootfind.newton_delta(-1e20, 1.0)[0] == math.pi


def tiny_delta_root(mp, a, beta, guess):
    """Root of G(s) = beta - a s - b c(s) to 40 digits, by Newton steps
    from a float root below 1e-8, with c = 1 - s cot s summed to s^8 (the
    next term is below 1e-80 of c there)."""
    with mp.workdps(40):
        a, beta, s = mp.mpf(a), mp.mpf(beta), mp.mpf(guess)
        b, coef = 1 + beta, [4 ** n * abs(mp.bernoulli(2 * n))
                             / mp.factorial(2 * n) for n in range(1, 5)]
        for _ in range(4):
            g = beta - a * s - b * sum(q * s ** (2 * n + 2)
                                       for n, q in enumerate(coef))
            g1 = -a - b * sum((2 * n + 2) * q * s ** (2 * n + 1)
                              for n, q in enumerate(coef))
            s -= g / g1
        return s


def test_newton_delta_on_tiny_roots():
    # below 2^-27 the root of b s^2/3 + a s = beta is delta to an ulp (the
    # dropped b s^4/45 moves it by s^2/15 relative, s^2/30 for a > 0), and
    # newton_delta forms it without squaring a: grazing roots 3|a| once
    # came out 1.5|a| below a = -1e-162 and lost digits to 1e-155
    mpmath = pytest.importorskip("mpmath")
    arcs = [(-(10.0 ** -e), 0.0) for e in range(100, 301, 4)]
    arcs += [(-1e-160, 0.0), (-2.7e-151, 0.0), (-1e-300, 1e-300),
             (1.0, 1e-10), (1e-3, 1e-12), (0.0, 1e-20), (1e-200, 1e-250),
             (0.5, 1e-300), (-1e-12, 1e-20), (2.0, 1e-17),
             (0.0, 1e-320), (1e-300, 3e-321)]  # beta subnormal, root not
    for a, beta in arcs:
        delta, _ = rootfind.newton_delta(a, beta)
        assert delta < 1e-9, (a, beta)
        ref = tiny_delta_root(mpmath.mp, a, beta, delta)
        assert ulps_off(delta, ref) <= 1.0, (a, beta)
    assert rootfind.newton_delta(-1e-200, 0.0)[0] == 3e-200


def test_newton_delta_on_underflowing_roots():
    # a root below the smallest positive float is returned as that float,
    # so cascade, and solve_delta through it, report the arc's radius
    # failing to grow rather than dividing by zero
    for a, beta in ((1e300, 1e-300), (1e10, 1e-320), (2.0, 5e-324)):
        assert rootfind.newton_delta(a, beta)[0] == 5e-324
        with pytest.raises(ContractViolation, match="radius failed to grow"):
            solve_delta(a, beta)


def test_delta_preconditions():
    with pytest.raises(ValueError):
        solve_delta(0.5, -0.2)
    with pytest.raises(ValueError):
        solve_delta(0.5, 0.0)       # grazing needs a < 0
    with pytest.raises(ValueError):
        solve_delta(-0.5, -1e-17)   # grazing is beta = 0 exactly
    with pytest.raises(ValueError):
        solve_delta(math.nan, 1.0)


def test_tstar_value_and_residual():
    t = solve_tstar()
    assert abs(t - 4.49341) < 5e-6
    assert abs(t - 4.493409457909064) < 1e-12
    assert abs(math.tan(t) - t) < 1e-9
    assert math.pi < t < 1.5 * math.pi
    assert T_STAR == t


def test_tstar_runtime_under_1ms():
    solve_tstar()  # warm
    t0 = time.perf_counter()
    solve_tstar()
    assert time.perf_counter() - t0 < 1e-3


def test_first_impact_worked_example():
    hit = first_impact(1j, 1 + 0j)
    assert abs(hit.t - 0.8603335890193798) < 1e-12
    assert abs(hit.r - 1.3191565048905179) < 1e-12
    assert hit.kind == "transversal"


def test_first_impact_pure_rotation():
    hit = first_impact(1j, 0j)
    assert abs(hit.t - math.pi / 2) < 1e-12
    assert abs(hit.r - 1.0) < 1e-12
    assert hit.kind == "transversal"


def test_first_impact_full_stop_point():
    z0, v0 = stopping_set_point(1.0, 1.0)
    hit = first_impact(z0, v0)
    assert abs(hit.t - 1.0) < 1e-9
    assert abs(hit.r - 1.0) < 1e-9
    assert hit.kind == "degenerate"


def test_first_impact_grazing_touch():
    hit = first_impact(GRAZING_Z0, GRAZING_V0)
    assert abs(hit.t - 1.2) < 1e-7
    assert abs(hit.r - 1.0) < 1e-7
    assert hit.kind == "grazing"


@pytest.mark.parametrize("r,a,t1", [
    (1.0, -0.4, 1.20037), (0.5, -0.05, 0.30041), (3.0, -1.5, 1.50053),
    (2.0, -0.8, 0.70047), (1.3, -0.2, 1.00061)])
def test_first_impact_detects_constructed_tangencies(r, a, t1):
    # h touches zero without a sign change; the contact is the local
    # minimum of the flight's angle, within GRAZING_TOL of the rod
    from rodbilliard import flight_position
    z0, v0 = make_grazing_start(r, a, t1)
    assert min(flight_position(z0, v0, t1 * k / 100).imag
               for k in range(1, 100)) > 0.0  # touch is the first contact
    hit = first_impact(z0, v0)
    assert abs(hit.t - t1) < 1e-7
    assert abs(hit.r - r) < 1e-6 * r
    assert hit.kind == "grazing"


def test_first_impact_grid_aligned_tangency_window():
    # with the touch at a round time, rounding decides whether the
    # computed arc grazes or micro-crosses; either answer must stay inside
    # the sqrt(eps) tangency window
    from rodbilliard import flight_velocity
    z0, v0 = make_grazing_start(2.0, -0.8, 0.7)
    hit = first_impact(z0, v0)
    assert abs(hit.t - 0.7) < 1e-6
    assert abs(hit.r - 2.0) < 1e-6
    assert hit.kind in ("grazing", "transversal")
    zdot = flight_velocity(z0, v0, hit.t)
    assert abs(zdot.imag) < 1e-7 * abs(zdot)


def test_first_impact_negative_axis_unsupported():
    with pytest.raises(UnsupportedFirstImpact) as exc:
        first_impact(1j, complex(-1, -10))
    assert abs(exc.value.t - 0.101024) < 1e-4
    assert exc.value.r < 0


def test_first_impact_through_pivot_unsupported():
    with pytest.raises(UnsupportedFirstImpact) as exc:
        first_impact(1j, -2j)
    assert abs(exc.value.t - 0.5) < 1e-9
    assert abs(exc.value.r) < 1e-9


@pytest.mark.parametrize("z0, v0, t", [
    (-1 + 0j, 1e154 - 1e-300j, 1.0 / 1e154),
    (-1 + 0j, 1e150 - 1e-290j, 1.0 / 1e150),
    (-1.0166074831982432 + 0.0020083660328568697j,
     2.8360919129177287 - 0.005602861240057683j, 0.3584536448088429),
])
def test_first_impact_at_the_pivot_through_rounding(z0, v0, t):
    # lines that pass just beside the pivot (L != 0), whose radius
    # |z0 + v0 t| at the contact t rounds to 0: an unsupported hit there,
    # where classify_impact would reject the radius.  In the first two L
    # underflows to 0 once the pair is scaled, and the collinear branch
    # raises; the third keeps L != 0 and raises from the hit itself
    with pytest.raises(UnsupportedFirstImpact) as exc:
        first_impact(z0, v0)
    assert (exc.value.t, exc.value.r) == (t, 0.0)
    assert simulate(z0, v0).termination == "unsupported_first_impact"


@pytest.mark.parametrize("k", [515, 520, 1000])
def test_orbit_scaled_past_the_square_overflow(k):
    # the reference orbit scaled by 2^k, where |z0|^2 overflows (formed
    # directly, it puts the contact at pi/4).  The contact's angle is
    # scale-free, so the contact is the unit orbit's, and every column but
    # r is the same
    scale = 2.0 ** k
    unit = simulate(1j, 1, SimConfig(n_max=50))
    record = simulate(scale * 1j, scale, SimConfig(n_max=50))
    assert record.r == array("d", (scale * r for r in unit.r))
    assert (record.t, record.a, record.beta, record.delta) == (
        unit.t, unit.a, unit.beta, unit.delta)
    assert record.first_zdot_in == scale * unit.first_zdot_in


def test_first_impact_far_above_the_rod():
    # the reference orbit scaled by 1e155, not a power of two: its first
    # contact keeps the unit orbit's time
    hit = first_impact(1e155j, 1e155)
    assert hit.t == 0.8603335890193797
    assert hit.r == pytest.approx(1e155 * 1.3191565048905178, rel=4e-16)
    # |z0|^2 = 1e600 overflows (formed directly, it leaves the root search
    # a bracket of [inf, inf]); the ball falls 1.57 from height 1e300 and
    # meets the rod a quarter turn later
    hit = first_impact(-1 + 1e300j, -1j)
    assert (hit.t, hit.r, hit.kind) == (math.pi / 2, 1e300, "transversal")
    record = simulate(-1 + 1e300j, -1j, SimConfig(n_max=3))
    assert (record.termination, record.t[0], record.r[0]) == (
        "reached_n_max", math.pi / 2, 1e300)


def test_first_impact_departure_from_rod():
    # on the rod at t = 0 but moving upward: the start is not a contact
    z0 = 1 + 0j
    v0 = 2.5j  # rotating-frame velocity v0 - i z0 = 1.5j points up
    hit = first_impact(z0, v0)
    assert hit.t > 0.0
    assert hit.r > 0.0


def test_first_impact_inside_first_scan_step():
    # a start just above the rod hits before one scan step has elapsed
    hit = first_impact(complex(1.0, 1e-5), 0j)
    assert 0.0 < hit.t < 1e-3
    assert abs(hit.r - 1.0) < 1e-9
    assert hit.kind == "transversal"


def test_first_impact_preconditions():
    with pytest.raises(ValueError):
        first_impact(complex(0, -1), 0j)
    with pytest.raises(ValueError):
        first_impact(1 + 0j, 0j)  # on the rod, not departing
    with pytest.raises(ValueError, match="z must have finite components"):
        first_impact(complex(math.nan, 1.0), 1 + 0j)
    with pytest.raises(ValueError, match="v must have finite components"):
        first_impact(1j, complex(1.0, math.inf))
