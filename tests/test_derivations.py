"""The closed forms behind ``rootfind.newton_delta``,
``impact_map.segment_max_height`` and the kernels of the impact map,
derived in sympy.

Each identity their docstrings state is proved symbolically, and the
Taylor tables of ``rootfind`` and ``impact_map`` are rebuilt from the
series and compared with the floats in the modules, so a wrong
coefficient there fails here.  The curvature behind each start of
``rootfind.monotone_newton`` (the first contact, the arc peak and t*) is
derived too, and the starts the modules pass are checked against it.
"""

import cmath
import math
import random

import pytest

from rodbilliard import (SimConfig, UnsupportedFirstImpact, impact_map,
                         rootfind, simulate)

sp = pytest.importorskip("sympy")
s, x = sp.symbols("s x", positive=True)
a, beta = sp.symbols("a beta", real=True)
b = 1 + beta
k = sp.sin(s) / s - sp.cos(s)          # reduced_arc's gap kernel
c = 1 - s * sp.cot(s)
TERMS = 9                               # _K0 .. _K8


def taylor(expr, n_terms):
    """The first n_terms coefficients of expr in s^2, from s^0."""
    poly = sp.series(expr, s, 0, 2 * n_terms).removeO()
    return [poly.coeff(s, 2 * n) for n in range(n_terms)]


def test_k_table_is_the_taylor_series_of_k():
    # k/s^2 = sum (-1)^n 2(n+1)/(2n+3)! s^(2n), and _Kn is that rational
    # rounded to the nearest float
    coefficients = taylor(sp.expand(k / s**2), TERMS)
    table = [getattr(rootfind, f"_K{n}") for n in range(TERMS)]
    for n, (coefficient, value) in enumerate(zip(coefficients, table)):
        assert coefficient == sp.Integer(-1)**n * 2 * (n + 1) / sp.factorial(
            2 * n + 3), n
        assert value == float(coefficient), n


def test_c_is_s_k_over_sin_with_positive_coefficients():
    # c = 1 - s cot s = s k/sin s = sum 2^(2n) |B_2n| s^(2n)/(2n)!, every
    # coefficient positive: G = beta - a s - b c is concave on (0, pi)
    assert sp.simplify(s * k / sp.sin(s) - c) == 0
    coefficients = taylor(c, TERMS + 1)
    assert coefficients[0] == 0
    for n in range(1, TERMS + 1):
        formula = 2**(2 * n) * abs(sp.bernoulli(2 * n)) / sp.factorial(2 * n)
        assert coefficients[n] == formula and formula > 0, n


def test_g_form_and_derivatives_of_c():
    # G = g s/sin s with g = beta cos s - a sin s - k; c' = s - c(1 - c)/s
    # and c'' = 2c/sin^2 s, which give G' and the stop's K
    g = beta * sp.cos(s) - a * sp.sin(s) - k
    G = beta - a * s - b * c
    assert sp.simplify(g * s / sp.sin(s) - G) == 0
    assert sp.simplify(sp.diff(c, s) - (s - c * (1 - c) / s)) == 0
    assert sp.simplify(sp.diff(c, s, 2) - 2 * c / sp.sin(s)**2) == 0


def test_default_starts_lie_right_of_the_root():
    # c - s^2/3 has non-negative coefficients, so G <= beta - a s - b s^2/3
    # and the root of b s^2/3 + a s = beta is right of delta
    coefficients = taylor(c, TERMS + 1)
    assert coefficients[1] == sp.Rational(1, 3)
    assert all(q >= 0 for q in coefficients[2:])
    # c = 2 sum zeta(2n) x^n with x = (s/pi)^2, and zeta(2n) >= 1, so
    # c >= 2x/(1 - x) = 2 s^2/(pi^2 - s^2) >= s^2/(pi (pi - s)) on (0, pi)
    for n in range(1, TERMS + 1):
        term = coefficients[n] * s**(2 * n)
        zeta = sp.zeta(2 * n)
        assert sp.simplify(term - 2 * zeta * (s / sp.pi)**(2 * n)) == 0
        assert zeta > 1
    geometric = 2 * x / (1 - x)
    assert sp.simplify(sp.series(geometric, x, 0, 6).removeO()
                       - 2 * sum(x**n for n in range(1, 6))) == 0
    gap = sp.factor(geometric.subs(x, (s / sp.pi)**2)
                    - s**2 / (sp.pi * (sp.pi - s)))
    assert sp.simplify(gap - s**2 / (sp.pi * (sp.pi + s))) == 0
    # so G <= beta - a s - b s^2/(pi (pi - s)), which vanishes where
    # (b - a pi) s^2 + pi (beta + a pi) s = pi^2 beta
    bound = (beta - a * s) * sp.pi * (sp.pi - s) - b * s**2
    quadratic = (b - a * sp.pi) * s**2 + sp.pi * (beta + a * sp.pi) * s \
        - sp.pi**2 * beta
    assert sp.expand(bound + quadratic) == 0


def test_arc_peak_is_where_the_velocity_turns_horizontal():
    # the arc z = r (1 + a s + i b s) e^{-is} has z' = r V e^{-is} with
    # V = a + b s + i(beta - a s), so h' = Im z' = r |V| sin(arg V - s),
    # and (arg V)' = Im(conj(V) V')/|V|^2 = -(a^2 + b beta)/|V|^2
    r = sp.symbols("r", positive=True)
    re_v, im_v = a + b * s, beta - a * s
    v = re_v + sp.I * im_v
    z = r * (1 + a * s + sp.I * b * s) * sp.exp(-sp.I * s)
    assert sp.simplify(sp.diff(z, s) - r * v * sp.exp(-sp.I * s)) == 0
    height = sp.im(sp.expand_complex(z))
    arc = b * s * sp.cos(s) - (1 + a * s) * sp.sin(s)    # s g of reduced_arc
    assert sp.simplify(height - r * arc) == 0
    slope = sp.diff(height, s) / r
    assert sp.simplify(slope - (im_v * sp.cos(s) - re_v * sp.sin(s))) == 0
    rho, theta = sp.symbols("rho theta", real=True)
    polar = rho * sp.exp(sp.I * theta)
    assert sp.simplify(sp.im(sp.expand_complex(polar * sp.exp(-sp.I * s)))
                       - rho * sp.sin(theta - s)) == 0
    speed2 = sp.expand(re_v**2 + im_v**2)
    turn = sp.im(sp.expand_complex(sp.conjugate(v) * sp.diff(v, s)))
    assert sp.simplify(sp.diff(sp.atan2(im_v, re_v), s) - turn / speed2) == 0
    assert sp.expand(turn + a**2 + b * beta) == 0


P_TERMS, M_TERMS = 11, 12               # _P0 .. _P10, _M0 .. _M11
p_kernel = 1 - (sp.sin(s) / s)**2       # recurrence_kernels' closed forms
m_kernel = (s - sp.sin(s) * sp.cos(s)) / s**3


def test_p_and_m_tables_are_the_taylor_series_of_p_and_m():
    # p/s^2 = sum (-1)^n 2^(2n+3)/(2n+4)! s^(2n) and
    # m = sum (-1)^n 4^(n+1)/(2n+3)! s^(2n), the series of the closed forms
    # that recurrence_kernels takes from SERIES_MAX up; _Pn and _Mn are
    # those rationals rounded to the nearest float
    for kernel, prefix, n_terms, formula in (
            (sp.expand(p_kernel / s**2), "_P", P_TERMS,
             lambda n: sp.Integer(-1)**n * 2**(2 * n + 3)
             / sp.factorial(2 * n + 4)),
            (m_kernel, "_M", M_TERMS,
             lambda n: sp.Integer(-1)**n * 4**(n + 1)
             / sp.factorial(2 * n + 3))):
        coefficients = taylor(kernel, n_terms)
        table = [getattr(impact_map, f"{prefix}{n}") for n in range(n_terms)]
        for n, (coefficient, value) in enumerate(zip(coefficients, table)):
            assert coefficient == formula(n), (prefix, n)
            assert value == float(coefficient), (prefix, n)


def test_second_forms_of_the_map_equal_the_first():
    # a' = 1/delta - cos sin/(b delta^2) = (beta/delta + delta m)/b and
    # beta' = 1 - (sin/delta)^2/b = (beta + p)/b, with p and m the kernels
    a_next = 1 / s - sp.cos(s) * sp.sin(s) / (b * s**2)
    beta_next = 1 - (sp.sin(s) / s)**2 / b
    assert sp.simplify(a_next - (beta / s + s * m_kernel) / b) == 0
    assert sp.simplify(beta_next - (beta + p_kernel) / b) == 0


def spy_starts(monkeypatch, module):
    """Record (f_df, start) of every ``monotone_newton`` call from module."""
    calls = []
    solve = rootfind.monotone_newton

    def spy(f_df, x):
        calls.append((f_df, x))
        return solve(f_df, x)

    monkeypatch.setattr(module, "monotone_newton", spy)
    return calls


def test_first_contact_start_side(monkeypatch):
    # first_impact's docstring: conj(z0) u = |z0|^2 + (c + iL) t gives
    # phi = arg z0 + atan2(L t, |z0|^2 + c t) - t with phi' = L/|u|^2 - 1,
    # and phi'' = -2L(c + w t)/|u|^4 changes sign once, at t_m = -c/w,
    # where |u|^2 is least: the midpoint of the breakpoints t1 <= t2
    t = sp.symbols("t", real=True)
    zr, zi, vr, vi = sp.symbols("z_r z_i v_r v_i", real=True)
    z0, v0 = zr + sp.I * zi, vr + sp.I * vi
    u = z0 + v0 * t
    cl = sp.expand(sp.conjugate(z0) * v0)
    c, L = sp.re(cl), sp.im(cl)
    w = vr**2 + vi**2
    u2 = sp.expand(sp.re(u)**2 + sp.im(u)**2)
    assert sp.expand(sp.conjugate(z0) * u
                     - (zr**2 + zi**2 + (c + sp.I * L) * t)) == 0
    slope = sp.diff(sp.atan2(sp.im(u), sp.re(u)) - t, t)
    assert sp.simplify(slope - (L / u2 - 1)) == 0
    curvature = -2 * L * (c + w * t) / u2**2
    assert sp.simplify(sp.diff(L / u2, t) - curvature) == 0
    t_m = -c / w
    assert sp.simplify(sp.diff(u2, t).subs(t, t_m)) == 0
    t1, t2 = sp.solve(sp.Eq(u2, L), t)
    assert sp.simplify(t1 + t2 - 2 * t_m) == 0
    # so Newton starts at t_m, or where (phi - target) phi'' > 0, never at
    # a breakpoint (phi' = 0); the sign of phi'' is that of -L(c + w t)
    side = sp.lambdify((zr, zi, vr, vi, t), -L * (c + w * t))
    calls = spy_starts(monkeypatch, rootfind)
    rng = random.Random(18)
    for _ in range(400):
        start = (complex(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 5.0)),
                 cmath.rect(rng.uniform(0.0, 5.0), rng.uniform(-4.0, 4.0)))
        try:
            rootfind.first_impact(*start)
        except UnsupportedFirstImpact:
            pass
        (f_df, x), = calls
        calls.clear()
        (zr0, zi0), (vr0, vi0) = ((z.real, z.imag) for z in start)
        f, df = f_df(x)
        assert df != 0.0, start
        if x != -(zr0 * vr0 + zi0 * vi0) / (vr0 * vr0 + vi0 * vi0):
            assert f * side(zr0, zi0, vr0, vi0, x) > 0.0, start


def test_arc_peak_start_side(monkeypatch):
    # segment_max_height's docstring: psi = arg V - s has
    # psi' = -(a^2 + b beta)/|V|^2 - 1 and
    # psi'' = 2(a^2 + b beta)(a + (a^2 + b^2)s)/|V|^4, one sign change at
    # s_i = -a/(a^2 + b^2), none on s > 0 for a >= 0 (a^2 + b beta > 0 on
    # every arc); h'/r = beta - 2as - (1 + 3 beta/2)s^2 + (2a/3)s^3 + O(s^4)
    speed2 = (a + b * s)**2 + (beta - a * s)**2
    curvature = 2 * (a**2 + b * beta) * (a + (a**2 + b**2) * s) / speed2**2
    assert sp.simplify(sp.diff(-(a**2 + b * beta) / speed2, s)
                       - curvature) == 0
    s_i = -a / (a**2 + b**2)
    assert sp.simplify(curvature.subs(s, s_i)) == 0
    slope = (beta - a * s) * sp.cos(s) - (a + b * s) * sp.sin(s)
    assert sp.expand(sp.series(slope, s, 0, 4).removeO() - (
        beta - 2 * a * s - (1 + 3 * beta / 2) * s**2 + 2 * a * s**3 / 3)) == 0
    # so Newton starts at s_i for a < 0, and for a >= 0 left of the peak
    # (psi > 0, where psi is convex) at the root of the quadratic part
    side = sp.lambdify((a, beta, s), curvature)
    calls = spy_starts(monkeypatch, impact_map)
    rng = random.Random(18)
    arcs = [(-rng.uniform(1e-6, 2.0), rng.choice((0.0, rng.uniform(0, 2))))
            for _ in range(100)]
    for z0 in (1j, 0.5 + 2j, -1.0 + 0.3j):
        record = simulate(z0, 1.0 - 0.5j, SimConfig(n_max=100))
        arcs += zip(record.a, record.beta)
    for a0, beta0 in arcs:
        impact_map.segment_max_height(1.0, a0, beta0)
        (f_df, x), = calls
        calls.clear()
        if a0 < 0.0:
            assert x == pytest.approx(-a0 / (a0**2 + (1 + beta0)**2),
                                      rel=1e-15), (a0, beta0)
        else:
            assert f_df(x)[0] > 0.0 and side(a0, beta0, x) >= 0.0, (a0, beta0)


def test_tstar_start_side(monkeypatch):
    # solve_tstar's docstring: f = sin t - t cos t has f' = t sin t and
    # f'' = sin t + t cos t, both < 0 on (pi, 3pi/2), where sin and cos
    # range over [-1, 0] and never vanish together; f(3pi/2) = -1, so Newton
    # from 3pi/2 starts where f f'' > 0
    from sympy.calculus.util import function_range
    t = sp.symbols("t", positive=True)
    f = sp.sin(t) - t * sp.cos(t)
    assert sp.diff(f, t) == t * sp.sin(t)
    curvature = sp.diff(f, t, 2)
    assert sp.expand(curvature - (sp.sin(t) + t * sp.cos(t))) == 0
    span = sp.Interval(sp.pi, 3 * sp.pi / 2)
    for trig in (sp.sin(t), sp.cos(t)):
        assert function_range(trig, t, span) == sp.Interval(-1, 0)
    assert f.subs(t, 3 * sp.pi / 2) == -1
    calls = spy_starts(monkeypatch, rootfind)
    assert rootfind.solve_tstar() == rootfind.T_STAR
    (f_df, x), = calls
    values = sp.lambdify(t, (f, sp.diff(f, t), curvature))
    assert math.pi < x <= 1.5 * math.pi
    fx, dfx, ddfx = values(x)
    assert fx * ddfx > 0.0 and dfx < 0.0
    for y in (x, 3.5, 4.0, 4.4934):
        assert f_df(y) == pytest.approx(values(y)[:2], rel=1e-15, abs=1e-15)
