"""The closed forms behind ``rootfind.newton_delta``,
``impact_map.segment_max_height`` and the kernels of the impact map,
derived in sympy.

Each identity their docstrings state is proved symbolically, and the
Taylor tables of ``rootfind`` and ``impact_map`` are rebuilt from the
series and compared with the floats in the modules, so a wrong
coefficient there fails here.
"""

import pytest

from rodbilliard import impact_map, rootfind

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
