import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from rodbilliard import (FreeFlight, RootFindError, T_STAR,
                         UnsupportedFirstImpact, first_impact, hybrid_root,
                         solve_delta, solve_tstar)
from conftest import (GRAZING_V0, GRAZING_Z0, make_grazing_start,
                      stopping_set_point)


def F(s, a, b):
    return b * s * math.cos(s) - (1.0 + a * s) * math.sin(s)


def test_hybrid_root_polynomial():
    res = hybrid_root(lambda x: (2.0 - x ** 3, -3 * x ** 2), 1.0, 2.0)
    assert abs(res.root - 2.0 ** (1 / 3)) < 1e-14
    assert res.bracketed


def test_hybrid_root_needs_sign_change():
    with pytest.raises(RootFindError):
        hybrid_root(lambda x: (1.0 + x * x, 2 * x), -1.0, 1.0)


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


def test_delta_preconditions():
    with pytest.raises(ValueError):
        solve_delta(0.5, -0.2)
    with pytest.raises(ValueError):
        solve_delta(0.5, 0.0)       # grazing needs a < 0
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
    hit = first_impact(FreeFlight(1j, 1 + 0j))
    assert abs(hit.t - 0.8603335890193798) < 1e-12
    assert abs(hit.r - 1.3191565048905179) < 1e-12
    assert hit.kind == "transversal"


def test_first_impact_pure_rotation():
    hit = first_impact(FreeFlight(1j, 0j))
    assert abs(hit.t - math.pi / 2) < 1e-12
    assert abs(hit.r - 1.0) < 1e-12
    assert hit.kind == "transversal"


def test_first_impact_full_stop_point():
    z0, v0 = stopping_set_point(1.0, 1.0)
    hit = first_impact(FreeFlight(z0, v0))
    assert abs(hit.t - 1.0) < 1e-9
    assert abs(hit.r - 1.0) < 1e-9
    assert hit.kind == "degenerate"


def test_first_impact_grazing_touch():
    hit = first_impact(FreeFlight(GRAZING_Z0, GRAZING_V0))
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
    ff = FreeFlight(z0, v0)
    assert min(flight_position(ff, t1 * k / 100).imag
               for k in range(1, 100)) > 0.0  # touch is the first contact
    hit = first_impact(ff)
    assert abs(hit.t - t1) < 1e-7
    assert abs(hit.r - r) < 1e-6 * r
    assert hit.kind == "grazing"


def test_first_impact_grid_aligned_tangency_window():
    # with the touch at a round time, rounding decides whether the
    # computed arc grazes or micro-crosses; either answer must stay inside
    # the sqrt(eps) tangency window
    from rodbilliard import flight_velocity
    z0, v0 = make_grazing_start(2.0, -0.8, 0.7)
    hit = first_impact(FreeFlight(z0, v0))
    assert abs(hit.t - 0.7) < 1e-6
    assert abs(hit.r - 2.0) < 1e-6
    assert hit.kind in ("grazing", "transversal")
    zdot = flight_velocity(FreeFlight(z0, v0), hit.t)
    assert abs(zdot.imag) < 1e-7 * abs(zdot)


def test_first_impact_negative_axis_unsupported():
    with pytest.raises(UnsupportedFirstImpact) as exc:
        first_impact(FreeFlight(1j, complex(-1, -10)))
    assert abs(exc.value.t - 0.101024) < 1e-4
    assert exc.value.r < 0


def test_first_impact_through_pivot_unsupported():
    with pytest.raises(UnsupportedFirstImpact) as exc:
        first_impact(FreeFlight(1j, -2j))
    assert abs(exc.value.t - 0.5) < 1e-9
    assert abs(exc.value.r) < 1e-9


def test_first_impact_departure_from_rod():
    # on the rod at t = 0 but moving upward: the start is not a contact
    z0 = 1 + 0j
    v0 = 2.5j  # rotating-frame velocity v0 - i z0 = 1.5j points up
    hit = first_impact(FreeFlight(z0, v0))
    assert hit.t > 0.0
    assert hit.r > 0.0


def test_first_impact_inside_first_scan_step():
    # a start just above the rod hits before one scan step has elapsed
    hit = first_impact(FreeFlight(complex(1.0, 1e-5), 0j))
    assert 0.0 < hit.t < 1e-3
    assert abs(hit.r - 1.0) < 1e-9
    assert hit.kind == "transversal"


def test_first_impact_preconditions():
    with pytest.raises(ValueError):
        first_impact(FreeFlight(complex(0, -1), 0j))
    with pytest.raises(ValueError):
        first_impact(FreeFlight(1 + 0j, 0j))  # on the rod, not departing
