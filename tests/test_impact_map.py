import math

import pytest
from hypothesis import example, given, settings, strategies as st

from rodbilliard import (ContractViolation, DegenerateImpact, MapState,
                         T_STAR, classify_impact, in_degenerate_set,
                         incoming_to_map_state, recurrence,
                         segment_max_height, solve_delta, step,
                         unit_rotation)
from conftest import recurrence_direct

# frozen from a 50-digit computation of the (a=0, b=2) step
DELTA_02 = 1.1655611852072113
NEXT_R = 2.5365589892305987
NEXT_A = 0.7246113537767085
NEXT_B = 1.6891577366451644
OUT_RE = 1.8380194431208634
OUT_IM = -1.7480892518851055
HEIGHT_02 = 0.4297378205183161


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


def test_classify_examples():
    assert classify_impact(1.0, complex(0.5, -1.0)) == "transversal"
    assert classify_impact(1.0, complex(-0.5, 0.0)) == "grazing"
    assert classify_impact(1.0, 0j) == "degenerate"
    with pytest.raises(ContractViolation):
        classify_impact(1.0, complex(0.5, 0.2))
    with pytest.raises(ContractViolation):
        classify_impact(1.0, complex(0.5, 0.0))  # tangential but not receding
    with pytest.raises(ValueError):
        classify_impact(-1.0, complex(0.5, -1.0))


def test_incoming_state_simple():
    ms = incoming_to_map_state(1.0, -1j)
    assert (ms.a, ms.b, ms.n) == (0.0, 2.0, 1)


def test_incoming_state_worked_example():
    ms = incoming_to_map_state(1.3191565048905179,
                               complex(0.6521846239091868, -2.0772166715899908))
    assert abs(ms.a - 0.4943951847194312) < 1e-12
    assert abs(ms.b - 2.5746552163364326) < 1e-12


def test_incoming_state_grazing():
    ms = incoming_to_map_state(2.0, complex(-1.0, 0.0))
    assert (ms.a, ms.b) == (-0.5, 1.0)


def test_incoming_state_errors():
    with pytest.raises(DegenerateImpact):
        incoming_to_map_state(1.0, complex(1e-12, -1e-12))
    with pytest.raises(ContractViolation):
        incoming_to_map_state(1.0, complex(0.5, 1.0))  # moving away from rod
    with pytest.raises(ContractViolation):
        incoming_to_map_state(1.0, complex(1.0, 0.0))  # grazing needs a < 0


def test_step_worked_example():
    delta, nxt, height = step(MapState(r=1.0, a=0.0, beta=1.0, n=1))
    assert abs(delta - DELTA_02) < 1e-12
    assert abs(nxt.r - NEXT_R) <= 1e-12 * NEXT_R
    assert abs(nxt.a - NEXT_A) <= 1e-12
    assert abs(nxt.b - NEXT_B) <= 1e-12
    assert nxt.n == 2
    assert abs(height - HEIGHT_02) <= 1e-12


def test_height_against_brute_scan():
    ms = MapState(r=1.0, a=0.0, beta=1.0, n=1)
    refined = segment_max_height(ms, DELTA_02)
    brute = max(
        ms.r * (ms.b * s * math.cos(s) - (1 + ms.a * s) * math.sin(s))
        for s in (DELTA_02 * i / 10**6 for i in range(10**6 + 1)))
    assert brute <= refined  # grid max cannot beat the refined max
    assert abs(refined - brute) <= 1e-12 * refined


def test_height_grazing_start_is_second_order():
    # b = 1: the arc leaves the rod tangentially, Im f ~ -a s^2
    ms = MapState(r=1.0, a=-0.4, beta=0.0, n=1)
    for s in (1e-4, 1e-3, 1e-2):
        h = ms.r * (ms.b * s * math.cos(s) - (1 + ms.a * s) * math.sin(s))
        assert abs(h / (-ms.a * s * s) - 1.0) < 0.02


def test_small_delta_limits():
    # r'/r -> b and b' -> 2 - 1/b as delta -> 0
    for b in (1.2, 1.7, 1.99):
        a_next, beta_next, dos = recurrence(1e-9, b - 1.0)
        assert abs(b * dos - b) <= 1e-12 * b
        assert abs(beta_next - (1.0 - 1.0 / b)) <= 1e-12


def test_map_converges_to_fixed_point():
    a, beta = 0.0, 1.0
    delta = None
    for _ in range(20000):
        delta = solve_delta(a, beta)
        a, beta, _ = recurrence(delta, beta)
    assert abs(a - 1.0) < 1e-3
    assert abs(beta) < 1e-3


def test_outgoing_worked_example():
    ms = MapState(r=1.0, a=0.0, beta=1.0, n=1)
    re_out, im_out = outgoing_components(ms, DELTA_02)
    assert abs(re_out - OUT_RE) < 1e-12
    assert abs(im_out - OUT_IM) < 1e-12


def test_outgoing_small_delta_grazing_taylor():
    # for b = 1 the incoming vertical velocity shrinks like -r delta^2 / 3
    ms = MapState(r=2.0, a=-1.0, beta=0.0, n=1)
    delta = 1e-3
    _, im_out = outgoing_components(ms, delta)
    assert abs(im_out / (-ms.r * delta ** 2 / 3.0) - 1.0) < 1e-2


@settings(max_examples=150, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(1.001, 4.0))
def test_outgoing_sign_contract(a, b):
    ms = MapState(r=1.0, a=a, beta=b - 1.0, n=2)
    delta = solve_delta(a, b - 1.0)
    re_out, im_out = outgoing_components(ms, delta)
    assert re_out > 0.0
    assert im_out < 0.0


@settings(max_examples=150, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(1.001, 4.0))
@example(1.8540892419442159, 1.001)  # off by 1.8e-10 with an absolute root stop
def test_reciprocal_identity(a, b):
    # 1/a' = delta + 1/(a + b tan delta), valid below the tangent pole
    delta, nxt, _ = step(MapState(r=1.0, a=a, beta=b - 1.0, n=1))
    if delta >= math.pi / 2 - 1e-3:
        return
    lhs = 1.0 / nxt.a
    rhs = delta + 1.0 / (a + b * math.tan(delta))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@settings(max_examples=150, deadline=None)
@given(st.floats(0.01, 2.0), st.floats(1.001, 4.0))
def test_a_recurrence_via_b_elimination(a, b):
    # eliminating b through the return-time equation turns the a-map into
    # a cos^2(d)/(1 + a d) + sin^2(d)/d, an independent route to the same
    # value that never touches b
    delta, nxt, _ = step(MapState(r=1.0, a=a, beta=b - 1.0, n=1))
    cd, sd = math.cos(delta), math.sin(delta)
    alt = a * cd * cd / (1.0 + a * delta) + sd * sd / delta
    assert abs(alt - nxt.a) <= 1e-10 * max(1.0, abs(nxt.a))


@settings(max_examples=150, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(1.001, 4.0))
def test_iter_forms_agree(a, b):
    # the quotient form of a' equals the subtractive closed form
    delta = solve_delta(a, b - 1.0)
    if delta < 1e-4:
        return
    sd, cd = math.sin(delta), math.cos(delta)
    quotient = ((a * cd + b * sd)
                / ((1 + a * delta) * cd + b * delta * sd))
    a_next, _, _ = recurrence_direct(delta, b - 1.0)
    assert abs(quotient - a_next) <= 1e-11 * max(1.0, abs(a_next))


@settings(max_examples=150, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(1.001, 4.0))
def test_outgoing_feeds_back_into_next_state(a, b):
    ms = MapState(r=1.0, a=a, beta=b - 1.0, n=1)
    delta, nxt, _ = step(ms)
    re_out, im_out = outgoing_components(ms, delta)
    ms2 = incoming_to_map_state(nxt.r, complex(re_out, im_out), n=nxt.n)
    assert abs(ms2.a - nxt.a) <= 1e-11 * max(1.0, abs(nxt.a))
    assert abs(ms2.b - nxt.b) <= 1e-11 * nxt.b


def test_series_matches_direct_across_switch():
    # log-spaced deltas spanning the switch region, several b values
    deltas = [1.1e-4 * (1e-2 / 1.1e-4) ** (k / 40) for k in range(41)]
    for beta in (0.2, 0.5, 0.9):
        for d in deltas:
            a_s, beta_s, dos_s = recurrence(d, beta)
            a_d, beta_d, dos_d = recurrence_direct(d, beta)
            assert abs(a_s - a_d) <= 1e-12 * abs(a_d)
            assert abs(beta_s - beta_d) <= 1e-12 * abs(beta_d)
            assert abs(dos_s - dos_d) <= 1e-12 * dos_d


def test_strict_radius_growth_along_orbit():
    ms = MapState(r=1.0, a=0.0, beta=1.0, n=1)
    prev_delta = math.inf
    for _ in range(200):
        delta, nxt, height = step(ms)
        assert nxt.r > ms.r
        assert delta < prev_delta
        assert height > 0.0
        prev_delta, ms = delta, nxt


def test_box_invariant_along_orbit():
    ms = MapState(r=1.3191565048905179, a=0.4943951847194312,
                  beta=2.5746552163364326 - 1.0, n=1)
    for _ in range(300):
        delta, nxt, _ = step(ms)
        ms = nxt
        # box for n >= 2: 1 < b < 2, 0 < a < 1/delta, (1 + a delta)/b < 1
        d_next = solve_delta(ms.a, ms.beta)
        assert 1.0 < ms.b < 2.0
        assert 0.0 < ms.a < 1.0 / d_next
        assert (1.0 + ms.a * d_next) / ms.b < 1.0


def test_degenerate_set_member_by_construction():
    z0 = (1 - 1j) * unit_rotation(1.0)
    zdot0 = -unit_rotation(1.0)
    member, r, tau = in_degenerate_set(z0, zdot0)
    assert member
    assert abs(r - 1.0) < 1e-12
    assert abs(tau - 1.0) < 1e-12


def test_degenerate_set_rejects_vertical_ratio():
    member, _, _ = in_degenerate_set(1j, 1 + 0j)
    assert not member


def test_degenerate_set_rejects_tau_past_tstar():
    tau = 4.6
    assert tau > T_STAR
    rot = unit_rotation(tau)
    member, _, _ = in_degenerate_set((1 - 1j * tau) * rot, -tau * rot)
    assert not member


def test_degenerate_set_zero_velocity_not_member():
    member, _, _ = in_degenerate_set(1j, 0j)
    assert not member


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.05, 4.44))
def test_degenerate_set_roundtrip(r, tau):
    rot = unit_rotation(tau)
    z0 = r * complex(1.0, -tau) * rot
    zdot0 = -r * tau * rot
    member, r_got, tau_got = in_degenerate_set(z0, zdot0)
    assert member
    assert abs(r_got - r) <= 1e-9 * r
    assert abs(tau_got - tau) <= 1e-9 * tau
    off, _, _ = in_degenerate_set(z0 * (1 + 1e-3), zdot0)
    assert not off
