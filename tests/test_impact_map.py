import math
import random
import re
from array import array
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from rodbilliard import (DEGENERATE, ContractViolation, SimConfig, T_STAR,
                         classify_impact, impact_map, in_degenerate_set,
                         segment_max_height, simulate, solve_delta, step,
                         unit_rotation)
from rodbilliard.impact_map import (REVERSION_A_MAX, REVERSION_A_MIN,
                                    REVERSION_W_MAX, SERIES_MAX, START_W_MAX,
                                    cascade)
from rodbilliard.rootfind import small_root_guess
from conftest import (box_state, cascade_impact, in_reversion_box,
                      in_start_window, outside_box_arcs,
                      random_supported_starts, recurrence, recurrence_direct,
                      reference_solve_delta, reference_step, window_arc)

# frozen from a 50-digit computation of the (a=0, b=2) step
DELTA_02 = 1.1655611852072113
NEXT_R = 2.5365589892305987
NEXT_A = 0.7246113537767085
NEXT_B = 1.6891577366451644
OUT_RE = 1.8380194431208634
OUT_IM = -1.7480892518851055
HEIGHT_02 = 0.4297378205183161


def outgoing_components(r: float, beta: float,
                        delta: float) -> tuple[float, float]:
    """Velocity components when the arc returns to the rod.

    Re = r (b/sin d - cos d/d) > 0 and Im = r (sin d/d - b d/sin d) < 0
    for every admissible arc; delta must be the return time of the arc
    leaving radius r with b = 1 + beta.  The same velocity is
    r' (a' - i beta') in terms of the next arc; this closed form is the
    independent check of that identity.
    """
    sd = math.sin(delta)
    cd = math.cos(delta)
    b = 1.0 + beta
    re_out = r * (b / sd - cd / delta)
    im_out = r * (sd / delta - b * delta / sd)
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


def test_step_worked_example():
    delta, r, a, beta = step(1.0, 0.0, 1.0)
    height = segment_max_height(1.0, 0.0, 1.0)
    assert abs(delta - DELTA_02) < 1e-12
    assert abs(r - NEXT_R) <= 1e-12 * NEXT_R
    assert abs(a - NEXT_A) <= 1e-12
    assert abs(1.0 + beta - NEXT_B) <= 1e-12
    assert abs(height - HEIGHT_02) <= 1e-12


@pytest.mark.parametrize("r,a,beta", [
    (-1.0, 0.0, 1.0), (0.0, 0.0, 1.0), (math.inf, 0.0, 1.0),
    (1.0, math.nan, 1.0), (1.0, 0.0, math.inf)])
def test_height_rejects_inadmissible_arc(r, a, beta):
    with pytest.raises(ValueError):
        segment_max_height(r, a, beta)


def test_height_where_the_velocity_underflows():
    # the grazing arc a = -1e-300, with the reference's delta (its radius
    # does not grow, so cascade raises): at Newton's start s = 1e-300,
    # Re V = a + b s is 0 and Im V = -a s underflows, so |V| and
    # h' = r |V| sin psi are 0 there; the peak, about 4e-900, rounds to 0.0
    # (dividing by |V| raised ZeroDivisionError)
    a = -1e-300
    delta = reference_solve_delta(a, 0.0)[0]
    assert delta == 3e-300
    height = segment_max_height(1.0, a, 0.0)
    assert height == 0.0 and math.copysign(1.0, height) == 1.0


def test_height_against_brute_scan():
    r, a, b = 1.0, 0.0, 2.0
    refined = segment_max_height(r, a, b - 1.0)
    brute = max(
        r * (b * s * math.cos(s) - (1 + a * s) * math.sin(s))
        for s in (DELTA_02 * i / 10**6 for i in range(10**6 + 1)))
    assert brute <= refined  # grid max cannot beat the refined max
    assert abs(refined - brute) <= 1e-12 * refined


def test_height_grazing_start_is_second_order():
    # b = 1: the arc leaves the rod tangentially, Im f ~ -a s^2
    r, a, b = 1.0, -0.4, 1.0
    for s in (1e-4, 1e-3, 1e-2):
        h = r * (b * s * math.cos(s) - (1 + a * s) * math.sin(s))
        assert abs(h / (-a * s * s) - 1.0) < 0.02


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
    re_out, im_out = outgoing_components(1.0, 1.0, DELTA_02)
    assert abs(re_out - OUT_RE) < 1e-12
    assert abs(im_out - OUT_IM) < 1e-12


def test_outgoing_small_delta_grazing_taylor():
    # for b = 1 the incoming vertical velocity shrinks like -r delta^2 / 3
    r = 2.0
    delta = 1e-3
    _, im_out = outgoing_components(r, 0.0, delta)
    assert abs(im_out / (-r * delta ** 2 / 3.0) - 1.0) < 1e-2


@settings(max_examples=150, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(1.001, 4.0))
def test_outgoing_sign_contract(a, b):
    delta = solve_delta(a, b - 1.0)
    re_out, im_out = outgoing_components(1.0, b - 1.0, delta)
    assert re_out > 0.0
    assert im_out < 0.0


@settings(max_examples=150, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(1.001, 4.0))
@example(1.8540892419442159, 1.001)  # off by 1.8e-10 with an absolute root stop
def test_reciprocal_identity(a, b):
    # 1/a' = delta + 1/(a + b tan delta), valid below the tangent pole
    delta, _, a_next, _ = step(1.0, a, b - 1.0)
    if delta >= math.pi / 2 - 1e-3:
        return
    lhs = 1.0 / a_next
    rhs = delta + 1.0 / (a + b * math.tan(delta))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@settings(max_examples=150, deadline=None)
@given(st.floats(0.01, 2.0), st.floats(1.001, 4.0))
def test_a_recurrence_via_b_elimination(a, b):
    # eliminating b through the return-time equation turns the a-map into
    # a cos^2(d)/(1 + a d) + sin^2(d)/d, an independent route to the same
    # value that never touches b
    delta, _, a_next, _ = step(1.0, a, b - 1.0)
    cd, sd = math.cos(delta), math.sin(delta)
    alt = a * cd * cd / (1.0 + a * delta) + sd * sd / delta
    assert abs(alt - a_next) <= 1e-10 * max(1.0, abs(a_next))


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
    delta, r_next, a_next, beta_next = step(1.0, a, b - 1.0)
    re_out, im_out = outgoing_components(1.0, b - 1.0, delta)
    # the next arc from the returning velocity, as simulate starts its
    # first arc
    assert classify_impact(r_next, complex(re_out, im_out)) != DEGENERATE
    a2, b2 = re_out / r_next, 1.0 + max(-im_out / r_next, 0.0)
    assert abs(a2 - a_next) <= 1e-11 * max(1.0, abs(a_next))
    assert abs(b2 - (1.0 + beta_next)) <= 1e-11 * (1.0 + beta_next)


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
    r, a, beta = 1.0, 0.0, 1.0
    prev_delta = math.inf
    for _ in range(200):
        delta, r_next, a_next, beta_next = step(r, a, beta)
        height = segment_max_height(r, a, beta)
        assert r_next > r
        assert delta < prev_delta
        assert height > 0.0
        prev_delta, r, a, beta = delta, r_next, a_next, beta_next


def test_box_invariant_along_orbit():
    r, a = 1.3191565048905179, 0.4943951847194312
    beta = 2.5746552163364326 - 1.0
    for _ in range(300):
        _, r, a, beta = step(r, a, beta)
        # box for n >= 2: 1 < b < 2, 0 < a < 1/delta, (1 + a delta)/b < 1
        b = 1.0 + beta
        d_next = solve_delta(a, beta)
        assert 1.0 < b < 2.0
        assert 0.0 < a < 1.0 / d_next
        assert (1.0 + a * d_next) / b < 1.0


def test_cascade_impact_is_step():
    # seeded arcs over the reversion box, r from 1 to 1e6 and w = beta/a^2
    # down to 1e-9, plus its edges a = nextafter(0.5, 1), a = 1 and
    # w = REVERSION_W_MAX; the last row leaves the box by an ulp of a.
    # Then arcs one ulp outside each edge (a = 0.5, a = nextafter(1, 2),
    # the first beta above w = REVERSION_W_MAX), and as many arcs outside
    # the box, of each kind of ``outside_box_arcs``.  ``step``, one impact
    # of cascade, must equal the reference as well
    rng = random.Random(1818)
    edges = (math.nextafter(REVERSION_A_MIN, 1.0), REVERSION_A_MAX)
    arcs = [box_state(a, w) for a in edges
            for w in (REVERSION_W_MAX, 1e-3, 1e-6, 1e-9)]
    arcs += [box_state(rng.uniform(REVERSION_A_MIN, REVERSION_A_MAX),
                       REVERSION_W_MAX) for _ in range(100)]
    while len(arcs) < 12_000:
        a = rng.uniform(REVERSION_A_MIN, REVERSION_A_MAX)
        if a > REVERSION_A_MIN:
            arcs.append(box_state(a, REVERSION_W_MAX * 10.0 ** rng.uniform(
                -7.0, 0.0)))
    arcs.append((1.0, 1e-6))
    beyond_rng = random.Random(2828)
    beyond = [(a, w * a * a)
              for a in (REVERSION_A_MIN, math.nextafter(REVERSION_A_MAX, 2.0))
              for w in [REVERSION_W_MAX, 1e-3, 1e-6, 1e-9] + [
                  REVERSION_W_MAX * 10.0 ** beyond_rng.uniform(-7.0, 0.0)
                  for _ in range(50)]]
    for a in edges + (0.75,):
        beta = box_state(a, REVERSION_W_MAX)[1]
        while in_reversion_box(a, beta):
            beta = math.nextafter(beta, 1.0)
        beyond.append((a, beta))
    assert (1.0, math.nextafter(REVERSION_W_MAX, 1.0)) in beyond
    assert not any(in_reversion_box(a, beta) for a, beta in beyond)
    outside = outside_box_arcs(2020, 2_400)
    assert not any(in_reversion_box(a, beta) for a, beta in outside)
    deltas = []
    for a, beta in arcs + beyond + outside:
        r = 10.0 ** rng.uniform(0.0, 6.0)
        stepped = reference_step(r, a, beta)
        assert cascade_impact(r, a, beta) == stepped, (r, a, beta)
        assert step(r, a, beta) == stepped, (r, a, beta)
        deltas.append(stepped[0])
    assert not in_reversion_box(*reference_step(1.0, 1.0, 1e-6)[2:])
    # both sides of the head's switch at 0.01 and of SERIES_MAX, outside
    outside_deltas = deltas[-len(outside):]
    assert min(outside_deltas) < 0.01 <= SERIES_MAX <= max(outside_deltas)
    # cascade sums p and m in a branch of its own in each band: thousands
    # of arcs in each (3552, 2849 and 5599)
    assert sum(d < 0.01 for d in outside_deltas) >= 3_000
    assert sum(0.01 <= d < SERIES_MAX for d in outside_deltas) >= 2_000
    assert sum(d >= SERIES_MAX for d in outside_deltas) >= 2_000


def test_cascade_delta_is_the_reference_newton():
    # cascade's delta equals conftest's newton_delta, started as the
    # reference decides, bit for bit over seeded arcs that reach every
    # branch of the solve: the box series, the window's series start, the
    # default start for a <= 0.5, a > 1 and w > START_W_MAX, the start for
    # a quadratic root >= 3, grazing arcs, the return of math.pi, roots
    # below 2^-27 (no evaluation), the 5e-324 floor and arcs with |a| or
    # beta >= 2^500, solved scaled by 2^-k.  Where the radius check
    # raises, delta is read from its message
    rng = random.Random(4401)
    w_lo, w_hi = REVERSION_W_MAX, START_W_MAX

    def log(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    arcs = [(-1e20, 1.0), (2.0, 5e-324), (1e300, 1e300), (-1e300, 0.0)]
    for _ in range(2_000):
        a = math.nextafter(rng.uniform(REVERSION_A_MIN, REVERSION_A_MAX), 1.0)
        arcs += [box_state(a, w_lo * log(-6.0, 0.0)),
                 window_arc(a, w_lo * (w_hi / w_lo) ** rng.random()),
                 (a, w_hi * a * a * log(0.01, 3.0)),
                 (rng.uniform(-3.0, REVERSION_A_MIN), log(-12.0, 2.0)),
                 (log(0.01, 5.0), log(-12.0, 3.0)),
                 (-log(0.0, 5.0), log(-6.0, 3.0)),
                 (-log(-300.0, 2.0), 0.0),
                 (rng.choice((-1.0, 1.0)) * log(-300.0, 300.0),
                  log(-300.0, 300.0))]
    kinds = Counter()
    for a, beta in arcs:
        delta, evaluations = reference_solve_delta(a, beta)
        try:
            shipped = solve_delta(a, beta)
        except ContractViolation as error:
            kinds["radius check"] += 1
            shipped = float(re.search(r"delta=(.*)\)$", str(error)).group(1))
        assert shipped == delta, (a, beta)
        scaled = max(abs(a), beta) >= 2.0 ** 500
        kinds["box"] += in_reversion_box(a, beta)
        kinds["window"] += in_start_window(a, beta)
        kinds["w > START_W_MAX"] += (REVERSION_A_MIN < a <= REVERSION_A_MAX
                                     and beta / (a * a) > w_hi)
        kinds["a <= 0.5"] += a <= REVERSION_A_MIN and evaluations > 0
        kinds["a > 1"] += a > REVERSION_A_MAX and evaluations > 0
        kinds["start >= 3"] += not scaled and small_root_guess(
            (1.0 + beta) / 3.0, a, beta) >= 3.0
        kinds["grazing"] += beta == 0.0
        kinds["pi"] += delta == math.pi
        kinds["below 2^-27"] += evaluations == 0 and not in_reversion_box(
            a, beta)
        kinds["5e-324"] += delta == 5e-324
        kinds["scaled"] += scaled
    assert min(kinds.values()) >= 50 and len(kinds) == 12, kinds


def test_cascade_runs_on_past_the_box_exit():
    # step(1, 1, 1e-6) gives a' = 1 + 2.2e-16, out of the box, and the
    # fifth impact brings a back to 1: the loop goes on through both
    ts, rs, as_, betas, deltas = cascade(0.0, 1.0, 1.0, 1e-6, 5, math.inf)
    assert [in_reversion_box(a, beta) for a, beta in zip(as_, betas)] == [
        True, False, False, False, False, True]
    assert as_[1] == math.nextafter(1.0, 2.0)
    r, a, beta = 1.0, 1.0, 1e-6
    for k in range(5):
        delta, r, a, beta = reference_step(r, a, beta)
        assert (deltas[k], rs[k + 1], as_[k + 1], betas[k + 1]) == (
            delta, r, a, beta)
    assert ts[-1] == math.fsum(deltas)


def test_cascade_sin_cos_per_arc_and_per_evaluation(counting_math):
    # an arc costs cascade one sin, shared by r' and the closed forms of p
    # and m, and one cos where delta >= SERIES_MAX; outside the box each
    # Newton evaluation adds a sin and a cos, as many as the reference
    # solve takes, and a root below 2^-27 from the default start takes a
    # hypot and two sqrt instead.  No other math call (p and m have no
    # function of their own in the package: test_imports.py).  Over the
    # outside arcs of outside_box_arcs, one impact each, and over the
    # first 25 impacts of seeded starts, the transient a generic start runs
    arcs, deltas = [], array("d")
    for a, beta in outside_box_arcs(4242, 400):
        arcs.append((a, beta))
        deltas += cascade(0.0, 1.0, a, beta, 1, math.inf)[4]
    for z0, v0 in random_supported_starts(100, seed=4243):
        record = simulate(z0, v0, SimConfig(n_max=25))
        arcs += zip(record.a, record.beta, record.delta)
        deltas += record.delta
    calls = counting_math.calls.copy()
    assert len(deltas) == 2_000 + 100 * 24
    assert min(deltas) < 0.01 <= SERIES_MAX <= max(deltas)
    solves = [reference_solve_delta(*arc[:2]) for arc in arcs]
    assert [delta for delta, _ in solves] == list(deltas)
    evaluations = sum(its for _, its in solves)
    tiny = sum(its == 0 and not in_reversion_box(*arc[:2])
               for arc, (_, its) in zip(arcs, solves))
    assert evaluations > len(deltas) and tiny > 0
    assert calls == Counter(
        sin=len(deltas) + evaluations,
        cos=evaluations + sum(d >= SERIES_MAX for d in deltas),
        hypot=tiny, sqrt=2 * tiny)


def test_cascade_keeps_the_radius_check():
    """In the box, yet b and delta/sin delta both round to 1.0, so the
    radius does not grow.  ``solve_delta`` is one impact of cascade from
    r = 1 and raises here as well; it returned the series delta before."""
    assert in_reversion_box(0.8, 1e-17)
    for run in (step, cascade_impact,
                lambda r, a, beta: solve_delta(a, beta)):
        with pytest.raises(ContractViolation, match="radius failed to grow"):
            run(1.0, 0.8, 1e-17)


@pytest.mark.parametrize("a, beta", [
    (0.5, 0.0), (0.75, 0.0), (math.nan, 1.0), (0.75, math.nan),
    (0.75, math.inf), (0.5, -0.2), (-0.5, -1e-17)])
def test_cascade_checks_its_first_arc_as_solve_delta(a, beta):
    # cascade checks only its first arc, before its loop, with solve_delta's
    # check and message; with no impact to take it checks nothing
    with pytest.raises(ValueError) as expected:
        reference_solve_delta(a, beta)
    with pytest.raises(ValueError) as got:
        cascade(0.0, 1.0, a, beta, 3, math.inf)
    assert str(got.value) == str(expected.value)
    ts, rs, as_, betas, deltas = cascade(0.0, 1.0, a, beta, 0, math.inf)
    assert (ts, rs, deltas) == (array("d", [0.0]), array("d", [1.0]),
                                array("d"))
    # the first arc is stored as given, bit for bit
    assert (repr(as_[0]), repr(betas[0])) == (repr(a), repr(beta))


def test_degenerate_set_rejects_an_infinite_ratio():
    # z0/v0 overflows to tau = -inf: rejected before the rest point
    # e^{-i tau} is formed, which raised a math domain error
    z0, v0 = 1e300 + 1e-300j, 1e-300 + 0j
    assert in_degenerate_set(z0, v0 - 1j * z0) == (False, 0.0, 0.0)


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
