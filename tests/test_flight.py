import math

import pytest

from rodbilliard import (FlightSegment, flight_position, flight_velocity,
                         segment_position, segment_velocity, solve_delta, step,
                         unit_rotation)

# smallest positive root of cos t = t sin t (first impact of z0=i, v0=1)
T1 = 0.8603335890193798
R1 = 1.3191565048905179


def bisect_t1():
    """Independent oracle for T1: plain bisection of cos t - t sin t."""
    f = lambda t: math.cos(t) - t * math.sin(t)
    lo, hi = 0.5, 1.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def segment_to_free_flight(seg: FlightSegment) -> tuple[complex, complex]:
    """Equivalent global free flight (z, v), mainly for cross-checks.

    Substituting s = t - t_start into the arc form gives the line data
    z = r (1 - w t_start) e^{i t_start}, v = r w e^{i t_start}.
    """
    w = complex(seg.a, seg.b)
    rot = unit_rotation(seg.t_start)
    return seg.r * (1.0 - w * seg.t_start) * rot, seg.r * w * rot


def test_position_pure_rotation_quarter_turn():
    assert abs(flight_position(1j, 0j, math.pi / 2) - 1.0) < 1e-15


def test_position_time_zero_identity():
    z, v = complex(1.0, 0.5), complex(-2.0, 3.0)
    assert flight_position(z, v, 0.0) == z


def test_position_at_first_impact_root():
    t1 = bisect_t1()
    assert abs(t1 - T1) < 1e-12
    z = flight_position(1j, 1 + 0j, t1)
    assert abs(z.real - R1) < 1e-12
    assert abs(z.imag) < 1e-12


def test_velocity_rigid_rotation():
    z = flight_velocity(complex(2.5, 0.0), 0j, 0.0)
    assert z == complex(0.0, -2.5)


def test_velocity_time_zero():
    assert flight_velocity(1j, 1 + 0j, 0.0) == 2 + 0j


def test_velocity_at_first_impact():
    zd = flight_velocity(1j, 1 + 0j, T1)
    assert abs(zd.real - 0.6521846239091868) < 1e-12
    assert abs(zd.imag - (-2.0772166715899908)) < 1e-12


@pytest.mark.parametrize("z0,v0,t", [
    (1j, 1 + 0j, 0.86), (complex(2, 3), complex(-1, 0.5), 1.7),
    (complex(-0.5, 0.1), complex(0, 2), 3.0)])
def test_velocity_matches_finite_differences(z0, v0, t):
    h = 1e-5
    fd = (flight_position(z0, v0, t + h)
          - flight_position(z0, v0, t - h)) / (2 * h)
    zd = flight_velocity(z0, v0, t)
    assert abs(fd - zd) <= 1e-8 * abs(zd)


@pytest.mark.parametrize("z0,v0", [
    (1j, 1 + 0j), (complex(2, 3), complex(-1, 0.5)),
    (complex(-4, 0.2), complex(3, -2))])
def test_lab_frame_path_is_straight(z0, v0):
    for k in range(50):
        t = 0.1 * k
        p = flight_position(z0, v0, t) * unit_rotation(t)
        assert abs(p - (z0 + v0 * t)) < 1e-10 * (1 + abs(z0) + abs(v0) * t)


def test_segment_anchor_values():
    seg = FlightSegment(n=1, t_start=0.5, r=2.0, a=0.3, b=1.7, delta=1.0)
    assert segment_position(seg, 0.0) == 2 + 0j
    assert segment_velocity(seg, 0.0) == complex(2.0 * 0.3, 2.0 * 0.7)


def test_segment_endpoint_matches_next_radius():
    delta, r_next, _, _ = step(1.0, 0.0, 1.0)
    seg = FlightSegment(n=1, t_start=0.0, r=1.0, a=0.0, b=2.0, delta=delta)
    end = segment_position(seg, delta)
    assert abs(end.real - r_next) <= 1e-12 * r_next
    assert abs(end.imag) <= 1e-12 * r_next


@pytest.mark.parametrize("r,a,b,t_start", [
    (1.0, 0.0, 2.0, 0.0), (1.3191565048905179, 0.4943951847194312,
                           2.5746552163364326, 0.8603335890193798),
    (7.5, 1.2, 1.1, 12.0)])
def test_segment_equals_equivalent_free_flight(r, a, b, t_start):
    delta = solve_delta(a, b - 1.0)
    seg = FlightSegment(n=1, t_start=t_start, r=r, a=a, b=b, delta=delta)
    z, v = segment_to_free_flight(seg)
    scale = 1 + abs(z) + abs(v) * (t_start + delta)
    for k in range(11):
        s = delta * k / 10
        direct = segment_position(seg, s)
        via_flight = flight_position(z, v, t_start + s)
        assert abs(direct - via_flight) <= 1e-12 * scale


def test_segment_interior_stays_above_rod():
    for a, b in [(0.0, 2.0), (-0.4, 1.0), (2.0, 1.5)]:
        delta = solve_delta(a, b - 1.0)
        seg = FlightSegment(n=1, t_start=0.0, r=1.0, a=a, b=b, delta=delta)
        for k in range(1, 200):
            assert segment_position(seg, delta * k / 200).imag > 0.0


def test_segment_range_checks():
    seg = FlightSegment(n=1, t_start=0.0, r=1.0, a=0.0, b=2.0, delta=1.0)
    with pytest.raises(ValueError):
        segment_position(seg, -0.1)
    with pytest.raises(ValueError):
        segment_position(seg, 1.1)
    open_seg = FlightSegment(n=3, t_start=0.0, r=1.0, a=0.5, b=1.5, delta=None)
    segment_position(open_seg, 42.0)  # open segment accepts any s >= 0
    with pytest.raises(ValueError):
        segment_position(open_seg, -0.1)


def test_segment_validation():
    with pytest.raises(ValueError):
        FlightSegment(n=1, t_start=0.0, r=-1.0, a=0.0, b=2.0, delta=1.0)
    with pytest.raises(ValueError):
        FlightSegment(n=1, t_start=0.0, r=1.0, a=0.0, b=2.0, delta=4.0)
