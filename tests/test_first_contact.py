"""First contact against an independent mpmath reference, and its cost.

The reference is a 30-digit ``findroot`` on Im((z0 + v0 t) e^{-it}), the
height of the flight itself, as in ``perfbench/mpref.first_contact``; it
shares nothing with the closed form in ``rootfind.first_impact``.  A
tangency is a double root of the height, which ``findroot`` cannot
polish, so its reference is the root of the vertical velocity instead;
at a full stop that is a double root too, and the reference is the
minimum of the speed.  Which root is the first one is checked against
the brute-force oracle's scan.
"""

import math
import random

import pytest

from rodbilliard import (UnsupportedFirstImpact, first_impact,
                         oracle_simulate, rootfind)
from conftest import (GRAZING_V0, GRAZING_Z0, make_grazing_start,
                      random_supported_starts, stopping_set_point)

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

TANGENCIES = [(1.0, -0.4, 1.20037), (0.5, -0.05, 0.30041),
              (3.0, -1.5, 1.50053), (2.0, -0.8, 0.70047),
              (1.3, -0.2, 1.00061)]


def reference(z0, v0, guess, kind="crossing"):
    """(t, Re z(t)) at 30 digits, from the root nearest ``guess`` of the
    height (a crossing), of the vertical velocity (a tangency) or of the
    slope of the squared speed (a full stop, where speed and height
    vanish together)."""
    with mp.workdps(30):
        z, v = mp.mpc(z0), mp.mpc(v0)

        def f(t):
            pos = (z + v * t) * mp.expj(-t)
            vel = (v - 1j * (z + v * t)) * mp.expj(-t)
            if kind == "crossing":
                return mp.im(pos)
            if kind == "tangency":
                return mp.im(vel)
            return mp.re(mp.conj(vel) * (-1j * v * mp.expj(-t) - 1j * vel))
        t = mp.findroot(f, mp.mpf(guess))
        return float(t), float(mp.re((z + v * t) * mp.expj(-t)))


def outcome(z0, v0):
    """(t, r, kind) of the first contact; kind 'unsupported' off the
    positive semiaxis, with the exception's (t, r)."""
    try:
        hit = first_impact(z0, v0)
    except UnsupportedFirstImpact as exc:
        return exc.t, exc.r, "unsupported"
    return hit


def assert_matches_reference(z0, v0, kind, reference_kind="crossing"):
    t, r, got_kind = outcome(z0, v0)
    assert got_kind == kind
    t_ref, r_ref = reference(z0, v0, t, reference_kind)
    assert abs(t - t_ref) <= 1e-14 * (1.0 + t)
    assert abs(r - r_ref) <= 1e-14 * (1.0 + abs(r))
    return t, r


def test_resting_start_hits_at_its_angle():
    # v0 = 0: the ball rests in the lab frame and the rod reaches it at
    # t = arg z0, at radius |z0|
    z0 = complex(2.0, 1.0)
    t, r = assert_matches_reference(z0, 0j, "transversal")
    assert t == math.atan2(z0.imag, z0.real)
    assert r == abs(z0)


def test_line_through_the_pivot():
    # L = 0 and moving inward: the ball reaches the pivot at t = 0.5,
    # before the rod, an unsupported hit at r = 0
    t, r = assert_matches_reference(1j, -2j, "unsupported")
    assert (t, r) == (0.5, 0.0)


def test_line_through_the_pivot_moving_outward():
    # L = 0 and moving outward: phi = pi/2 - t reaches 0 first
    t, r = assert_matches_reference(1j, 1j, "transversal")
    assert abs(t - math.pi / 2) <= 1e-15
    assert abs(r - (1.0 + math.pi / 2)) <= 1e-15


def test_start_at_the_pivot():
    # z(t) = i t e^{-it}: the rod reaches the ray at t = pi/2
    t, r = assert_matches_reference(0j, 1j, "transversal")
    assert abs(t - math.pi / 2) <= 1e-15
    assert abs(r - math.pi / 2) <= 1e-15


@pytest.mark.parametrize("z0,v0", [(GRAZING_Z0, GRAZING_V0)] + [
    make_grazing_start(r, a, t1) for r, a, t1 in TANGENCIES])
def test_tangencies(z0, v0):
    assert_matches_reference(z0, v0, "grazing", "tangency")


@pytest.mark.parametrize("r,tau", [(1.0, 1.0), (0.3, 0.2), (2.5, 0.7),
                                   (7.0, 2.0), (1.5, 4.4)])
def test_full_stop(r, tau):
    # a cubic tangency: velocity and height vanish together at tau, where
    # the breakpoint quadratic has a double root (to rounding)
    z0, v0 = stopping_set_point(r, tau)
    t, r_hit = assert_matches_reference(z0, v0, "degenerate", "stop")
    assert abs(t - tau) <= 1e-15 * (1.0 + tau)
    assert abs(r_hit - r) <= 1e-15 * (1.0 + r)


@pytest.mark.parametrize("z0,v0", [
    (1 + 0j, 2.5j),            # positive semiaxis, phi rises from 0
    (-1 + 0j, complex(0.5, -0.2)),   # negative semiaxis, phi falls from pi
    (complex(-2.0, -0.0), complex(0.5, 1.0)),   # a signed zero is on the rod too
])
def test_departure_from_the_rod(z0, v0):
    # the start itself is a root of the height; the contact is the next
    t, _ = assert_matches_reference(z0, v0, "transversal")
    assert t > 1.0
    [(t_o, _)] = oracle_simulate(z0, v0, 1)
    assert abs(t - t_o) <= 1e-9 * (1.0 + t)


def test_negative_semiaxis():
    t, r = assert_matches_reference(1j, complex(-1.0, -10.0), "unsupported")
    assert r < 0.0
    with pytest.raises(UnsupportedFirstImpact) as exc:
        oracle_simulate(1j, complex(-1.0, -10.0), 1)
    assert abs(exc.value.t - t) <= 1e-9 * (1.0 + t)


def test_random_starts_against_reference_and_oracle():
    # supported and unsupported starts alike; the oracle's scan decides
    # which root of the height comes first
    rng = random.Random(20261018)
    sides = set()
    for _ in range(200):
        z0 = complex(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 5.0))
        v0 = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        t, r, kind = outcome(z0, v0)
        t_ref, r_ref = reference(z0, v0, t)
        assert abs(t - t_ref) <= 1e-14 * (1.0 + t), (z0, v0)
        assert abs(r - r_ref) <= 1e-14 * (1.0 + abs(r)), (z0, v0)
        try:
            [(t_o, _)] = oracle_simulate(z0, v0, 1)
            assert kind != "unsupported", (z0, v0)
        except UnsupportedFirstImpact as exc:
            assert kind == "unsupported", (z0, v0)
            t_o = exc.t
        assert abs(t - t_o) <= 1e-9 * (1.0 + t), (z0, v0)
        sides.add(kind)
    assert sides == {"transversal", "unsupported"}


def test_root_solve_iterations(monkeypatch):
    # a machine-independent work count: Newton steps of the root solve
    # per first contact over the seeded suite (a scan takes ~1.7k
    # evaluations of the height)
    counts = []
    solve = rootfind.hybrid_root

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        counts.append(res.iterations)
        return res

    starts = random_supported_starts(100)
    monkeypatch.setattr(rootfind, "hybrid_root", counted)
    for z0, v0 in starts:
        first_impact(z0, v0)
    assert len(counts) == len(starts)
    assert sum(counts) / len(counts) <= 8.0
    assert max(counts) <= 20


def test_first_contacts_within_ulps_of_the_height_root():
    # phi's root is a few eps off in absolute terms, many ulps of a small
    # t: on these 800 contacts (63 off the positive semiaxis) it read 20.8
    # ulps at p99 and 6.1e4 at worst, and the Newton step on the height
    # takes that to 1.41 and 2.7
    rng = random.Random(20261020)
    errors = []
    while len(errors) < 800:
        z0 = complex(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 5.0))
        v0 = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        if len(errors) % 2:  # magnitudes log-uniform in 1e-8 ... 1e8
            z0 *= 10.0 ** rng.uniform(-8.0, 8.0)
            v0 *= 10.0 ** rng.uniform(-8.0, 8.0)
        try:
            t = first_impact(z0, v0).t
        except UnsupportedFirstImpact as exc:
            t = exc.t
        except ValueError:  # on the rod to rounding, not departing
            continue
        with mp.workdps(50):
            z, v = mp.mpc(z0), mp.mpc(v0)
            root = mp.findroot(lambda s: mp.im((z + v * s) * mp.expj(-s)),
                               mp.mpf(t))
            errors.append(float(abs(t - root)) / math.ulp(float(root)))
    errors.sort()
    assert errors[int(0.99 * len(errors))] <= 2.0
    assert errors[-1] <= 16.0
