"""Self-tests of the benchmark's own plumbing (a few seconds).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spread  # noqa: E402
from refclock import ReferenceClock, calibration_slice  # noqa: E402
from tracing import SpanTable, Tracer  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    tr = Tracer()
    a = tr.open("a")
    b = tr.open("b")
    c = tr.open("c")
    tr.close(c)
    tr.close(b)
    d = tr.open("d")
    tr.close(d)
    tr.close(a)
    # a: [0, 10] holds b: [1, 5] (which holds c: [2, 4]) and d: [6, 7]
    for sid, (t0, t1) in {a: (0, 10), b: (1, 5), c: (2, 4), d: (6, 7)}.items():
        tr.start[sid], tr.end[sid] = t0, t1
    tr.evals[c] = 3
    tr.evals[d] = 2
    tr.evals[a] = 1
    spans = SpanTable(tr)
    assert spans.self_time[a] == 10 - 4 - 1
    assert spans.self_time[b] == 4 - 2
    assert spans.self_time[c] == 2
    assert spans.evals_incl[a] == 6
    assert spans.evals_incl[b] == 3
    assert spans.mean("b", spans.duration) == 4
    assert spans.mean("missing", spans.duration) == 0.0


def _fake_program(monkeypatch):
    """A package shaped like rodbilliard, with only some of its functions."""
    pkg = types.ModuleType("fakebill")
    flight = types.ModuleType("fakebill.flight")
    rootfind = types.ModuleType("fakebill.rootfind")
    flight.flight_position = lambda ff, t: complex(t, -t)
    Result = type("Result", (), {})

    def hybrid_root(f, lo, hi):
        f(lo)
        res = Result()
        res.root, res.iterations = 0.5, 7
        return res

    def solve_delta(a, b):
        rootfind.flight_position(None, 0.0)  # bound by name, as the program does
        return rootfind.hybrid_root(lambda x: x, a, b).root

    rootfind.flight_position = flight.flight_position
    rootfind.hybrid_root = hybrid_root
    rootfind.solve_delta = solve_delta
    pkg.solve_delta = solve_delta
    pkg.flight, pkg.rootfind = flight, rootfind
    for mod in (pkg, flight, rootfind):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg


def test_wrappers_record_spans_counts_and_absent_functions(monkeypatch):
    pkg = _fake_program(monkeypatch)
    original = pkg.solve_delta
    tr = Tracer()
    tr.install("fakebill")
    assert pkg.solve_delta is not original
    assert pkg.rootfind.solve_delta is pkg.solve_delta
    assert "simulator.simulate" in tr.absent
    assert "flight.segment_position" in tr.absent
    assert "rootfind.solve_delta" not in tr.absent

    rnd = tr.open("round")
    assert pkg.solve_delta(0.0, 1.0) == 0.5
    tr.close(rnd)
    tr.uninstall()
    assert pkg.solve_delta is original and pkg.rootfind.solve_delta is original

    spans = SpanTable(tr)
    (sd,) = spans.ids("rootfind.solve_delta")
    (hr,) = spans.ids("rootfind.hybrid_root")
    assert tr.parent[sd] == rnd and tr.parent[hr] == sd
    assert tr.evals[sd] == 1 and spans.evals_incl[rnd] == 1
    assert spans.child_value("rootfind.solve_delta", "rootfind.hybrid_root") == 7


def test_absent_function_reads_null():
    tr = Tracer()
    tr.absent = ["rootfind.hybrid_root", "analysis.asymptotic_table",
                 "flight.segment_position"]
    empty = run.Round()
    metrics = run.layer_metrics(tr, empty, rounds=1)
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    assert metrics["rootfind.solve_delta.iters"] is None
    assert metrics["analysis.s"] is None
    assert metrics["flight.evals"] is None
    assert metrics["oracle.h_evals_per_impact"] is None
    # present but never called
    assert metrics["rootfind.solve_delta.s"] == 0.0
    assert metrics["cli_io.csv_mb"] == 0.0


def test_quartile_spread_matches_the_definition():
    median, q1, q3, share = spread.quartile_spread(
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (median, q1, q3) == (5.5, 2.75, 8.25)
    assert share == pytest.approx(5.5 / 5.5)
    assert spread.quartile_spread([2.0, 2.0, 2.0])[3] == 0.0
    assert spread.parse_seeds("1-3,7") == [1, 2, 3, 7]


def test_reference_clock_leaves_slices_out_and_scales_by_their_speed():
    """A fake clock that only the slices and the section move."""
    now = [0.0]
    slice_times = iter([0.001, 0.004, 0.002])  # before, inside, after

    def slice_fn():
        now[0] += next(slice_times)

    def section():
        now[0] += 0.1
        signal.raise_signal(signal.SIGALRM)  # one slice inside the section
        now[0] += 0.1
        return "done"

    clock = ReferenceClock(interval=100.0, nominal=0.002, slice_fn=slice_fn,
                           clock=lambda: now[0])
    result, ref, wall = clock.measure(section)
    assert result == "done"
    assert wall == pytest.approx(0.2)
    assert ref == pytest.approx(
        0.2 * 0.002 / statistics.harmonic_mean([0.001, 0.004, 0.002]))
    calibration_slice()  # the real slice runs


def test_deep_size_counts_shared_objects_once():
    x = 1.5e300
    once = run.deep_size((x,), set())
    assert run.deep_size((x, x), set()) == once + 8  # one more pointer only


def test_starts_are_seeded_and_in_range():
    starts = run.draw_starts(3, 500)
    assert starts == run.draw_starts(3, 500)
    assert starts != run.draw_starts(4, 500)
    for z0, v0 in starts:
        assert -5 <= z0.real <= 5 and 0.1 <= z0.imag <= 5 and abs(v0) <= 5


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_mpmath_reference_matches_flight_geometry():
    """The recurrence reference against impacts found on the flight itself.

    After an impact at radius P with reflected velocity W the flight reads
    (P + (W + iP) s) e^{-is} in local time s; the next impact is its first
    return to Im = 0.  Nothing here uses the (r, a, b) recurrences.
    """
    mpmath = pytest.importorskip("mpmath")
    import mpref
    mp = mpmath.mp
    ref = mpref.reference_orbit(6, checkpoints=range(1, 7), dps=40)
    with mp.workdps(40):
        t = mpref.first_contact()[0]
        assert abs(t - mpmath.mpf("0.86033358901937976248389342413766")) < 1e-30
        pos = (t + 1j) * mpmath.expj(-t)
        w = ((2 - 1j * t) * mpmath.expj(-t)).conjugate()
        for n in range(1, 7):
            p = pos.real
            assert abs(t - ref[n][1]) < 1e-25 and abs(p - ref[n][2]) < 1e-25

            def z(s, p=p, w=w):
                return (p + (w + 1j * p) * s) * mpmath.expj(-s)

            s = mpmath.mpf("1e-3")
            while mpmath.im(z(s + mpmath.mpf("1e-3"))) > 0:
                s += mpmath.mpf("1e-3")
            s = mpmath.findroot(lambda x: mpmath.im(z(x)), (s, s + mpmath.mpf("1e-3")),
                                solver="anderson")
            assert abs(s - ref[n][0]) < 1e-25
            zdot = ((w + 1j * p) - 1j * (p + (w + 1j * p) * s)) * mpmath.expj(-s)
            t, pos, w = t + s, z(s), zdot.conjugate()


def test_reference_errors_on_a_short_orbit():
    import rodbilliard as rb
    record = rb.simulate(1j, 1 + 0j, rb.SimConfig(n_max=501))
    reference = run.load_reference()
    rel, t_abs, last = run.reference_errors(record, reference)
    assert last == 500
    problems = run.Problems()
    run.check_reference(record, reference, problems, "short orbit")
    assert not problems.items
    del reference[500]  # a reference that stops short fails the gate
    run.check_reference(record, reference, problems, "short orbit")
    assert problems.items == ["short orbit: the reference stops at n = 200, "
                              "not at n = 500"]
    assert 0.0 <= rel < 1e-10 and 0.0 <= t_abs < 1e-10
