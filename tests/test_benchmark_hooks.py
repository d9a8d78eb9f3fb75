"""The benchmark's per-layer hooks find every function they trace.

perfbench/tracing.py wraps functions by name and reads a renamed one as
absent, which turns its per-layer metric into null without an error; a
function that exists but is no longer called reads as 0 instead.
"""

import math
from collections import Counter

import rodbilliard
from rodbilliard import SimConfig
from conftest import load_perfbench


def load_tracing():
    return load_perfbench("tracing")


def test_tracer_finds_every_traced_function():
    original = rodbilliard.simulate
    tracer = load_tracing().Tracer()
    tracer.install("rodbilliard")
    try:
        assert tracer.absent == []
        assert rodbilliard.simulate is not original
    finally:
        tracer.uninstall()
    assert rodbilliard.simulate is original


def test_traced_layers_run_on_the_reference_orbit(capsys):
    # 400 impacts take one first contact; cascade's loop calls no step and
    # no solve_delta, since it sums the reversion series and runs Newton
    # itself for the 300 arcs before the box; reading one height solves
    # one arc
    tracer = load_tracing().Tracer()
    tracer.install("rodbilliard")
    try:
        record = rodbilliard.simulate(1j, 1 + 0j, SimConfig(n_max=400))
        record.heights[0]
    finally:
        tracer.uninstall()
    spans = Counter(tracer.names[i] for i in tracer.name[1:])
    assert spans["impact_map.step"] == 0
    assert spans["rootfind.solve_delta"] == 0
    assert spans["rootfind.first_impact"] == 1
    assert spans["impact_map.segment_max_height"] == 1
    # a traced benchmark run prints its metrics as the last line of
    # stdout: each must be a number, and the program must print nothing
    run = load_perfbench("run")
    last = run.Round()
    last.records.append(record)
    metrics = run.layer_metrics(tracer, last, 1)
    assert metrics.keys() == {name for name, _ in run.PER_LAYER}
    assert all(isinstance(value, float) and math.isfinite(value)
               for value in metrics.values()), metrics
    assert capsys.readouterr().out == ""
