"""The benchmark's per-layer hooks find every function they trace.

perfbench/tracing.py wraps functions by name and reads a renamed one as
absent, which turns its per-layer metric into null without an error.
"""

import importlib.util
from pathlib import Path

import rodbilliard

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_traced_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = rodbilliard.simulate
    tracer = tracing.Tracer()
    tracer.install("rodbilliard")
    try:
        assert tracer.absent == []
        assert rodbilliard.simulate is not original
    finally:
        tracer.uninstall()
    assert rodbilliard.simulate is original
