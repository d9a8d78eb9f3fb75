"""Benchmark of the rodbilliard simulator: one workload per process.

    python3 perfbench/run.py --workload long_orbit --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
A run sets the workload up several times (set-up time is the median),
then repeats identical rounds of work until ``--seconds`` have passed,
checks every round's outputs, and prints one JSON line as the last line
of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the public functions of the program are wrapped (see
``tracing.py``), the spans are written to ``.perfbench_out/`` and the
metrics are the per-layer ones.  README.md in this directory describes
the workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from decimal import Decimal
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_PATH = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from refclock import ReferenceClock  # noqa: E402
from tracing import COUNTED, SpanTable, Tracer  # noqa: E402

PACKAGE = "rodbilliard"

# (name, unit) of every metric; BENCHMARK.json lists the same names
END_TO_END = (
    ("impacts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("delta_rel_err", "ratio"),
    ("t_abs_err", "rad"),
    ("json_mb", "MB"),
)
PER_LAYER = (
    ("rootfind.first_impact.s", "s"),
    ("rootfind.first_impact.h_evals", "count"),
    ("rootfind.solve_delta.s", "s"),
    ("rootfind.solve_delta.iters", "count"),
    ("impact_map.segment_max_height.s", "s"),
    ("impact_map.step.self_s", "s"),
    ("simulator.simulate.self_s", "s"),
    ("simulator.record_mb", "MB"),
    ("flight.evals", "count"),
    ("oracle.oracle_simulate.s", "s"),
    ("oracle.h_evals_per_impact", "count"),
    ("analysis.s", "s"),
    ("cli_io.record_to_json.s", "s"),
    ("cli_io.record_from_json.s", "s"),
    ("cli_io.export_trajectory.s", "s"),
    ("cli_io.csv_mb", "MB"),
)

REFERENCE_Z0, REFERENCE_V0 = 1j, 1 + 0j
LONG_ORBIT_IMPACTS = 100_001     # delta_n is closed up to n = 10^5
EXPORT_IMPACTS = 10_001          # delta_n is closed up to n = 10^4
RANDOM_STARTS, RANDOM_IMPACTS = 1000, 25
ORACLE_STARTS, ORACLE_IMPACTS = 300, 50
ORACLE_SAMPLE = 20               # random starts whose first contact is re-scanned
CSV_SAMPLES = 4                  # CSV samples per arc on export

SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 5, 50, 1.0
MIN_ROUNDS = 3                   # the rate is a median of at least 3 rounds

# correctness gates
ORACLE_BAND = 1e-9               # |dt|, |dr| <= ORACLE_BAND * (1 + t)
REFERENCE_DELTA_REL_TOL = 1e-5   # delta_n against the mpmath reference
REFERENCE_T_ABS_TOL = 1e-5       # t_n against the mpmath reference
N_DELTA_BAND = (1.48, 1.52)      # n * delta_n at n = 10^4


class Round:
    """Outputs of one round: impacts done, operations tried and failed."""

    def __init__(self) -> None:
        self.impacts = 0
        self.attempted = 0
        self.failed = 0
        self.records: list = []
        self.data: dict = {}


class Problems:
    """Collects failed checks; a run is correct when none were found."""

    def __init__(self) -> None:
        self.items: list[str] = []

    def add(self, text: str) -> None:
        self.items.append(text)

    def expect(self, ok: bool, text: str) -> None:
        if not ok:
            self.items.append(text)


def note_failure(rnd: Round, what: str, exc: Exception) -> None:
    rnd.failed += 1
    if rnd.failed <= 5:
        print(f"failed operation {what}: {type(exc).__name__}: {exc}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# inputs and checks shared by the workloads


def draw_starts(seed: int, count: int) -> list[tuple[complex, complex]]:
    """Seeded starts: Re z0 in [-5, 5], Im z0 in [0.1, 5], |v0| <= 5.

    z0 is uniform on the rectangle and v0 uniform on the disc, drawn as a
    Latin hypercube: each of Re z0, Im z0, |v0|^2 and arg v0 is cut into
    ``count`` equal strata and every stratum holds one start, so the mix
    of easy and hard starts, and with it a round's cost, varies less from
    seed to seed than with independent draws.  Nothing here calls the
    program, so starts whose first contact is off the positive semiaxis
    stay in.
    """
    rng = random.Random(seed)

    def strata() -> list[float]:
        order = list(range(count))
        rng.shuffle(order)
        return [(k + rng.random()) / count for k in order]

    return [(complex(-5.0 + 10.0 * x, 0.1 + 4.9 * y),
             5.0 * math.sqrt(u) * cmath.exp(2j * math.pi * w))
            for x, y, u, w in zip(strata(), strata(), strata(), strata())]


def load_reference() -> dict[int, tuple[Decimal, Decimal]]:
    """{n: (delta_n, t_n)} of the mpmath reference orbit, as exact decimals."""
    data = json.loads(REFERENCE_PATH.read_text())
    return {int(n): (Decimal(v["delta"]), Decimal(v["t"]))
            for n, v in data["checkpoints"].items()}


def reference_errors(record, reference) -> tuple[float, float, int]:
    """(max rel. error of delta_n, max |t_n - t_ref|, last checkpoint used).

    The checkpoints are taken in order up to the first whose arc is not
    closed in ``record``; the last one used is 0 if there is none.
    """
    rel = t_abs = 0.0
    last = 0
    for n, (delta_ref, t_ref) in sorted(reference.items()):
        if n >= len(record.impacts):
            break
        delta = record.segments[n - 1].delta
        t = record.impacts[n - 1].t
        rel = max(rel, float(abs(Decimal(delta) - delta_ref) / delta_ref))
        t_abs = max(t_abs, float(abs(Decimal(t) - t_ref)))
        last = n
    return rel, t_abs, last


def check_reference(record, reference, problems: Problems, label: str
                    ) -> tuple[float, float]:
    """Gate a record of the reference orbit on every checkpoint up to the
    last impact whose arc it closes (10^4 or 10^5)."""
    rel, t_abs, last = reference_errors(record, reference)
    up_to = len(record.impacts) - 1
    problems.expect(last == up_to, f"{label}: the reference stops at n = "
                                   f"{last}, not at n = {up_to}")
    problems.expect(rel <= REFERENCE_DELTA_REL_TOL,
                    f"{label}: delta_n off the mpmath reference by {rel:.3g} "
                    f"(gate {REFERENCE_DELTA_REL_TOL:g} relative)")
    problems.expect(t_abs <= REFERENCE_T_ABS_TOL,
                    f"{label}: t_n off the mpmath reference by {t_abs:.3g} "
                    f"(gate {REFERENCE_T_ABS_TOL:g})")
    return rel, t_abs


def check_orbit(record, problems: Problems, label: str) -> None:
    """Properties every orbit has: r and t strictly up, delta strictly
    down, and the box invariants from the second impact on."""
    impacts = record.impacts
    for k in range(len(impacts) - 1):
        if not (impacts[k + 1].r > impacts[k].r
                and impacts[k + 1].t > impacts[k].t):
            problems.add(f"{label}: r or t not increasing at n = {k + 1}")
            break
    deltas = [seg.delta for seg in record.segments if seg.delta is not None]
    for k in range(len(deltas) - 1):
        if not deltas[k + 1] < deltas[k]:
            problems.add(f"{label}: delta not decreasing at n = {k + 1}")
            break
    for seg in record.segments[1:]:
        if not (1.0 < seg.b < 2.0 and seg.a > 0.0 and (
                seg.delta is None or (seg.a * seg.delta < 1.0
                                      and (1.0 + seg.a * seg.delta) / seg.b
                                      < 1.0))):
            problems.add(f"{label}: box invariant broken at n = {seg.n}")
            break
    for ev in impacts[1:]:
        if not (ev.zdot_in.real > 0.0 and ev.zdot_in.imag < 0.0
                and ev.kind == "transversal"):
            problems.add(f"{label}: incoming velocity inadmissible at "
                         f"n = {ev.n}")
            break


def within_band(t: float, x: float, x_ref: float) -> bool:
    return abs(x - x_ref) <= ORACLE_BAND * (1.0 + t)


def record_metrics(rb, record, reference, problems: Problems, label: str,
                   json_text: str | None = None) -> dict:
    """Accuracy against the mpmath reference, and JSON size, of a record of
    the reference orbit."""
    rel, t_abs = check_reference(record, reference, problems, label)
    if json_text is None:
        json_text = rb.record_to_json(record)
    return {"delta_rel_err": rel, "t_abs_err": t_abs,
            "json_mb": len(json_text) / 1e6}


def reference_probe(rb, reference, problems: Problems) -> dict:
    """``record_metrics`` of the reference orbit to 10^4 impacts.

    Every workload reports these end-to-end metrics; the ones that do not
    build that record themselves build it here, after the timed rounds.
    """
    record = rb.simulate(REFERENCE_Z0, REFERENCE_V0,
                         rb.SimConfig(n_max=EXPORT_IMPACTS))
    return record_metrics(rb, record, reference, problems,
                          "reference orbit to 10^4")


# ---------------------------------------------------------------------------
# workloads


class LongOrbit:
    """The reference orbit for 10^5 impacts, then the asymptotic analysis."""

    def __init__(self, rb, seed: int) -> None:
        # the orbit is fixed; the seed has nothing to vary
        self.cfg = rb.SimConfig(n_max=LONG_ORBIT_IMPACTS)
        self.reference = load_reference()

    def round(self, rb) -> Round:
        rnd = Round()
        rnd.attempted = 1
        try:
            record = rb.simulate(REFERENCE_Z0, REFERENCE_V0, self.cfg)
            rows = rb.asymptotic_table(record, [10, 100, 1000, 10_000, 100_000])
            growth, _ = rb.estimate_growth_constant(record)
        except Exception as exc:
            note_failure(rnd, "long orbit", exc)
            return rnd
        rnd.impacts = len(record.impacts)
        rnd.records = [record]
        rnd.data = {"rows": {row.n: row for row in rows}, "growth": growth}
        return rnd

    def check(self, rb, rnd: Round, problems: Problems) -> None:
        if rnd.failed:
            return
        record = rnd.records[0]
        problems.expect(len(record.impacts) == LONG_ORBIT_IMPACTS
                        and record.termination == "reached_n_max",
                        f"long orbit ended early: {record.termination}")
        check_orbit(record, problems, "long orbit")
        n_delta = rnd.data["rows"][10_000].n_delta_n
        problems.expect(N_DELTA_BAND[0] <= n_delta <= N_DELTA_BAND[1],
                        f"n*delta_n = {n_delta} at n = 10^4 is outside "
                        f"{N_DELTA_BAND}")
        growth = rnd.data["growth"]
        problems.expect(math.isfinite(growth) and growth > 0.0,
                        f"growth constant {growth} is not finite and positive")

    def finish(self, rb, last: Round, problems: Problems) -> dict:
        if last.failed:
            return {}
        return record_metrics(rb, last.records[0], self.reference, problems,
                              "long orbit")


class RandomStarts:
    """Many seeded starts, 25 impacts each: mostly first-contact search."""

    def __init__(self, rb, seed: int) -> None:
        self.seed = seed
        self.starts = draw_starts(seed, RANDOM_STARTS)
        self.cfg = rb.SimConfig(n_max=RANDOM_IMPACTS)
        self.reference = load_reference()

    def round(self, rb) -> Round:
        rnd = Round()
        for k, (z0, v0) in enumerate(self.starts):
            rnd.attempted += 1
            try:
                record = rb.simulate(z0, v0, self.cfg)
            except Exception as exc:
                note_failure(rnd, f"start {k}", exc)
                rnd.records.append(None)
                continue
            rnd.impacts += len(record.impacts)
            rnd.records.append(record)
        return rnd

    def check(self, rb, rnd: Round, problems: Problems) -> None:
        for k, record in enumerate(rnd.records):
            if record is None:
                continue
            label = f"start {k}"
            if record.termination == "unsupported_first_impact":
                problems.expect(not record.impacts,
                                f"{label}: unsupported start has impacts")
                continue
            problems.expect(record.termination == "reached_n_max"
                            and len(record.impacts) == RANDOM_IMPACTS,
                            f"{label}: ended early ({record.termination})")
            check_orbit(record, problems, label)

    def finish(self, rb, last: Round, problems: Problems) -> dict:
        """The first contact of a seeded sample of starts, re-found by the
        oracle's scan, must agree with the recurrence path's outcome."""
        sample = random.Random(self.seed).sample(range(len(self.starts)),
                                                 ORACLE_SAMPLE)
        for k in sample:
            record = last.records[k]
            if record is None:
                continue
            z0, v0 = self.starts[k]
            try:
                (t_o, r_o), = rb.oracle_simulate(z0, v0, 1, self.cfg)
            except rb.UnsupportedFirstImpact:
                problems.expect(record.termination == "unsupported_first_impact",
                                f"start {k}: oracle finds an unsupported first "
                                f"contact, simulate {record.termination}")
                continue
            if not record.impacts:
                problems.add(f"start {k}: oracle finds a contact at t = {t_o}, "
                             f"simulate ends with {record.termination}")
                continue
            ev = record.impacts[0]
            problems.expect(within_band(ev.t, ev.t, t_o)
                            and within_band(ev.t, ev.r, r_o),
                            f"start {k}: first contact ({ev.t}, {ev.r}) vs "
                            f"oracle ({t_o}, {r_o})")
        return reference_probe(rb, self.reference, problems)


class OracleCheck:
    """Seeded starts, 50 impacts each, through simulate and the oracle."""

    def __init__(self, rb, seed: int) -> None:
        self.starts = draw_starts(seed, ORACLE_STARTS)
        # tight roots keep each path's own noise well under the band
        self.cfg = rb.SimConfig(n_max=ORACLE_IMPACTS, root_abs_tol=1e-15)
        self.reference = load_reference()

    def round(self, rb) -> Round:
        rnd = Round()
        worst = 0.0
        mismatches = []
        for k, (z0, v0) in enumerate(self.starts):
            rnd.attempted += 1
            try:
                record = rb.simulate(z0, v0, self.cfg)
                try:
                    scanned = rb.oracle_simulate(z0, v0, ORACLE_IMPACTS,
                                                 self.cfg)
                except rb.UnsupportedFirstImpact:
                    scanned = None
            except Exception as exc:
                note_failure(rnd, f"start {k}", exc)
                continue
            rnd.records.append(record)
            if scanned is None or not record.impacts:
                if (scanned is None) != (record.termination
                                         == "unsupported_first_impact"):
                    mismatches.append(f"start {k}: oracle and simulate "
                                      "disagree on the first contact's side")
                continue
            if len(scanned) != len(record.impacts):
                mismatches.append(f"start {k}: {len(record.impacts)} impacts "
                                  f"against the oracle's {len(scanned)}")
                continue
            for ev, (t_o, r_o) in zip(record.impacts, scanned):
                tol = ORACLE_BAND * (1.0 + ev.t)
                worst = max(worst, abs(ev.t - t_o) / tol, abs(ev.r - r_o) / tol)
            rnd.impacts += len(scanned)
        rnd.data = {"worst": worst, "mismatches": mismatches}
        return rnd

    def check(self, rb, rnd: Round, problems: Problems) -> None:
        for text in rnd.data["mismatches"]:
            problems.add(text)
        worst = rnd.data["worst"]
        problems.expect(worst <= 1.0, f"oracle gap reaches {worst:.3g} times "
                                      f"the band {ORACLE_BAND:g}*(1+t)")

    def finish(self, rb, last: Round, problems: Problems) -> dict:
        return reference_probe(rb, self.reference, problems)


class Export:
    """JSON out and back, and CSV, of a 10^4-impact record built in set-up."""

    def __init__(self, rb, seed: int) -> None:
        # the record is the reference orbit; the seed has nothing to vary
        self.record = rb.simulate(REFERENCE_Z0, REFERENCE_V0,
                                  rb.SimConfig(n_max=EXPORT_IMPACTS))
        self.opts = rb.ExportOptions(format="csv",
                                     samples_per_segment=CSV_SAMPLES)
        self.reference = load_reference()

    def round(self, rb) -> Round:
        rnd = Round()
        rnd.records = [self.record]
        steps = (("json", lambda: rb.record_to_json(self.record)),
                 ("back", lambda: rb.record_from_json(rnd.data["json"])),
                 ("csv", lambda: rb.export_trajectory(self.record, self.opts)))
        for key, call in steps:
            rnd.attempted += 1
            try:
                rnd.data[key] = call()
            except Exception as exc:
                note_failure(rnd, key, exc)
                return rnd
        rnd.impacts = len(self.record.impacts)
        return rnd

    def check(self, rb, rnd: Round, problems: Problems) -> None:
        if rnd.failed:
            return
        back = rnd.data["back"]
        # equal records with equal reprs are equal bit for bit: repr of a
        # float round-trips and tells -0.0 from 0.0
        problems.expect(back == self.record
                        and repr(back) == repr(self.record),
                        "record_from_json(record_to_json(r)) differs from r")
        lines = rnd.data["csv"].splitlines()
        closed = [seg for seg in self.record.segments if seg.delta is not None]
        problems.expect(len(lines) == 1 + CSV_SAMPLES * (1 + len(closed)),
                        f"CSV has {len(lines)} lines")
        for k, seg in enumerate(closed):
            row = lines[1 + CSV_SAMPLES * (k + 1)].split(",")
            ev = self.record.impacts[k]
            if not (int(row[5]) == k + 1 and float(row[0]) == ev.t
                    and float(row[1]) == ev.r and float(row[2]) == 0.0):
                problems.add(f"CSV row at the start of arc {k + 1} reads "
                             f"{row[:3]}, not t_n, (r_n, 0)")
                break

    def finish(self, rb, last: Round, problems: Problems) -> dict:
        check_orbit(self.record, problems, "export record")
        return record_metrics(rb, self.record, self.reference, problems,
                              "export record", last.data.get("json"))


WORKLOADS = {"long_orbit": LongOrbit, "random_starts": RandomStarts,
             "oracle_check": OracleCheck, "export": Export}


# ---------------------------------------------------------------------------
# measurement


def import_program():
    """Import the package afresh, so that set-up pays for the import."""
    for key in [k for k in sys.modules
                if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    return importlib.import_module(PACKAGE)


def wall_timer(fn):
    """(result, seconds, seconds): wall time as measured."""
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    return result, elapsed, elapsed


def timed_setups(workload_cls, seed: int, timer):
    """Set up repeatedly (import included); return (rb, workload, median s)."""
    times = []
    rb = workload = None
    start = time.perf_counter()
    while (len(times) < SETUP_MIN_REPEATS
           or (time.perf_counter() - start < SETUP_MIN_SECONDS
               and len(times) < SETUP_MAX_REPEATS)):
        rb = workload = None  # free the last set-up before the next one

        def setup():
            program = import_program()
            return program, workload_cls(program, seed)

        (rb, workload), seconds, _ = timer(setup)
        times.append(seconds)
        gc.collect()  # the replaced modules sit in reference cycles
    return rb, workload, statistics.median(times)


def run_rounds(rb, workload, seconds: float, problems: Problems, timer,
               tracer: Tracer | None = None):
    """Repeat rounds until ``seconds`` of wall time have passed, and at
    least ``MIN_ROUNDS`` times.

    Returns (per-round impact rates by the timer, per-round rates in wall
    time, attempted, failed, last round, rounds).  Each round is checked
    after it is timed.
    """
    rates, wall_rates = [], []
    attempted = failed = rounds = 0
    last = None
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        last = None  # free the last round's outputs before the next round
        sid = tracer.open("round") if tracer else None
        last, elapsed, wall = timer(lambda: workload.round(rb))
        if tracer:
            tracer.close(sid)
        rounds += 1
        attempted += last.attempted
        failed += last.failed
        rates.append(last.impacts / elapsed)
        wall_rates.append(last.impacts / wall)
        workload.check(rb, last, problems)
        gc.collect()  # the same heap state before every round
    return rates, wall_rates, attempted, failed, last, rounds


def deep_size(obj, seen: set) -> int:
    """Bytes of ``obj`` and everything its fields reach, each object once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (tuple, list)):
        size += sum(deep_size(x, seen) for x in obj)
    elif hasattr(type(obj), "__dataclass_fields__"):
        size += sum(deep_size(getattr(obj, name), seen)
                    for name in type(obj).__dataclass_fields__)
    return size


def layer_metrics(tracer: Tracer, last: Round, rounds: int) -> dict:
    """Per-layer metrics from the spans of set-up and rounds.

    Seconds and per-call counts are means over every call of the function;
    ``flight.evals`` is per round; record and CSV sizes are those of the
    last round.  A metric whose function is gone from the program reads
    None, and so do the flight counts if a counted function is gone.
    """
    spans = SpanTable(tracer)
    dur, self_t, evals = spans.duration, spans.self_time, spans.evals_incl
    value = list(tracer.value)
    counts_whole = not any(f"{mod}.{fn}" in tracer.absent for mod, fn in COUNTED)
    oracle_evals = spans.mean("oracle.oracle_simulate", evals)
    oracle_impacts = spans.mean("oracle.oracle_simulate", value)
    records = [r for r in last.records if r is not None]
    metrics = {
        "rootfind.first_impact.s": spans.mean("rootfind.first_impact", dur),
        "rootfind.first_impact.h_evals": spans.mean("rootfind.first_impact",
                                                    evals),
        "rootfind.solve_delta.s": spans.mean("rootfind.solve_delta", dur),
        "rootfind.solve_delta.iters": spans.child_value(
            "rootfind.solve_delta", "rootfind.hybrid_root"),
        "impact_map.segment_max_height.s": spans.mean(
            "impact_map.segment_max_height", dur),
        "impact_map.step.self_s": spans.mean("impact_map.step", self_t),
        "simulator.simulate.self_s": spans.mean("simulator.simulate", self_t),
        "simulator.record_mb": deep_size(records, set()) / 1e6,
        "flight.evals": sum(evals[i] for i in spans.ids("round")) / rounds,
        "oracle.oracle_simulate.s": spans.mean("oracle.oracle_simulate", dur),
        "oracle.h_evals_per_impact": (oracle_evals / oracle_impacts
                                      if oracle_impacts else oracle_evals),
        "analysis.s": spans.mean(("analysis.asymptotic_table",
                                  "analysis.estimate_growth_constant"), dur),
        "cli_io.record_to_json.s": spans.mean("cli_io.record_to_json", dur),
        "cli_io.record_from_json.s": spans.mean("cli_io.record_from_json", dur),
        "cli_io.export_trajectory.s": spans.mean("cli_io.export_trajectory",
                                                 dur),
        "cli_io.csv_mb": spans.mean("cli_io.export_trajectory",
                                    [v / 1e6 for v in value]),
    }
    if not counts_whole:
        for name in ("rootfind.first_impact.h_evals", "flight.evals",
                     "oracle.h_evals_per_impact"):
            metrics[name] = None
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description="rodbilliard benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no program to measure: {SRC / PACKAGE} is missing",
              file=sys.stderr)
        return 2
    if not REFERENCE_PATH.is_file():
        print(f"missing {REFERENCE_PATH.name}; make it with "
              "python3 perfbench/mpref.py", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload_cls = WORKLOADS[args.workload]
    problems = Problems()
    tracer = None
    if args.trace:
        # per-layer times are wall seconds: slices would land inside spans
        timer = wall_timer
        rb = import_program()
        tracer = Tracer()
        tracer.install(PACKAGE)
        sid = tracer.open("setup")
        workload = workload_cls(rb, args.seed)
        tracer.close(sid)
    else:
        timer = ReferenceClock().measure
        rb, workload, setup_s = timed_setups(workload_cls, args.seed, timer)
    if not Path(rb.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported {rb.__file__}, not the checkout's program",
              file=sys.stderr)
        return 2

    rates, wall_rates, attempted, failed, last, rounds = run_rounds(
        rb, workload, args.seconds, problems, timer, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        tracer.uninstall()
    extra = workload.finish(rb, last, problems)
    print(f"{rounds} rounds; impacts per wall second: "
          + " ".join(f"{r:.6g}" for r in wall_rates), file=sys.stderr)

    if tracer:
        values = layer_metrics(tracer, last, rounds)
        units = PER_LAYER
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(path)
        print(f"{len(tracer.start) - 1} spans -> {path}; absent: "
              f"{', '.join(tracer.absent) or 'none'}", file=sys.stderr)
    else:
        print("impacts per reference second: "
              + " ".join(f"{r:.6g}" for r in rates), file=sys.stderr)
        values = {"impacts_per_s": statistics.median(rates),
                  "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, **extra}
        units = END_TO_END
    for text in problems.items[:20]:
        print(f"check failed: {text}", file=sys.stderr)
    result = {
        "correct": not problems.items,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
