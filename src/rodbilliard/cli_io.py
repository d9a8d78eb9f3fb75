"""Command-line surface and bit-exact CSV/JSON export.

Four subcommands: ``simulate`` (trajectory samples), ``impacts`` (one row
per collision), ``asympt`` (scaled asymptotic diagnostics with PASS/FAIL
summary) and ``oracle`` (recurrence path vs brute-force comparison).
Floats print with 17 significant digits, which round-trips 64-bit values
exactly.  Exit codes: 0 success, 1 usage error, 2 unsupported first
impact, 3 degenerate stop, 4 oracle tolerance breach.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, fields
from itertools import zip_longest
from typing import Callable, NamedTuple

from .core import SimConfig
from .flight import FlightSegment, FreeFlight, flight_position, to_lab_frame, \
    segment_position
from .impact_map import ImpactEvent
from .oracle import OracleMismatch, oracle_simulate
from .rootfind import UnsupportedFirstImpact, solve_delta
from .simulator import QuasiTrajectory, TrajectoryRecord, quasi_position, \
    simulate
from .analysis import AsymptoticRow, asymptotic_table

_FMT = "{:.17g}".format

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSUPPORTED = 2
EXIT_DEGENERATE = 3
EXIT_ORACLE = 4


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True, slots=True)
class ExportOptions:
    """What to write for a trajectory export."""

    format: str = "csv"
    frame: str = "both"
    samples_per_segment: int = 64

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.frame not in ("rotating", "lab", "both"):
            raise ValueError(
                f"frame must be rotating, lab or both, got {self.frame!r}")
        if self.samples_per_segment < 2:
            raise ValueError("samples_per_segment must be at least 2")


# ---------------------------------------------------------------------------
# JSON record schema


def record_to_json(record: TrajectoryRecord) -> str:
    cfg = asdict(record.config)
    cfg["t_max"] = None if math.isinf(cfg["t_max"]) else cfg["t_max"]
    data = {
        "z0": [record.z0.real, record.z0.imag],
        "v0": [record.v0.real, record.v0.imag],
        "config": cfg,
        "termination": record.termination,
        "quasi_start": (None if record.quasi_start is None else
                        asdict(record.quasi_start)),
        "impacts": [{"n": ev.n, "t": ev.t, "r": ev.r,
                     "zdot_in": [ev.zdot_in.real, ev.zdot_in.imag],
                     "zdot_out": [ev.zdot_out.real, ev.zdot_out.imag],
                     "kind": ev.kind} for ev in record.impacts],
        "segments": [{"n": seg.n, "t_start": seg.t_start, "r": seg.r,
                      "a": seg.a, "b": seg.b, "delta": seg.delta}
                     for seg in record.segments],
        "heights": list(record.heights),
    }
    return json.dumps(data, indent=2) + "\n"


def record_from_json(text: str) -> TrajectoryRecord:
    data = json.loads(text)
    cfg = dict(data["config"])
    for key in ("series_switch_delta", "max_bisect_iters", "grazing_tol"):
        cfg.pop(key, None)  # settings of earlier versions
    if cfg.get("t_max") is None:
        cfg["t_max"] = math.inf
    qs = data["quasi_start"]
    return TrajectoryRecord(
        z0=complex(*data["z0"]),
        v0=complex(*data["v0"]),
        config=SimConfig(**cfg),
        impacts=tuple(ImpactEvent(n=ev["n"], t=ev["t"], r=ev["r"],
                                  zdot_in=complex(*ev["zdot_in"]),
                                  zdot_out=complex(*ev["zdot_out"]),
                                  kind=ev["kind"])
                      for ev in data["impacts"]),
        segments=tuple(FlightSegment(n=sg["n"], t_start=sg["t_start"],
                                     r=sg["r"], a=sg["a"], b=sg["b"],
                                     delta=sg["delta"])
                       for sg in data["segments"]),
        heights=tuple(data["heights"]),
        termination=data["termination"],
        quasi_start=None if qs is None else QuasiTrajectory(**qs),
    )


# ---------------------------------------------------------------------------
# trajectory sampling and export


def trajectory_samples(record: TrajectoryRecord, samples_per_segment: int
                       ) -> list[tuple[float, complex, int]]:
    """(t, rotating-frame position, segment label) rows for export.

    Label 0 is the approach arc before the first impact; the arc leaving
    impacts[k] carries label k + 1.  The open final arc (and the sliding
    continuation in quasi mode) is sampled up to t_max when that is
    finite, otherwise skipped.
    """
    if samples_per_segment < 2:
        raise ValueError("samples_per_segment must be at least 2")
    rows: list[tuple[float, complex, int]] = []
    t_max = record.config.t_max
    ff = FreeFlight(record.z0, record.v0)
    if record.impacts:
        t_end0 = record.impacts[0].t
    elif math.isfinite(t_max):
        t_end0 = t_max
    else:
        return rows
    for j in range(samples_per_segment):
        t = t_end0 * j / (samples_per_segment - 1)
        rows.append((t, flight_position(ff, t), 0))
    for k, seg in enumerate(record.segments):
        if seg.delta is not None:
            span = seg.delta
        elif math.isfinite(t_max) and t_max > seg.t_start:
            span = t_max - seg.t_start
        else:
            continue
        for j in range(samples_per_segment):
            s = span * j / (samples_per_segment - 1)
            rows.append((seg.t_start + s, segment_position(seg, s), k + 1))
    q = record.quasi_start
    if q is not None and math.isfinite(t_max) and t_max > q.t1:
        label = len(record.impacts)
        for j in range(samples_per_segment):
            t = q.t1 + (t_max - q.t1) * j / (samples_per_segment - 1)
            rows.append((t, quasi_position(q, t), label))
    return rows


def export_trajectory(record: TrajectoryRecord, opts: ExportOptions) -> str:
    """Render a record per the export options (CSV samples or JSON)."""
    if opts.format == "json":
        return record_to_json(record)
    rows = trajectory_samples(record, opts.samples_per_segment)
    frame = opts.frame
    header = {"both": "t,re_rot,im_rot,re_lab,im_lab,segment",
              "rotating": "t,re_rot,im_rot,segment",
              "lab": "t,re_lab,im_lab,segment"}[frame]
    lines = [header]
    for t, z_rot, label in rows:
        cols = [_FMT(t)]
        if frame in ("both", "rotating"):
            cols += [_FMT(z_rot.real), _FMT(z_rot.imag)]
        if frame in ("both", "lab"):
            z_lab = to_lab_frame(z_rot, t)
            cols += [_FMT(z_lab.real), _FMT(z_lab.imag)]
        cols.append(str(label))
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line


class _Flag(NamedTuple):
    """A flag of ``commands``, also a ``--config`` key.

    Absent, it reads as ``default``; a ``_REQUIRED`` one must be given in
    either.  A flag whose dest names a ``SimConfig`` field sets that field.
    """

    name: str
    type: Callable[[str], object]
    default: object
    help: str
    commands: tuple[str, ...] = ("simulate", "impacts", "asympt", "oracle")
    choices: tuple[str, ...] | None = None
    dest: str | None = None
    metavar: str | None = None


def _numbers(kind: type, count: int | None, form: str):
    """argparse type: comma-separated numbers, ``count`` of them if given."""
    def parse(text: str) -> list:
        try:
            values = [kind(part) for part in text.split(",")]
            if count is None or len(values) == count:
                return values
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    return parse


_POINT = _numbers(float, 2, "RE,IM (two comma-separated numbers)")
_REQUIRED = object()
_FLAGS = (
    _Flag("z0", _POINT, _REQUIRED, "initial position RE,IM (upper half-plane)"),
    _Flag("v0", _POINT, _REQUIRED, "lab-frame line velocity RE,IM"),
    _Flag("config", str, None, "key=value file mirroring the flags; flags win",
          metavar="PATH"),
    _Flag("out", str, None, "output path (default: stdout)", metavar="PATH"),
    _Flag("n-max", int, None, "impact budget (default 1000)"),
    _Flag("t-max", float, None, "time budget (default unbounded)"),
    _Flag("scan-step", float, None, "oracle scan step (default 1e-3)"),
    _Flag("quasi", str, None, "behaviour at a degenerate impact (default stop)",
          choices=("stop", "extend"), dest="quasi_mode"),
    _Flag("frame", str, "both", "coordinate columns (default both)",
          ("simulate",), choices=("rotating", "lab", "both")),
    _Flag("samples", int, 64, "samples per segment (default 64)",
          ("simulate",)),
    _Flag("format", str, "csv", "output format (default csv)", ("simulate",),
          choices=("csv", "json")),
    _Flag("at", _numbers(int, None, "comma-separated integers"), _REQUIRED,
          "impact indices to report, e.g. 100,1000,10000", ("asympt",)),
    _Flag("band", _numbers(float, 2, "LO,HI (two comma-separated numbers)"),
          (1.48, 1.52), "PASS band for n*delta_n (default 1.48,1.52)",
          ("asympt",)),
    _Flag("n-impacts", int, _REQUIRED, "impacts to compare (at most 1000)",
          ("oracle",)),
)


def _parse(argv: list[str] | None) -> tuple[_Parser, argparse.Namespace]:
    """The subcommand's parser and its flag values, config file included.

    The file's key=value lines are parsed as flags put before the command
    line's: both go through the same types and choices, and flags win.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _Parser(prog="rodbilliard",
                     description="Billiard of a point mass over a uniformly "
                                 "rotating rod")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)
    for command, (help_text, *_) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for f in _FLAGS:
            if command in f.commands:
                sub.add_argument(
                    f"--{f.name}", type=f.type, choices=f.choices,
                    default=None if f.default is _REQUIRED else f.default,
                    dest=f.dest, help=f.help, metavar=f.metavar)
    args = parser.parse_args(argv)
    sub = subs.choices[args.command]
    flags = [f for f in _FLAGS if args.command in f.commands]
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            sub.error(f"cannot read config file: {exc}")
        keys = {f.name for f in flags} - {"config"}
        tokens = []
        for lineno, line in enumerate(lines, start=1):
            key, sep, value = line.partition("=")
            key = key.strip().replace("_", "-")
            if key.startswith("#") or not (key or sep):  # comment, blank
                continue
            if not sep:
                sub.error(f"{args.config}:{lineno}: expected key=value")
            if key not in keys:
                sub.error(f"{args.config}:{lineno}: unknown key {key!r}")
            tokens.append(f"--{key}={value.strip()}")
        # argv[0] is the command: the top-level parser takes no options
        args = parser.parse_args([argv[0], *tokens, *argv[1:]])
    for f in flags:
        dest = f.name.replace("-", "_")
        if f.default is _REQUIRED and getattr(args, dest) is None:
            sub.error(f"--{f.name} is required (flag or config file)")
    return sub, args


def _simulate_render(record, args):
    opts = ExportOptions(args.format, args.frame, args.samples)
    return export_trajectory(record, opts), "", EXIT_OK


def _impacts_render(record, args):
    lines = ["n,t_n,delta_n,r_n,a_n,b_n,re_in,im_in,kind"]
    for ev, seg in zip_longest(record.impacts, record.segments):
        delta_s = a_s = b_s = ""
        if seg is not None:
            delta = seg.delta
            if delta is None:  # the open last arc; -Im zdot_in / r = b - 1
                delta = solve_delta(seg.a, -ev.zdot_in.imag / ev.r)
            delta_s, a_s, b_s = _FMT(delta), _FMT(seg.a), _FMT(seg.b)
        lines.append(",".join([
            str(ev.n), _FMT(ev.t), delta_s, _FMT(ev.r), a_s, b_s,
            _FMT(ev.zdot_in.real), _FMT(ev.zdot_in.imag), ev.kind]))
    return "\n".join(lines) + "\n", "", EXIT_OK


def _asympt_setup(args: argparse.Namespace) -> dict:
    if min(args.at) < 1:
        raise ValueError("--at indices are 1-based")
    # a given --n-max below max(at) + 1 fails in asymptotic_table
    return {"n_max": max(args.at) + 1 if args.n_max is None else args.n_max}


def _asympt_render(record, args):
    rows = asymptotic_table(record, args.at)
    lo, hi = args.band
    summary = "".join(
        f"n*delta_n@{row.n}={row.n_delta_n:.4f} "
        f"{'PASS' if lo <= row.n_delta_n <= hi else 'FAIL'}\n" for row in rows)
    lines = [",".join(f.name for f in fields(AsymptoticRow))]
    lines += (",".join([str(row.n), *map(_FMT, astuple(row)[1:])])
              for row in rows)
    return "\n".join(lines) + "\n", summary, EXIT_OK


def _oracle_setup(args: argparse.Namespace) -> dict:
    if not 1 <= args.n_impacts <= 1000:
        raise ValueError("--n-impacts must lie in [1, 1000]")
    # a tight bisection keeps the oracle's own noise well under the
    # comparison band, as in the library's oracle acceptance check
    return {"n_max": args.n_impacts, "root_abs_tol": 1e-15}


def _oracle_render(record, args):
    try:
        reference = oracle_simulate(record.z0, record.v0, args.n_impacts,
                                    record.config)
        if len(record.impacts) != len(reference):
            raise OracleMismatch(
                f"recurrence path produced {len(record.impacts)} impacts, "
                f"oracle {len(reference)}")
    except (OracleMismatch, UnsupportedFirstImpact) as exc:
        # simulate found a supported first contact: any other verdict of
        # the scan is a disagreement
        print(f"oracle failure: {exc}", file=sys.stderr)
        return None, "", EXIT_ORACLE
    lines = ["n,t_map,t_oracle,abs_diff,r_map,r_oracle"]
    breach = False
    for ev, (t_o, r_o) in zip(record.impacts, reference):
        diff = abs(ev.t - t_o)
        if diff > 1e-9 * (1.0 + ev.t) or abs(ev.r - r_o) > 1e-9 * (1.0 + ev.t):
            breach = True
        lines.append(",".join([str(ev.n), _FMT(ev.t), _FMT(t_o), _FMT(diff),
                               _FMT(ev.r), _FMT(r_o)]))
    if breach:
        print("oracle failure: impact data disagree beyond 1e-9*(1+t)",
              file=sys.stderr)
    return "\n".join(lines) + "\n", "", EXIT_ORACLE if breach else EXIT_OK


# command: (help, setup, render, cascade).  A setup checks the command's
# flags and returns SimConfig overrides; a render maps the record to (output,
# stdout summary, exit code); with cascade, any full stop ends the run.
_COMMANDS = {
    "simulate": ("export trajectory samples", None, _simulate_render, False),
    "impacts": ("one CSV row per impact", None, _impacts_render, False),
    "asympt": ("scaled asymptotic diagnostics", _asympt_setup,
               _asympt_render, True),
    "oracle": ("recurrences vs brute force", _oracle_setup, _oracle_render,
               True),
}


def _termination_exit(record: TrajectoryRecord, cascade: bool) -> int:
    """Report on stderr a run that ended early; the exit code for it."""
    term = record.termination
    if term == "unsupported_first_impact":
        print("first impact off the positive semiaxis: unsupported",
              file=sys.stderr)
        return EXIT_UNSUPPORTED
    if term == "degenerate_stop" or cascade and term == "degenerate_quasi":
        print(f"degenerate impact at t = {record.impacts[-1].t}: " + (
            f"not applicable without a full cascade ({term})" if cascade
            else "trajectory cannot be extended"), file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: build the config, simulate, report, write."""
    parser, args = _parse(argv)
    _, setup, render, cascade = _COMMANDS[args.command]
    try:
        given = {f.name: getattr(args, f.name) for f in fields(SimConfig)
                 if getattr(args, f.name, None) is not None}
        record = simulate(complex(*args.z0), complex(*args.v0), SimConfig(
            **{**given, **(setup(args) if setup else {})}))
        code = _termination_exit(record, cascade)
        if code == EXIT_UNSUPPORTED or code and cascade:
            return code
        text, summary, render_code = render(record, args)
    except ValueError as exc:
        parser.error(str(exc))
    if text is not None:
        try:
            with (nullcontext(sys.stdout) if args.out is None else
                  open(args.out, "w", encoding="utf-8", newline="")) as out:
                out.write(text)
        except OSError as exc:
            parser.error(f"cannot write output file: {exc}")
    sys.stdout.write(summary)
    return code or render_code


if __name__ == "__main__":
    sys.exit(main())
