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
from array import array
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, fields
from itertools import chain, count, islice
from typing import Callable, NamedTuple

from .core import (DEGENERATE, GRAZING, TRANSVERSAL, ContractViolation,
                   SimConfig, classify_impact)
from .flight import check_segment, flight_position
from .oracle import OracleMismatch, oracle_simulate
from .rootfind import UnsupportedFirstImpact
from .simulator import TrajectoryRecord, quasi_position, simulate
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
    """What to write for a trajectory export; ``export_trajectory``
    checks ``samples_per_segment``."""

    format: str = "csv"
    frame: str = "both"
    samples_per_segment: int = 64

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.frame not in ("rotating", "lab", "both"):
            raise ValueError(
                f"frame must be rotating, lab or both, got {self.frame!r}")


# ---------------------------------------------------------------------------
# JSON record schema


def record_to_json(record: TrajectoryRecord) -> str:
    """The record as one compact JSON document: one array per column of
    the record, and no value that the record derives."""
    cfg = asdict(record.config)
    cfg["t_max"] = None if math.isinf(cfg["t_max"]) else cfg["t_max"]
    data = {
        "z0": [record.z0.real, record.z0.imag],
        "v0": [record.v0.real, record.v0.imag],
        "config": cfg,
        "termination": record.termination,
        "first_kind": record.first_kind,
        "t": record.t.tolist(),
        "r": record.r.tolist(),
        "a": record.a.tolist(),
        "beta": record.beta.tolist(),
        "delta": record.delta.tolist(),
    }
    return json.dumps(data, separators=(",", ":")) + "\n"


_TERMINATIONS = ("reached_n_max", "reached_t_max", "degenerate_stop",
                 "degenerate_quasi", "unsupported_first_impact")


def record_from_json(text: str) -> TrajectoryRecord:
    """Load a record written by ``record_to_json``.

    Raises ValueError for another layout, a missing key, a wrongly typed,
    boolean or non-finite entry (an integer too large for a float
    included), an unknown termination or first impact, ragged columns, or
    a termination or first impact that misfits them; ignores
    ``quasi_start`` and ``first_zdot_in``, which the record derives.
    """
    data = json.loads(text)
    try:
        if "impacts" in data or "segments" in data:
            raise ValueError("record is in a pre-columnar layout (impacts "
                             "and segments tables), which no longer loads")
        cfg = dict(data["config"])
        if cfg.get("t_max") is None:
            cfg["t_max"] = math.inf
        t, r, a, beta, delta = cols = [
            data[key] for key in ("t", "r", "a", "beta", "delta")]
        n, arcs = len(t), len(a)
        if (len(r) != n or arcs not in (0, n) or len(beta) != arcs
                or len(delta) + bool(arcs) != arcs):
            raise ValueError("record columns have inconsistent lengths")
        kind, term = data["first_kind"], data["termination"]
        if kind not in ((TRANSVERSAL, GRAZING, DEGENERATE) if n else (None,)):
            raise ValueError(f"first impact {kind!r} misfits t")
        numbers = (*cols, data["z0"], data["v0"])
        if any(bool in {*map(type, col)} for col in numbers):
            raise ValueError("record holds a boolean in place of a number")
        if not all(all(map(math.isfinite, col)) for col in numbers):
            raise ValueError("record holds a non-finite number")
        if term not in _TERMINATIONS:
            raise ValueError(f"unknown termination {term!r}")
        # a full stop ends the orbit at its one impact; any other leaves an arc
        stopped = term in ("degenerate_stop", "degenerate_quasi")
        if (stopped != (kind == DEGENERATE)
                or (n, arcs) != ((1, 0) if stopped else (n, n))):
            raise ValueError(f"termination {term!r} misfits the first impact "
                             f"{kind!r}, {n} impacts and {arcs} arcs")
        record = TrajectoryRecord(
            complex(*data["z0"]), complex(*data["v0"]), SimConfig(**cfg),
            term, *(array("d", col) for col in cols), kind)
        if n and r[0] > 0.0:  # a radius r <= 0 is left to the arc checks
            try:  # first_impact's verdict, where a tangency grazes
                verdict = classify_impact(r[0], record.first_zdot_in)
            except ContractViolation:
                verdict = GRAZING
            if verdict != kind:
                raise ValueError(f"first impact {kind!r} misfits its velocity")
        return record
    except KeyError as exc:
        raise ValueError(f"record lacks the key {exc}") from exc
    except OverflowError as exc:
        raise ValueError(f"record holds an integer too large for a float: "
                         f"{exc}") from exc
    except TypeError as exc:
        raise ValueError(f"record holds a wrongly typed entry: {exc}") from exc


# ---------------------------------------------------------------------------
# trajectory sampling and export


_CSV_HEADS = {"both": "t,re_rot,im_rot,re_lab,im_lab,segment",
              "rotating": "t,re_rot,im_rot,segment",
              "lab": "t,re_lab,im_lab,segment"}


def export_trajectory(record: TrajectoryRecord, opts: ExportOptions) -> str:
    """Render a record per the export options: JSON, or CSV samples.

    Arc k, the one leaving impact k (0: the approach), is sampled at
    s = span j / (samples - 1) and turned by e^{it} into the lab frame.
    The approach and the sliding arc take ``flight_position`` and
    ``quasi_position``; an impact's arc r (1 + a s + i b s) e^{-is} is
    summed in floats with the roundings of ``segment_position``'s complex
    products, whose other terms are products with 0.0 that change no sum
    or sign of zero (r > 0, b >= 1, s >= 0).  An open arc is sampled under
    a finite t_max only, up to t_max or the open last arc's next impact,
    whichever comes first.
    """
    if opts.format == "json":
        return record_to_json(record)
    samples, frame = opts.samples_per_segment, opts.frame
    if (isinstance(samples, bool) or not isinstance(samples, int)
            or samples < 2):
        raise ValueError(
            f"samples_per_segment must be an int at least 2, got {samples!r}")
    lines = [_CSV_HEADS[frame]]
    form = "%.17g," * lines[0].count(",") + "%d"  # floats print as {:.17g}
    last, offsets, t_max = samples - 1, range(samples), record.config.t_max
    rot, lab, cos, sin = frame != "lab", frame != "rotating", math.cos, math.sin

    def sample(start: float, label: int, position, span: float | None = None):
        """Sample an arc over ``span``; an open one up to a finite t_max."""
        if span is None:
            if not start < t_max < math.inf:
                return  # an open arc without a finite t_max
            span = t_max - start
        for j in offsets:
            s = span * j / last
            t, z = start + s, position(s)
            if not lab:
                lines.append(form % (t, z.real, z.imag, label))
                continue
            w = z * complex(cos(t), sin(t))  # to the lab frame
            lines.append(form % (t, z.real, z.imag, w.real, w.imag, label)
                         if rot else form % (t, w.real, w.imag, label))

    sample(0.0, 0, lambda s: flight_position(record.z0, record.v0, s),
           record.t[0] if record.t else None)
    closed = len(record.delta)
    arcs = zip(record.t, record.r, record.a, record.beta, record.delta)
    if len(record.a) > closed:  # the open last arc, to its next impact
        start, r = record.t[-1], record.r[-1]
        check_segment(r, None)
        if start < t_max < math.inf:
            arcs = chain(arcs, [(start, r, record.a[-1], record.beta[-1],
                                 min(record.open_delta, t_max - start))])
    for k, (start, r, a, beta, span) in enumerate(arcs, start=1):
        if not (0.0 < r < math.inf and 0.0 < span < math.pi):
            check_segment(r, span if k <= closed else None)
        b = 1.0 + beta
        for j in offsets:
            s = span * j / last
            t, c, sn = start + s, cos(-s), sin(-s)
            x, y = r * (1.0 + a * s), r * (b * s)
            zr, zi = x * c - y * sn, x * sn + y * c
            if not lab:
                lines.append(form % (t, zr, zi, k))
                continue
            c, sn = cos(t), sin(t)
            wr, wi = zr * c - zi * sn, zr * sn + zi * c
            lines.append(form % (t, zr, zi, wr, wi, k) if rot
                         else form % (t, wr, wi, k))
    if (q := record.quasi_start) is not None:
        sample(q.t1, len(record.t), lambda s: quasi_position(q, q.t1 + s))
    lines.append("")  # the closing newline, without copying the text again
    return "\n".join(lines)


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
    _Flag("n-max", int, None, "impact budget (default 1000)",
          ("simulate", "impacts", "asympt")),
    _Flag("t-max", float, None, "time budget (default unbounded)"),
    _Flag("scan-step", float, None, "oracle scan step (default 1e-3)",
          ("oracle",)),
    _Flag("quasi", str, None, "behaviour at a degenerate impact (default stop)",
          ("simulate", "impacts"), choices=("stop", "extend"),
          dest="quasi_mode"),
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
    t, r, a, beta = record.t, record.r, record.a, record.beta
    # the closed arcs' deltas, then the open last arc's, copying no column
    delta = chain(record.delta, [record.open_delta])
    lines = ["n,t_n,delta_n,r_n,a_n,b_n,re_in,im_in,kind"]
    if t:  # the first impact has its own velocity and kind, and maybe no arc
        d, a1, b1 = (map(_FMT, (next(delta), a[0], 1.0 + beta[0])) if a
                     else ("", "", ""))
        z = record.first_zdot_in
        lines.append(",".join(["1", _FMT(t[0]), d, _FMT(r[0]), a1, b1,
                               _FMT(z.real), _FMT(z.imag), record.first_kind]))
    # a later impact is transversal, with incoming velocity r (a - i beta)
    form = "%d," + "%.17g," * 7 + TRANSVERSAL
    lines += [form % (n, t_n, d, r_n, a_n, 1.0 + b_n, r_n * a_n, -r_n * b_n)
              for (n, t_n, r_n, a_n, b_n), d in zip(
                  islice(zip(count(1), t, r, a, beta), 1, None), delta)]
    lines.append("")
    return "\n".join(lines), "", EXIT_OK


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
    # a tight root bracket keeps the oracle's own noise well under the
    # comparison band, as in the library's oracle acceptance check
    return {"n_max": args.n_impacts, "root_abs_tol": 1e-15}


def _oracle_render(record, args):
    try:
        reference = oracle_simulate(record.z0, record.v0, args.n_impacts,
                                    record.config)
        if len(record.t) != len(reference):
            raise OracleMismatch(
                f"recurrence path produced {len(record.t)} impacts, "
                f"oracle {len(reference)}")
    except (OracleMismatch, UnsupportedFirstImpact) as exc:
        # simulate found a supported first contact: any other verdict of
        # the scan is a disagreement
        print(f"oracle failure: {exc}", file=sys.stderr)
        return None, "", EXIT_ORACLE
    lines = ["n,t_map,t_oracle,abs_diff,r_map,r_oracle"]
    breach = False
    for n, t, r, (t_o, r_o) in zip(count(1), record.t, record.r, reference):
        diff = abs(t - t_o)
        if diff > 1e-9 * (1.0 + t) or abs(r - r_o) > 1e-9 * (1.0 + t):
            breach = True
        lines.append(",".join([str(n), _FMT(t), _FMT(t_o), _FMT(diff),
                               _FMT(r), _FMT(r_o)]))
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
    if term == "degenerate_stop":
        print(f"degenerate impact at t = {record.t[-1]}: " + (
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
