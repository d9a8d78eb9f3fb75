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
from dataclasses import asdict, dataclass, replace

from .core import SimConfig
from .flight import FlightSegment, FreeFlight, flight_position, to_lab_frame, \
    segment_position
from .impact_map import ImpactEvent
from .oracle import OracleMismatch, oracle_simulate
from .rootfind import UnsupportedFirstImpact, solve_delta
from .simulator import QuasiTrajectory, TrajectoryRecord, quasi_position, \
    simulate
from .analysis import asymptotic_table

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


def _pair(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected RE,IM (two comma-separated numbers), got {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _float_pair(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(",")
        return float(lo_s), float(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO,HI (two comma-separated numbers), got {text!r}")


@dataclass(frozen=True, slots=True)
class ExportOptions:
    """What to write and where for a trajectory export."""

    format: str = "csv"
    frame: str = "both"
    samples_per_segment: int = 64
    output_path: str | None = None

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
                        {"r": record.quasi_start.r,
                         "t1": record.quasi_start.t1}),
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
    cfg.pop("series_switch_delta", None)  # a setting of earlier versions
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
        quasi_start=None if qs is None else QuasiTrajectory(r=qs["r"],
                                                            t1=qs["t1"]),
    )


# ---------------------------------------------------------------------------
# trajectory sampling


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
    k_samples = samples_per_segment
    rows: list[tuple[float, complex, int]] = []
    t_max = record.config.t_max
    ff = FreeFlight(record.z0, record.v0)
    if record.impacts:
        t_end0 = record.impacts[0].t
    elif math.isfinite(t_max):
        t_end0 = t_max
    else:
        return rows
    for j in range(k_samples):
        t = t_end0 * j / (k_samples - 1)
        rows.append((t, flight_position(ff, t), 0))
    for k, seg in enumerate(record.segments):
        if seg.delta is not None:
            span = seg.delta
        elif math.isfinite(t_max) and t_max > seg.t_start:
            span = t_max - seg.t_start
        else:
            continue
        for j in range(k_samples):
            s = span * j / (k_samples - 1)
            rows.append((seg.t_start + s, segment_position(seg, s), k + 1))
    q = record.quasi_start
    if q is not None and math.isfinite(t_max) and t_max > q.t1:
        label = len(record.impacts)
        for j in range(k_samples):
            t = q.t1 + (t_max - q.t1) * j / (k_samples - 1)
            rows.append((t, quasi_position(q, t), label))
    return rows


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p: _Parser, types: dict) -> None:
    p.add_argument("--z0", type=_pair, default=None,
                   help="initial position RE,IM (upper half-plane)")
    p.add_argument("--v0", type=_pair, default=None,
                   help="lab-frame line velocity RE,IM")
    p.add_argument("--config", default=None, metavar="PATH",
                   help="key=value file mirroring the flags; flags win")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output path (default: stdout)")
    p.add_argument("--n-max", type=int, default=None,
                   help="impact budget (default 1000)")
    p.add_argument("--t-max", type=float, default=None,
                   help="time budget (default unbounded)")
    p.add_argument("--scan-step", type=float, default=None,
                   help="event-scan step (default 1e-3)")
    p.add_argument("--quasi", choices=("stop", "extend"), default=None,
                   help="behaviour at a degenerate impact (default stop)")
    types.update({"z0": _pair, "v0": _pair, "out": str, "n_max": int,
                  "t_max": float, "scan_step": float, "quasi": str})


def _merge_config_file(parser: _Parser, args: argparse.Namespace,
                       types: dict) -> None:
    if args.config is None:
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            parser.error(f"{args.config}:{lineno}: expected key=value")
        key, _, raw = stripped.partition("=")
        dest = key.strip().replace("-", "_")
        if dest not in types:
            parser.error(f"{args.config}:{lineno}: unknown key {key.strip()!r}")
        if getattr(args, dest) is None:  # flags take precedence
            try:
                setattr(args, dest, types[dest](raw.strip()))
            except (argparse.ArgumentTypeError, ValueError) as exc:
                parser.error(f"{args.config}:{lineno}: {exc}")


def _build_sim_config(parser: _Parser, args: argparse.Namespace) -> SimConfig:
    if args.z0 is None or args.v0 is None:
        parser.error("--z0 and --v0 are required (flag or config file)")
    kwargs = {}
    if args.n_max is not None:
        kwargs["n_max"] = args.n_max
    if args.t_max is not None:
        kwargs["t_max"] = args.t_max
    if args.scan_step is not None:
        kwargs["scan_step"] = args.scan_step
    if args.quasi is not None:
        kwargs["quasi_mode"] = args.quasi
    try:
        return SimConfig(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _open_out(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write(path, text: str) -> None:
    stream, close = _open_out(path)
    try:
        stream.write(text)
    finally:
        if close:
            stream.close()


def _termination_exit(record: TrajectoryRecord) -> int:
    if record.termination == "unsupported_first_impact":
        print("first impact off the positive semiaxis: unsupported",
              file=sys.stderr)
        return EXIT_UNSUPPORTED
    if record.termination == "degenerate_stop":
        print(f"degenerate impact at t = {record.impacts[-1].t}: "
              "trajectory cannot be extended", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


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


def cmd_simulate(parser: _Parser, args: argparse.Namespace) -> int:
    cfg = _build_sim_config(parser, args)
    try:
        opts = ExportOptions(format=args.format, frame=args.frame,
                             samples_per_segment=args.samples,
                             output_path=args.out)
        record = simulate(args.z0, args.v0, cfg)
    except ValueError as exc:
        parser.error(str(exc))
    code = _termination_exit(record)
    if code == EXIT_UNSUPPORTED:
        return code
    _write(opts.output_path, export_trajectory(record, opts))
    return code


def cmd_impacts(parser: _Parser, args: argparse.Namespace) -> int:
    cfg = _build_sim_config(parser, args)
    try:
        record = simulate(args.z0, args.v0, cfg)
    except ValueError as exc:
        parser.error(str(exc))
    code = _termination_exit(record)
    if code == EXIT_UNSUPPORTED:
        return code
    lines = ["n,t_n,delta_n,r_n,a_n,b_n,re_in,im_in,kind"]
    for k, ev in enumerate(record.impacts):
        seg = record.segments[k] if k < len(record.segments) else None
        if seg is None:
            delta_s = a_s = b_s = ""
        else:
            delta = seg.delta
            if delta is None:
                delta = solve_delta(seg.a, seg.b - 1.0, cfg)
            delta_s, a_s, b_s = _FMT(delta), _FMT(seg.a), _FMT(seg.b)
        lines.append(",".join([
            str(ev.n), _FMT(ev.t), delta_s, _FMT(ev.r), a_s, b_s,
            _FMT(ev.zdot_in.real), _FMT(ev.zdot_in.imag), ev.kind]))
    _write(args.out, "\n".join(lines) + "\n")
    return code


def cmd_asympt(parser: _Parser, args: argparse.Namespace) -> int:
    checkpoints = sorted(set(args.at))
    if checkpoints[0] < 1:
        parser.error("--at indices are 1-based")
    needed = checkpoints[-1] + 1
    if args.n_max is not None and args.n_max < needed:
        parser.error(f"--at {checkpoints[-1]} needs an impact budget of at "
                     f"least {needed}, got --n-max {args.n_max}")
    args.n_max = max(args.n_max or 0, needed)
    cfg = _build_sim_config(parser, args)
    try:
        record = simulate(args.z0, args.v0, cfg)
        rows = asymptotic_table(record, checkpoints)
    except ValueError as exc:
        parser.error(str(exc))
    code = _termination_exit(record)
    if code != EXIT_OK:
        return code
    lines = ["n,delta_n,n_delta_n,b_minus_1_scaled,ratio_scaled,"
             "t_over_logn,height_n,a_n"]
    for row in rows:
        lines.append(",".join([
            str(row.n), _FMT(row.delta_n), _FMT(row.n_delta_n),
            _FMT(row.b_minus_1_scaled), _FMT(row.ratio_scaled),
            _FMT(row.t_over_logn), _FMT(row.height_n), _FMT(row.a_n)]))
    _write(args.out, "\n".join(lines) + "\n")
    lo, hi = args.band
    for row in rows:
        status = "PASS" if lo <= row.n_delta_n <= hi else "FAIL"
        print(f"n*delta_n@{row.n}={row.n_delta_n:.4f} {status}")
    return code


def cmd_oracle(parser: _Parser, args: argparse.Namespace) -> int:
    if not 1 <= args.n_impacts <= 1000:
        parser.error("--n-impacts must lie in [1, 1000]")
    args.n_max = args.n_impacts
    # tight roots keep each path's own noise well under the comparison
    # band, as in the library's oracle acceptance check
    cfg = replace(_build_sim_config(parser, args), root_abs_tol=1e-15)
    try:
        record = simulate(args.z0, args.v0, cfg)
        if record.termination in ("unsupported_first_impact",
                                  "degenerate_stop", "degenerate_quasi"):
            # the comparison needs a full transversal cascade
            print(f"oracle comparison not applicable: {record.termination}",
                  file=sys.stderr)
            return (EXIT_UNSUPPORTED
                    if record.termination == "unsupported_first_impact"
                    else EXIT_DEGENERATE)
        reference = oracle_simulate(args.z0, args.v0, args.n_impacts, cfg)
    except UnsupportedFirstImpact as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (OracleMismatch, ValueError) as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    if len(record.impacts) != len(reference):
        print(f"oracle failure: recurrence path produced "
              f"{len(record.impacts)} impacts, oracle {len(reference)}",
              file=sys.stderr)
        return EXIT_ORACLE
    lines = ["n,t_map,t_oracle,abs_diff,r_map,r_oracle"]
    breach = False
    for ev, (t_o, r_o) in zip(record.impacts, reference):
        diff = abs(ev.t - t_o)
        if diff > 1e-9 * (1.0 + ev.t) or abs(ev.r - r_o) > 1e-9 * (1.0 + ev.t):
            breach = True
        lines.append(",".join([str(ev.n), _FMT(ev.t), _FMT(t_o), _FMT(diff),
                               _FMT(ev.r), _FMT(r_o)]))
    _write(args.out, "\n".join(lines) + "\n")
    if breach:
        print("oracle failure: impact data disagree beyond 1e-9*(1+t)",
              file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="rodbilliard",
                     description="Billiard of a point mass over a uniformly "
                                 "rotating rod")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    types: dict[str, dict] = {}

    p_sim = subs.add_parser("simulate", help="export trajectory samples")
    types["simulate"] = {}
    _add_common(p_sim, types["simulate"])
    p_sim.add_argument("--frame", choices=("rotating", "lab", "both"),
                       default=None, help="coordinate columns (default both)")
    p_sim.add_argument("--samples", type=int, default=None,
                       help="samples per segment (default 64)")
    p_sim.add_argument("--format", choices=("csv", "json"), default=None)
    types["simulate"].update({"frame": str, "samples": int, "format": str})

    p_imp = subs.add_parser("impacts", help="one CSV row per impact")
    types["impacts"] = {}
    _add_common(p_imp, types["impacts"])

    p_asy = subs.add_parser("asympt", help="scaled asymptotic diagnostics")
    types["asympt"] = {}
    _add_common(p_asy, types["asympt"])
    p_asy.add_argument("--at", type=_int_list, default=None, required=False,
                       help="impact indices to report, e.g. 100,1000,10000")
    p_asy.add_argument("--band", type=_float_pair, default=None,
                       help="PASS band for n*delta_n (default 1.48,1.52)")
    types["asympt"].update({"at": _int_list, "band": _float_pair})

    p_ora = subs.add_parser("oracle", help="recurrences vs brute force")
    types["oracle"] = {}
    _add_common(p_ora, types["oracle"])
    p_ora.add_argument("--n-impacts", type=int, default=None,
                       help="impacts to compare (at most 1000)")
    types["oracle"].update({"n_impacts": int})

    args = parser.parse_args(argv)
    sub = {"simulate": p_sim, "impacts": p_imp,
           "asympt": p_asy, "oracle": p_ora}[args.command]
    _merge_config_file(sub, args, types[args.command])

    if args.command == "simulate":
        if args.frame is None:
            args.frame = "both"
        if args.samples is None:
            args.samples = 64
        if args.format is None:
            args.format = "csv"
        return cmd_simulate(sub, args)
    if args.command == "impacts":
        return cmd_impacts(sub, args)
    if args.command == "asympt":
        if args.at is None:
            sub.error("--at is required (flag or config file)")
        if args.band is None:
            args.band = (1.48, 1.52)
        return cmd_asympt(sub, args)
    if args.command == "oracle":
        if args.n_impacts is None:
            sub.error("--n-impacts is required (flag or config file)")
        return cmd_oracle(sub, args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
