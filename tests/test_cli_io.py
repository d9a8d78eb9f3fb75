import itertools
import json
import math
import random
import struct
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from rodbilliard import (QuasiTrajectory, SimConfig, flight_position,
                         flight_velocity, quasi_position, segment_position,
                         simulate, unit_rotation)
from rodbilliard import cli_io
from rodbilliard.cli_io import (ExportOptions, export_trajectory, main,
                                record_from_json, record_to_json)
from rodbilliard.core import EPS, ContractViolation, classify_impact
from rodbilliard.oracle import OracleMismatch, oracle_simulate
from rodbilliard.rootfind import solve_delta
from conftest import (GRAZING_V0, GRAZING_Z0, make_grazing_start,
                      peak_height, random_supported_starts,
                      stopping_set_point, ulps_off)


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def run_cli(args):
    return main(args)


def test_simulate_csv_header_and_exit(capsys):
    code = run_cli(["simulate", "--z0", "0,1", "--v0", "1,0",
                    "--n-max", "5", "--format", "csv"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "t,re_rot,im_rot,re_lab,im_lab,segment"
    # approach arc + 4 closed arcs, 64 samples each (open arc has no horizon)
    assert len(lines) - 1 == 5 * 64
    assert lines[1].endswith(",0")


def test_simulate_csv_lab_columns_are_rotations(capsys):
    run_cli(["simulate", "--z0", "0,1", "--v0", "1,0", "--n-max", "3"])
    out = capsys.readouterr().out
    for line in out.splitlines()[1:]:
        t_s, re_r, im_r, re_l, im_l, _ = line.split(",")
        z_rot = complex(float(re_r), float(im_r))
        z_lab = complex(float(re_l), float(im_l))
        assert abs(z_lab - z_rot * unit_rotation(float(t_s))) <= \
            1e-12 * (1 + abs(z_rot))


def test_simulate_frame_selection(capsys):
    run_cli(["simulate", "--z0", "0,1", "--v0", "0,0", "--n-max", "1",
             "--frame", "rotating", "--samples", "4"])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "t,re_rot,im_rot,segment"


def test_simulate_pure_rotation_single_impact(capsys):
    code = run_cli(["simulate", "--z0", "0,1", "--v0", "0,0", "--n-max", "1"])
    out = capsys.readouterr().out
    assert code == 0
    last = out.splitlines()[-1].split(",")
    assert abs(float(last[0]) - math.pi / 2) < 1e-12


def test_simulate_usage_error_exit_1():
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--z0", "abc", "--v0", "1,0"])
    assert exc.value.code == 1


def test_simulate_missing_required_exit_1():
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--v0", "1,0"])
    assert exc.value.code == 1


def test_simulate_bad_samples_exit_1():
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--z0", "0,1", "--v0", "1,0", "--samples", "1"])
    assert exc.value.code == 1


@pytest.mark.parametrize("opts", [{"format": "xml"}, {"frame": "polar"}])
def test_export_options_reject_bad_choice(opts):
    with pytest.raises(ValueError):
        ExportOptions(**opts)


def test_simulate_unsupported_exit_2(capsys):
    code = run_cli(["simulate", "--z0", "0,1", "--v0=-1,-10",
                    "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unsupported" in captured.err


def test_impacts_pivot_hit_through_rounding_exit_2(capsys):
    # the first contact's radius rounds to 0 (see test_rootfind)
    code = run_cli(["impacts", "--z0=-1,0", "--v0=1e154,-1e-300"])
    assert code == 2
    assert "unsupported" in capsys.readouterr().err


def test_simulate_degenerate_exit_3(capsys):
    z0, v0 = stopping_set_point(1.0, 1.0)
    code = run_cli(["simulate", f"--z0={z0.real},{z0.imag}",
                    f"--v0={v0.real},{v0.imag}", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert "degenerate" in captured.err
    assert captured.out.splitlines()[0] == "t,re_rot,im_rot,re_lab,im_lab,segment"


@pytest.mark.parametrize("t_max", [["--t-max", "2.0"], []])
def test_simulate_quasi_extension_samples(capsys, t_max):
    z0, v0 = stopping_set_point(1.0, 1.0)
    code = run_cli(["simulate", f"--z0={z0.real},{z0.imag}",
                    f"--v0={v0.real},{v0.imag}", "--n-max", "3", *t_max,
                    "--quasi", "extend", "--samples", "8"])
    out = capsys.readouterr().out
    assert code == 0  # quasi extension is a successful run
    if not t_max:  # the sliding rows run up to a finite t_max only
        assert [row[-2:] for row in out.splitlines()[1:]] == [",0"] * 8
        return
    tail = out.splitlines()[-1].split(",")
    assert abs(float(tail[0]) - 2.0) < 1e-12
    assert abs(float(tail[1]) - math.cosh(1.0)) < 1e-9
    assert tail[-1] == "1"


def _csv_rows_from_positions(record, frame, samples):
    """The CSV rows of a record with a finite t_max, built sample by sample
    from the position functions and ``{:.17g}``."""
    def row(t, z, label):
        w = z * unit_rotation(t)
        cols = {"both": (t, z.real, z.imag, w.real, w.imag),
                "rotating": (t, z.real, z.imag), "lab": (t, w.real, w.imag)}
        return ",".join(f"{x:.17g}" for x in cols[frame]) + f",{label}"

    t_max, last = record.config.t_max, samples - 1
    rows = []
    for j in range(samples):
        t = record.impacts[0].t * j / last
        rows.append(row(t, flight_position(record.z0, record.v0, t), 0))
    for k, seg in enumerate(record.segments, start=1):
        span = seg.delta
        if span is None:  # the open last arc, up to its next impact
            span = min(solve_delta(seg.a, record.beta[-1]),
                       t_max - seg.t_start)
        for j in range(samples):
            s = span * j / last
            rows.append(row(seg.t_start + s, segment_position(seg, s), k))
    q = record.quasi_start
    if q is not None:
        for j in range(samples):
            t = q.t1 + (t_max - q.t1) * j / last
            rows.append(row(t, quasi_position(q, t), len(record.impacts)))
    return rows


@pytest.mark.parametrize("frame", ["both", "rotating", "lab"])
@pytest.mark.parametrize("start, quasi", [
    ((1j, 1 + 0j), "stop"),               # closed arcs and an open last arc
    (stopping_set_point(1.0, 1.0), "extend")])  # full stop, then sliding
def test_simulate_csv_matches_positions(capsys, frame, start, quasi):
    z0, v0 = start
    record = simulate(z0, v0, SimConfig(n_max=6, t_max=4.0, quasi_mode=quasi))
    assert record.termination in ("reached_n_max", "reached_t_max",
                                  "degenerate_quasi")
    assert not record.segments or record.segments[-1].delta is None
    code = run_cli(["simulate", f"--z0={z0.real!r},{z0.imag!r}",
                    f"--v0={v0.real!r},{v0.imag!r}", "--n-max", "6",
                    "--t-max", "4", "--quasi", quasi, "--frame", frame,
                    "--samples", "7"])
    lines = capsys.readouterr().out.split("\n")
    assert code == 0
    assert lines[0] == {"both": "t,re_rot,im_rot,re_lab,im_lab,segment",
                        "rotating": "t,re_rot,im_rot,segment",
                        "lab": "t,re_lab,im_lab,segment"}[frame]
    assert lines[1:] == _csv_rows_from_positions(record, frame, 7) + [""]


@pytest.fixture(scope="module")
def csv_records() -> list:
    """Seeded records with a finite t_max: open last arcs, closed arcs,
    full stops in both modes, and one record read back from its JSON."""
    rng = random.Random(20261019)
    records = [simulate(z0, v0, SimConfig(n_max=rng.randrange(1, 30),
                                          t_max=rng.uniform(1.0, 9.0)))
               for z0, v0 in random_supported_starts(70, seed=919)]
    for quasi in ("stop", "extend"):
        z0, v0 = stopping_set_point(rng.uniform(0.2, 3.0),
                                    rng.uniform(0.1, 4.4))
        records.append(simulate(z0, v0, SimConfig(n_max=5, t_max=6.0,
                                                  quasi_mode=quasi)))
    records = [record for record in records if record.t]
    return records + [record_from_json(record_to_json(records[0]))]


@pytest.mark.parametrize("samples", [2, 4])
@pytest.mark.parametrize("frame", ["both", "rotating", "lab"])
def test_csv_matches_positions_on_seeded_starts(csv_records, frame, samples):
    assert len(csv_records) >= 53  # at least 50 seeded starts
    assert {r.termination for r in csv_records} == {
        "reached_n_max", "reached_t_max", "degenerate_stop",
        "degenerate_quasi"}
    opts = ExportOptions("csv", frame, samples)
    for record in csv_records:
        lines = export_trajectory(record, opts).split("\n")
        assert lines[1:] == _csv_rows_from_positions(record, frame,
                                                     samples) + [""]


@pytest.fixture(scope="module")
def long_cut_record():
    """The reference orbit cut at t_max = 12: 1586 impacts, r up to 1e5."""
    record = simulate(1j, 1, SimConfig(n_max=10_000, t_max=12.0))
    assert len(record.t) == 1586 and record.t[-1] < 12.0
    assert record.termination == "reached_t_max" and record.r[-1] > 9e4
    return record


@pytest.mark.parametrize("samples", [4, 64])
@pytest.mark.parametrize("frame", ["both", "rotating", "lab"])
def test_long_record_csv_matches_positions(long_cut_record, frame,
                                           samples):
    # the arcs sampled in floats print as the complex products of the
    # position functions, row for row, along the long orbit to large r
    # and t, and the record read back from its JSON prints the same
    opts = ExportOptions("csv", frame, samples)
    text = export_trajectory(long_cut_record, opts)
    assert text.split("\n")[1:] == _csv_rows_from_positions(
        long_cut_record, frame, samples) + [""]
    back = record_from_json(record_to_json(long_cut_record))
    assert export_trajectory(back, opts) == text


def test_csv_samples_stay_above_the_rod(csv_records):
    # an open last arc ends at its next impact, even under a later t_max:
    # no rotating-frame sample lies below the rod beyond rounding
    record = simulate(1j, 1, SimConfig(n_max=6, t_max=4.0))
    rows = [[float(x) for x in line.split(",")] for line in export_trajectory(
        record, ExportOptions("csv", "rotating", 64)).splitlines()[1:]]
    assert max(t for t, _, _, k in rows if k == 6) == simulate(
        1j, 1, SimConfig(n_max=7)).t[6]
    for record in csv_records:
        for samples in (2, 4, 64):
            for line in export_trajectory(record, ExportOptions(
                    "csv", "rotating", samples)).splitlines()[1:]:
                _, x, y, _ = map(float, line.split(","))
                assert y >= -8.0 * EPS * max(1.0, math.hypot(x, y)), (
                    record.z0, record.v0, line)


def test_percent_format_prints_as_format_spec():
    # the CSV rows print floats with one %-format; the views and the
    # earlier writer used {:.17g}
    values = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max,
              -sys.float_info.max, 1e16, 1e17, math.inf, -math.inf, math.nan]
    rng = random.Random(17)
    values += struct.unpack("<100000d", rng.randbytes(800_000))
    assert ["%.17g" % x for x in values] == [f"{x:.17g}" for x in values]


def test_simulate_json_roundtrip(capsys):
    code = run_cli(["simulate", "--z0", "0,1", "--v0", "1,0",
                    "--n-max", "4", "--format", "json"])
    text = capsys.readouterr().out
    assert code == 0
    record = record_from_json(text)
    assert record_to_json(record) == text
    direct = simulate(1j, 1 + 0j, SimConfig(n_max=4))
    assert record == direct


# simulate(1j, 1, SimConfig(n_max=3)) and simulate(GRAZING_Z0, GRAZING_V0,
# SimConfig(n_max=3)) as record_to_json writes them, with their arc heights
_TRANSVERSAL_JSON = (
    '{"z0":[0.0,1.0],"v0":[1.0,0.0],"config":{"root_abs_tol":1e-13,'
    '"scan_step":0.001,"n_max":3,"t_max":null,"quasi_mode":"stop"},'
    '"termination":"reached_n_max","first_kind":"transversal","t":'
    '[0.8603335890193797,1.9223637703449956,2.5525310753237767],"r":'
    '[1.3191565048905178,4.13015009536933,7.673384573531324],"a":'
    '[0.49439518471943134,0.7951015404037628,0.8968053785291485],"beta":'
    '[1.5746552163364327,0.7373483967993941,0.49667945505500244],"delta":'
    '[1.0620301813256159,0.6301673049787812]}\n')
_GRAZING_JSON = (
    '{"z0":[1.6547363797861485,0.9445885418594867],"v0":[-1.0769821877578958,'
    '-0.010457879910216962],"config":{"root_abs_tol":1e-13,"scan_step":0.001,'
    '"n_max":3,"t_max":null,"quasi_mode":"stop"},"termination":'
    '"reached_n_max","first_kind":"grazing","t":[1.1999999999999997,'
    '2.2997161069879026,2.742409088336715],"r":[1.0000000000000002,'
    '1.2341404753646514,1.7134197420362611],"a":[-0.40000000000000013,'
    '0.5749255625837248,0.7887064691616316],"beta":[2.4980018054066017e-16,'
    '0.3434454606976984,0.30301778085963244],"delta":[1.099716106987903,'
    '0.44269298134881246]}\n')


# the heights lie within max_ulps of their 40-digit peaks: the transversal
# ones 1.64 and 0.11 ulps off, the grazing ones 0.82 and 1.04
@pytest.mark.parametrize("text,start,heights,max_ulps", [
    (_TRANSVERSAL_JSON, (1j, 1), [0.7175387862946464, 0.5506705748055817],
     2.0),
    (_GRAZING_JSON, (GRAZING_Z0, GRAZING_V0),
     [0.07183740895470607, 0.05274314014934899], 1.5)])
def test_pinned_json_loads(text, start, heights, max_ulps):
    record = simulate(*start, SimConfig(n_max=3))
    loaded = record_from_json(text)
    assert record_to_json(record) == text
    assert loaded == record
    assert repr(loaded) == repr(record)
    assert list(loaded.heights) == heights
    mpmath = pytest.importorskip("mpmath")
    for k, height in enumerate(heights):
        ref = peak_height(mpmath.mp, record.r[k], record.a[k],
                          record.beta[k], record.delta[k])
        assert ulps_off(height, ref) <= max_ulps, k


def test_pinned_transversal_record_is_near_the_reference_orbit():
    # t, r and delta of the pinned transversal record within an ulp of the
    # 50-digit checkpoints n = 1-3 of perfbench/reference.json (the
    # bracketed delta solve left delta_2 1.23 ulps off)
    record = simulate(1j, 1, SimConfig(n_max=3))
    checkpoints = json.loads(REFERENCE.read_text())["checkpoints"]
    for n in (1, 2, 3):
        for key in ("t", "r", "delta"):
            column = getattr(record, key)
            if n > len(column):
                continue
            ref = Fraction(Decimal(checkpoints[str(n)][key]))
            x = column[n - 1]
            assert abs(Fraction(x) - ref) <= math.ulp(x), (n, key)


@pytest.mark.parametrize("tables", [
    {"impacts": {"n": [1], "t": [0.86]}, "segments": {"n": [1], "a": [0.49]}},
    {"impacts": [{"n": 1, "t": 0.86}], "segments": [{"n": 1, "a": 0.49}]}])
def test_json_of_earlier_layout_is_rejected(tables):
    # impacts and segments as tables of columns, or earlier still as lists
    # of row objects
    data = json.loads(record_to_json(simulate(1j, 1, SimConfig(n_max=1))))
    for key in ("t", "r", "a", "beta", "delta", "first_kind"):
        del data[key]
    with pytest.raises(ValueError, match="pre-columnar layout"):
        record_from_json(json.dumps({**data, **tables}))


# a first contact whose derived incoming velocity, -0.2 + 2.7e-10i at
# r = 0.1, is a tangency that classify_impact rejects: the reader takes it
# as grazing, as first_impact does
_TANGENT_START = (0.2462377902412316 + 0.198411064605555j,
                  -0.1922075596544176 - 0.11426396637476535j)
_ROUNDTRIP_CASES = ("transversal", "grazing", "degenerate_stop",
                    "degenerate_quasi", "unsupported_first_impact",
                    "reached_t_max")


@pytest.fixture(scope="module")
def roundtrip_records() -> dict[str, list]:
    """Seeded records of every termination, by case."""
    rng = random.Random(20261018)
    cases = {case: [] for case in _ROUNDTRIP_CASES}
    for z0, v0 in random_supported_starts(8, seed=rng.randrange(2**32)):
        cases["transversal"].append(simulate(z0, v0, SimConfig(n_max=25)))
        cases["reached_t_max"].append(simulate(
            z0, v0, SimConfig(n_max=1000, t_max=rng.uniform(0.5, 4.0))))
    cases["grazing"].append(simulate(GRAZING_Z0, GRAZING_V0,
                                     SimConfig(n_max=25)))
    cases["grazing"].append(simulate(*_TANGENT_START, SimConfig(n_max=3)))
    for quasi, case in (("stop", "degenerate_stop"),
                        ("extend", "degenerate_quasi")):
        for _ in range(4):
            z0, v0 = stopping_set_point(rng.uniform(0.2, 3.0),
                                        rng.uniform(0.1, 4.4))
            cases[case].append(simulate(z0, v0, SimConfig(
                n_max=5, quasi_mode=quasi, t_max=6.0)))
    while len(cases["unsupported_first_impact"]) < 4:
        record = simulate(complex(rng.uniform(-5, 5), rng.uniform(0.1, 5)),
                          complex(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                          SimConfig(n_max=25))
        if record.termination == "unsupported_first_impact":
            cases["unsupported_first_impact"].append(record)
    return cases


@pytest.mark.parametrize("case", _ROUNDTRIP_CASES)
def test_json_roundtrip_is_bit_exact(roundtrip_records, case):
    records = roundtrip_records[case]
    ended = {"transversal": "reached_n_max", "grazing": "reached_n_max"}
    assert {r.termination for r in records} == {ended.get(case, case)}
    if case == "grazing":
        assert records[0].impacts[0].kind == "grazing"
        tangent = records[1]
        assert tangent.first_kind == "grazing"
        with pytest.raises(ContractViolation):
            classify_impact(tangent.r[0], tangent.first_zdot_in)
    if case.startswith("degenerate"):
        assert records[0].impacts[-1].zdot_out == 0j
    for record in records:
        back = record_from_json(record_to_json(record))
        # equal reprs tell -0.0 from 0.0, which == does not
        assert back == record
        assert repr(back) == repr(record)


@pytest.mark.parametrize("key,edit", [
    ("a", lambda col: col[:2]),
    ("delta", lambda col: col + col[:2]),
    ("r", lambda col: col[:-1]),
    ("beta", lambda col: col[1:]),
    ("t", lambda col: col + col[-1:])])
def test_json_with_inconsistent_columns_is_rejected(key, edit):
    data = json.loads(record_to_json(simulate(1j, 1, SimConfig(n_max=5))))
    data[key] = edit(data[key])
    with pytest.raises(ValueError, match="inconsistent lengths"):
        record_from_json(json.dumps(data))


@pytest.mark.parametrize("key,k,literal,match", [
    ("r", 1, "NaN", "non-finite"),
    ("z0", 0, "NaN", "non-finite"),
    ("t", 2, "1e999", "non-finite"),
    ("v0", 1, "-Infinity", "non-finite"),
    ("a", 0, "Infinity", "non-finite"),
    ("beta", 2, "NaN", "non-finite"),
    ("delta", 1, "-1e999", "non-finite"),
    pytest.param("t", 1, "1" + "0" * 400, "too large for a float",
                 id="t-1-401_digits"),
    pytest.param("v0", 0, "-" + "9" * 400, "too large for a float",
                 id="v0-0-minus_400_digits"),
    ("r", 1, "true", "boolean"),
    ("z0", 0, "false", "boolean"),
    ("delta", 0, "false", "boolean"),
    ("termination", None, '"bogus"', "unknown termination"),
    ("config", "n_max", "2.5", "n_max"),
    ("config", "n_max", "true", "n_max"),
    ("config", "t_max", "true", "t_max"),
    ("config", "scan_step", "false", "scan_step"),
    ("config", "root_abs_tol", "true", "root_abs_tol"),
    pytest.param("config", "t_max", "1" + "0" * 400, "t_max",
                 id="config-t_max-401_digits"),
    pytest.param("config", "scan_step", "1" + "0" * 400, "scan_step",
                 id="config-scan_step-401_digits"),
    pytest.param("config", "root_abs_tol", "1" + "0" * 400, "root_abs_tol",
                 id="config-root_abs_tol-401_digits"),
    ("r", 0, '"x"', "wrongly typed"),
    ("r", None, "5", "wrongly typed"),
    ("z0", None, "[0, 1, 2]", "wrongly typed"),
    ("config", None, '{"n_max": 3, "bogus": 1}', "wrongly typed")])
def test_json_with_bad_value_is_rejected(key, k, literal, match):
    # a non-finite number, an integer too large for a float, a boolean
    # number, an unknown termination, a non-integer or boolean n_max, a
    # boolean or too large float setting or a wrongly typed entry, put in
    # the text in place of one entry
    data = json.loads(record_to_json(simulate(1j, 1, SimConfig(n_max=3))))
    if k is None:
        data[key] = "@"
    else:
        data[key][k] = "@"
    text = json.dumps(data).replace('"@"', literal)
    with pytest.raises(ValueError, match=match):
        record_from_json(text)


@pytest.mark.parametrize("n_max,t_max,key,value", [
    (3, None, "first_kind", None),
    (3, None, "first_kind", "bogus"),
    (3, 0.5, "first_kind", "transversal")])
def test_json_with_a_first_impact_that_does_not_fit_t_is_rejected(
        n_max, t_max, key, value):
    # first_kind is null exactly when t is empty (t_max = 0.5 ends the
    # record before its first impact), else a known kind
    record = simulate(1j, 1, SimConfig(n_max=n_max, t_max=t_max or math.inf))
    assert len(record.t) == (0 if t_max else 3)
    data = json.loads(record_to_json(record))
    assert record_from_json(json.dumps(data)) == record
    data[key] = value
    with pytest.raises(ValueError, match="first impact"):
        record_from_json(json.dumps(data))


@pytest.mark.parametrize("text,kind", [(_TRANSVERSAL_JSON, "grazing"),
                                       (_GRAZING_JSON, "transversal")],
                         ids=["transversal", "grazing"])
def test_json_with_a_first_kind_that_misfits_its_velocity_is_rejected(
        text, kind):
    # the first kind is the verdict on the derived incoming velocity: the
    # transversal contact at 0.652 - 2.077i does not graze
    data = json.loads(text)
    data["first_kind"] = kind
    with pytest.raises(ValueError, match="misfits its velocity"):
        record_from_json(json.dumps(data))


def test_json_first_kind_is_the_verdict_on_its_velocity():
    # simulate's first kinds pass the reader's verdict: random starts,
    # grazing starts and full-stop starts with v0 scaled by 1 + eps, in
    # both quasi modes, reload as written, and every kind occurs
    rng = random.Random(3401)
    starts = [(complex(rng.uniform(-5, 5), rng.uniform(0.1, 5)),
               complex(rng.uniform(-5, 5), rng.uniform(-5, 5)))
              for _ in range(300)]
    for eps in (0.0, 1e-12, -1e-12, 1e-8, -1e-8, 1e-4):
        for _ in range(30):
            z0, v0 = stopping_set_point(10.0 ** rng.uniform(-3, 3),
                                        rng.uniform(0.01, 3))
            starts.append((z0, v0 * (1.0 + eps)))
    starts += [make_grazing_start(10.0 ** rng.uniform(-3, 3),
                                  -10.0 ** rng.uniform(-3, 0.3),
                                  rng.uniform(0.05, 3)) for _ in range(60)]
    kinds = set()
    for (z0, v0), quasi_mode in itertools.product(starts, ("stop", "extend")):
        record = simulate(z0, v0, SimConfig(n_max=3, quasi_mode=quasi_mode))
        assert record_from_json(record_to_json(record)) == record
        kinds.add(record.first_kind)
    assert kinds == {None, "transversal", "grazing", "degenerate"}


def _full_stop_json(quasi_mode):
    z0, v0 = stopping_set_point(1.5, 2.0)
    return json.loads(record_to_json(simulate(
        z0, v0, SimConfig(n_max=3, quasi_mode=quasi_mode))))


@pytest.mark.parametrize("full_stop,edits", [
    (False, {"termination": "degenerate_stop"}),
    (False, {"termination": "degenerate_quasi"}),
    (True, {"termination": "reached_n_max"}),
    (True, {"termination": "reached_t_max"}),
    (True, {"first_kind": "transversal"}),
    (True, {"t": [2.0, 2.5], "r": [1.5, 2.0]}),
    (True, {"a": [0.5], "beta": [0.5]}),
    (False, {"a": [], "beta": [], "delta": []})])
def test_json_with_a_termination_that_misfits_its_columns_is_rejected(
        full_stop, edits):
    # degenerate_stop or degenerate_quasi exactly when the first impact is
    # degenerate, and then with that one impact and no arc; without a full
    # stop every impact leaves an arc
    data = (_full_stop_json("extend") if full_stop else
            json.loads(record_to_json(simulate(1j, 1, SimConfig(n_max=3)))))
    assert record_from_json(json.dumps(data)).termination == (
        "degenerate_quasi" if full_stop else "reached_n_max")
    data.update(edits)
    with pytest.raises(ValueError, match="misfits the first impact"):
        record_from_json(json.dumps(data))


@pytest.mark.parametrize("full_stop,quasi_start", [
    (True, {"r": 2, "t1": 0.5}),
    (True, None),
    (False, {"r": 2, "t1": 0.5})])
def test_json_quasi_start_of_older_documents_is_ignored(full_stop,
                                                        quasi_start):
    # the record derives its sliding start from the termination and the
    # first impact; a document written with the key loads as without it
    if full_stop:
        data = _full_stop_json("extend")
        data["t"] = data["r"] = [1.0]
    else:
        data = json.loads(record_to_json(simulate(1j, 1, SimConfig(n_max=3))))
    text = json.dumps(data, separators=(",", ":")) + "\n"
    loaded = record_from_json(json.dumps({**data, "quasi_start": quasi_start}))
    assert record_to_json(loaded) == text
    assert loaded.quasi_start == (QuasiTrajectory(r=1.0, t1=1.0) if full_stop
                                  else None)


def _first_zdot_in_records():
    """A transversal, a grazing and a full-stop record, one cut before its
    first impact, and each one's derived first incoming velocity."""
    full_stop = simulate(*stopping_set_point(1.5, 2.0), SimConfig(n_max=3))
    transversal = simulate(1j, 1, SimConfig(n_max=3))
    grazing = simulate(GRAZING_Z0, GRAZING_V0, SimConfig(n_max=3))
    return [(full_stop, 0j),
            (transversal, flight_velocity(1j, 1, transversal.t[0])),
            (grazing, flight_velocity(GRAZING_Z0, GRAZING_V0, grazing.t[0])),
            (simulate(1j, 1, SimConfig(n_max=3, t_max=0.5)), None)]


@pytest.mark.parametrize("first_zdot_in", [[0.5, -1.0], [0.0, 0.0], None])
def test_json_first_zdot_in_of_older_documents_is_ignored(first_zdot_in):
    # the record derives the first impact's incoming velocity from z0, v0,
    # t[0] and first_kind; an older document's value, even one that
    # contradicts the flight or the impacts, loads as without it
    for record, derived in _first_zdot_in_records():
        text = record_to_json(record)
        loaded = record_from_json(json.dumps(
            {**json.loads(text), "first_zdot_in": first_zdot_in}))
        assert loaded == record and record_to_json(loaded) == text
        assert loaded.first_zdot_in == derived
        assert loaded.impacts == record.impacts


def test_json_without_first_zdot_in_loads():
    for record, derived in _first_zdot_in_records():
        data = json.loads(record_to_json(record))
        data.pop("first_zdot_in", None)
        loaded = record_from_json(json.dumps(data))
        assert loaded == record
        assert loaded.first_zdot_in == derived
        if record.t:
            assert loaded.impacts[0].zdot_in == derived


@pytest.mark.parametrize("key", [
    "first_kind", "termination", "config", "z0", "delta"])
def test_json_that_lacks_a_key_is_rejected(key):
    data = json.loads(record_to_json(simulate(1j, 1, SimConfig(n_max=3))))
    del data[key]
    with pytest.raises(ValueError, match=f"lacks the key '{key}'"):
        record_from_json(json.dumps(data))


def test_json_with_edited_radius_fails_on_height():
    # the loader takes the columns as stored; an arc height checks its
    # arc when it is solved
    data = json.loads(record_to_json(simulate(1j, 1, SimConfig(n_max=3))))
    data["r"][0] = -1.0
    record = record_from_json(json.dumps(data))
    with pytest.raises(ValueError, match="r > 0"):
        record.heights[0]


@pytest.mark.parametrize("key,k,value,match", [
    ("r", 0, -1.0, "radius"),
    ("r", 2, 0.0, "radius"),
    ("r", -1, -2.0, "radius"),      # the open last arc
    ("delta", 1, math.pi, "duration"),
    ("delta", 0, 4.0, "duration"),
    ("delta", 2, 0.0, "duration")])
@pytest.mark.parametrize("t_max", [None, 40.0])
def test_export_rejects_an_edited_arc(key, k, value, match, t_max):
    # the loader takes the columns as stored; the CSV export checks each
    # arc as a FlightSegment does
    data = json.loads(record_to_json(simulate(1j, 1, SimConfig(n_max=4))))
    data["config"]["t_max"] = t_max
    data[key][k] = value
    record = record_from_json(json.dumps(data))
    assert export_trajectory(record, ExportOptions("json"))
    with pytest.raises(ValueError, match=match):
        export_trajectory(record, ExportOptions("csv", samples_per_segment=4))


def test_export_rejects_one_sample_per_arc():
    record = simulate(1j, 1, SimConfig(n_max=4))
    assert export_trajectory(record, ExportOptions("json",
                                                   samples_per_segment=1))
    with pytest.raises(ValueError, match="at least 2"):
        export_trajectory(record, ExportOptions("csv", samples_per_segment=1))


@pytest.mark.parametrize("samples", [2.5, 3.0, True, False, "4"])
def test_export_rejects_a_non_int_sample_count(samples):
    # refused as SimConfig.n_max refuses it: 2.5 and 3.0 used to raise
    # TypeError inside range, and True was taken as 1
    record = simulate(1j, 1, SimConfig(n_max=4))
    with pytest.raises(ValueError, match="must be an int at least 2"):
        export_trajectory(record, ExportOptions(
            "csv", samples_per_segment=samples))


def test_json_roundtrip_degenerate_record():
    z0, v0 = stopping_set_point(1.5, 2.0)
    record = simulate(z0, v0, SimConfig(n_max=3, quasi_mode="extend"))
    text = record_to_json(record)
    assert record_from_json(text) == record
    assert json.loads(text)["termination"] == "degenerate_quasi"


def test_impacts_csv(capsys):
    code = run_cli(["impacts", "--z0", "0,1", "--v0", "1,0", "--n-max", "3"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "n,t_n,delta_n,r_n,a_n,b_n,re_in,im_in,kind"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert abs(float(first[1]) - 0.8603335890193798) < 1e-12
    assert abs(float(first[3]) - 1.3191565048905179) < 1e-12
    assert abs(float(first[4]) - 0.4943951847194312) < 1e-10
    assert abs(float(first[5]) - 2.5746552163364326) < 1e-10
    assert first[8] == "transversal"
    # every row carries a delta, including the final (open) segment's
    assert all(line.split(",")[2] != "" for line in lines[1:])


def test_impacts_seventeen_digit_roundtrip(capsys):
    run_cli(["impacts", "--z0", "0,1", "--v0", "1,0", "--n-max", "2"])
    out = capsys.readouterr().out
    row = out.splitlines()[1].split(",")
    record = simulate(1j, 1 + 0j, SimConfig(n_max=2))
    assert float(row[1]) == record.impacts[0].t  # exact decimal round-trip
    assert float(row[3]) == record.impacts[0].r


def test_impacts_deterministic_bytes(capsys):
    args = ["impacts", "--z0", "0.3,2", "--v0=-1,0.5", "--n-max", "6"]
    run_cli(args)
    first = capsys.readouterr().out
    run_cli(args)
    second = capsys.readouterr().out
    assert first == second


def test_impacts_grazing_only_at_first_row(capsys):
    from conftest import GRAZING_Z0 as z0, GRAZING_V0 as v0
    run_cli(["impacts", f"--z0={z0.real},{z0.imag}",
             f"--v0={v0.real},{v0.imag}", "--n-max", "6"])
    lines = capsys.readouterr().out.splitlines()
    kinds = [line.split(",")[-1] for line in lines[1:]]
    assert kinds[0] == "grazing"
    assert all(kind == "transversal" for kind in kinds[1:])


@pytest.mark.parametrize("z0", ["0.2462377902412316,0.198411064845555",
                                "0.2462377902412316,0.198411064605555"])
def test_impacts_near_grazing_start(capsys, z0):
    # make_grazing_start(0.1, -2.0, 1.0) lowered by 1e-11 and by 2.4e-10:
    # the path still touches the rod at its tangency, a grazing impact
    # whose arc has b = 1; both runs used to end in ContractViolation
    code = run_cli(["impacts", "--z0", z0,
                    "--v0=-0.1922075596544176,-0.11426396637476535",
                    "--n-max", "3"])
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert [row[-1] for row in rows[1:]] == ["grazing", "transversal",
                                              "transversal"]
    assert rows[1][5] == "1"


def _impacts_by_rows(record) -> str:
    """The ``impacts`` CSV as the earlier renderer built it: one
    ImpactEvent and FlightSegment view per row, each float by {:.17g}."""
    fmt = "{:.17g}".format
    lines = ["n,t_n,delta_n,r_n,a_n,b_n,re_in,im_in,kind"]
    for ev, seg in itertools.zip_longest(record.impacts, record.segments):
        delta_s = a_s = b_s = ""
        if seg is not None:
            delta = seg.delta
            if delta is None:  # the open last arc, from beta rather than b - 1
                delta = solve_delta(seg.a, record.beta[-1])
            delta_s, a_s, b_s = fmt(delta), fmt(seg.a), fmt(seg.b)
        lines.append(",".join([
            str(ev.n), fmt(ev.t), delta_s, fmt(ev.r), a_s, b_s,
            fmt(ev.zdot_in.real), fmt(ev.zdot_in.imag), ev.kind]))
    return "\n".join(lines) + "\n"


def test_impacts_rows_match_the_row_by_row_renderer():
    rng = random.Random(20261020)
    records = [simulate(1j, 1 + 0j, SimConfig(n_max=2000)),
               simulate(GRAZING_Z0, GRAZING_V0, SimConfig(n_max=25))]
    for z0, v0 in random_supported_starts(80, seed=920):
        records.append(simulate(z0, v0, SimConfig(n_max=25)))
        records.append(simulate(z0, v0, SimConfig(
            n_max=1000, t_max=rng.uniform(1.0, 9.0))))
    for quasi in ("stop", "extend"):
        for _ in range(5):
            z0, v0 = stopping_set_point(rng.uniform(0.2, 3.0),
                                        rng.uniform(0.1, 4.4))
            records.append(simulate(z0, v0, SimConfig(n_max=5,
                                                      quasi_mode=quasi)))
    assert {r.termination for r in records} == {
        "reached_n_max", "reached_t_max", "degenerate_stop",
        "degenerate_quasi"}
    for record in records:
        assert cli_io._impacts_render(record, None) == (
            _impacts_by_rows(record), "", 0)


def test_asympt_summary_format(capsys):
    code = run_cli(["asympt", "--z0", "0,1", "--v0", "1,0",
                    "--at", "100,200"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == ("n,delta_n,n_delta_n,b_minus_1_scaled,ratio_scaled,"
                        "t_over_logn,height_n,a_n")
    assert len([ln for ln in lines if ln.startswith("n*delta_n@")]) == 2
    summary = [ln for ln in lines if ln.startswith("n*delta_n@100=")][0]
    value = float(summary.split("=")[1].split()[0])
    assert summary.endswith(("PASS", "FAIL"))
    assert 1.0 < value < 2.0


def test_asympt_budget_too_small_exit_1():
    with pytest.raises(SystemExit) as exc:
        run_cli(["asympt", "--z0", "0,1", "--v0", "1,0", "--at", "10",
                 "--n-max", "5"])
    assert exc.value.code == 1


def test_asympt_index_zero_exit_1():
    with pytest.raises(SystemExit) as exc:
        run_cli(["asympt", "--z0", "0,1", "--v0", "1,0", "--at", "0"])
    assert exc.value.code == 1


def test_oracle_comparison_ok(capsys):
    code = run_cli(["oracle", "--z0", "0,1", "--v0", "1,0",
                    "--n-impacts", "10"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "n,t_map,t_oracle,abs_diff,r_map,r_oracle"
    assert len(lines) == 11
    for line in lines[1:]:
        cols = line.split(",")
        assert float(cols[3]) <= 1e-9 * (1 + float(cols[1]))


def test_oracle_hundred_impacts_ok(capsys):
    # radii reach 1.5e3 here; both paths solve to 1e-15 so that their gap
    # stays inside the absolute band 1e-9 (1 + t)
    code = run_cli(["oracle", "--z0", "0,1", "--v0", "1,0",
                    "--n-impacts", "100"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 101


def test_oracle_four_hundred_impacts_ok(capsys):
    # radii reach 1.2e4 here; the oracle's roots carry no bias that
    # compounds along the orbit, so r stays inside the absolute band
    code = run_cli(["oracle", "--z0", "0,1", "--v0", "1,0",
                    "--n-impacts", "400"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert len(captured.out.splitlines()) == 401


def test_oracle_honours_t_max(capsys):
    # both paths stop at the time budget: 4 impacts before t = 3
    code = run_cli(["oracle", "--z0", "0,1", "--v0", "1,0",
                    "--n-impacts", "10", "--t-max", "3"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 0
    assert captured.err == ""
    assert len(lines) == 5
    for line in lines[1:]:
        cols = line.split(",")
        t = float(cols[1])
        assert float(cols[3]) <= 1e-9 * (1 + t)
        assert abs(float(cols[4]) - float(cols[5])) <= 1e-9 * (1 + t)


def test_oracle_first_contact_within_one_scan_step_ok(capsys):
    # the first impact comes at t = 5e-5, inside the oracle's first scan step
    code = run_cli(["oracle", "--z0", "1,1e-4", "--v0", "0,-1",
                    "--n-impacts", "3"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 0
    assert captured.err == ""
    assert len(lines) == 4
    assert float(lines[1].split(",")[2]) < 1e-4


def test_oracle_next_impact_within_one_scan_step_exit_4(capsys):
    # with scan_step = 0.8 the reference orbit's height is already negative
    # one step (and ten steps) past its second impact
    message = ("the next impact after t = 1.9223637703449956 comes within "
               "one scan step")
    with pytest.raises(OracleMismatch, match=message):
        oracle_simulate(1j, 1, 30, SimConfig(scan_step=0.8))
    code = run_cli(["oracle", "--z0", "0,1", "--v0", "1,0",
                    "--n-impacts", "10", "--scan-step", "0.8"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert message in captured.err


def test_oracle_coarse_scan_exit_4(capsys):
    code = run_cli(["oracle", "--z0", "0,1", "--v0", "1,0",
                    "--n-impacts", "10", "--scan-step", "0.5"])
    captured = capsys.readouterr()
    assert code == 4
    assert "oracle" in captured.err


def test_oracle_length_mismatch_exit_4(capsys, monkeypatch):
    scan = cli_io.oracle_simulate
    monkeypatch.setattr(cli_io, "oracle_simulate",
                        lambda *args: scan(*args)[:-1])
    code = run_cli(["oracle", "--z0", "0,1", "--v0", "1,0",
                    "--n-impacts", "5"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "produced 5 impacts, oracle 4" in captured.err


def test_oracle_caps_budget():
    with pytest.raises(SystemExit) as exc:
        run_cli(["oracle", "--z0", "0,1", "--v0", "1,0",
                 "--n-impacts", "2000"])
    assert exc.value.code == 1


def test_oracle_degenerate_start_exit_3(capsys):
    z0, v0 = stopping_set_point(1.0, 1.0)
    code = run_cli(["oracle", f"--z0={z0.real},{z0.imag}",
                    f"--v0={v0.real},{v0.imag}", "--n-impacts", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert "not applicable" in captured.err


def test_out_file_and_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("z0=0,1\nv0=1,0\n# comment\nn-max=3\n")
    out_file = tmp_path / "impacts.csv"
    code = run_cli(["impacts", "--config", str(cfg_file),
                    "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 4  # header + three impacts from n-max=3

    # a flag overrides the same key in the file
    code = run_cli(["impacts", "--config", str(cfg_file), "--n-max", "5",
                    "--out", str(out_file)])
    assert code == 0
    assert len(out_file.read_text().splitlines()) == 6


def test_config_file_unknown_key_exit_1(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("z0=0,1\nv0=1,0\nbogus=1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["impacts", "--config", str(cfg_file)])
    assert exc.value.code == 1


def test_config_file_unreadable_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["impacts", "--config", str(tmp_path / "missing.cfg")])
    assert exc.value.code == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rodbilliard.cli_io", "simulate",
         "--z0", "0,1", "--v0", "0,0", "--n-max", "1", "--samples", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("t,re_rot,im_rot,re_lab,im_lab,segment")


def test_package_runs_as_module():
    # python -m rodbilliard, without the RuntimeWarning that running the
    # already imported cli_io module as __main__ gives
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "rodbilliard",
         "impacts", "--z0", "0,1", "--v0", "1,0", "--n-max", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n,t_n,delta_n,r_n,a_n,b_n,re_in,im_in,kind")
    assert proc.stderr == ""


def test_impacts_open_last_arc_keeps_full_precision(capsys):
    # the last row's delta is solved from beta = -Im zdot_in / r; from
    # b - 1 it loses eps/beta of beta's precision (6.5e-13 relative here)
    code = run_cli(["impacts", "--z0", "0,1", "--v0", "1,0",
                    "--n-max", "10001"])
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    assert code == 0 and last[0] == "10001"
    closed = simulate(1j, 1 + 0j, SimConfig(n_max=10002)).segments[10000]
    assert abs(float(last[2]) - closed.delta) <= 1e-15 * closed.delta


@pytest.mark.parametrize("n", [13, 14, 15, 26])
def test_impacts_open_last_arc_matches_closed_row(capsys, n):
    # the open last arc's delta is the one the next impact closes
    rows = []
    for n_max in (n, n + 1):
        assert run_cli(["impacts", "--z0", "0,1", "--v0", "1,0",
                        "--n-max", str(n_max)]) == 0
        rows.append(capsys.readouterr().out.splitlines())
    assert rows[0][n] == rows[1][n]


@pytest.mark.parametrize("exit_code", [2, 3])
def test_asympt_early_end_reported_without_csv(capsys, exit_code):
    if exit_code == 2:
        start = ["--z0", "0,1", "--v0=-1,-10"]
    else:
        z0, v0 = stopping_set_point(1.0, 1.0)
        start = [f"--z0={z0.real},{z0.imag}", f"--v0={v0.real},{v0.imag}"]
    code = run_cli(["asympt", *start, "--at", "10"])
    captured = capsys.readouterr()
    assert code == exit_code
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_out_into_missing_directory_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["impacts", "--z0", "0,1", "--v0", "1,0", "--n-max", "2",
                 "--out", str(tmp_path / "missing" / "impacts.csv")])
    assert exc.value.code == 1
    assert "cannot write output file" in capsys.readouterr().err


# every flag each subcommand takes, beside --config, with a value that
# differs from the base run below
CONFIG_KEYS = {
    "simulate": ["z0", "v0", "out", "n-max", "t-max", "quasi", "frame",
                 "samples", "format"],
    "impacts": ["z0", "v0", "out", "n-max", "t-max", "quasi"],
    "asympt": ["z0", "v0", "out", "n-max", "t-max", "at", "band"],
    "oracle": ["z0", "v0", "out", "t-max", "scan-step", "n-impacts"],
}
BASE_FLAGS = {"z0": "0,1", "v0": "1,0", "n-max": "6", "at": "5",
              "n-impacts": "5"}
KEY_VALUES = {"z0": "0.3,2", "v0": "1,0.5", "n-max": "8", "t-max": "50",
              "scan-step": "5e-4", "quasi": "extend", "frame": "lab",
              "samples": "5", "format": "json", "at": "3,4", "band": "1,2",
              "n-impacts": "4"}


def run_captured(args, capsys):
    try:
        code = run_cli(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command,key", [(c, k) for c, keys in
                                         CONFIG_KEYS.items() for k in keys])
def test_config_key_matches_flag(tmp_path, capsys, command, key):
    base = {k: v for k, v in BASE_FLAGS.items()
            if k != key and k in CONFIG_KEYS[command]}
    base_args = [command] + [f"--{k}={v}" for k, v in base.items()]
    value = KEY_VALUES.get(key)
    if key == "out":
        value = str(tmp_path / "flag.out")
    by_flag = run_captured(base_args + [f"--{key}={value}"], capsys)
    if key == "out":
        flag_text = (tmp_path / "flag.out").read_text()
        value = str(tmp_path / "file.out")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key}={value}\n")
    by_file = run_captured(base_args + ["--config", str(cfg_file)], capsys)
    assert by_flag[0] == 0
    assert by_file == by_flag
    if key == "out":
        assert (tmp_path / "file.out").read_text() == flag_text != ""


@pytest.mark.parametrize("command,line", [
    ("impacts", "quasi=bounce"), ("simulate", "frame=polar"),
    ("simulate", "format=xml"), ("impacts", "band=1,2"),
    ("impacts", "n-max 3")])
def test_config_file_bad_value_or_foreign_key_exit_1(tmp_path, command,
                                                     line):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"z0=0,1\nv0=1,0\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--config", str(cfg_file)])
    assert exc.value.code == 1


# flags that no output of the subcommand depends on: simulate, impacts and
# asympt never scan, asympt and oracle end at any full stop, and oracle's
# --n-impacts sets the impact budget
@pytest.mark.parametrize("command,key", [
    ("simulate", "scan-step"), ("impacts", "scan-step"),
    ("asympt", "scan-step"), ("asympt", "quasi"), ("oracle", "quasi"),
    ("oracle", "n-max")])
def test_flag_the_subcommand_does_not_take_exit_1(tmp_path, capsys, command,
                                                  key):
    base = [command] + [f"--{k}={v}" for k, v in BASE_FLAGS.items()
                        if k in CONFIG_KEYS[command]]
    assert run_captured(base, capsys)[0] == 0
    code, out, err = run_captured(base + [f"--{key}={KEY_VALUES[key]}"],
                                  capsys)
    assert (code, out) == (1, "") and "unrecognized arguments" in err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key}={KEY_VALUES[key]}\n")
    code, out, err = run_captured(base + ["--config", str(cfg_file)], capsys)
    assert (code, out) == (1, "") and f"unknown key {key!r}" in err
