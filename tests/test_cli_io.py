import json
import math
import subprocess
import sys

import pytest

from rodbilliard import SimConfig, simulate, unit_rotation
from rodbilliard.cli_io import main, record_from_json, record_to_json
from conftest import stopping_set_point


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


def test_simulate_unsupported_exit_2(capsys):
    code = run_cli(["simulate", "--z0", "0,1", "--v0=-1,-10",
                    "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unsupported" in captured.err


def test_simulate_degenerate_exit_3(capsys):
    z0, v0 = stopping_set_point(1.0, 1.0)
    code = run_cli(["simulate", f"--z0={z0.real},{z0.imag}",
                    f"--v0={v0.real},{v0.imag}", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert "degenerate" in captured.err
    assert captured.out.splitlines()[0] == "t,re_rot,im_rot,re_lab,im_lab,segment"


def test_simulate_quasi_extension_samples(capsys):
    z0, v0 = stopping_set_point(1.0, 1.0)
    code = run_cli(["simulate", f"--z0={z0.real},{z0.imag}",
                    f"--v0={v0.real},{v0.imag}", "--n-max", "3",
                    "--t-max", "2.0", "--quasi", "extend", "--samples", "8"])
    out = capsys.readouterr().out
    assert code == 0  # quasi extension is a successful run
    tail = out.splitlines()[-1].split(",")
    assert abs(float(tail[0]) - 2.0) < 1e-12
    assert abs(float(tail[1]) - math.cosh(1.0)) < 1e-9
    assert tail[-1] == "1"


def test_simulate_json_roundtrip(capsys):
    code = run_cli(["simulate", "--z0", "0,1", "--v0", "1,0",
                    "--n-max", "4", "--format", "json"])
    text = capsys.readouterr().out
    assert code == 0
    record = record_from_json(text)
    assert record_to_json(record) == text
    direct = simulate(1j, 1 + 0j, SimConfig(n_max=4))
    assert record == direct


def test_json_from_earlier_version_loads():
    # earlier records carry the removed series_switch_delta,
    # max_bisect_iters and grazing_tol settings
    record = simulate(1j, 1 + 0j, SimConfig(n_max=3))
    data = json.loads(record_to_json(record))
    data["config"].update(series_switch_delta=1e-4, max_bisect_iters=200,
                          grazing_tol=1e-10)
    assert record_from_json(json.dumps(data)) == record


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


def test_oracle_coarse_scan_exit_4(capsys):
    code = run_cli(["oracle", "--z0", "0,1", "--v0", "1,0",
                    "--n-impacts", "10", "--scan-step", "0.5"])
    captured = capsys.readouterr()
    assert code == 4
    assert "oracle" in captured.err


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


@pytest.mark.parametrize("quasi,exit_code", [(None, 2), ("stop", 3),
                                             ("extend", 3)])
def test_asympt_early_end_reported_without_csv(capsys, quasi, exit_code):
    if exit_code == 2:
        start = ["--z0", "0,1", "--v0=-1,-10"]
    else:
        z0, v0 = stopping_set_point(1.0, 1.0)
        start = [f"--z0={z0.real},{z0.imag}", f"--v0={v0.real},{v0.imag}",
                 "--quasi", quasi]
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
    "simulate": ["z0", "v0", "out", "n-max", "t-max", "scan-step", "quasi",
                 "frame", "samples", "format"],
    "impacts": ["z0", "v0", "out", "n-max", "t-max", "scan-step", "quasi"],
    "asympt": ["z0", "v0", "out", "n-max", "t-max", "scan-step", "quasi",
               "at", "band"],
    "oracle": ["z0", "v0", "out", "n-max", "t-max", "scan-step", "quasi",
               "n-impacts"],
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
    ("simulate", "format=xml"), ("impacts", "band=1,2")])
def test_config_file_bad_value_or_foreign_key_exit_1(tmp_path, command,
                                                     line):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"z0=0,1\nv0=1,0\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--config", str(cfg_file)])
    assert exc.value.code == 1
