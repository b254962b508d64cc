"""End-to-end tests of the command-line front end.

Tests drive `main` in process and inspect exit codes, CSV bodies, and the
JSON manifest.  The process-boundary tests at the end run `python -m
lcowind` in a child process instead.
"""

import argparse
import configparser
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcowind
from lcowind import cli
from lcowind.cli import _SCHEMA, SUBCOMMANDS, _write_csv, main
from lcowind.models import AnalyticSignal, ForcedOscillator

ANALYTIC_CONFIG = """\
[model]
name = analytic-signal
a0 = 2.0
a1 = 0.7
amplitude = 0.8

[design]
values = 0.3

[grid]
dt = 0.01
n_steps = 1500
n_transient = 137
"""

VDP_CONFIG = """\
[model]
name = van-der-pol
output = x2

[design]
values = 1.0

[grid]
dt = 0.05
n_steps = 300
n_transient = 60
"""

QUADRATIC_CONFIG = """\
[model]
name = analytic-signal
a0 = 1.0
a1 = 0.0
amplitude = 0.05
quad = 1.0
quad_center = 0.3

[design]
values = 0.1
lower = -0.5
upper = 0.9

[grid]
dt = 0.02
n_steps = 400
n_transient = 80

[optimize]
max_iterations = 8
"""

# k = -1, c = 0 and dt = 1 make A_1 = [[1, -1], [-1, 1]] singular
SINGULAR_CONFIG = """\
[model]
name = forced-oscillator
omega = 1
stiffness0 = -1
damping0 = 0

[design]
values = 0

[grid]
dt = 1
n_steps = 10
n_transient = 2
"""


def with_keys(text, edits):
    """Config text with each (section, key) in `edits` set to its raw value."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(textwrap.dedent(text))
    for (section, key), raw in edits.items():
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, raw)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def read_manifest(outdir):
    with open(outdir / "manifest.json") as handle:
        return json.load(handle)


def last_stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


def test_missing_config_exits_2_without_outputs(tmp_path, capsys):
    outdir = tmp_path / "out"
    code = main(["simulate", str(tmp_path / "nope.ini"),
                 "--output-dir", str(outdir)])
    assert code == 2
    assert not outdir.exists()
    record = last_stderr_json(capsys)
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert "not found" in record["message"]


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, ANALYTIC_CONFIG + "\n[grid]\nbogus = 1\n")
    # configparser rejects the duplicate section before the schema does
    assert main(["simulate", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    cfg2 = write_config(tmp_path, ANALYTIC_CONFIG.replace(
        "n_transient = 137", "n_transient = 137\nbogus = 1"), "run2.ini")
    assert main(["simulate", cfg2, "--output-dir", str(tmp_path / "o2")]) == 2
    record = last_stderr_json(capsys)
    assert "unknown key 'bogus'" in record["message"]


def test_unknown_section_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, ANALYTIC_CONFIG + "\n[mystery]\nx = 1\n")
    assert main(["simulate", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert "unknown config section" in last_stderr_json(capsys)["message"]


def test_design_length_mismatch_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, ANALYTIC_CONFIG.replace(
        "values = 0.3", "values = 0.3, 0.1"))
    assert main(["simulate", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert "expects 1" in last_stderr_json(capsys)["message"]


def test_design_outside_model_domain_exits_2(tmp_path, capsys):
    # the analytic signal's period (1 + sigma) T0 is negative at sigma = -1.5
    cfg = write_config(tmp_path, ANALYTIC_CONFIG.replace(
        "values = 0.3", "values = -1.5"))
    outdir = tmp_path / "o"
    assert main(["simulate", cfg, "--output-dir", str(outdir)]) == 2
    assert not outdir.exists()
    record = last_stderr_json(capsys)
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert "period non-positive" in record["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("subcommand", ["simulate", "tangent", "adjoint", "optimize"])
@pytest.mark.parametrize("a1, values, what", [("0.7", "1e308", "period out of range"),
                                              ("1e300", "1e10", "mean out of range")],
                         ids=["period", "mean"])
def test_design_with_an_overflowing_period_or_mean_exits_2(tmp_path, capsys, subcommand, a1,
                                                           values, what):
    # a period of 1e308 is finite but its square, in dOmega/dsigma, is not;
    # 1e300 * 1e10 makes the mean inf.  Either is refused as the config is
    # read, with one error record and no numpy warning
    cfg = write_config(tmp_path, ANALYTIC_CONFIG.replace("a1 = 0.7", f"a1 = {a1}").replace(
        "values = 0.3", f"values = {values}"))
    outdir = tmp_path / "o"
    assert main([subcommand, cfg, "--output-dir", str(outdir)]) == 2
    assert not outdir.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert (record["error"], record["exit_code"]) == ("ConfigError", 2)
    assert what in record["message"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_design_whose_period_square_underflows_exits_2(tmp_path, capsys, subcommand):
    # a period of 1.3e-300 is positive, but its square, which dOmega/dsigma
    # and the sensitivity series divide by, is 0.0: once a ZeroDivisionError
    # traceback or a numpy warning, now refused as the config is read
    cfg = write_config(tmp_path, with_keys(ANALYTIC_CONFIG, {
        ("model", "base_period"): "1e-300", ("study", "quantity"): "sensitivity"}))
    outdir = tmp_path / "o"
    assert main([subcommand, cfg, "--output-dir", str(outdir)]) == 2
    assert not outdir.exists()
    record = single_record(capsys.readouterr().err)
    assert (record["error"], record["exit_code"]) == ("ConfigError", 2)
    assert record["message"].startswith("[design] values")
    assert "underflows" in record["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("subcommand, key", [("simulate", "windowed_average"),
                                             ("tangent", "windowed_sensitivity"),
                                             ("adjoint", "windowed_average")])
def test_an_output_mean_near_the_float_range_averages_finite(tmp_path, capsys, subcommand, key):
    # a mean of 1e306 is finite, but its windowed sum over the span is not:
    # the average must come out finite, with no numpy warning
    cfg = write_config(tmp_path, ANALYTIC_CONFIG.replace("a1 = 0.7", "a1 = 1e306").replace(
        "values = 0.3", "values = 1.0"))
    outdir = tmp_path / "o"
    assert main([subcommand, cfg, "--output-dir", str(outdir)]) == 0
    assert capsys.readouterr().err == ""
    value = read_manifest(outdir)["results"][key]
    assert all(isinstance(x, float) and math.isfinite(x)
               for x in (value if isinstance(value, list) else [value]))


def single_record(err):
    """The one JSON line of stderr; fails on any other line, a warning too."""
    (line,) = err.strip().splitlines()
    return json.loads(line)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_a_forcing_with_no_value_at_the_final_time_exits_2(tmp_path, capsys, subcommand):
    # omega t is 0 at t = 0 but inf at the final time 4 * 2, where math.sin
    # raises: the config check must find it, not the march
    cfg = write_config(tmp_path, """\
        [model]
        name = forced-oscillator
        omega = 1e308

        [design]
        values = 0.1

        [grid]
        dt = 2
        n_steps = 4
        """)
    outdir = tmp_path / "o"
    assert main([subcommand, cfg, "--output-dir", str(outdir)]) == 2
    assert not outdir.exists()
    record = single_record(capsys.readouterr().err)
    assert (record["error"], record["exit_code"]) == ("ConfigError", 2)
    assert record["message"].startswith("[model] forced-oscillator")
    assert "final time t = 8.0" in record["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("subcommand", ["simulate", "study"])
def test_a_grid_whose_final_time_overflows_exits_2(tmp_path, capsys, subcommand):
    # 40 * 1e308 overflows: simulate once wrote inf into the time column
    # after a numpy warning, and study warned before its exit-3 record
    cfg = write_config(tmp_path, with_keys(ANALYTIC_CONFIG, {
        ("grid", "dt"): "1e308", ("grid", "n_steps"): "40", ("grid", "n_transient"): "10"}))
    outdir = tmp_path / "o"
    assert main([subcommand, cfg, "--output-dir", str(outdir)]) == 2
    assert not outdir.exists()
    record = single_record(capsys.readouterr().err)
    assert (record["error"], record["exit_code"]) == ("ConfigError", 2)
    assert record["message"].startswith("[grid]") and "overflows" in record["message"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edits", [{("study", "k_list"): "1e308"},
                                   {("study", "period"): "1e10", ("grid", "dt"): "1e-300"}],
                         ids=["k_list", "period"])
def test_a_study_span_that_overflows_exits_3(tmp_path, capsys, edits):
    # (k + span_offset) * period / dt overflows: the end step is inf, which
    # the span check rejects, and numpy must warn nothing before the record
    cfg = write_config(tmp_path, with_keys(ANALYTIC_CONFIG, edits))
    outdir = tmp_path / "o"
    assert main(["study", cfg, "--output-dir", str(outdir)]) == 3
    assert not outdir.exists()
    record = single_record(capsys.readouterr().err)
    assert (record["error"], record["exit_code"]) == ("InvalidSpanError", 3)
    assert "needs step inf" in record["message"]


def test_nan_design_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, VDP_CONFIG.replace("values = 1.0", "values = nan"))
    outdir = tmp_path / "o"
    assert main(["simulate", cfg, "--output-dir", str(outdir)]) == 2
    assert not outdir.exists()
    record = last_stderr_json(capsys)
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert "must be finite" in record["message"]


def test_simulate_outputs_and_manifest(tmp_path):
    cfg = write_config(tmp_path, ANALYTIC_CONFIG)
    outdir = tmp_path / "out"
    assert main(["simulate", cfg, "--output-dir", str(outdir)]) == 0
    rows = read_csv(outdir / "trajectory.csv")
    assert rows[0][:4] == ["step", "time", "state_0", "state_1"]
    assert len(rows) == 1502  # header plus steps 0..1500
    manifest = read_manifest(outdir)
    assert manifest["subcommand"] == "simulate"
    assert manifest["outputs"] == ["trajectory.csv"]
    assert manifest["diagnostics"]["all_converged"] is True
    assert manifest["config"]["model"]["name"] == "analytic-signal"
    assert isinstance(manifest["results"]["windowed_average"], float)
    assert manifest["versions"]["lcowind"]


def test_csv_floats_round_trip_at_17_digits(tmp_path):
    cfg = write_config(tmp_path, ANALYTIC_CONFIG)
    outdir = tmp_path / "out"
    assert main(["simulate", cfg, "--output-dir", str(outdir)]) == 0
    rows = read_csv(outdir / "trajectory.csv")
    header = rows[0]
    for column in ("time", "output", "state_0"):
        idx = header.index(column)
        for row in rows[1:50]:
            cell = row[idx]
            assert format(float(cell), ".17g") == cell


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, ANALYTIC_CONFIG)
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["simulate", cfg, "--output-dir", str(first)]) == 0
    assert main(["simulate", cfg, "--output-dir", str(second)]) == 0
    assert (first / "trajectory.csv").read_bytes() \
        == (second / "trajectory.csv").read_bytes()
    m1, m2 = read_manifest(first), read_manifest(second)
    for volatile in ("wall_time_s", "timestamp_utc"):
        m1.pop(volatile), m2.pop(volatile)
    assert m1 == m2


def test_adjoint_modes_agree_through_cli(tmp_path):
    text = VDP_CONFIG + textwrap.dedent("""\

        [pseudo_time]
        dtau = 1.0
        tol = 1e-13
        max_inner = 200

        [adjoint]
        tol = 5e-15

        [window]
        kind = hann
        """)
    cfg = write_config(tmp_path, text)
    fp_dir = tmp_path / "fp"
    di_dir = tmp_path / "direct"
    assert main(["adjoint", cfg, "--output-dir", str(fp_dir),
                 "--mode", "fixed-point"]) == 0
    assert main(["adjoint", cfg, "--output-dir", str(di_dir),
                 "--mode", "direct"]) == 0
    fp = read_manifest(fp_dir)["results"]
    di = read_manifest(di_dir)["results"]
    assert fp["mode"] == "fixed-point" and di["mode"] == "direct"
    assert fp["design_derivative"][0] == pytest.approx(
        di["design_derivative"][0], rel=1e-10)
    rows = read_csv(fp_dir / "adjoint.csv")
    assert rows[0][-1] == "running_derivative_0"
    assert len(rows) == 302


def test_study_row_counts_and_slopes(tmp_path):
    text = ANALYTIC_CONFIG + "\n[study]\nk_list = 2,4,8\n"
    cfg = write_config(tmp_path, text)
    outdir = tmp_path / "out"
    assert main(["study", cfg, "--output-dir", str(outdir)]) == 0
    rows = read_csv(outdir / "study.csv")
    assert rows[0] == ["window", "k", "end_step", "value", "error", "slope"]
    assert len(rows) == 1 + 4 * 3  # four windows, three spans each
    manifest = read_manifest(outdir)
    windows = manifest["results"]["windows"]
    assert set(windows) == {"square", "hann", "hann-square", "bump"}
    assert windows["hann"]["reference_source"] == "closed-form"
    assert windows["hann"]["slope"] > 2.0


def test_study_window_and_k_overrides(tmp_path):
    cfg = write_config(tmp_path, ANALYTIC_CONFIG)
    outdir = tmp_path / "out"
    assert main(["study", cfg, "--output-dir", str(outdir),
                 "--windows", "hann", "--k-list", "2,4", "--quantity",
                 "sensitivity"]) == 0
    rows = read_csv(outdir / "study.csv")
    assert len(rows) == 3
    assert {row[0] for row in rows[1:]} == {"hann"}
    assert read_manifest(outdir)["results"]["quantity"] == "sensitivity"


def test_degenerate_study_window_exits_3_without_outputs(tmp_path, capsys):
    # whole-period spans of a period the series really has leave hann's
    # errors at the noise floor; square comes first and fits, and bump,
    # after hann, is never reported
    text = with_keys(ANALYTIC_CONFIG.replace("values = 0.3", "values = 0.31")
                     .replace("n_steps = 1500", "n_steps = 2400"),
                     {("study", "span_offset"): "0", ("study", "period"): "1.31",
                      ("study", "k_list"): "2, 4, 8, 16",
                      ("study", "windows"): "square, hann, bump"})
    cfg = write_config(tmp_path, text)
    outdir = tmp_path / "out"
    assert main(["study", cfg, "--output-dir", str(outdir)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "DegenerateFitError", "exit_code": 3,
        "message": "hann: fewer than two spans above the noise floor 4.923e-14; "
                   "nothing to fit"}
    assert not outdir.exists()


def test_average_emits_weights_and_value(tmp_path):
    text = ANALYTIC_CONFIG + "\n[window]\nkind = hann\n"
    cfg = write_config(tmp_path, text)
    outdir = tmp_path / "out"
    assert main(["average", cfg, "--output-dir", str(outdir)]) == 0
    span = 1500 - 137
    weights = read_csv(outdir / "weights.csv")
    assert len(weights) == span + 2
    assert weights[1][2] == "0"  # left endpoint weight is exactly zero
    average = read_csv(outdir / "average.csv")
    assert average[1][0] == "hann"
    manifest = read_manifest(outdir)
    assert manifest["results"]["weight_sum"] == span
    assert manifest["outputs"] == ["weights.csv", "average.csv"]


def test_optimize_writes_history(tmp_path):
    cfg = write_config(tmp_path, QUADRATIC_CONFIG)
    outdir = tmp_path / "out"
    assert main(["optimize", cfg, "--output-dir", str(outdir)]) == 0
    rows = read_csv(outdir / "history.csv")
    assert rows[0][:3] == ["iteration", "sigma_0", "objective"]
    assert 2 <= len(rows) <= 9
    manifest = read_manifest(outdir)
    assert manifest["results"]["iterations"] == len(rows) - 1
    assert isinstance(manifest["results"]["final_design"], list)
    assert manifest["results"]["message"]


UNREACHABLE_CONSTRAINT_CONFIG = """\
[model]
name = forced-oscillator
output = x2

[design]
values = 0.1
lower = -0.5
upper = 0.9

[grid]
dt = 0.02
n_steps = 400
n_transient = 80

[optimize]
constraint_output = x
bound = 0.2
max_iterations = 12
"""


def test_optimize_reports_an_unreachable_constraint(tmp_path):
    # the x average stays near 5e-4 at every iterate, so the penalty keeps
    # doubling; the diagnostics say so without reading the history
    cfg = write_config(tmp_path, UNREACHABLE_CONSTRAINT_CONFIG)
    outdir = tmp_path / "out"
    assert main(["optimize", cfg, "--output-dir", str(outdir)]) == 0
    rows = read_csv(outdir / "history.csv")
    header, last = rows[0], rows[-1]
    diagnostics = read_manifest(outdir)["diagnostics"]
    assert diagnostics["iterations"] == len(rows) - 1 == 12
    assert diagnostics["feasible_iterates"] == 0
    assert [row[header.index("feasible")] for row in rows[1:]] == ["false"] * 12
    assert diagnostics["final_penalty"] == float(last[header.index("penalty")])
    assert diagnostics["final_penalty"] > 100.0


def fmt(value):
    """One cell as the row writer that _write_csv replaced formatted it."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_rows(path, header, rows):
    """The row writer that _write_csv replaced, kept as the oracle of its
    bytes: csv.writer over fmt's cells."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


def assert_writes_as_the_row_writer(directory, header, columns):
    # the rows hold each column's cells as iteration gives them: numpy
    # scalars from an array, Python values from a list or a range
    write_rows(directory / "rows.csv", header, zip(*columns))
    _write_csv(directory / "columns.csv", header, columns)
    assert ((directory / "columns.csv").read_bytes()
            == (directory / "rows.csv").read_bytes())


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -2.5, 0.1, 1 / 3, 1e300, -1e-300, math.nan, -math.nan,
                  math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, 1e-310,
                  1.7976931348623157e308, -1.7976931348623157e308, 1e16, 123456789012345680.0]
SPECIAL_TEXTS = ["hann", "", "a,b", 'say "hi"', "two\nlines", " padded ", "'", '"', ",",
                 "hann-square", "a;b", "tab\there", "\n", '""', "x,\"y\"\nz", "é",
                 "paper-faithful", "1.5", "nan", "true"]


def test_write_csv_matches_the_row_writer(tmp_path):
    n = len(SPECIAL_FLOATS)
    assert len(SPECIAL_TEXTS) == n
    columns = [range(n), np.array(SPECIAL_FLOATS), SPECIAL_FLOATS,
               np.array([0, 1, -1, 2**62, -2**63, 2**63 - 1, *range(n - 6)], dtype=np.int64),
               [-7, 0, 2**40, *range(n - 3)],
               np.arange(n) % 3 == 0, [i % 2 == 0 for i in range(n)],
               SPECIAL_TEXTS]
    header = ["step", "a,b", 'say "hi"', "two\nlines", "plain", "", "'", "end"]
    assert_writes_as_the_row_writer(tmp_path, header, columns)
    text = (tmp_path / "columns.csv").read_text()
    assert text.startswith('step,"a,b","say ""hi""","two\nlines",plain,,\',end\n')
    assert read_csv(tmp_path / "columns.csv")[1:] == [
        [fmt(cell) for cell in row] for row in zip(*columns)]
    # a table of one row, as average.csv writes it
    assert_writes_as_the_row_writer(tmp_path, ["window", "n", "value"],
                                    [["hann-square"], [60], [np.float64(-0.0)]])


# no NUL, which np.str_ drops at the end of a text, and no carriage return,
# which _quoted leaves bare and whose quoting by csv under a "\n" line end
# is not pinned across Python versions; no name the CLI writes holds either
TEXTS = st.text(st.characters(blacklist_characters="\x00\r"))


@settings(max_examples=200)
@given(cells=st.lists(st.tuples(st.floats(), st.integers(-2**63, 2**63 - 1),
                                st.booleans(), TEXTS), max_size=12))
def test_write_csv_matches_the_row_writer_on_drawn_cells(cells):
    columns = [list(column) for column in zip(*cells)] or [[], [], [], []]
    with tempfile.TemporaryDirectory() as directory:
        assert_writes_as_the_row_writer(
            Path(directory), ["f", "i", "b", "s"],
            [np.array(columns[0], dtype=float), np.array(columns[1], dtype=np.int64),
             np.array(columns[2], dtype=bool), columns[3]])


def test_write_csv_raises_on_a_short_column(tmp_path):
    path = tmp_path / "short.csv"
    with pytest.raises(ValueError):
        _write_csv(path, ["step", "value"], [range(3), np.array([1.0, 2.0])])
    with pytest.raises(ValueError):
        _write_csv(path, ["step", "value"], [range(2), np.array([1.0, 2.0, 3.0])])
    assert not path.exists()


def test_constraint_rejected_for_analytic_signal(tmp_path, capsys):
    text = QUADRATIC_CONFIG.replace("max_iterations = 8",
                                    "max_iterations = 8\nconstraint_output = x2")
    cfg = write_config(tmp_path, text)
    assert main(["optimize", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert "no constraint output" in last_stderr_json(capsys)["message"]


def test_env_var_selects_output_dir(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, ANALYTIC_CONFIG)
    envdir = tmp_path / "from-env"
    monkeypatch.setenv("LCO_OUTPUT_DIR", str(envdir))
    assert main(["simulate", cfg]) == 0
    assert (envdir / "trajectory.csv").is_file()
    assert (envdir / "manifest.json").is_file()


def test_flag_overrides_env_dir(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, ANALYTIC_CONFIG)
    monkeypatch.setenv("LCO_OUTPUT_DIR", str(tmp_path / "ignored"))
    outdir = tmp_path / "explicit"
    assert main(["average", cfg, "--output-dir", str(outdir)]) == 0
    assert (outdir / "average.csv").is_file()
    assert not (tmp_path / "ignored").exists()


def test_bad_window_override_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, ANALYTIC_CONFIG)
    code = main(["simulate", cfg, "--output-dir", str(tmp_path / "o"),
                 "--window", "gaussian"])
    assert code == 2
    assert last_stderr_json(capsys)["error"] == "ConfigError"


def test_solver_failure_exits_3_with_json(tmp_path, capsys):
    text = VDP_CONFIG + textwrap.dedent("""\

        [pseudo_time]
        dtau = 0.001
        tol = 1e-14
        max_inner = 1
        """)
    cfg = write_config(tmp_path, text)
    code = main(["simulate", cfg, "--output-dir", str(tmp_path / "o")])
    assert code == 3
    record = last_stderr_json(capsys)
    assert record["error"] == "StepConvergenceError"
    assert record["exit_code"] == 3
    assert "stalled" in record["message"]
    assert record["step"] == 1
    assert record["iterations"] == 1
    assert record["residual_norm"] > 1e-14
    assert 0.0 < record["floor"] < record["residual_norm"]


def test_singular_step_matrix_exits_3_with_step(tmp_path, capsys):
    cfg = write_config(tmp_path, SINGULAR_CONFIG)
    outdir = tmp_path / "o"
    assert main(["simulate", cfg, "--output-dir", str(outdir)]) == 3
    record = last_stderr_json(capsys)
    assert record["error"] == "SingularStepError"
    assert record["exit_code"] == 3
    assert record["step"] == 1
    assert "singular" in record["message"]
    # the run created the directory and wrote nothing to it, so it is gone
    assert not outdir.exists()


def test_failed_run_keeps_existing_output_dir(tmp_path, capsys):
    cfg = write_config(tmp_path, SINGULAR_CONFIG)
    outdir = tmp_path / "o"
    outdir.mkdir()
    assert main(["simulate", cfg, "--output-dir", str(outdir)]) == 3
    assert last_stderr_json(capsys)["error"] == "SingularStepError"
    assert outdir.is_dir()
    # a directory the run created, parents included, is removed
    nested = tmp_path / "new" / "deeper"
    assert main(["simulate", cfg, "--output-dir", str(nested)]) == 3
    assert not (tmp_path / "new").exists()


def test_optimizer_leaving_model_domain_exits_3_with_iterate(tmp_path, capsys):
    # the first full step from 0 projects to -2, where the period is negative
    text = ANALYTIC_CONFIG.replace("a1 = 0.7", "a1 = 5").replace(
        "values = 0.3", "values = 0\nlower = -2\nupper = 1")
    cfg = write_config(tmp_path, text + "\n[optimize]\nrelaxation = 1\n")
    outdir = tmp_path / "o"
    assert main(["optimize", cfg, "--output-dir", str(outdir)]) == 3
    record = last_stderr_json(capsys)
    assert record["error"] == "DesignDomainError"
    assert record["exit_code"] == 3
    assert record["design_iterate"] == [-2.0]
    assert "period non-positive" in record["message"]
    assert not outdir.exists()


def test_version_flag_reports_and_exits(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip()


def test_the_argument_parser_is_built_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    # as in a fresh process: the parser is built by the first main call
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cfg = write_config(tmp_path, ANALYTIC_CONFIG)
    assert main(["simulate", cfg, "--output-dir", str(tmp_path / "a")]) == 0
    once = len(built)
    assert once > 0 and built[0] == "lcowind"
    assert main(["average", cfg, "--output-dir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", cfg, "--no-such-flag"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lcowind ")
    assert "unrecognized arguments: --no-such-flag" in err
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == lcowind.__version__
    assert len(built) == once


FORCED_CONFIG = VDP_CONFIG.replace("van-der-pol", "forced-oscillator")

# Each config is out of domain in the last key it sets, so the config is at
# fault; the groups say what the run did before keys were domain-checked.
OUT_OF_DOMAIN = [
    # a traceback, exit 1
    (QUADRATIC_CONFIG, "optimize", {("optimize", "max_iterations"): "0"}),
    (QUADRATIC_CONFIG, "optimize", {("optimize", "relaxation"): "nan"}),
    (VDP_CONFIG, "optimize", {("optimize", "constraint_output"): "x",
                              ("optimize", "bound"): "nan"}),
    (VDP_CONFIG, "optimize", {("optimize", "constraint_output"): "x",
                              ("optimize", "bound"): "inf"}),
    (ANALYTIC_CONFIG, "simulate", {("model", "a1"): "0.5, 0.5",
                                   ("model", "quad_center"): "1"}),
    (ANALYTIC_CONFIG, "study", {("study", "k_list"): "0, 1"}),
    # 1/dtau = inf: the divergence error's contraction estimate, an SVD of
    # M_n = A_n + inf I, fails to converge
    (VDP_CONFIG, "adjoint", {("pseudo_time", "allow_unconverged"): "true",
                             ("pseudo_time", "max_inner"): "2",
                             ("pseudo_time", "dtau"): "1e-320"}),
    # exit 3, a numerical failure
    (VDP_CONFIG, "simulate", {("grid", "dt"): "nan"}),
    (VDP_CONFIG, "simulate", {("pseudo_time", "dtau"): "nan"}),
    (VDP_CONFIG, "simulate", {("pseudo_time", "tol"): "nan"}),
    (ANALYTIC_CONFIG, "simulate", {("model", "base_period"): "nan"}),
    (FORCED_CONFIG, "simulate", {("model", "omega"): "nan"}),
    (ANALYTIC_CONFIG, "simulate", {("model", "amplitude"): "inf"}),
    (ANALYTIC_CONFIG, "study", {("study", "k_list"): "4, 2"}),
    (ANALYTIC_CONFIG, "study", {("study", "span_offset"): "-3"}),
    (ANALYTIC_CONFIG, "study", {("study", "period"): "-1"}),
    # exit 0 on nonsense
    (VDP_CONFIG, "simulate", {("grid", "dt"): "inf"}),
    (VDP_CONFIG, "adjoint", {("adjoint", "tol"): "nan"}),
    (VDP_CONFIG, "adjoint", {("adjoint", "tol"): "-1"}),
    (QUADRATIC_CONFIG, "optimize", {("optimize", "penalty"): "nan"}),
    (QUADRATIC_CONFIG, "optimize", {("optimize", "grad_tolerance"): "nan"}),
    (QUADRATIC_CONFIG, "optimize", {("optimize", "max_backtracks"): "-1"}),
    (ANALYTIC_CONFIG, "simulate", {("model", "a0"): "nan"}),
    (ANALYTIC_CONFIG, "study", {("study", "windows"): ""}),
    # exit 0, with every hann row of study.csv written twice
    (ANALYTIC_CONFIG, "study", {("study", "k_list"): "2, 4",
                                ("study", "windows"): "hann, HANN, bump"}),
]


@pytest.mark.parametrize(
    "text, subcommand, edits", OUT_OF_DOMAIN,
    ids=[",".join(f"{s}.{k}={v}" for (s, k), v in edits.items())
         for _, _, edits in OUT_OF_DOMAIN])
def test_out_of_domain_key_exits_2(tmp_path, capsys, text, subcommand, edits):
    cfg = write_config(tmp_path, with_keys(text, edits))
    outdir = tmp_path / "o"
    assert main([subcommand, cfg, "--output-dir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    section, key = list(edits)[-1]
    assert record["message"].startswith(f"[{section}]") and key in record["message"]
    assert not outdir.exists()


def test_schema_rejects_nan_empty_and_text():
    # only the output directory is free text
    for key, spec in _SCHEMA.items():
        if key == ("output", "directory"):
            continue
        for raw in ("nan", "", "text"):
            with pytest.raises(ValueError):
                spec.parse(raw)


def test_flag_override_goes_through_the_key_parser(tmp_path, capsys):
    cfg = write_config(tmp_path, ANALYTIC_CONFIG)
    outdir = tmp_path / "o"
    for subcommand, flag, raw, message in (
            ("study", "--k-list", "4,2", "--k-list: must be strictly increasing"),
            ("adjoint", "--mode", "bogus",
             "--mode: unknown adjoint mode 'bogus'; expected one of: fixed-point, direct"),
            ("study", "--quantity", "bogus",
             "--quantity: expected one of: average, sensitivity, got 'bogus'"),
            ("study", "--windows", "hann,hann", "--windows: must not repeat a window")):
        assert main([subcommand, cfg, "--output-dir", str(outdir), flag, raw]) == 2
        assert last_stderr_json(capsys)["message"] == message
    # the key parsers ignore case, so the flags do too
    assert main(["adjoint", cfg, "--output-dir", str(outdir), "--mode", "DIRECT"]) == 0
    assert read_manifest(outdir)["results"]["mode"] == "direct"
    assert main(["study", cfg, "--output-dir", str(outdir), "--quantity", "Sensitivity",
                 "--windows", "hann", "--k-list", "2,4"]) == 0
    assert read_manifest(outdir)["results"]["quantity"] == "sensitivity"


# Tiny grids keep a run to milliseconds; the optimizer's budget is cut to match.
FUZZ_BASES = {name: f"""\
    [model]
    name = {name}

    [design]
    values = {values}

    [grid]
    dt = 0.05
    n_steps = 40
    n_transient = 10

    [optimize]
    max_iterations = 3
    """ for name, values in (("analytic-signal", 0.2), ("van-der-pol", 1.0),
                             ("forced-oscillator", 0.1))}
FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "", "text")
# in-domain values for the keys that have no default
FUZZ_VALID = {("model", "quad_center"): "0.1", ("design", "lower"): "-2",
              ("design", "upper"): "3", ("adjoint", "tol"): "1e-12",
              ("study", "reference"): "1.5", ("study", "period"): "1.2",
              ("optimize", "constraint_output"): "x2",
              ("output", "directory"): "elsewhere"}


def in_domain(key, raw):
    try:
        _SCHEMA[key].parse(raw)
    except ValueError:
        return False
    return True


def check_exit_contract(base, subcommand, edits):
    """Run one config and assert the exit-code contract on the result."""
    # hypothesis rejects function-scoped fixtures such as tmp_path, so each
    # run makes its own directory
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(with_keys(base, edits))
        outdir = Path(tmp) / "out" / "run"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([subcommand, str(cfg), "--output-dir", str(outdir)])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert (outdir / "manifest.json").is_file()
        else:
            (line,) = err.getvalue().strip().splitlines()
            assert json.loads(line)["exit_code"] == code
            assert not (Path(tmp) / "out").exists()
        if not all(in_domain(key, raw) for key, raw in edits.items()):
            assert code == 2


@st.composite
def fuzz_edits(draw):
    """Up to four keys, each set to a valid value or a suspect one."""
    keys = draw(st.lists(st.sampled_from(list(_SCHEMA)), max_size=4, unique=True))
    edits = {}
    for key in keys:
        default = _SCHEMA[key].default
        valid = default if isinstance(default, str) else FUZZ_VALID.get(key)
        edits[key] = draw(st.sampled_from(FUZZ_VALUES if valid is None
                                          else (valid,) + FUZZ_VALUES))
    return edits


@settings(max_examples=50)
@given(base=st.sampled_from(sorted(FUZZ_BASES)),
       subcommand=st.sampled_from(SUBCOMMANDS), edits=fuzz_edits())
def test_exit_code_contract_holds_on_drawn_configs(base, subcommand, edits):
    check_exit_contract(FUZZ_BASES[base], subcommand, edits)


# [model] keys that one model reads, and the subcommand that reads each section
ANALYTIC_KEYS = {field.name for field in dataclasses.fields(AnalyticSignal)}
FORCED_KEYS = {field.name for field in dataclasses.fields(ForcedOscillator)}
SECTION_RUNS = {"adjoint": "adjoint", "study": "study", "optimize": "optimize"}


@pytest.mark.parametrize("key", list(_SCHEMA), ids="{0[0]}.{0[1]}".format)
def test_exit_code_contract_holds_for_each_suspect_value(key):
    # every (key, value) pair once, which 50 drawn configs cannot cover
    section, name = key
    model = ("analytic-signal" if name in ANALYTIC_KEYS else "forced-oscillator"
             if name in FORCED_KEYS else "van-der-pol")
    for raw in FUZZ_VALUES:
        check_exit_contract(FUZZ_BASES[model], SECTION_RUNS.get(section, "simulate"),
                            {key: raw})


def run_python(*args, cwd):
    """Run the interpreter in a child process on the imported package."""
    src = str(Path(lcowind.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def run_lcowind(*args, cwd, flags=()):
    """Run `python -m lcowind` in a child process on the imported package,
    with the interpreter's command-line flags."""
    return run_python(*flags, "-m", "lcowind", *args, cwd=cwd)


def test_module_entry_point_reports_its_version(tmp_path):
    proc = run_lcowind("--version", cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.strip() == lcowind.__version__


def test_module_entry_point_missing_config_exits_2(tmp_path):
    outdir = tmp_path / "out"
    proc = run_lcowind("study", str(tmp_path / "nope.ini"),
                       "--output-dir", str(outdir), cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    # neither the named directory nor a default one was created
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["van-der-pol", "forced-oscillator"])
def test_an_overflowing_design_writes_one_json_line(tmp_path, name):
    # the design-domain check evaluates the residual at the initial state,
    # where mu = 1e308 or k = 55 (1 + 1e308) overflows: the march's step 1
    # stalls on a nan residual, and numpy must print no warning before the
    # record
    config = write_config(tmp_path, f"""\
        [model]
        name = {name}

        [design]
        values = 1e308

        [grid]
        dt = 0.05
        n_steps = 40
        """)
    proc = run_lcowind("simulate", config, "--output-dir", str(tmp_path / "out"),
                       cwd=tmp_path)
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == "StepConvergenceError" and record["exit_code"] == 3


def test_an_unconverged_march_warns_once(tmp_path):
    # one update per step at dtau = 1 leaves all 400 steps above tol: the
    # run exits 0 with one "left unconverged" warning, not one per step
    text = with_keys(VDP_CONFIG, {("model", "output"): "x", ("grid", "n_steps"): "400",
                                  ("grid", "n_transient"): "0", ("pseudo_time", "dtau"): "1",
                                  ("pseudo_time", "max_inner"): "1",
                                  ("pseudo_time", "allow_unconverged"): "true"})
    proc = run_lcowind("simulate", write_config(tmp_path, text), "--output-dir",
                       str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0
    (line,) = [line for line in proc.stderr.splitlines() if "left unconverged" in line]
    assert "RuntimeWarning: 400 of 400 steps left unconverged, the first at step 1" in line


def test_an_overflowing_projected_gradient_warns_nothing(tmp_path):
    # at a1 = 1e306 the first projected gradient's norm overflows, and the
    # first full step drives the period non-positive: under -W
    # error::RuntimeWarning a numpy warning would end the run in a traceback
    text = ANALYTIC_CONFIG.replace("a1 = 0.7", "a1 = 1e306").replace("values = 0.3",
                                                                      "values = 1.0")
    proc = run_lcowind("optimize", write_config(tmp_path, text), "--output-dir",
                       str(tmp_path / "out"), cwd=tmp_path, flags=("-W", "error::RuntimeWarning"))
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == "DesignDomainError" and record["exit_code"] == 3


def test_a_sensitivity_study_whose_growth_overflows_writes_one_json_line(tmp_path):
    # exp(1000 t) overflows long before the series ends: the fit finds too
    # few spans and exits 3, and numpy must print no warning before the record
    text = with_keys(ANALYTIC_CONFIG, {("model", "growth_rate"): "1000",
                                       ("study", "quantity"): "sensitivity",
                                       ("study", "k_list"): "2, 4, 8"})
    proc = run_lcowind("study", write_config(tmp_path, text), "--output-dir",
                       str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 3
    record = single_record(proc.stderr)
    assert record["error"] == "DegenerateFitError" and record["exit_code"] == 3


def test_the_library_leaves_scipy_unimported(tmp_path):
    # numpy is the one runtime dependency: an adjoint run, which averages
    # with the bump window by default, and a march of three states, which
    # runs the any-size kernels, load no scipy module
    argv = ["adjoint", write_config(tmp_path, VDP_CONFIG), "--output-dir",
            str(tmp_path / "out")]
    proc = run_python("-c", f"""if True:
        import sys
        import numpy as np
        from lcowind.cli import main
        from lcowind.primal import TimeGrid, simulate

        def scipy_modules():
            return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

        class ThreeStates:
            d_u, n_design = 3, 1
            def initial_state(self, sigma=None):
                return np.array([1.0, 0.0, -0.5])
            def residual(self, u, sigma, t=0.0):
                return [u[0] - u[1], u[0] + u[1], 2.0 * u[2]]
            def jacobian_state(self, u, sigma, t=0.0):
                return np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
            def output_value(self, u, sigma):
                return u[..., 0]

        assert main({argv!r}) == 0
        assert not scipy_modules(), scipy_modules()
        traj = simulate(ThreeStates(), [0.3], TimeGrid(dt=0.05, n_steps=20))
        assert traj.converged.all() and traj.states.shape == (21, 3)
        assert not scipy_modules(), scipy_modules()
        """, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert read_manifest(tmp_path / "out")["results"]["window"] == "bump"
