"""Command-line interface: output contracts, exit codes, grid flags."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from struvekit import __version__
from struvekit.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATIONS, main
from struvekit.inequalities import GridSpec, default_grid, run_all


@pytest.fixture()
def runner():
    return CliRunner()


def _all_text(result) -> str:
    text = result.output
    try:
        text += result.stderr
    except (ValueError, AttributeError):
        pass
    return text


def test_eval_closed_form_human(runner):
    result = runner.invoke(main, ["eval", "--nu", "0.5", "--x", "1"])
    assert result.exit_code == EXIT_OK
    assert "-0.50435923445538555" in result.output
    assert "closedform" in result.output


def test_eval_json_normalized_at_zero(runner):
    result = runner.invoke(main, ["eval", "--nu", "0", "--x", "0",
                                  "--fn", "calM", "--format", "json"])
    assert result.exit_code == EXIT_OK
    payload = json.loads(result.output)
    assert payload["value"] == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert payload["method"] == "closedform"
    assert payload["abs_err"] < 1e-9


def test_eval_csv_header(runner):
    result = runner.invoke(main, ["eval", "--nu", "1", "--x", "2",
                                  "--format", "csv"])
    assert result.exit_code == EXIT_OK
    assert result.output.splitlines()[0] == "nu,x,value,abs_err,method"


def test_eval_domain_error_exits_2(runner):
    result = runner.invoke(main, ["eval", "--nu", "-0.6", "--x", "1",
                                  "--fn", "calM"])
    assert result.exit_code == EXIT_USAGE
    assert "nu > -1/2" in _all_text(result)


def test_eval_at_the_smallest_subnormal_argument(runner):
    """M_1(5e-324) is about -x/2: a finite value within its bar, where log(x/2)
    once raised a bare ValueError (exit 1). M' at nu = -1/2 and x = 1e-300,
    about 4e449, overflows float64 and exits 2 with the reason."""
    result = runner.invoke(main, ["eval", "--fn", "M", "--nu", "1", "--x", "5e-324",
                                  "--format", "json"])
    assert result.exit_code == EXIT_OK, _all_text(result)
    payload = json.loads(result.output)
    assert abs(payload["value"] + 2.5e-324) <= payload["abs_err"]
    result = runner.invoke(main, ["eval", "--fn", "Mprime", "--nu", "-0.5", "--x", "1e-300"])
    assert result.exit_code == EXIT_USAGE
    assert "overflows float64" in _all_text(result)


@pytest.mark.parametrize("args, reason", [
    (["--fn", "M", "--nu", "40", "--x", "1e11"], "requires x <= 10000"),
    (["--fn", "Mprime", "--nu", "40", "--x", "1e11"], "requires x <= 10000"),
    (["--fn", "M", "--nu", "20", "--x", "1e20"], "requires x <= 10000"),
    (["--fn", "M", "--nu", "165", "--x", "1e4"], "overflows float64"),
    (["--fn", "I", "--nu", "300", "--x", "5000"], "overflows float64"),
    (["--fn", "L", "--nu", "300", "--x", "5000"], "overflows float64"),
    (["--fn", "calM", "--method", "foxwright", "--nu", "200", "--x", "1"], "overflows float64"),
    (["--fn", "M", "--method", "foxwright", "--nu", "200", "--x", "1"], "overflows float64"),
    (["--fn", "calM", "--method", "foxwright", "--nu", "1", "--x", "1000"], "overflows float64"),
])
def test_eval_at_large_order_and_argument_exits_2(runner, args, reason):
    """Each of these once ended in a bare OverflowError (exit 1); each now exits 2
    and names its reason: the argument is past the quadrature route's limit, or M
    (or the first-kind series' leading term) overflows float64."""
    result = runner.invoke(main, ["eval", *args])
    assert result.exit_code == EXIT_USAGE, _all_text(result)
    assert reason in _all_text(result)


def _grid(nu: str, x_min: str, x_max: str | None = None, x_steps: str = "1") -> list[str]:
    """Custom-grid flags for one order and an x axis (one point without x_max)."""
    return ["--nu-min", nu, "--nu-max", nu, "--nu-steps", "1",
            "--x-min", x_min, "--x-max", x_max or x_min, "--x-steps", x_steps]


@pytest.mark.parametrize("args, code", [
    (["identities", *_grid("300", "5000")], EXIT_USAGE),
    (["identities", *_grid("300", "5e-324")], EXIT_OK),
    (["identities", *_grid("300", "1e-300")], EXIT_OK),
    (["verify", "--case", "FX31", *_grid("1", "5e-324")], EXIT_USAGE),
    (["verify", "--case", "all", *_grid("1", "5e-324")], EXIT_OK),
    (["verify", "--case", "FX3_raw", *_grid("-0.7", "5e-324")], EXIT_OK),
    (["verify", "--case", "bound1", *_grid("1", "5e-324", "1e-300", "4")], EXIT_OK),
    (["eval", "--fn", "M", "--method", "foxwright", "--nu", "1", "--x", "0"], EXIT_USAGE),
    (["identities", "--no-cross-term", *_grid("1", "400", "600", "2")], EXIT_USAGE),
])
def test_extreme_arguments_exit_with_a_code_not_a_traceback(runner, args, code):
    """At large order and argument or at a subnormal x each of these once crashed
    (exit 1: OverflowError, a ValueError from log(x/2), a ZeroDivisionError from
    the x^2 divisor of M''), and bound1 at x = 5e-324 reported a false violation
    (exit 3). The Fox-Wright M at x = 0 stays a domain error. The identities at
    x = 400 and 600 once reported a NaN decomposition residual and exited 0."""
    result = runner.invoke(main, args)
    assert result.exit_code == code, _all_text(result)
    assert not isinstance(result.exception, Exception), result.exception


@pytest.mark.parametrize("nu", ["-0.4995", "0.3"])
def test_eval_normalized_form_at_negative_argument_exits_2(runner, nu):
    """calM at x < 0 fails with one message next to nu = -1/2 and away from it."""
    result = runner.invoke(main, ["eval", "--nu", nu, "--x", "-1", "--fn", "calM"])
    assert result.exit_code == EXIT_USAGE
    assert "error: the normalized form requires x >= 0" in _all_text(result)


def test_eval_first_kind_rejects_foreign_route(runner):
    result = runner.invoke(main, ["eval", "--nu", "1", "--x", "2",
                                  "--fn", "I", "--method", "quadrature"])
    assert result.exit_code == EXIT_USAGE


def test_eval_bad_function_choice(runner):
    result = runner.invoke(main, ["eval", "--nu", "1", "--x", "2",
                                  "--fn", "bogus"])
    assert result.exit_code == EXIT_USAGE


def test_eval_rejects_nonpositive_tolerance(runner):
    result = runner.invoke(main, ["eval", "--nu", "1", "--x", "2",
                                  "--tol", "-1"])
    assert result.exit_code == EXIT_USAGE


@pytest.mark.parametrize("command", [
    ["eval", "--nu", "1", "--x", "1"],
    ["verify", "--case", "gammaineq_left"],
])
def test_tolerance_above_range_is_a_usage_error(runner, command):
    """A tolerance looser than the configs accept names the flag and its
    range instead of leaking the config's internal message (verify used
    to crash with a traceback)."""
    result = runner.invoke(main, command + ["--tol", "1e-3"])
    assert result.exit_code == EXIT_USAGE
    text = _all_text(result)
    assert "'--tol'" in text and "(0, 1e-6]" in text
    assert "rel_tol" not in text


def test_tolerance_env_var_loosens_error_bar(runner):
    tight = runner.invoke(main, ["eval", "--nu", "1", "--x", "10",
                                 "--fn", "calM", "--format", "json"])
    loose = runner.invoke(main, ["eval", "--nu", "1", "--x", "10",
                                 "--fn", "calM", "--format", "json"],
                          env={"STRUVE_KIT_TOL": "1e-6"})
    assert tight.exit_code == EXIT_OK and loose.exit_code == EXIT_OK
    t = json.loads(tight.output)
    l = json.loads(loose.output)
    assert l["abs_err"] >= t["abs_err"]
    assert abs(l["value"] - t["value"]) <= 1e-6


def test_verify_single_case_json(runner):
    result = runner.invoke(main, ["verify", "--case", "gammaineq_left",
                                  "--format", "json"])
    assert result.exit_code == EXIT_OK
    reports = json.loads(result.output)
    assert len(reports) == 1
    report = reports[0]
    assert report["case_id"] == "gammaineq_left"
    assert report["violations"] == []
    assert report["points_tested"] > 0
    assert report["min_margin"] > 0.0
    assert set(report) == {"case_id", "points_tested", "points_skipped",
                           "min_margin", "argmin", "violations",
                           "inconclusive"}


def test_verify_unknown_case_exits_2(runner):
    result = runner.invoke(main, ["verify", "--case", "nosuch"])
    assert result.exit_code == EXIT_USAGE
    assert "unknown case id" in _all_text(result)
    assert "bound0" in _all_text(result)


def test_verify_flip_self_test_exits_3(runner):
    result = runner.invoke(main, ["verify", "--case", "gammaineq_left",
                                  "--self-test-flip"])
    assert result.exit_code == EXIT_VIOLATIONS
    assert "VIOLATED" in result.output
    assert "gammaineq_left_flipped" in result.output


def test_verify_empty_domain_exits_2(runner):
    result = runner.invoke(main, [
        "verify", "--case", "ineqturan_lower",
        "--nu-min", "0", "--nu-max", "0.3", "--nu-steps", "2",
        "--x-min", "1", "--x-max", "2", "--x-steps", "2"])
    assert result.exit_code == EXIT_USAGE


def test_verify_all_counts_match_run_all_on_the_same_grid(runner):
    """A case whose domain rejects the whole custom grid counts every
    point as skipped, exactly as run_all reports it. FX1 is left out: the
    CLI hands it a y axis, run_all's one-point grid has none."""
    result = runner.invoke(main, [
        "verify", "--case", "all", "--nu-min", "0.6", "--nu-max", "0.6",
        "--nu-steps", "1", "--x-min", "1", "--x-max", "1", "--x-steps", "1",
        "--format", "json"])
    assert result.exit_code == EXIT_OK
    got = {r["case_id"]: (r["points_tested"], r["points_skipped"])
           for r in json.loads(result.output)}
    want = {r.case_id: (r.points_tested, r.points_skipped)
            for r in run_all(grid=GridSpec(nu_values=(0.6,), x_values=(1.0,)))}
    del got["FX1"], want["FX1"]
    assert got == want
    assert got["neg_m_cm"] == (0, 1)


def test_verify_sign_m_and_remark1_hold_where_m_underflows(runner):
    """M_{2nu-1/2} and M_nu underflow to -0.0 at large order and small x;
    the calM forms of sign_m and remark1 do not, so neither reports a
    violation or an inconclusive point there."""
    result = runner.invoke(main, [
        "verify", "--case", "sign_m", "--case", "remark1",
        "--nu-min", "0.6", "--nu-max", "200", "--nu-steps", "8", "--x-steps", "8",
        "--format", "json"])
    assert result.exit_code == EXIT_OK, result.output
    reports = json.loads(result.output)
    assert [r["case_id"] for r in reports] == ["sign_m", "remark1"]
    for r in reports:
        assert (r["points_tested"], r["points_skipped"]) == (64, 0), r["case_id"]
        assert r["violations"] == [] and r["inconclusive"] == [], r["case_id"]


def test_verify_fx31_tests_every_point_below_x_1e_5(runner):
    """FX31 reads M and M' at its own point only, so x <= 1e-5 is tested
    like any other x, not skipped for a read at x <= 0."""
    result = runner.invoke(main, [
        "verify", "--case", "FX31", "--nu-min", "1", "--nu-max", "3", "--nu-steps", "3",
        "--x-min", "1e-7", "--x-max", "1e-3", "--x-steps", "5", "--format", "json"])
    assert result.exit_code == EXIT_OK, _all_text(result)
    (report,) = json.loads(result.output)
    assert (report["points_tested"], report["points_skipped"]) == (15, 0)
    assert report["violations"] == [] and report["inconclusive"] == []


def test_eval_derivative_next_to_minus_half(runner):
    """Automatic M' where differentiated quadrature stalls comes from the
    raising recurrence instead of failing."""
    result = runner.invoke(main, ["eval", "--fn", "Mprime", "--nu", "-0.4999",
                                  "--x", "3", "--format", "json"])
    assert result.exit_code == EXIT_OK, _all_text(result)
    assert math.isfinite(json.loads(result.output)["value"])


def test_eval_takes_no_second_argument(runner):
    result = runner.invoke(main, ["eval", "--nu", "1", "--x", "1", "--y", "2"])
    assert result.exit_code == EXIT_USAGE
    assert "--y" in _all_text(result)


def test_verify_custom_grid_with_explicit_y(runner):
    result = runner.invoke(main, [
        "verify", "--case", "FX1",
        "--nu-min", "0.5", "--nu-max", "1", "--nu-steps", "2",
        "--x-min", "0.5", "--x-max", "1", "--x-steps", "2",
        "--y", "0.5", "--y", "1.0", "--format", "json"])
    assert result.exit_code == EXIT_OK
    report = json.loads(result.output)[0]
    assert report["points_tested"] == 8
    assert report["violations"] == []


def test_verify_csv_format(runner):
    result = runner.invoke(main, ["verify", "--case", "gammaineq_right",
                                  "--format", "csv"])
    assert result.exit_code == EXIT_OK
    lines = result.output.splitlines()
    assert lines[0] == ("case_id,points_tested,points_skipped,min_margin,"
                        "violations,inconclusive")
    assert lines[1].startswith("gammaineq_right,")


def test_verify_out_file(runner, tmp_path):
    target = tmp_path / "report.json"
    result = runner.invoke(main, ["verify", "--case", "gammaineq_left",
                                  "--format", "json", "--out", str(target)])
    assert result.exit_code == EXIT_OK
    reports = json.loads(target.read_text(encoding="utf-8"))
    assert reports[0]["case_id"] == "gammaineq_left"


@pytest.mark.parametrize("args", [
    ["eval", "--nu", "1", "--x", "1"],
    ["verify", "--case", "gammaineq_left"],
    ["verify", "--case", "bound0", "--self-test-flip"],
    ["identities", *_grid("1", "1")],
    ["table", *_grid("1", "1")],
])
def test_unwritable_output_exits_2(runner, tmp_path, args):
    """Every command reports a file it cannot write and exits 2, verify also when
    it found violations (the flipped case): the report never reached its reader.
    eval, verify and identities once crashed with FileNotFoundError (exit 1)."""
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "missing" / "out.txt")])
    assert result.exit_code == EXIT_USAGE, _all_text(result)
    assert "cannot write output" in _all_text(result)


@pytest.mark.parametrize("args", [
    ["verify", "--case", "bound0", "--nu-min", "nan", "--nu-steps", "2"],
    ["identities", "--x-max", "inf"],
    ["table", "--nu-max", "-inf"],
])
def test_axis_endpoints_must_be_finite(runner, args):
    """A NaN or infinite axis endpoint is a usage error; verify once counted a NaN
    row as skipped and exited 0."""
    result = runner.invoke(main, args)
    assert result.exit_code == EXIT_USAGE, _all_text(result)
    assert "axis endpoints must be finite" in _all_text(result)


def test_identities_csv_format(runner):
    result = runner.invoke(main, ["identities", *_grid("1", "1"), "--format", "csv"])
    assert result.exit_code == EXIT_OK, _all_text(result)
    header, *lines = result.output.splitlines()
    assert header == "id,nu,x,residual,scale,relative"
    assert len(lines) == 8
    for line in lines:
        rid, nu, x, residual, scale, relative = line.split(",")
        assert (float(nu), float(x)) == (1.0, 1.0)
        assert float(relative) == float(residual) / float(scale), rid


def test_identities_small_grid_json(runner):
    result = runner.invoke(main, [
        "identities",
        "--nu-min", "0.8", "--nu-max", "2", "--nu-steps", "2",
        "--x-min", "0.5", "--x-max", "2", "--x-steps", "2",
        "--format", "json"])
    assert result.exit_code == EXIT_OK
    rows = json.loads(result.output)
    assert len(rows) == 4 * 8
    for row in rows:
        if row["id"] == "turanian_cross_vs_double_integral":
            assert row["relative"] > 0.1
        else:
            assert row["relative"] < 1e-8, row


def test_identities_cross_term_opt_out(runner):
    result = runner.invoke(main, [
        "identities",
        "--nu-min", "0.8", "--nu-max", "2", "--nu-steps", "2",
        "--x-min", "0.5", "--x-max", "2", "--x-steps", "2",
        "--no-cross-term", "--format", "json"])
    assert result.exit_code == EXIT_OK
    rows = json.loads(result.output)
    assert len(rows) == 4 * 7
    assert all(r["id"] != "turanian_cross_vs_double_integral" for r in rows)


_SPACINGS = [("--no-log-spacing", np.linspace), ("--log-spacing", np.geomspace)]


@pytest.mark.parametrize("flag,spaced", _SPACINGS)
def test_identities_spacing_flag_alone_selects_a_custom_grid(runner, flag, spaced):
    """A spacing flag alone spans the standard grid's (min, max, count) with that
    spacing; the standard orders (0.6, 1, 1.5, ...) are neither spacing."""
    result = runner.invoke(main, ["identities", flag, "--no-cross-term", "--format", "json"])
    assert result.exit_code == EXIT_OK, _all_text(result)
    rows = json.loads(result.output)
    assert sorted({r["nu"] for r in rows}) == spaced(0.6, 8.0, 7).tolist()
    assert sorted({r["x"] for r in rows}) == spaced(0.1, 20.0, 7).tolist()


@pytest.mark.parametrize("flag,spaced", _SPACINGS)
def test_verify_spacing_flag_alone_selects_a_custom_grid(runner, flag, spaced):
    """A spacing flag alone spans each default axis's (min, max, count) with that
    spacing; remark1's default orders crowd its open edge at nu = 1/2. Flipped,
    every point tested is a violation, so the report lists the grid."""
    result = runner.invoke(main, ["verify", "--case", "remark1", flag, "--self-test-flip",
                                  "--format", "json"])
    assert result.exit_code == EXIT_VIOLATIONS, _all_text(result)
    report = json.loads(result.output)[0]
    assert report["points_tested"] == 25 * 25
    points = report["violations"] + report["inconclusive"]
    grid = default_grid("remark1")
    for name, values in (("nu", grid.nu_values), ("x", grid.x_values)):
        want = spaced(min(values), max(values), len(values)).tolist()
        assert sorted({pt[name] for pt in points}) == want, name


def test_identities_reject_low_orders(runner):
    result = runner.invoke(main, ["identities",
                                  "--nu-min", "0.3", "--nu-max", "2",
                                  "--nu-steps", "2"])
    assert result.exit_code == EXIT_USAGE


def test_table_header_and_bracket(runner):
    result = runner.invoke(main, [
        "table", "--nu-min", "0.6", "--nu-max", "2", "--nu-steps", "3",
        "--x-min", "0.5", "--x-max", "5", "--x-steps", "4"])
    assert result.exit_code == EXIT_OK
    lines = result.output.splitlines()
    assert lines[0] == "nu,x,M,calM,Mprime,lower_th4,upper_th4"
    assert len(lines) == 1 + 3 * 4
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    for nu, x, m, c, md, lo, up in rows:
        assert m < 0.0
        assert lo <= c <= up
    by_nu = {}
    for row in rows:
        by_nu.setdefault(row[0], []).append(row)
    for nu, group in by_nu.items():
        calms = [r[3] for r in sorted(group, key=lambda r: r[1])]
        assert calms == sorted(calms, reverse=True), nu


def test_table_rejects_bad_domains(runner):
    result = runner.invoke(main, ["table", "--nu-min", "-0.6",
                                  "--nu-max", "1", "--nu-steps", "2"])
    assert result.exit_code == EXIT_USAGE
    result = runner.invoke(main, ["table", "--x-min", "0", "--x-max", "1",
                                  "--x-steps", "2"])
    assert result.exit_code == EXIT_USAGE


@pytest.mark.parametrize("option", [["--grid", "custom"], ["--format", "json"]])
def test_table_has_no_grid_or_format_option(runner, option):
    """table builds its grid from the axis flags and always writes CSV."""
    result = runner.invoke(main, ["table", *option])
    assert result.exit_code == EXIT_USAGE
    assert "No such option" in _all_text(result)


def test_each_command_takes_exactly_its_options():
    """The option set of every subcommand, so that a new option changes this
    test on purpose. Any axis flag, or --y, selects a custom grid; no
    --grid option repeats that."""
    grid = {"nu_min", "nu_max", "nu_steps", "x_min", "x_max", "x_steps", "log_spacing"}
    want = {
        "eval": {"nu", "x", "fn", "method", "tol", "fmt", "out"},
        "verify": {"cases", "y", *grid, "tol", "fmt", "out", "flip"},
        "identities": {*grid, "tol", "fmt", "out", "cross_term"},
        "table": {*grid, "tol", "out"},
    }
    assert {name: {p.name for p in cmd.params}
            for name, cmd in main.commands.items()} == want


def test_verify_second_argument_alone_selects_a_custom_grid(runner):
    """--y alone replaces FX1's 10 default y values: 6 x 10 x 1 points."""
    result = runner.invoke(main, ["verify", "--case", "FX1", "--y", "0.5",
                                  "--format", "json"])
    assert result.exit_code == EXIT_OK, _all_text(result)
    report = json.loads(result.output)[0]
    assert report["points_tested"] + report["points_skipped"] == 60
    assert report["argmin"]["y"] == 0.5


def test_identities_report_every_point_that_evaluates(runner):
    """At x = 400 the Turanian's first-kind parts overflow float64 at all three
    orders: those points are named on stderr and the command exits 2, while the
    other 6 points report their rows."""
    result = runner.invoke(main, [
        "identities", "--nu-min", "1", "--nu-max", "8", "--nu-steps", "3",
        "--x-min", "1", "--x-max", "400", "--x-steps", "3", "--format", "json"])
    assert result.exit_code == EXIT_USAGE
    for nu in ("1", "2.82843", "8"):
        assert f"at (nu={nu}, x=400)" in _all_text(result)
    rows = json.loads(result.stdout)
    assert len(rows) == 6 * 8
    assert 400.0 not in {r["x"] for r in rows}


def test_identities_hold_down_to_x_1e_300(runner):
    """calM's equation stays in float64 at x = 1e-300, where M's refused: every
    point of this grid reports its 8 rows."""
    result = runner.invoke(main, [
        "identities", "--nu-min", "0.6", "--nu-max", "8", "--nu-steps", "3",
        "--x-min", "1e-300", "--x-max", "1", "--x-steps", "3", "--format", "json"])
    assert result.exit_code == EXIT_OK, _all_text(result)
    assert len(json.loads(result.stdout)) == 9 * 8


@pytest.mark.parametrize("fn", ["I", "L"])
def test_eval_first_kind_where_the_terms_peak_late(runner, fn):
    """I_1(710) = 3.34e306 needs about 560 terms, past max_terms = 500."""
    result = runner.invoke(main, ["eval", "--fn", fn, "--nu", "1", "--x", "710",
                                  "--format", "json"])
    assert result.exit_code == EXIT_OK, _all_text(result)
    assert json.loads(result.output)["value"] == pytest.approx(3.3429778585e306, rel=1e-9)


def test_version_flag(runner):
    """--version reports the package's own version string, with or without
    installed distribution metadata."""
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == EXIT_OK
    assert result.output.strip() == f"struvekit, version {__version__}"


def test_module_entry_point_runs_from_source():
    """python -m struvekit runs the CLI straight from src/, no install."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "struvekit", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.strip() == f"struvekit, version {__version__}"


@pytest.mark.parametrize("args", [
    ["--fn", "M", "--nu", "-0.4999", "--x", "9"],
    ["--fn", "calM", "--nu", "-0.4999", "--x", "9"],
    ["--nu", "1e6", "--x", "1"],
    ["--nu", "1", "--x", "1e-320"],
])
def test_eval_serves_points_one_route_cannot(runner, args):
    """Each of these points stalls on quadrature or underflows in the float64
    series; the automatic chain answers from the other route."""
    result = runner.invoke(main, ["eval", *args, "--format", "json"])
    assert result.exit_code == EXIT_OK, _all_text(result)
    assert math.isfinite(json.loads(result.output)["value"])


@pytest.mark.parametrize("args, reason", [
    (["verify", "--nu-steps", "0"], "grid axes need at least one step"),
    (["table", "--nu-min", "200", "--nu-max", "200", "--nu-steps", "1", "--x-min", "1e4",
      "--x-max", "1e4", "--x-steps", "1"], "M at (nu=200, x=10000) overflows float64"),
])
def test_grid_commands_exit_2_with_the_reason(runner, args, reason):
    """A grid axis with no step, and a table point where M leaves float64."""
    result = runner.invoke(main, args)
    assert result.exit_code == EXIT_USAGE, _all_text(result)
    assert reason in _all_text(result)
