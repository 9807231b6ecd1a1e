"""Command-line front-end.

Four subcommands: ``eval`` (point evaluation of I, L, M, calM, or M'),
``identities`` (residuals of every identity over a grid), ``verify``
(inequality sweeps with margin reports), and ``table`` (plot-ready CSV
of the function against its two-sided exponential bracket).

Exit codes are a stable contract: 0 success, 2 usage or domain error,
3 verification found violations. Verification output in JSON mode
round-trips through the report parser bit-for-bit.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Optional

import click
import numpy as np
from click.core import ParameterSource

from . import __version__, foxwright, identities, inequalities, routes, series
from .core import (QUAD_DEFAULTS, SERIES_DEFAULTS, EvalPoint, FuncValue,
                   Method, QuadConfig, SeriesConfig)
from .errors import EmptyDomainError, StruveKitError
from .inequalities import GridSpec, VerificationReport

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATIONS = 3

FN_CHOICES = ("I", "L", "M", "calM", "Mprime")
METHOD_CHOICES = ("auto", "series", "quadrature", "foxwright", "closedform")


def _configs(tol: Optional[float]) -> tuple[SeriesConfig, QuadConfig]:
    """Map the tolerance flag onto the two evaluation configs. None keeps
    the library defaults; an explicit value becomes the quadrature
    absolute target and the series relative target (floored at roughly
    machine precision)."""
    if tol is None:
        return SERIES_DEFAULTS, QUAD_DEFAULTS
    if not 0.0 < tol <= 1e-6:
        raise click.BadParameter("must lie in (0, 1e-6]", param_hint="'--tol'")
    return (SeriesConfig(rel_tol=max(tol, 4e-16)),
            QuadConfig(abs_tol=max(tol, 1e-15)))


def _axis(lo: float, hi: float, steps: int, log: bool) -> tuple[float, ...]:
    """One grid axis. Log spacing needs positive endpoints and quietly
    falls back to linear otherwise (order ranges often straddle zero)."""
    if steps < 1:
        raise click.BadParameter("grid axes need at least one step")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise click.BadParameter(f"axis endpoints must be finite, got {lo:g} and {hi:g}")
    if steps == 1:
        return (float(lo),)
    if log and lo > 0.0 and hi > 0.0:
        return tuple(float(v) for v in np.geomspace(lo, hi, steps))
    return tuple(float(v) for v in np.linspace(lo, hi, steps))


def _span(values: tuple[float, ...]) -> tuple[float, float, int]:
    """(min, max, count) of a default axis, the defaults of its flags."""
    return min(values), max(values), len(values)


def _flag_axes(axes: dict, log_spacing: bool, nu_default: tuple,
               x_default: tuple) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The (nu, x) axes of a custom grid from the axis flags in axes
    (nu_min ... x_steps), each None falling back to its axis's (min, max,
    steps) default."""
    def axis(name: str, default: tuple) -> tuple[float, ...]:
        flags = (axes[f"{name}_min"], axes[f"{name}_max"], axes[f"{name}_steps"])
        lo, hi, steps = (d if f is None else f for f, d in zip(flags, default))
        return _axis(lo, hi, steps, log_spacing)
    return axis("nu", nu_default), axis("x", x_default)


def _custom(axes: dict) -> bool:
    """Whether any axis flag or --log-spacing/--no-log-spacing was given: then a
    command builds a custom grid."""
    return (any(v is not None for v in axes.values()) or click.get_current_context()
            .get_parameter_source("log_spacing") is ParameterSource.COMMANDLINE)


def _emit(out: Optional[str], text: str) -> int:
    """Write text to the file out, or to stdout when out is None: EXIT_OK, or
    EXIT_USAGE with the reason when the file cannot be written."""
    if not out:
        click.echo(text)
        return EXIT_OK
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    return EXIT_OK


def _fail(message: str) -> int:
    click.echo(f"error: {message}", err=True)
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _eval_value(nu: float, x: float, fn: str, method: str,
                tol: Optional[float]) -> FuncValue:
    p = EvalPoint(nu, x)
    series_cfg, quad_cfg = _configs(tol)
    route = None if method == "auto" else Method(method)
    if fn in ("I", "L"):
        if route not in (None, Method.SERIES):
            raise StruveKitError(
                f"the first-kind function {fn} is evaluated by its series only")
        return (series.bessel_i if fn == "I" else series.struve_l)(p, series_cfg)
    if fn == "M":
        return routes.struve_m(p, route, series_cfg, quad_cfg)
    if fn == "calM":
        return routes.calm(p, route, series_cfg, quad_cfg)
    return routes.struve_m_prime(p, route, series_cfg, quad_cfg)


def cmd_eval(nu: float, x: float, fn: str, method: str, tol: Optional[float],
             fmt: str, out: Optional[str]) -> int:
    """Evaluate one function at one point and print value, error bound,
    and the route that produced it."""
    try:
        fv = _eval_value(nu, x, fn, method, tol)
    except StruveKitError as exc:
        return _fail(str(exc))
    payload = {"nu": nu, "x": x, "value": fv.value,
               "abs_err": fv.abs_err, "method": fv.method.value}
    if fmt == "json":
        return _emit(out, json.dumps(payload))
    if fmt == "csv":
        return _emit(out, "nu,x,value,abs_err,method\n"
                     + f"{nu:.17g},{x:.17g},{fv.value:.17g},"
                     + f"{fv.abs_err:.3g},{fv.method.value}")
    return _emit(out, f"{fn}(nu={nu:g}, x={x:g}) = {fv.value:.17g}"
                 f"   [abs err <= {fv.abs_err:.3g}, {fv.method.value}]")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _grid_for_case(case: inequalities.InequalityCase, y: tuple[float, ...],
                   log_spacing: bool, axes: dict) -> GridSpec:
    """Default grid for the case, or, when an axis or spacing flag or --y was
    given, a custom grid where every flag given overrides the matching default-axis
    parameter."""
    base = inequalities.default_grid(case.id)
    if not (y or _custom(axes)):
        return base
    nu_values, x_values = _flag_axes(axes, log_spacing, _span(base.nu_values),
                                     _span(base.x_values))
    return GridSpec(nu_values, x_values, (y or x_values) if case.needs_y else None)


def _resolve_cases(requested: tuple[str, ...]) -> list[inequalities.InequalityCase]:
    """The whole catalog under 'all', then each case named, in order."""
    out = list(inequalities.CATALOG.values()) if "all" in requested else []
    return out + [inequalities.lookup(case_id) for case_id in requested if case_id != "all"]


def _human_report(r: VerificationReport) -> str:
    mm = "n/a" if r.min_margin is None else f"{r.min_margin:+.3e}"
    at = ""
    if r.argmin is not None:
        at = " at (" + ", ".join(f"{v:g}" for v in r.argmin) + ")"
    status = "VIOLATED" if r.violations else "ok"
    return (f"{r.case_id:<28} {status:>8}  tested={r.points_tested:<5d} "
            f"skipped={r.points_skipped:<4d} min_margin={mm}{at}  "
            f"violations={len(r.violations)} inconclusive={len(r.inconclusive)}")


def cmd_verify(cases: tuple[str, ...], y: tuple[float, ...], log_spacing: bool,
               tol: Optional[float], fmt: str, out: Optional[str], flip: bool,
               **axes) -> int:
    """Sweep the requested inequality cases and report margins; axes holds
    the axis flags nu_min ... x_steps.

    Exit 0 only when every tested point of every requested case satisfied
    its claim; 3 when any violation surfaced; 2 for unknown case ids or
    a grid on which a case named on its own tests nothing. Under
    ``--case all`` such a case is reported with zero points tested.
    """
    try:
        resolved = _resolve_cases(cases)
    except KeyError as exc:
        return _fail(f"unknown case id {exc.args[0]!r}; "
                     f"known: {', '.join(inequalities.CATALOG)} "
                     f"(+ {', '.join(inequalities.EXTRA_CASES)}), or 'all'")
    series_cfg, quad_cfg = _configs(tol)
    sweep = inequalities.sweep_case if "all" in cases else inequalities.run_case
    reports: list[VerificationReport] = []
    for case in resolved:
        grid = _grid_for_case(case, y, log_spacing, axes)
        if flip:
            case = case.flipped()
        try:
            reports.append(sweep(case, grid, series_cfg, quad_cfg))
        except EmptyDomainError as exc:
            return _fail(str(exc))
    if fmt == "json":
        text = json.dumps([inequalities.report_to_json_dict(r) for r in reports], indent=2)
    elif fmt == "csv":
        lines = ["case_id,points_tested,points_skipped,min_margin,"
                 "violations,inconclusive"]
        for r in reports:
            mm = "" if r.min_margin is None else f"{r.min_margin:.17g}"
            lines.append(f"{r.case_id},{r.points_tested},{r.points_skipped},"
                         f"{mm},{len(r.violations)},{len(r.inconclusive)}")
        text = "\n".join(lines)
    else:
        lines = [_human_report(r) for r in reports]
        total_v = sum(len(r.violations) for r in reports)
        total_i = sum(len(r.inconclusive) for r in reports)
        lines.append(f"-- {len(reports)} case(s): {total_v} violation(s), "
                     f"{total_i} inconclusive")
        text = "\n".join(lines)
    # a failed write outranks the violations: the report never reached its reader
    return _emit(out, text) or (EXIT_VIOLATIONS if any(r.violations for r in reports)
                                else EXIT_OK)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def cmd_identities(log_spacing: bool, tol: Optional[float], fmt: str,
                   out: Optional[str], cross_term: bool, **axes) -> int:
    """Run the identity residuals one grid point at a time and summarize the
    worst relative residual per identity; axes holds the axis flags. A
    point that raises is named on stderr, the others are reported, and the
    exit code is then 2."""
    series_cfg, quad_cfg = _configs(tol)
    nu_values, x_values = identities.STANDARD_NU, identities.STANDARD_X
    if _custom(axes):
        nu_values, x_values = _flag_axes(axes, log_spacing, _span(nu_values),
                                         _span(x_values))
    rows: list[identities.IdentityResidual] = []
    code = EXIT_OK
    for nu in nu_values:
        for x in x_values:
            try:
                rows += identities.residual_suite((nu,), (x,), series_cfg, quad_cfg,
                                                  include_cross_term=cross_term)
            except StruveKitError as exc:
                code = _fail(f"at (nu={nu:g}, x={x:g}): {exc}")
    if fmt == "json":
        text = json.dumps([{
            "id": r.id, "nu": r.point.nu, "x": r.point.x,
            "residual": r.residual, "scale": r.scale, "relative": r.relative,
        } for r in rows], indent=2)
    elif fmt == "csv":
        lines = ["id,nu,x,residual,scale,relative"]
        lines += [f"{r.id},{r.point.nu:.17g},{r.point.x:.17g},"
                  f"{r.residual:.17g},{r.scale:.17g},{r.relative:.17g}"
                  for r in rows]
        text = "\n".join(lines)
    else:
        worst: dict[str, identities.IdentityResidual] = {}
        for r in rows:
            if r.id not in worst or r.relative > worst[r.id].relative:
                worst[r.id] = r
        lines = [f"{rid:<36} max relative residual {r.relative:.3e} "
                 f"at (nu={r.point.nu:g}, x={r.point.x:g})" for rid, r in worst.items()]
        lines.append(f"-- {len(rows)} residuals over {len(nu_values)}x"
                     f"{len(x_values)} grid")
        text = "\n".join(lines)
    return _emit(out, text) or code


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(log_spacing: bool, tol: Optional[float], out: Optional[str],
              **axes) -> int:
    """Emit plot-ready CSV: the function, its normalized form and
    derivative, and the two-sided exponential bracket, over the grid of
    the axis flags in axes."""
    series_cfg, quad_cfg = _configs(tol)
    nu_values, x_values = _flag_axes(axes, log_spacing, (-0.45, 20.0, 25), (1e-3, 30.0, 25))
    if min(nu_values) <= -0.5:
        return _fail("the table needs orders above -1/2 (normalized form "
                     "and bracket are undefined otherwise)")
    if min(x_values) <= 0.0:
        return _fail("the table needs x > 0")
    lines = ["nu,x,M,calM,Mprime,lower_th4,upper_th4"]
    try:
        for nu in nu_values:
            for x in x_values:
                p = EvalPoint(nu, x)
                m = routes.struve_m(p, None, series_cfg, quad_cfg).value
                c = routes.calm(p, None, series_cfg, quad_cfg).value
                md = routes.struve_m_prime(p, None, series_cfg, quad_cfg).value
                lo, up = foxwright.bilateral_bounds(p)
                lines.append(",".join(f"{v:.17g}" for v in
                                      (nu, x, m, c, md, lo, up)))
    except StruveKitError as exc:
        return _fail(str(exc))
    return _emit(out, "\n".join(lines))


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------


_grid_options = [
    click.option("--nu-min", type=float, default=None, help="Order axis start."),
    click.option("--nu-max", type=float, default=None, help="Order axis end."),
    click.option("--nu-steps", type=int, default=None, help="Order axis points."),
    click.option("--x-min", type=float, default=None, help="Argument axis start."),
    click.option("--x-max", type=float, default=None, help="Argument axis end."),
    click.option("--x-steps", type=int, default=None, help="Argument axis points."),
    click.option("--log-spacing/--no-log-spacing", default=True,
                 show_default=True,
                 help="Log-spaced axes (linear fallback when an endpoint "
                      "is not positive); given alone, selects a custom grid "
                      "over the default axes' ranges."),
]


def _apply(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


_common_options = [
    click.option("--tol", type=float, default=None, envvar="STRUVE_KIT_TOL",
                 help="Evaluation tolerance override (quadrature absolute "
                      "target, series relative target). Env: STRUVE_KIT_TOL."),
    click.option("--format", "fmt", type=click.Choice(["human", "json", "csv"]),
                 default="human", show_default=True, help="Output format."),
    click.option("--out", type=click.Path(dir_okay=False, writable=True),
                 default=None, help="Write output to this file instead of stdout."),
]


@click.group()
@click.version_option(version=__version__, prog_name="struvekit")
def main() -> None:
    """Second-kind modified Struve toolkit: evaluate, check identities,
    verify inequalities, emit tables."""


@main.command("eval")
@click.option("--nu", type=float, required=True, help="Order.")
@click.option("--x", type=float, required=True, help="Argument.")
@click.option("--fn", type=click.Choice(FN_CHOICES), default="M",
              show_default=True, help="Function to evaluate.")
@click.option("--method", type=click.Choice(METHOD_CHOICES), default="auto",
              show_default=True, help="Evaluation route.")
@_apply(_common_options)
def eval_cmd(**params):
    """Evaluate one function at one point."""
    sys.exit(cmd_eval(**params))


@main.command("verify")
@click.option("--case", "cases", multiple=True, default=("all",),
              show_default=True,
              help="Case id (repeatable) or 'all' for the full catalog.")
@click.option("--y", type=float, multiple=True,
              help="Explicit second-argument values for two-argument cases; "
                   "selects a custom grid (default: reuse the x axis).")
@_apply(_grid_options)
@_apply(_common_options)
@click.option("--self-test-flip", "flip", is_flag=True, default=False,
              hidden=True,
              help="Negate every margin before sweeping; a healthy harness "
                   "must then report violations and exit 3.")
def verify_cmd(**params):
    """Sweep inequality cases and report margins, on each case's default
    grid or, when any axis or spacing flag or --y is given, on a custom grid."""
    sys.exit(cmd_verify(**params))


@main.command("identities")
@_apply(_grid_options)
@_apply(_common_options)
@click.option("--cross-term/--no-cross-term", "cross_term", default=True,
              show_default=True,
              help="Include the direct cross-term-versus-double-integral "
                   "comparison (reports a genuine discrepancy).")
def identities_cmd(**params):
    """Residuals of the differential equation, recurrences, and
    Turan-type identities over the standard grid, or a custom grid when
    any axis or spacing flag is given."""
    sys.exit(cmd_identities(**params))


@main.command("table")
@_apply(_grid_options)
@_apply(_common_options[::2])  # --tol and --out: the table is always CSV
def table_cmd(**params):
    """CSV table of M, calM, M' and the two-sided bracket over the axis flags."""
    sys.exit(cmd_table(**params))


if __name__ == "__main__":
    main()
