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

import dataclasses
import json
import sys
from typing import Optional

import click
import numpy as np

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


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything one subcommand invocation needs, flags already parsed.

    The command handlers take this instead of raw click state so they can
    be driven directly from tests.
    """

    command: str
    nu: Optional[float] = None
    x: Optional[float] = None
    y: tuple[float, ...] = ()
    fn: str = "M"
    method: str = "auto"
    cases: tuple[str, ...] = ("all",)
    grid: str = "default"
    nu_min: Optional[float] = None
    nu_max: Optional[float] = None
    nu_steps: Optional[int] = None
    x_min: Optional[float] = None
    x_max: Optional[float] = None
    x_steps: Optional[int] = None
    log_spacing: bool = True
    tol: Optional[float] = None
    fmt: str = "human"
    out: Optional[str] = None
    flip: bool = False
    cross_term: bool = True


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
    if steps == 1:
        return (float(lo),)
    if log and lo > 0.0 and hi > 0.0:
        return tuple(float(v) for v in np.geomspace(lo, hi, steps))
    return tuple(float(v) for v in np.linspace(lo, hi, steps))


def _flag_axis(cfg: RunConfig, flags: tuple, defaults: tuple) -> tuple[float, ...]:
    """An axis from its (min, max, steps) flags, each None falling back to
    its default."""
    lo, hi, steps = (d if f is None else f for f, d in zip(flags, defaults))
    return _axis(lo, hi, steps, cfg.log_spacing)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


def _fail(message: str) -> int:
    click.echo(f"error: {message}", err=True)
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _eval_value(cfg: RunConfig) -> FuncValue:
    p = EvalPoint(cfg.nu, cfg.x)
    series_cfg, quad_cfg = _configs(cfg.tol)
    method = None if cfg.method == "auto" else Method(cfg.method)
    if cfg.fn in ("I", "L"):
        if method not in (None, Method.SERIES):
            raise StruveKitError(
                f"the first-kind function {cfg.fn} is evaluated by its series only")
        return (series.bessel_i if cfg.fn == "I" else series.struve_l)(p, series_cfg)
    if cfg.fn == "M":
        return routes.struve_m(p, method, series_cfg, quad_cfg)
    if cfg.fn == "calM":
        return routes.calm(p, method, series_cfg, quad_cfg)
    return routes.struve_m_prime(p, method, series_cfg, quad_cfg)


def cmd_eval(cfg: RunConfig) -> int:
    """Evaluate one function at one point and print value, error bound,
    and the route that produced it."""
    try:
        fv = _eval_value(cfg)
    except StruveKitError as exc:
        return _fail(str(exc))
    payload = {"nu": cfg.nu, "x": cfg.x, "value": fv.value,
               "abs_err": fv.abs_err, "method": fv.method.value}
    if cfg.fmt == "json":
        _emit(cfg, json.dumps(payload))
    elif cfg.fmt == "csv":
        _emit(cfg, "nu,x,value,abs_err,method\n"
              + f"{cfg.nu:.17g},{cfg.x:.17g},{fv.value:.17g},"
              + f"{fv.abs_err:.3g},{fv.method.value}")
    else:
        _emit(cfg, f"{cfg.fn}(nu={cfg.nu:g}, x={cfg.x:g}) = {fv.value:.17g}"
              f"   [abs err <= {fv.abs_err:.3g}, {fv.method.value}]")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _custom_grid_requested(cfg: RunConfig) -> bool:
    return cfg.grid == "custom" or any(
        v is not None for v in (cfg.nu_min, cfg.nu_max, cfg.nu_steps,
                                cfg.x_min, cfg.x_max, cfg.x_steps))


def _grid_for_case(cfg: RunConfig, case: inequalities.InequalityCase) -> GridSpec:
    """Default grid for the case, or a custom grid where every flag that
    was given overrides the matching default-axis parameter."""
    base = inequalities.default_grid(case.id)
    if not _custom_grid_requested(cfg):
        return base
    nus, xs = base.nu_values, base.x_values
    x_values = _flag_axis(cfg, (cfg.x_min, cfg.x_max, cfg.x_steps), (min(xs), max(xs), len(xs)))
    y_values = None
    if case.needs_y:
        y_values = cfg.y if cfg.y else x_values
    return GridSpec(
        nu_values=_flag_axis(cfg, (cfg.nu_min, cfg.nu_max, cfg.nu_steps),
                             (min(nus), max(nus), len(nus))),
        x_values=x_values,
        y_values=y_values,
        spacing="log" if cfg.log_spacing else "linear",
    )


def _resolve_cases(cfg: RunConfig) -> list[inequalities.InequalityCase]:
    requested = cfg.cases or ("all",)
    if "all" in requested:
        out = list(inequalities.CATALOG.values())
        extras = [c for c in requested if c != "all"]
    else:
        out, extras = [], list(requested)
    for case_id in extras:
        out.append(inequalities.lookup(case_id))
    return out


def _human_report(r: VerificationReport) -> str:
    mm = "n/a" if r.min_margin is None else f"{r.min_margin:+.3e}"
    at = ""
    if r.argmin is not None:
        at = " at (" + ", ".join(f"{v:g}" for v in r.argmin) + ")"
    status = "VIOLATED" if r.violations else "ok"
    return (f"{r.case_id:<28} {status:>8}  tested={r.points_tested:<5d} "
            f"skipped={r.points_skipped:<4d} min_margin={mm}{at}  "
            f"violations={len(r.violations)} inconclusive={len(r.inconclusive)}")


def cmd_verify(cfg: RunConfig) -> int:
    """Sweep the requested inequality cases and report margins.

    Exit 0 only when every tested point of every requested case satisfied
    its claim; 3 when any violation surfaced; 2 for unknown case ids or
    a grid on which a case named on its own tests nothing. Under
    ``--case all`` such a case is reported with zero points tested.
    """
    try:
        cases = _resolve_cases(cfg)
    except KeyError as exc:
        return _fail(f"unknown case id {exc.args[0]!r}; "
                     f"known: {', '.join(inequalities.CATALOG)} "
                     f"(+ {', '.join(inequalities.EXTRA_CASES)}), or 'all'")
    series_cfg, quad_cfg = _configs(cfg.tol)
    sweep = (inequalities.sweep_case if "all" in (cfg.cases or ("all",))
             else inequalities.run_case)
    reports: list[VerificationReport] = []
    for case in cases:
        grid = _grid_for_case(cfg, case)
        if cfg.flip:
            case = case.flipped()
        try:
            reports.append(sweep(case, grid, series_cfg, quad_cfg))
        except EmptyDomainError as exc:
            return _fail(str(exc))
    if cfg.fmt == "json":
        _emit(cfg, json.dumps(
            [inequalities.report_to_json_dict(r) for r in reports], indent=2))
    elif cfg.fmt == "csv":
        lines = ["case_id,points_tested,points_skipped,min_margin,"
                 "violations,inconclusive"]
        for r in reports:
            mm = "" if r.min_margin is None else f"{r.min_margin:.17g}"
            lines.append(f"{r.case_id},{r.points_tested},{r.points_skipped},"
                         f"{mm},{len(r.violations)},{len(r.inconclusive)}")
        _emit(cfg, "\n".join(lines))
    else:
        lines = [_human_report(r) for r in reports]
        total_v = sum(len(r.violations) for r in reports)
        total_i = sum(len(r.inconclusive) for r in reports)
        lines.append(f"-- {len(reports)} case(s): {total_v} violation(s), "
                     f"{total_i} inconclusive")
        _emit(cfg, "\n".join(lines))
    if any(r.violations for r in reports):
        return EXIT_VIOLATIONS
    return EXIT_OK


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def cmd_identities(cfg: RunConfig) -> int:
    """Run the identity-residual suite and summarize the worst relative
    residual per identity."""
    series_cfg, quad_cfg = _configs(cfg.tol)
    if _custom_grid_requested(cfg):
        nu_values = _flag_axis(cfg, (cfg.nu_min, cfg.nu_max, cfg.nu_steps), (0.6, 8.0, 7))
        x_values = _flag_axis(cfg, (cfg.x_min, cfg.x_max, cfg.x_steps), (0.1, 20.0, 7))
    else:
        nu_values = identities.STANDARD_NU
        x_values = identities.STANDARD_X
    try:
        rows = identities.residual_suite(nu_values, x_values, series_cfg,
                                         quad_cfg,
                                         include_cross_term=cfg.cross_term)
    except StruveKitError as exc:
        return _fail(str(exc))
    if cfg.fmt == "json":
        _emit(cfg, json.dumps([{
            "id": r.id, "nu": r.point.nu, "x": r.point.x,
            "residual": r.residual, "scale": r.scale, "relative": r.relative,
        } for r in rows], indent=2))
        return EXIT_OK
    if cfg.fmt == "csv":
        lines = ["id,nu,x,residual,scale,relative"]
        lines += [f"{r.id},{r.point.nu:.17g},{r.point.x:.17g},"
                  f"{r.residual:.17g},{r.scale:.17g},{r.relative:.17g}"
                  for r in rows]
        _emit(cfg, "\n".join(lines))
        return EXIT_OK
    worst: dict[str, identities.IdentityResidual] = {}
    for r in rows:
        if r.id not in worst or r.relative > worst[r.id].relative:
            worst[r.id] = r
    lines = []
    for rid, r in worst.items():
        lines.append(f"{rid:<36} max relative residual {r.relative:.3e} "
                     f"at (nu={r.point.nu:g}, x={r.point.x:g})")
    lines.append(f"-- {len(rows)} residuals over {len(nu_values)}x"
                 f"{len(x_values)} grid")
    _emit(cfg, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(cfg: RunConfig) -> int:
    """Emit plot-ready CSV: the function, its normalized form and
    derivative, and the two-sided exponential bracket, over a grid."""
    series_cfg, quad_cfg = _configs(cfg.tol)
    nu_values = _flag_axis(cfg, (cfg.nu_min, cfg.nu_max, cfg.nu_steps), (-0.45, 20.0, 25))
    x_values = _flag_axis(cfg, (cfg.x_min, cfg.x_max, cfg.x_steps), (1e-3, 30.0, 25))
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
    try:
        _emit(cfg, "\n".join(lines))
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------


_grid_options = [
    click.option("--grid", type=click.Choice(["default", "custom"]),
                 default="default", show_default=True,
                 help="Use each case's standard grid, or build one from "
                      "the axis flags."),
    click.option("--nu-min", type=float, default=None, help="Order axis start."),
    click.option("--nu-max", type=float, default=None, help="Order axis end."),
    click.option("--nu-steps", type=int, default=None, help="Order axis points."),
    click.option("--x-min", type=float, default=None, help="Argument axis start."),
    click.option("--x-max", type=float, default=None, help="Argument axis end."),
    click.option("--x-steps", type=int, default=None, help="Argument axis points."),
    click.option("--log-spacing/--no-log-spacing", default=True,
                 show_default=True,
                 help="Log-spaced axes (linear fallback when an endpoint "
                      "is not positive)."),
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
def eval_cmd(nu, x, fn, method, tol, fmt, out):
    """Evaluate one function at one point."""
    sys.exit(cmd_eval(RunConfig(command="eval", nu=nu, x=x, fn=fn,
                                method=method, tol=tol, fmt=fmt, out=out)))


@main.command("verify")
@click.option("--case", "cases", multiple=True, default=("all",),
              show_default=True,
              help="Case id (repeatable) or 'all' for the full catalog.")
@click.option("--y", type=float, multiple=True,
              help="Explicit second-argument values for two-argument cases "
                   "under a custom grid (default: reuse the x axis).")
@_apply(_grid_options)
@_apply(_common_options)
@click.option("--self-test-flip", "flip", is_flag=True, default=False,
              hidden=True,
              help="Negate every margin before sweeping; a healthy harness "
                   "must then report violations and exit 3.")
def verify_cmd(cases, y, grid, nu_min, nu_max, nu_steps, x_min, x_max,
               x_steps, log_spacing, tol, fmt, out, flip):
    """Sweep inequality cases over a grid and report margins."""
    sys.exit(cmd_verify(RunConfig(
        command="verify", cases=tuple(cases), y=tuple(y), grid=grid,
        nu_min=nu_min, nu_max=nu_max, nu_steps=nu_steps, x_min=x_min,
        x_max=x_max, x_steps=x_steps, log_spacing=log_spacing, tol=tol,
        fmt=fmt, out=out, flip=flip)))


@main.command("identities")
@_apply(_grid_options)
@_apply(_common_options)
@click.option("--cross-term/--no-cross-term", "cross_term", default=True,
              show_default=True,
              help="Include the direct cross-term-versus-double-integral "
                   "comparison (reports a genuine discrepancy).")
def identities_cmd(grid, nu_min, nu_max, nu_steps, x_min, x_max, x_steps,
                   log_spacing, tol, fmt, out, cross_term):
    """Residuals of the differential equation, recurrences, and
    Turan-type identities over a grid."""
    sys.exit(cmd_identities(RunConfig(
        command="identities", grid=grid, nu_min=nu_min, nu_max=nu_max,
        nu_steps=nu_steps, x_min=x_min, x_max=x_max, x_steps=x_steps,
        log_spacing=log_spacing, tol=tol, fmt=fmt, out=out,
        cross_term=cross_term)))


@main.command("table")
@_apply(_grid_options[1:])  # the axis flags: the table has no default grid
@_apply(_common_options[::2])  # --tol and --out: the table is always CSV
def table_cmd(nu_min, nu_max, nu_steps, x_min, x_max, x_steps, log_spacing, tol, out):
    """CSV table of M, calM, M' and the two-sided bracket over the axis flags."""
    sys.exit(cmd_table(RunConfig(
        command="table", nu_min=nu_min, nu_max=nu_max,
        nu_steps=nu_steps, x_min=x_min, x_max=x_max, x_steps=x_steps,
        log_spacing=log_spacing, tol=tol, out=out)))


if __name__ == "__main__":
    main()
