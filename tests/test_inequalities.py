"""Verification harness: catalog integrity, executor behavior, reports."""

import inspect
import itertools
import json
import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from struvekit import foxwright, inequalities, quadrature, routes, series
from struvekit.core import (QUAD_DEFAULTS, SERIES_DEFAULTS, EvalPoint, Method,
                            QuadConfig, SeriesConfig, Values, rel_margin)
from struvekit.errors import CancellationError, DomainError, EmptyDomainError
from struvekit.gammafuncs import LOG_SQRT_PI, log_gamma, power_gamma
from struvekit.inequalities import (CATALOG, EXTRA_CASES, INCONCLUSIVE_BAND,
                                    GridSpec, Reads, _ratio_derivative_analytic,
                                    default_grid, lookup,
                                    report_from_json_dict, report_to_json_dict,
                                    run_all, run_case, sweep_case)

from oracles import CASE_SIDES, FX31_SLOPE_TABLE

SMALL = GridSpec(nu_values=(0.75, 2.0, 6.0), x_values=(0.05, 1.0, 10.0))

#: report_to_json_dict of every case of the default sweep, as computed
#: before the quadrature derivative orders were batched into one pass.
SWEEP_SNAPSHOT = Path(__file__).parent / "data" / "sweep_snapshot.json"


def test_catalog_integrity():
    assert len(CATALOG) == 26
    for case_id, case in CATALOG.items():
        assert case.id == case_id
        assert case.note, case_id
    assert lookup("bound0").id == "bound0"
    assert lookup("FX3_raw").id == "FX3_raw"
    assert "FX3_raw" not in CATALOG and "FX3_raw" in EXTRA_CASES
    with pytest.raises(KeyError):
        lookup("no_such_case")


def test_default_sweep_has_no_violations(default_reports):
    assert set(default_reports) == set(CATALOG)
    for case_id, report in default_reports.items():
        assert report.points_tested > 0, case_id
        assert report.violations == (), (case_id, report.violations[:3])
        assert report.min_margin is not None
        assert report.min_margin > -INCONCLUSIVE_BAND, case_id


def test_default_sweep_matches_snapshot(default_reports):
    """Speed work must not move a verdict: exact counts, exact violation
    and inconclusive points, and min margins to 1e-10 relative."""
    snapshot = json.loads(SWEEP_SNAPSHOT.read_text(encoding="utf-8"))
    assert {want["case_id"] for want in snapshot} == set(default_reports)

    def points(entries):
        return [{k: v for k, v in e.items() if k != "margin"} for e in entries]

    for want in snapshot:
        got = report_to_json_dict(default_reports[want["case_id"]])
        assert got["points_tested"] == want["points_tested"], want["case_id"]
        assert got["points_skipped"] == want["points_skipped"], want["case_id"]
        assert points(got["violations"]) == points(want["violations"])
        assert points(got["inconclusive"]) == points(want["inconclusive"])
        assert got["min_margin"] == pytest.approx(want["min_margin"], rel=1e-10)


def test_inconclusive_points_stay_inside_band(default_reports):
    for case_id, report in default_reports.items():
        for point, margin in report.inconclusive:
            assert abs(margin) <= INCONCLUSIVE_BAND, (case_id, point)


def test_two_argument_case_sweeps_three_axes(default_reports):
    report = default_reports["FX1"]
    assert report.argmin is not None and len(report.argmin) == 3
    assert report.points_tested > 100


# The domain predicates and grid ranges each case had while they were kept
# apart from the catalog declarations; the derived ones must match them.


def _ref_above_neg_half(nu, x, y=None):
    return nu > -0.5 and x > 0.0


def _ref_above_half(nu, x, y=None):
    return nu > 0.5 and x > 0.0


def _ref_ge_neg_half(nu, x, y=None):
    return nu >= -0.5 and x > 0.0


def _ref_ratio_band(nu, x, y=None):
    return -0.5 <= nu <= 0.0 and x > 0.0


def _ref_gamma_only(nu, x, y=None):
    return nu > -0.5


def _ref_fx1(nu, x, y=None):
    return nu > -0.5 and x > 0.0 and y is not None and y > 0.0


def _ref_h(nu, x, y=None):
    return -1.0 < nu <= 20.0


def _ref_fx3_raw(nu, x, y=None):
    return -1.0 < nu <= -0.5 and x > 0.0


#: case id -> (domain, domain lower edge, grid upper end, lower edge closed)
REFERENCE_RANGES = {
    "bound0": (_ref_above_neg_half, -0.5, 20.0, False),
    "ineqturan_lower": (_ref_above_half, 0.5, 20.0, False),
    "ineqturan_upper": (_ref_above_half, 0.5, 20.0, False),
    "quot1": (_ref_above_neg_half, -0.5, 20.0, False),
    "quot2_left": (_ref_above_half, 0.5, 20.0, False),
    "quot2_right": (_ref_above_half, 0.5, 20.0, False),
    "FX1": (_ref_fx1, -0.5, 20.0, False),
    "bound1": (_ref_above_neg_half, -0.5, 20.0, False),
    "FX2": (_ref_above_half, 0.5, 20.0, False),
    "FX3": (_ref_above_neg_half, -0.5, 20.0, False),
    "quot3_left": (_ref_ratio_band, -0.5, 0.0, True),
    "quot3_right": (_ref_ratio_band, -0.5, 0.0, True),
    "FX31": (_ref_above_half, 0.5, 20.0, False),
    "theorem4_bilateral": (_ref_above_neg_half, -0.5, 20.0, False),
    "gammaineq_left": (_ref_gamma_only, -0.5, 20.0, False),
    "gammaineq_right": (_ref_gamma_only, -0.5, 20.0, False),
    "remark1": (_ref_above_half, 0.5, 20.0, False),
    "remark2_turan_gamma": (_ref_gamma_only, -0.5, 20.0, False),
    "remark2_ratio": (_ref_gamma_only, -0.5, 20.0, False),
    "sign_m": (_ref_ge_neg_half, -0.5, 20.0, True),
    "cm_probe_x": (_ref_above_neg_half, -0.5, 20.0, False),
    "cm_probe_nu": (_ref_above_neg_half, -0.5, 20.0, False),
    "logconvex_x": (_ref_above_neg_half, -0.5, 20.0, False),
    "logconvex_nu": (_ref_above_neg_half, -0.5, 20.0, False),
    "neg_m_cm": (_ref_ratio_band, -0.5, 0.0, True),
    "h_negative_derivative": (_ref_h, -1.0, 20.0, False),
    "FX3_raw": (_ref_fx3_raw, -1.0, -0.5, False),
}


def _geo(lo, hi, n):
    return tuple(float(v) for v in np.geomspace(lo, hi, n))


def _reference_grid(case_id):
    _, lo, hi, closed = REFERENCE_RANGES[case_id]
    n = 6 if case_id == "FX1" else 25
    if closed:
        nu_values = (lo,) + tuple(lo + g for g in _geo(1e-2, hi - lo, n - 1))
    else:
        nu_values = tuple(lo + g for g in _geo(1e-2, hi - lo, n))
    if case_id == "FX1":
        return GridSpec(nu_values=nu_values, x_values=_geo(1e-3, 30.0, 10),
                        y_values=_geo(1e-3, 30.0, 10))
    return GridSpec(nu_values=nu_values, x_values=_geo(1e-3, 30.0, 25))


NAN, INF = float("nan"), float("inf")
PROBE_NUS = (-1.5, -1.0, -0.99, -0.75, -0.5, -0.49, 0.0, 0.3, 0.5, 0.51, 1.0,
             20.0, 20.5, 1e6, NAN, INF, -INF)
PROBE_XS = (-1.0, 0.0, 1e-3, 1.0, NAN)


def test_derived_domains_and_grids_match_the_reference_table():
    """NaN probes catch a predicate written as ``not (nu < lo)``."""
    assert set(REFERENCE_RANGES) == set(CATALOG) | set(EXTRA_CASES)
    for case_id, (domain, *_) in REFERENCE_RANGES.items():
        case = lookup(case_id)
        for nu, x, y in itertools.product(PROBE_NUS, PROBE_XS, (None, 0.0, 1.0)):
            assert case.domain(nu, x, y) == domain(nu, x, y), (case_id, nu, x, y)
        assert default_grid(case_id) == _reference_grid(case_id), case_id


def test_sweep_evaluates_exactly_the_points_the_domain_accepts():
    """The sweep filters each axis on its own; the points it hands to the
    margin evaluator, and their order, must be those case.domain accepts."""
    ys = (0.0, 1.0, NAN)
    grid = GridSpec(nu_values=PROBE_NUS, x_values=PROBE_XS, y_values=ys)
    for case_id in REFERENCE_RANGES:
        case = lookup(case_id)
        seen = []

        def record(ev, nu, x, y=None):
            seen.extend(zip(*(c.tolist() for c in (nu, x, y) if c is not None)))
            return [(np.ones(len(nu)), 0.0)]

        report = sweep_case(replace(case, sides=record), grid)
        axes = (PROBE_NUS, PROBE_XS) + ((ys,) if case.needs_y else ())
        points = list(itertools.product(*axes))
        want = [p for p in points if case.domain(*p)]
        assert repr(seen) == repr(want), case_id
        assert report.points_tested == len(want), case_id
        assert report.points_skipped == len(points) - len(want), case_id


def test_flipped_case_produces_violations():
    case = CATALOG["sign_m"].flipped()
    assert case.id == "sign_m_flipped"
    report = run_case(case, SMALL)
    assert report.points_tested == 9
    assert len(report.violations) == 9
    assert report.min_margin < -INCONCLUSIVE_BAND


def test_flipped_margin_is_negated_pointwise():
    case = CATALOG["bound0"]
    ev = Reads(routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS))
    margin = case.margin(ev, 1.0, 2.0)
    assert margin != 0.0
    assert case.flipped().margin(ev, 1.0, 2.0) == -margin


def _m(nu, x):
    """The automatic single call's M_nu(x)."""
    return routes.struve_m(EvalPoint(nu, x)).value


def _remark1_m_form(nu, x):
    """remark1's margin as the paper states it, on M: the reference that
    the FX2 form it now shares must reproduce."""
    lhs = _m(nu - 1.0, x) * _m(nu + 1.0, x)
    log_coef = (0.5 * math.log(2.0) + log_gamma(2.0 * nu)
                - 0.5 * math.log(math.pi * x)
                - log_gamma(nu - 0.5) - log_gamma(nu + 1.5))
    rhs = math.expm1(-x) * math.exp(log_coef) * _m(2.0 * nu - 0.5, x)
    orient = 1.0 if nu >= 1.5 else -1.0
    return orient * (rhs - lhs) / max(abs(lhs), abs(rhs), 1e-300)


def test_remark1_is_fx2_after_scaling():
    """Scaling both sides of remark1 by 2^(2nu) gamma(nu-1/2) gamma(nu+3/2)
    x^(-2nu) > 0 gives FX2: one margin serves both, and it agrees with
    the M form where M does not underflow."""
    remark1, fx2 = CATALOG["remark1"], CATALOG["FX2"]
    assert remark1.sides is fx2.sides
    assert ((remark1.nu_lo, remark1.lo_closed, remark1.nu_hi)
            == (fx2.nu_lo, fx2.lo_closed, fx2.nu_hi))
    ev = Reads(routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS))
    for nu, x in itertools.product(SMALL.nu_values, SMALL.x_values):
        assert abs(remark1.margin(ev, nu, x) - _remark1_m_form(nu, x)) <= 1e-12, (nu, x)


#: Entry points whose configs the sweep must hand over: every public
#: function of these modules.
_CONFIG_MODULES = (routes, quadrature, series)


def test_sweep_configs_reach_every_evaluation(monkeypatch, cold_memo):
    """Under a non-default config pair, every config that reaches a routes,
    quadrature or series entry point, defaults filled in, is one of the
    sweep's own, for every catalog and extra case: ``verify --tol`` means
    what it means in ``eval``."""
    series_cfg = SeriesConfig(rel_tol=1e-14, max_terms=400)
    quad_cfg = QuadConfig(abs_tol=1e-11, max_level=11)
    seen = []

    def recording(fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.extend((fn.__name__, v) for v in bound.arguments.values()
                        if isinstance(v, (SeriesConfig, QuadConfig)))
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {}
    for module in _CONFIG_MODULES:
        for name, fn in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                wrappers[id(fn)] = recording(fn)
    for module in [m for name, m in sys.modules.items() if name.startswith("struvekit")]:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                monkeypatch.setattr(module, name, wrappers[id(obj)])

    grid = GridSpec(nu_values=(-0.75, -0.5, -0.3, 0.75, 2.0), x_values=(0.5, 3.0, 9.0),
                    y_values=(1.0,))
    reached = set()
    for case in list(CATALOG.values()) + list(EXTRA_CASES.values()):
        seen.clear()
        routes.memo.cache_clear()  # each case evaluates its own points
        report = sweep_case(case, grid, series_cfg, quad_cfg)
        assert report.points_tested > 0, case.id
        stray = {(name, cfg) for name, cfg in seen if cfg not in (series_cfg, quad_cfg)}
        assert not stray, (case.id, stray)
        reached |= {cfg for _, cfg in seen}
    assert reached == {series_cfg, quad_cfg}


def test_empty_domain_raises():
    grid = GridSpec(nu_values=(0.0, 0.3), x_values=(1.0,))
    with pytest.raises(EmptyDomainError, match="no grid point satisfies the domain"):
        run_case(CATALOG["ineqturan_lower"], grid)


def test_all_in_domain_points_raising_is_not_called_an_empty_domain():
    """At a three-level refinement cap every derivative probe stalls; the
    error counts the points that raised and quotes the first failure."""
    with pytest.raises(EmptyDomainError) as info:
        run_case(CATALOG["cm_probe_x"], default_grid("cm_probe_x"),
                 quad_cfg=QuadConfig(max_level=3))
    message = str(info.value)
    assert "all 625 in-domain grid points of case cm_probe_x raised" in message
    assert "first at (-0.49, 0.001): NonConvergenceError" in message
    assert "satisfies the domain" not in message


def test_neg_m_cm_honours_sweep_config():
    """The -M derivative probe evaluates at the sweep's quadrature config,
    so a three-level cap makes some of its points raise."""
    report = run_case(CATALOG["neg_m_cm"], default_grid("neg_m_cm"),
                      quad_cfg=QuadConfig(max_level=3))
    assert report.errors
    assert all("NonConvergenceError" in err for _, err in report.errors)
    assert report.points_tested + report.points_skipped == 625


def test_a_row_the_quadrature_rejects_is_left_to_its_points(cold_memo):
    """A derivative row with a non-finite x cannot be filled; its points are
    then evaluated one by one, so only the bad point raises."""
    report = sweep_case(CATALOG["cm_probe_x"], GridSpec(nu_values=(1.0,),
                                                        x_values=(1.0, math.inf)))
    assert report.points_tested == 1
    assert [(point, err.split(":")[0]) for point, err in report.errors] == [
        ((1.0, math.inf), "DomainError")]


def _grid_index(grid):
    return {p: i for i, p in enumerate(itertools.product(grid.nu_values, grid.x_values))}


def test_cold_sweep_lists_points_in_grid_order(cold_memo):
    """A cold sweep lists violations, inconclusive points and errors in grid order,
    and its report equals the warm sweep's, argmin included, byte for byte: the
    flipped bound0, whose series and quadrature points interleave over x in
    [1e-3, 30], and the custom grid on which quot1's 8 ZeroDivisionErrors (M
    underflows at large order and small x) and ineqturan_lower's 13 inconclusive
    points lie."""
    custom = GridSpec(nu_values=tuple(float(v) for v in np.geomspace(0.6, 200.0, 8)),
                      x_values=tuple(float(v) for v in np.geomspace(1e-3, 30.0, 8)))
    reports = {}
    for case, grid in ((CATALOG["bound0"].flipped(), default_grid("bound0")),
                       (CATALOG["quot1"], custom), (CATALOG["ineqturan_lower"], custom)):
        routes.memo.cache_clear()
        cold, warm = sweep_case(case, grid), sweep_case(case, grid)
        assert json.dumps(report_to_json_dict(cold)) == json.dumps(report_to_json_dict(warm))
        assert cold.errors == warm.errors, case.id
        index = _grid_index(grid)
        for found in (cold.violations, cold.inconclusive, cold.errors):
            order = [index[point] for point, _ in found]
            assert order == sorted(order), case.id
        reports[case.id] = cold
    assert len(reports["bound0_flipped"].violations) == 625
    assert [err for _, err in reports["quot1"].errors] == [
        "ZeroDivisionError: float division by zero"] * 8
    assert len(reports["ineqturan_lower"].inconclusive) == 13


@pytest.mark.parametrize("xs, argmin", [((0.5, 9.0, 20.0, 1.0), 9.0), ((1.0, 9.0), 1.0)])
def test_argmin_ties_go_to_the_first_point_in_grid_order(cold_memo, xs, argmin):
    """Points at x = 9 and 20 read a quadrature value, the others a series value. Of
    points tying the minimum, the first in grid order is the argmin, cold and warm."""
    def tie(ev, nu, x, y=None):
        ev.calm(nu, x)
        return [(np.where((x == 9.0) | (x == 1.0), -1.0, 0.0), 0.0)]

    grid = GridSpec(nu_values=(0.3,), x_values=xs)
    case = replace(CATALOG["bound0"], sides=tie)
    for report in (sweep_case(case, grid), sweep_case(case, grid)):
        assert report.argmin == (0.3, argmin) and report.min_margin == -1.0
        assert [point[1] for point, _ in report.violations] == [
            x for x in xs if x in (9.0, 1.0)]


def test_a_margin_raising_an_unrecorded_error_ends_the_sweep(cold_memo):
    """An exception the sweep does not record propagates out of it. The values the
    margin read stay in the memo's store, each row the single call's."""
    def boom(ev, nu, x, y=None):
        ev.calm(nu, x)
        raise RuntimeError("boom")

    grid = GridSpec(nu_values=(0.3,), x_values=(0.5, 9.0, 20.0))
    with pytest.raises(RuntimeError, match="boom"):
        sweep_case(replace(CATALOG["bound0"], sides=boom), grid)
    store = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS).stores["calm"]
    assert list(zip(store.keys.real.tolist(), store.keys.imag.tolist())) == [
        (0.3, x) for x in sorted(grid.x_values)]
    want = [routes.calm(EvalPoint(0.3, x)) for x in sorted(grid.x_values)]
    assert list(zip(store.value.tolist(), store.abs_err.tolist(), store.method.tolist())) == [
        (fv.value, fv.abs_err, fv.method) for fv in want]
    assert store.method[-1] is Method.QUADRATURE


def test_a_non_finite_margin_is_recorded_as_the_error_of_its_arithmetic(cold_memo):
    """A margin that divides by zero or overflows at a point records a ZeroDivisionError
    or an OverflowError there, never a tested non-finite margin, and numpy warns of
    neither; a read's error at the point comes first."""
    def faults(ev, nu, x, y=None):
        c = ev.calm(nu, x).value
        return [(c / (x - 1.0) * np.where(x == 2.0, 1e308, 1.0) * 1e308 * 1e-308, 0.0)]

    grid = GridSpec(nu_values=(0.3,), x_values=(-1.0, 1.0, 2.0, 3.0))
    report = sweep_case(replace(CATALOG["bound0"], sides=faults, any_x=True), grid)
    assert [(point[1], err.split(":")[0]) for point, err in report.errors] == [
        (-1.0, "DomainError"), (1.0, "ZeroDivisionError"), (2.0, "OverflowError")]
    assert report.points_tested == 1 and report.argmin == (0.3, 3.0)


def test_warm_sweep_reads_derived_values_from_the_memo(monkeypatch, cold_memo):
    """A cold run_all() computes every automatic value once, and the Theorem 4
    bounds as arrays: it calls bilateral_bounds at no point. A warm run_all() reads
    the values back: it runs no chain and calls bilateral_bounds at no point."""
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.update([name]) or fn(*args))

    count(foxwright, "bilateral_bounds")
    count(routes.Memo, "_compute")
    run_all()
    assert calls["bilateral_bounds"] == 0 and calls["_compute"] > 0
    calls.clear()
    run_all()
    assert calls == {}


def test_case_sides_cover_every_case_and_its_min_margin_point():
    """The reference holds every catalog case and FX3_raw, each at 4-6 points, among
    them the default sweep's min-margin point."""
    assert set(CASE_SIDES) == set(CATALOG) | set(EXTRA_CASES)
    assert all(4 <= len(points) <= 6 for points in CASE_SIDES.values())
    for want in json.loads(SWEEP_SNAPSHOT.read_text(encoding="utf-8")):
        argmin = tuple(want["argmin"].values())
        assert argmin in CASE_SIDES[want["case_id"]], want["case_id"]


#: Sides that miss their reference by more than 1e-10 relative. FX31's slope comes from
#: the quadratic identity, which cancels where its terms, x ((1 + nu^2/x^2) M^2 + M'^2)
#: / M^2, dwarf it (test_fx31_slope_matches_the_reference bounds it by their size).
SIDE_MISSES = {
    ("FX31", (0.51, 30.0)): "the slope side misses by 6.3e-9 relative (terms 3e4 x it)",
    ("FX31", (20.0, 0.001)): "the slope side misses by 3.9e-10 relative (terms 3e6 x it)",
}


@pytest.mark.parametrize("case_id, point", [
    pytest.param(cid, point, id="-".join(map(str, (cid,) + point)), marks=[pytest.mark.xfail(
        strict=True, reason=SIDE_MISSES[cid, point])] if (cid, point) in SIDE_MISSES else [])
    for cid, points in CASE_SIDES.items() for point in points])
def test_case_sides_match_the_reference(case_id, point):
    """Both sides of every part of a case's claim, as its sides function returns them,
    against mpmath from the paper's statement (oracles.CASE_SIDES): within 1e-10
    relative, or within the pair's own bar where it carries a larger one (the probes'
    quadrature orders). A side moved by 1% fails here, where the snapshot pins only
    each case's minimum."""
    ev = Reads(routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS))
    with np.errstate(all="ignore"):
        pairs = lookup(case_id).sides(ev, *(np.array([v]) for v in point))
    want = CASE_SIDES[case_id][point]
    assert len(pairs) == len(want)
    for n, (pair, sides) in enumerate(zip(pairs, want)):
        bar = float(pair[2][0]) if len(pair) > 2 else 0.0
        for got, ref in zip(pair[:2], sides):
            got = float(np.broadcast_to(got, (1,))[0])
            assert abs(got - ref) <= max(1e-10 * abs(ref), bar), (n, got, ref, bar)


@pytest.mark.parametrize("nu, x", sorted(FX31_SLOPE_TABLE))
def test_fx31_slope_matches_the_reference(nu, x):
    """FX31's slope d/dx [x M'/M], from the quadratic identity, against mpmath's
    derivative of x M'/M. The margin cannot catch a wrong slope: the slope is
    negative on the default grid, so the margin stays in [1, 2]. The identity
    cancels (to 6e-9 relative at (0.51, 30)), so the tolerance follows the size of
    its terms, x ((1 + nu^2/x^2) M^2 + M'^2) / M^2."""
    m, md = _m(nu, x), routes.struve_m_prime(EvalPoint(nu, x)).value
    size = x * ((1.0 + (nu / x) ** 2) * m * m + md * md) / (m * m)
    got = _ratio_derivative_analytic(Reads(routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)), nu, x)
    assert abs(got - FX31_SLOPE_TABLE[nu, x]) <= 1e-12 * size


def test_fx31_reads_m_and_m_prime_only_at_its_own_points(cold_memo):
    """A sweep of FX31 alone leaves one M and one M' key per grid point (625 each)
    in the stores, so its margin reads no other point."""
    grid = default_grid("FX31")
    sweep_case(CATALOG["FX31"], grid)
    ev = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    want = sorted(itertools.product(grid.nu_values, grid.x_values))
    for kind in ("m", "m_prime"):
        keys = ev.stores[kind].keys
        assert list(zip(keys.real.tolist(), keys.imag.tolist())) == want


def test_fx31_custom_grid_past_the_overflow_of_its_terms(cold_memo):
    """FX31 on nu in {100, 150, 200} x x in {2e3, 5e3, 9e3, 1e4} tests one point. Ten
    margins overflow in their arithmetic, and at (200, 9e3) and (200, 1e4) M itself
    overflows: those points are skipped with exactly these errors, in grid order."""
    report = sweep_case(CATALOG["FX31"], GridSpec(nu_values=(100.0, 150.0, 200.0),
                                                  x_values=(2e3, 5e3, 9e3, 1e4)))
    assert (report.points_tested, report.points_skipped) == (1, 11)
    assert report.argmin == (100.0, 2000.0) and report.min_margin == 1.000000005004039
    overflow = "OverflowError: overflow encountered in multiply"
    assert list(report.errors) == [((100.0, x), overflow) for x in (5e3, 9e3, 1e4)] + [
        ((150.0, x), overflow) for x in (2e3, 5e3, 9e3, 1e4)] + [
        ((200.0, x), overflow) for x in (2e3, 5e3)] + [
        ((200.0, x), f"CancellationError: M at (nu=200, x={x:g}) overflows float64")
        for x in (9e3, 1e4)]


def test_fx31_records_the_overflow_of_its_coefficient_where_no_read_failed():
    """Where (x/2)^(nu-1) / (sqrt(pi) gamma(nu+3/2)) overflows and the reads of M and
    M' give values, the point keeps power_gamma's CancellationError; the other points
    take the array coefficient, equal to power_gamma's."""
    class FiniteReads(Reads):
        __slots__ = ()

        def m(self, nu, x):
            return Values(np.full(np.shape(x), -2.0), np.zeros(np.shape(x)), {})

        m_prime = m

    nu, x = np.array([0.6, 170.0, 3.0]), np.array([1.0, 1e4, 2.0])
    reads = FiniteReads(routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS))
    slope = _ratio_derivative_analytic(reads, nu, x)
    assert list(reads.errors) == [1] and isinstance(reads.errors[1], CancellationError)
    assert str(reads.errors[1]) == "(x/2)^169 / gamma(171.5) at x = 10000 overflows float64"
    for i in (0, 2):
        coef = (nu[i] + 0.5) * power_gamma(nu[i] - 1.0, x[i], nu[i] + 1.5, LOG_SQRT_PI)[0]
        want = x[i] * ((1.0 + (nu[i] / x[i]) ** 2) * 4.0 - 4.0 + coef * -2.0) / 4.0
        assert slope[i] == want


@pytest.mark.parametrize("outputs", [1, 2])
@pytest.mark.parametrize("raising", [(0,), (3,), (6,), (0, 3, 6), ()])
def test_each_maps_once_and_records_each_raising_point(cold_memo, raising, outputs):
    """Reads.each runs fn once per point, in order, in one map that resumes past a
    point raising a routes.RECORDED error: that point reads NaN (in every output) and
    keeps its error at its flat index, and every other point keeps its value exactly."""
    xs = np.linspace(0.25, 3.25, 7)
    calls = []

    def fn(v):
        calls.append(v)
        if len(calls) - 1 in raising:
            raise CancellationError(f"at {v}")
        return math.exp(v) if outputs == 1 else (math.exp(v), math.sinh(v))

    reads = Reads(routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS))
    got = reads.each(fn, xs)
    assert calls == xs.tolist()
    assert list(reads.errors) == list(raising)
    assert [str(reads.errors[i]) for i in raising] == [f"at {xs[i]}" for i in raising]
    rows = [got] if outputs == 1 else list(got)
    assert all(row.shape == xs.shape for row in rows) and len(rows) == outputs
    for i, v in enumerate(xs.tolist()):
        want = [math.exp(v), math.sinh(v)][:outputs]
        assert [row[i] for row in rows] == want if i not in raising else all(
            math.isnan(row[i]) for row in rows)


def test_each_keeps_the_first_error_per_point_along_the_last_axis(cold_memo):
    """Over broadcast (2, 3) points each records an error at the index of its point
    along the last axis, the first there winning; an error each does not record
    propagates."""
    reads = Reads(routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS))

    def fn(a, b):
        if a + b in (2.0, 12.0, 13.0):
            raise ZeroDivisionError(f"{a} {b}")
        return a + b

    got = reads.each(fn, np.array([[0.0], [10.0]]), np.array([1.0, 2.0, 3.0]))
    assert np.isnan(got[[0, 1, 1], [1, 1, 2]]).all() and got[0, 0] == 1.0
    assert {i: str(e) for i, e in reads.errors.items()} == {1: "0.0 2.0", 2: "10.0 3.0"}

    def other(v):
        if v == 2.0:
            raise ValueError("not recorded")
        return v

    with pytest.raises(ValueError, match="not recorded"):
        reads.each(other, np.array([1.0, 2.0, 3.0]))


def test_run_all_with_narrow_grid_synthesizes_empty_reports():
    """An explicit grid that misses some domains must still yield one report
    per case, with zero-point reports where the domain filter emptied."""
    reports = {r.case_id: r for r in run_all(grid=GridSpec(
        nu_values=(0.6,), x_values=(1.0,)))}
    assert set(reports) == set(CATALOG)
    assert reports["bound0"].points_tested == 1
    assert reports["neg_m_cm"].points_tested == 0
    assert reports["neg_m_cm"].violations == ()
    assert reports["FX1"].points_tested == 0


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(nu_values=(), x_values=(1.0,))
    with pytest.raises(DomainError):
        GridSpec(nu_values=(1.0,), x_values=())


def test_two_argument_case_requires_y_grid():
    with pytest.raises(DomainError):
        run_case(CATALOG["FX1"], GridSpec(nu_values=(1.0,), x_values=(1.0,)))


def test_report_json_round_trip():
    report = run_case(CATALOG["bound0"], SMALL)
    data = report_to_json_dict(report)
    assert data["case_id"] == "bound0"
    assert set(data) == {"case_id", "points_tested", "points_skipped",
                         "min_margin", "argmin", "violations", "inconclusive"}
    assert report_from_json_dict(data) == report

    flipped = run_case(CATALOG["sign_m"].flipped(), SMALL)
    assert report_from_json_dict(report_to_json_dict(flipped)) == flipped


def test_sweep_is_deterministic():
    a = run_case(CATALOG["ineqturan_upper"], SMALL)
    b = run_case(CATALOG["ineqturan_upper"], SMALL)
    assert a == b
    assert a.min_margin == b.min_margin
    assert a.argmin == b.argmin


def test_extension_case_is_genuinely_violated():
    """The series-route extension of the combined bound to orders in
    (-1, -1/2] fails; the harness must report that, not smooth it over."""
    case = EXTRA_CASES["FX3_raw"]
    report = run_case(case, default_grid("FX3_raw"))
    assert len(report.violations) > 100
    assert report.min_margin < -0.5


def test_bound_at_zero_argument_is_sharp(default_reports):
    """The zero-argument bound's worst margin sits at the smallest argument
    in the sweep and is positive but small: the bound is sharp as x -> 0."""
    report = default_reports["bound0"]
    assert report.argmin[1] == pytest.approx(1e-3)
    assert 0.0 < report.min_margin < 1e-3


def test_rel_is_the_normalized_margin_of_a_ge_b():
    assert rel_margin(0.0, 0.0) == 0.0  # the scale floor, not 0/0
    assert rel_margin(1.5, 1.5) == 0.0
    assert rel_margin(3.0, 1.0) == pytest.approx(2.0 / 3.0)
    assert rel_margin(1.0, 3.0) == -rel_margin(3.0, 1.0)
    assert rel_margin(-2.0, 0.0) == -1.0 and rel_margin(0.0, -2.0) == 1.0


def test_minus_half_edge_past_the_underflow_of_m(cold_memo):
    """At nu = -1/2 past x ~ 745 the closed-form M and M' underflow to 0. quot3_left
    and quot3_right then take the closed forms' exact ratio x M'/M = -(x + 1/2)
    instead of recording 0/0 as a ZeroDivisionError, neg_m_cm reads the signs of
    -M's derivatives from their all-positive sums, and sign_m reads the sign of -M from
    its positive factor sqrt(2/pi) x^(-1/2), not from the underflowed values (an
    exact-zero, inconclusive margin)."""
    grid = GridSpec(nu_values=(-0.5,), x_values=(1.0, 800.0, 2e4))
    reports = {cid: sweep_case(CATALOG[cid], grid)
               for cid in ("quot3_left", "quot3_right", "neg_m_cm", "sign_m")}
    for report in reports.values():
        assert report.points_tested == 3 and not report.errors and not report.violations
    for cid in ("neg_m_cm", "sign_m"):
        assert reports[cid].min_margin == 1.0 and not reports[cid].inconclusive
    ev = Reads(routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS))
    nu, x = np.array([-0.5, -0.5]), np.array([800.0, 2e4])
    assert (ev.m(nu, x).value == 0.0).all()
    assert inequalities._ratio(ev, nu, x).tolist() == [-800.5, -20000.5]
    root = inequalities._quot3_root(nu, x, -1.0)
    assert CATALOG["quot3_left"].margin(ev, nu, x).tolist() == rel_margin(
        -(x + 0.5), root).tolist()


@pytest.mark.parametrize("x", [1e-3, 1e-5])
def test_quot3_right_bound_is_the_exact_root_where_it_is_small(x):
    """At nu = 0 the + root (-1 + sqrt(1 + 4 x^2)) / 2 is about x^2; written that way
    it cancels, and missed the exact root by 6.2e-11 relative at x = 1e-3 and by
    8.3e-8 at x = 1e-5."""
    ev = Reads(routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS))
    [(bound, _)] = CATALOG["quot3_right"].sides(ev, np.array([0.0]), np.array([x]))
    with mpmath.workdps(50):
        exact = (mpmath.sqrt(1 + 4 * mpmath.mpf(x) ** 2) - 1) / 2
        assert abs(bound[0] - exact) <= 1e-15 * exact, float(abs(bound[0] / exact - 1))


def test_fx3_saturates_where_its_exponential_side_overflows():
    """At nu = -0.49, x = 60 the exponent x^2 / (4 (nu+1)) is 1765: the bound
    exceeds every normalized-form value, and the margin is 1 without evaluating it."""
    ev = Reads(routes.Memo(SERIES_DEFAULTS, QUAD_DEFAULTS))
    assert CATALOG["FX3"].sides(ev, -0.49, 60.0) == [(1.0, 0.0)]
    assert CATALOG["FX3"].margin(ev, -0.49, 60.0) == 1.0
    assert len(ev.memo.stores["calm"].keys) == 0


def test_rel_margin_grades_a_sign_below_its_bar():
    """A sign claim v > 0 with a bar is the pair (v, 0, err): +-1 where the sign is
    certain, graded into the inconclusive band once v drops below its bar."""
    assert rel_margin(0.5, 0.0, 1e-12) == pytest.approx(1.0)
    assert rel_margin(-0.5, 0.0, 1e-12) == pytest.approx(-1.0)
    graded = rel_margin(1e-12, 0.0, 1e-3)
    assert 0.0 < graded < INCONCLUSIVE_BAND
    assert rel_margin(-1e-12, 0.0, 1e-3) == -graded == rel_margin(0.0, 1e-12, 1e-3)
