"""Named inequality cases and the grid sweep that verifies them.

Every claim about the second-kind function, its normalized form, and the
associated gamma-function ratios is registered here as an
:class:`InequalityCase`: the order range the claim is stated on plus a sides
function returning the claim's parts as (a, b) pairs, each read as a >= b; one
rule (:meth:`InequalityCase.margin`) turns them into the normalized margin,
positive where the claim holds. The range is declared once per case
(a lower edge, open or closed, and an optional closed upper edge); the
case's domain predicate and its default sweep grid are both derived from
it. The executor runs the sides once over a grid's in-domain points, as
arrays whose reads (:class:`Reads`) the config pair's routes memo answers in
bulk, and classifies each point in grid order as satisfied, inconclusive
(within ``+-1e-9`` of zero), or a violation.

The catalog below (CATALOG) is the canonical set swept by ``run_all``.
One extra case, ``FX3_raw``, lives in EXTRA_CASES: it extends the
combined exponential/sinh bound down to orders in (-1, -1/2] where the
normalized form has no integral representation, working directly on the
series route. That extension is genuinely false - the sweep reports its
violations honestly - because the sinh lower bound it is built from
already fails for the first-kind companion on that order range.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
import time
from dataclasses import dataclass, field
from functools import cache, partial, partialmethod
from typing import Callable, Optional

import numpy as np

from . import foxwright, routes
from .core import (INCONCLUSIVE_BAND, QUAD_DEFAULTS, SERIES_DEFAULTS, EvalPoint, QuadConfig,
                   SeriesConfig, rel_margin)
from .errors import DomainError, EmptyDomainError
from .gammafuncs import (LN2, LOG_SQRT_PI, SQRT_PI, TWO_OVER_SQRT_PI, gamma_ratio,
                         gamma_ratio_h, gamma_ratio_h_prime, log_gamma, per_value,
                         power_gamma, power_gamma_points)
from .series import struve_m_series


@dataclass(frozen=True)
class InequalityCase:
    """A named claim on an order range, with its sides.

    The claim is stated for orders above ``nu_lo`` (from ``nu_lo`` on when
    ``lo_closed``) up to and including ``nu_hi``, or without an upper edge
    when ``nu_hi`` is None. Every case needs x > 0 unless ``any_x`` says
    its margin ignores x, and a two-argument case (``needs_y``) also needs
    y > 0; :meth:`domain` is the predicate derived from these fields, and
    :func:`default_grid` spans the same range.

    ``sides(ev, nu, x, y=None)`` is one numpy expression over the sweep's in-domain
    points, equal-length arrays of them in grid order, that returns the claim's parts
    as pairs (a, b), each read as a >= b, or (a, b, err) where err bars a sign (see
    "sides functions" below). :meth:`margin` is the only rule that turns them into a
    verdict. A point where a read raised is recorded with its error, and so is a point
    whose margin is not finite.
    """

    id: str
    sides: Callable[..., list]
    nu_lo: float
    lo_closed: bool = False
    nu_hi: Optional[float] = None
    any_x: bool = False
    needs_y: bool = False
    note: str = ""

    def domain(self, nu: float, x: float, y: Optional[float] = None) -> bool:
        """Whether (nu, x[, y]) lies where the claim is stated; a NaN
        order never does."""
        return self._nu_ok(nu) and self._x_ok(x) and self._y_ok(y)

    # one condition per axis: the sweep filters each axis once instead of
    # testing every grid point
    def _nu_ok(self, nu: float) -> bool:
        return ((nu >= self.nu_lo if self.lo_closed else nu > self.nu_lo)
                and (self.nu_hi is None or nu <= self.nu_hi))

    def _x_ok(self, x: float) -> bool:
        return self.any_x or x > 0.0

    def _y_ok(self, y: Optional[float]) -> bool:
        return not self.needs_y or (y is not None and y > 0.0)

    def margin(self, ev, nu, x, y=None):
        """The normalized margin at every point: the smallest rel_margin of the claim's
        pairs (Python's min, but NaN where a pair's is), positive where every part holds."""
        first, *rest = (rel_margin(*pair) for pair in self.sides(ev, nu, x, y))
        for part in rest:
            first = np.where((part < first) | np.isnan(part), part, first)
        return first

    def flipped(self) -> "InequalityCase":
        """Self-test fixture: the same case claiming the opposite sign. Swept where the
        original passes, it must produce violations: that is how the harness proves it can
        fail (the executor is not trusted until it has rejected something)."""
        return _Flipped(**{**vars(self), "id": self.id + "_flipped"})


class _Flipped(InequalityCase):
    """A case whose margin is its sides' margin negated at every point."""

    def margin(self, *args):
        return -super().margin(*args)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: order values, argument values, and optional second
    argument values for two-argument claims."""

    nu_values: tuple[float, ...]
    x_values: tuple[float, ...]
    y_values: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not self.nu_values or not self.x_values:
            raise DomainError("grid must have at least one nu and one x value")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of sweeping one case over one grid.

    ``min_margin`` is the smallest normalized margin among tested points
    (None when nothing was tested); ``argmin`` is the point attaining it.
    ``violations`` and ``inconclusive`` hold (point, normalized margin)
    pairs. ``errors`` collects points whose evaluation raised; they count
    as skipped. Wall time and error details are excluded from equality
    comparison and from the JSON form.
    """

    case_id: str
    points_tested: int
    points_skipped: int
    min_margin: Optional[float]
    argmin: Optional[tuple[float, ...]]
    violations: tuple[tuple[tuple[float, ...], float], ...]
    inconclusive: tuple[tuple[tuple[float, ...], float], ...]
    errors: tuple[tuple[tuple[float, ...], str], ...] = field(default=(), compare=False)
    wall_time: float = field(default=0.0, compare=False)


def _point_dict(point: tuple[float, ...]) -> dict:
    d = {"nu": point[0], "x": point[1]}
    if len(point) > 2:
        d["y"] = point[2]
    return d


def report_to_json_dict(report: VerificationReport) -> dict:
    """Serializable form with exactly the published report fields."""
    return {
        "case_id": report.case_id,
        "points_tested": report.points_tested,
        "points_skipped": report.points_skipped,
        "min_margin": report.min_margin,
        "argmin": _point_dict(report.argmin) if report.argmin else None,
        "violations": [dict(_point_dict(pt), margin=m)
                       for pt, m in report.violations],
        "inconclusive": [dict(_point_dict(pt), margin=m)
                         for pt, m in report.inconclusive],
    }


def report_from_json_dict(data: dict) -> VerificationReport:
    """Inverse of report_to_json_dict (wall time and errors reset)."""

    def tup(d: dict) -> tuple[float, ...]:
        pt = (d["nu"], d["x"])
        return pt + ((d["y"],) if "y" in d else ())

    return VerificationReport(
        case_id=data["case_id"],
        points_tested=data["points_tested"],
        points_skipped=data["points_skipped"],
        min_margin=data["min_margin"],
        argmin=tup(data["argmin"]) if data["argmin"] else None,
        violations=tuple((tup(v), v["margin"]) for v in data["violations"]),
        inconclusive=tuple((tup(v), v["margin"]) for v in data["inconclusive"]),
    )


# ---------------------------------------------------------------------------
# sides functions
#
# Signature: fn(ev, nu, x, y=None) -> list of pairs (a, b), scalars or arrays, each the
# claim a >= b at every point of the coordinate arrays; InequalityCase.margin forms the
# verdict. A claim that reverses below an order (bound1, FX2) swaps its pair there. A sign
# claim v > 0 is the pair (v, 0.0), +-1 unless v is 0, or (v, 0.0, err) where the value's
# error bar can make its sign uncertain (cm_probe_x, cm_probe_nu): rel_margin grades
# those into the inconclusive band. ev is the sweep's Reads: ev.calm(nu, x) and its
# siblings read the automatic values as arrays, one read per function kind, with leading
# axes for neighbouring orders or arguments (ev.m(np.stack((nu - 1.0, nu, nu + 1.0)), x));
# a NaN coordinate reads nothing, which is how a sides function skips the points a read
# does not serve. ev.each maps math's exp, expm1, sinh and hypot, Python's pow and the
# scalar routes over the points in one pass (numpy's would move bits), per_value a
# function of the order. The Theorem 4 bounds (foxwright.bilateral_bounds_points) and
# FX31's coefficient (power_gamma_points) are array twins of scalar functions, bit for bit.
# ---------------------------------------------------------------------------


class Reads:
    """A sweep's reads of the routes.Memo of its config pair: Memo.read's arrays, each's
    map, and per point (the last axis of every read) the first error either raised."""

    __slots__ = ("memo", "series_cfg", "errors")

    def __init__(self, memo: routes.Memo) -> None:
        self.memo, self.series_cfg, self.errors = memo, memo.series_cfg, {}

    def _note(self, errors: dict, shape: tuple) -> None:
        for i, exc in errors.items():
            self.errors.setdefault(i % (shape[-1] if shape else 1), exc)

    def _read(self, kind: str, nu, x) -> routes.Values:
        got = self.memo.read(kind, nu, x)
        self._note(got.errors, np.broadcast(nu, x).shape)
        return got

    m = partialmethod(_read, "m")
    m_prime = partialmethod(_read, "m_prime")
    calm = partialmethod(_read, "calm")
    calm_dx = partialmethod(_read, "calm_dx")
    calm_dnu = partialmethod(_read, "calm_dnu")

    def each(self, fn, *args) -> np.ndarray:
        """fn mapped once over the broadcast args: its values (stacked first where it
        returns several), NaN where it raised a routes.RECORDED error, kept for the point."""
        shape = np.broadcast(*args).shape
        calls = map(fn, *(np.broadcast_to(a, shape).ravel().tolist() for a in args))
        got, errors = [], {}
        while True:
            try:
                got.extend(calls)  # a raise keeps the items before it, and the map resumes
                break
            except routes.RECORDED as exc:
                errors[len(got)] = exc
                got.append(None)
        self._note(errors, shape)
        blank = np.full(np.shape(next((v for v in got if v is not None), 0.0)), math.nan)
        for i in errors:
            got[i] = blank
        values = np.array(got, float).reshape(shape + blank.shape)
        return np.moveaxis(values, -1, 0) if blank.ndim else values


def _gr(nu):
    """gamma(nu+1/2)/gamma(nu+1), the x -> 0 value of the normalized form."""
    return per_value(lambda v: gamma_ratio(v + 0.5, v + 1.0), nu)


def _sides_bound0(ev, nu, x, y=None):
    return [(_gr(nu), ev.calm(nu, x).value)]


def _turanian_parts(ev, nu, x):
    m_lo, m_md, m_hi = ev.m(np.stack((nu - 1.0, nu, nu + 1.0)), x).value
    return m_md * m_md, m_lo * m_hi


def _sides_ineqturan_lower(ev, nu, x, y=None):
    return [_turanian_parts(ev, nu, x)]


def _sides_ineqturan_upper(ev, nu, x, y=None):
    sq, prod = _turanian_parts(ev, nu, x)
    return [(sq / (nu + 0.5), sq - prod)]


def _ratio(ev, nu, x):
    """x M_nu'(x) / M_nu(x); M_nu < 0 on the catalog domains. Where M_{-1/2} reads 0
    (e^(-x) underflows past x ~ 745), the closed forms' exact ratio -(x + 1/2)."""
    m_prime = ev.m_prime(nu, x).value
    m = ev.m(nu, x).value
    edge = m == 0.0
    if not edge.any():
        return x * m_prime / m
    edge &= nu == -0.5
    return np.where(edge, -(x + 0.5), x * m_prime / np.where(edge, 1.0, m))


def _sides_quot1(ev, nu, x, y=None):
    return [(nu, _ratio(ev, nu, x))]


def _sides_quot2_left(ev, nu, x, y=None):
    return [(_ratio(ev, nu, x), -ev.each(math.hypot, x, nu))]


def _sides_quot2_right(ev, nu, x, y=None):
    return [(ev.each(math.hypot, x, nu), _ratio(ev, nu, x))]


def _sides_fx1(ev, nu, x, y=None):
    lhs, at_x, at_y = ev.calm(nu, np.stack((x + y, x, y))).value
    return [(lhs, at_x * at_y / _gr(nu))]


def _reversed_below(edge, nu, a, b):
    """The pair of a claim a >= b that reverses below the order edge: (b, a) there."""
    above = nu >= edge
    return np.where(above, a, b), np.where(above, b, a)


def _sides_bound1(ev, nu, x, y=None):
    c = ev.calm(nu, x).value
    gr = _gr(nu)
    # (1 - e^(-x))/x is 1 to within x; at a subnormal x the product would round first
    base = np.where(x < sys.float_info.min, gr, gr * -ev.each(math.expm1, -x) / x)
    return [_reversed_below(0.5, nu, c, base)]


def _sides_fx2(ev, nu, x, y=None):
    lo, hi, half, twice = ev.calm(
        np.stack((nu - 1.0, nu + 1.0, np.full(np.shape(nu), 0.5), 2.0 * nu - 0.5)), x).value
    return [_reversed_below(1.5, nu, half * twice, lo * hi)]


def _sides_fx3(ev, nu, x, y=None):
    # past expo = 700 the exponential side exceeds any normalized-form value by
    # hundreds of orders of magnitude: the pair saturates at (1, 0), evaluating nothing
    expo = x * x / (4.0 * (nu + 1.0))
    saturated = expo > 700.0
    lhs = ev.calm(np.where(saturated, math.nan, nu), x).value
    rhs = (_gr(nu) * ev.each(math.exp, np.where(saturated, math.nan, expo))
           - (4.0 / (SQRT_PI * (2.0 * nu + 1.0)))
           * ev.each(math.sinh, np.where(saturated, math.nan, x / (2.0 * nu + 3.0))))
    return [(np.where(saturated, 1.0, rhs), np.where(saturated, 0.0, lhs))]


def _fx3_raw_at(series_cfg, nu, x):
    expo = x * x / (4.0 * (nu + 1.0))
    if expo > 700.0:
        return 1.0, 0.0
    lhs = -struve_m_series(EvalPoint(nu, x), series_cfg).value
    i_bound = power_gamma(nu, x, nu + 1.0)[0] * math.exp(expo)
    l_bound = 2.0 * power_gamma(nu, x, nu + 1.5, LOG_SQRT_PI)[0] \
        * math.sinh(x / (2.0 * nu + 3.0))
    return i_bound - l_bound, lhs


def _sides_fx3_raw(ev, nu, x, y=None):
    """Series-route form of the combined bound on -M_nu for orders in (-1, -1/2], where
    the normalized form has no integral representation. Genuinely violated; kept to
    document the failure."""
    # where every point raised, each returns one NaN row: it stands for both sides
    return [np.broadcast_to(ev.each(partial(_fx3_raw_at, ev.series_cfg), nu, x),
                            (2,) + np.shape(nu))]


def _quot3_root(nu, x, side):
    """The root (-1 + side sqrt(1 + 4 r)) / 2 of y^2 + y = r, r = x^2 + nu^2,
    side = +-1; the + root as 2 r / (1 + sqrt(1 + 4 r)), which does not cancel
    where r is small."""
    r = x * x + nu * nu
    s = np.sqrt(1.0 + 4.0 * r)
    return 2.0 * r / (1.0 + s) if side > 0 else 0.5 * (-1.0 - s)


def _sides_quot3_left(ev, nu, x, y=None):
    return [(_ratio(ev, nu, x), _quot3_root(nu, x, -1.0))]


def _sides_quot3_right(ev, nu, x, y=None):
    return [(_quot3_root(nu, x, 1.0), _ratio(ev, nu, x))]


def _ratio_derivative_analytic(ev, nu, x):
    """d/dx [x M'/M] through the quadratic identity for the Turanian:
    x [ (1 + nu^2/x^2) M^2 - (M')^2 + (nu+1/2) (x/2)^(nu-1) M
        / (sqrt(pi) gamma(nu+3/2)) ] / M^2."""
    m = ev.m(nu, x).value
    md = ev.m_prime(nu, x).value
    coef = power_gamma_points(nu - 1.0, x, nu + 1.5, LOG_SQRT_PI)[0]
    if (over := coef == math.inf).any():  # power_gamma raises there, or serves just below
        coef = np.where(over, ev.each(power_gamma, np.where(over, nu - 1.0, math.nan), x,
                                      nu + 1.5, LOG_SQRT_PI)[0], coef)
    bracket = (1.0 + ev.each(pow, nu / x, 2.0)) * m * m - md * md + (nu + 0.5) * coef * m
    return x * bracket / (m * m)


def _sides_fx31(ev, nu, x, y=None):
    return [(x / (nu + 0.5), _ratio_derivative_analytic(ev, nu, x))]


def _sides_theorem4(ev, nu, x, y=None):
    lower, upper = foxwright.bilateral_bounds_points(nu, x)
    c = ev.calm(nu, x).value
    return [(c, lower), (upper, c)]


def _sides_gammaineq_left(ev, nu, x, y=None):
    return [(TWO_OVER_SQRT_PI, per_value(lambda v: gamma_ratio(v + 1.5, v + 2.0), nu))]


def _sides_gammaineq_right(ev, nu, x, y=None):
    return [(per_value(lambda v: gamma_ratio(v + 1.5, v + 2.0), nu),
             np.sqrt(2.0 / (math.pi * (nu + 1.0))))]


def _sides_remark2_turan(ev, nu, x, y=None):
    val = per_value(lambda v: math.exp(2.0 * log_gamma(v + 1.5)
                                       - log_gamma(v + 1.0) - log_gamma(v + 2.0)), nu)
    return [(val, 2.0 / math.pi)]


def _sides_remark2_ratio(ev, nu, x, y=None):
    g = _gr(nu)
    upper = TWO_OVER_SQRT_PI * (nu + 1.0) / (nu + 0.5)
    lower = math.sqrt(2.0 / math.pi) * np.sqrt(nu + 1.0) / (nu + 0.5)
    return [(upper, g), (g, lower)]


def _sides_sign_m(ev, nu, x, y=None):
    # sign M = -sign calM for nu > -1/2, where calM does not underflow; at nu = -1/2,
    # -M = sqrt(2/pi) x^(-1/2) e^(-x) has the sign of its factors before e^(-x)
    above = nu > -0.5
    return [(np.where(above, ev.calm(np.where(above, nu, math.nan), x).value,
                      math.sqrt(2.0 / math.pi) / np.sqrt(x)), 0.0)]


def _alternating_signs(read):
    """The sign claims (-1)^n value_n > 0 of the read's orders n, each with its bar."""
    return [((-1.0) ** n * value, 0.0, err)
            for n, (value, err) in enumerate(zip(read.value, read.abs_err))]


def _sides_cm_probe_x(ev, nu, x, y=None):
    return _alternating_signs(ev.calm_dx(nu, x))


def _sides_cm_probe_nu(ev, nu, x, y=None):
    return _alternating_signs(ev.calm_dnu(nu, x))


#: Factors of x at which logconvex_x reads calM: its two ends, then their midpoint.
_LOGCONVEX_X = np.array([[1.0], [1.5], [1.25]])


def _sides_logconvex_x(ev, nu, x, y=None):
    c, c_far, c_mid = ev.calm(nu, x * _LOGCONVEX_X).value
    return [(c * c_far, c_mid * c_mid)]


def _sides_logconvex_nu(ev, nu, x, y=None):
    c, c_far, c_mid = ev.calm(np.stack((nu, nu + 1.0, nu + 0.5)), x).value
    return [(c * c_far, c_mid * c_mid)]


#: (1/2)_k, the rising factorial, for k = 0..6.
_RISING_HALF = list(itertools.accumulate((0.5 + i for i in range(6)), operator.mul, initial=1.0))


def _neg_m_derivatives(ev, nu, x):
    """(-1)^n d^n/dx^n of -M_nu at x, n = 0..6, for nu in [-1/2, 0], as (scale, sums):
    the order-n derivative is scale * sums[n] with scale > 0, and all of them are
    positive where -M_nu is completely monotone.

    At nu = -1/2 the derivatives of the elementary form
    sqrt(2/pi) x^(-1/2) e^(-x) expand into an all-positive sum (scale
    sqrt(2/pi) e^(-x)); elsewhere the Leibniz rule on -M = x^nu calM_nu /
    (2^nu gamma(nu+1/2)) keeps every term positive as well (falling factorials
    of nu <= 0 alternate against the alternating normalized-form derivatives),
    so the evaluation is cancellation-free. Only the signs reach the margin, so
    numpy's exp and ** serve, and the margin reads the sums: scale underflows to
    0 at nu = -1/2 past x ~ 745, where the sums keep their sign.
    """
    half = nu == -0.5
    calm_nu = np.where(half, math.nan, nu)  # nu = -1/2 reads no calM
    dx = ev.calm_dx(calm_nu, x).value
    scale = np.where(half, math.sqrt(2.0 / math.pi) * np.exp(-x),
                     np.exp(-calm_nu * LN2 - per_value(log_gamma, calm_nu + 0.5)))
    falling = list(itertools.accumulate((nu - i for i in range(6)), operator.mul, initial=1.0))
    powers, x_half = [x ** (nu - k) for k in range(7)], x[half]
    powers_half, sums = [x_half ** (-0.5 - k) for k in range(7)], []
    for n in range(7):
        sums.append((-1.0) ** n * sum(math.comb(n, k) * falling[k] * powers[k] * dx[n - k]
                                      for k in range(n + 1)))
        sums[n][half] = sum(math.comb(n, k) * _RISING_HALF[k] * powers_half[k]
                            for k in range(n + 1))
    return scale, sums


def _sides_neg_m_cm(ev, nu, x, y=None):
    """Sign alternation of the first seven derivatives of -M_nu for
    nu in [-1/2, 0]."""
    # every summand of a derivative is positive by construction, so the sign
    # of each order is certain and a per-order +-1 margin is honest
    return [(s, 0.0) for s in _neg_m_derivatives(ev, nu, x)[1]]


def _sides_h_negative_derivative(ev, nu, x, y=None):
    return [(per_value(gamma_ratio_h, nu), 0.0), (0.0, per_value(gamma_ratio_h_prime, nu))]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


CATALOG: dict[str, InequalityCase] = {c.id: c for c in (
    InequalityCase("bound0", _sides_bound0, -0.5,
                   note="normalized form stays below its value at zero argument"),
    InequalityCase("ineqturan_lower", _sides_ineqturan_lower, 0.5,
                   note="Turan-type difference is positive"),
    InequalityCase("ineqturan_upper", _sides_ineqturan_upper, 0.5,
                   note="Turan-type difference is below M^2/(nu+1/2)"),
    InequalityCase("quot1", _sides_quot1, -0.5,
                   note="logarithmic-derivative ratio stays below nu"),
    InequalityCase("quot2_left", _sides_quot2_left, 0.5,
                   note="ratio above -sqrt(x^2+nu^2)"),
    InequalityCase("quot2_right", _sides_quot2_right, 0.5,
                   note="ratio below sqrt(x^2+nu^2)"),
    InequalityCase("FX1", _sides_fx1, -0.5, needs_y=True,
                   note="normalized form is super-multiplicative after rescaling"),
    InequalityCase("bound1", _sides_bound1, -0.5,
                   note="comparison with the order-1/2 profile; reverses at nu=1/2"),
    InequalityCase("FX2", _sides_fx2, 0.5,
                   note="order-averaged product comparison; reverses at nu=3/2"),
    InequalityCase("FX3", _sides_fx3, -0.5,
                   note="combined exponential/sinh upper bound"),
    InequalityCase("quot3_left", _sides_quot3_left, -0.5, lo_closed=True, nu_hi=0.0,
                   note="quadratic-root lower bound for the ratio"),
    InequalityCase("quot3_right", _sides_quot3_right, -0.5, lo_closed=True, nu_hi=0.0,
                   note="quadratic-root upper bound for the ratio"),
    InequalityCase("FX31", _sides_fx31, 0.5,
                   note="derivative of x M'/M stays below x/(nu+1/2)"),
    InequalityCase("theorem4_bilateral", _sides_theorem4, -0.5,
                   note="exponential-decay bracket for the normalized form"),
    InequalityCase("gammaineq_left", _sides_gammaineq_left, -0.5, any_x=True,
                   note="gamma ratio below 2/sqrt(pi)"),
    InequalityCase("gammaineq_right", _sides_gammaineq_right, -0.5, any_x=True,
                   note="gamma ratio above sqrt(2/(pi(nu+1)))"),
    InequalityCase("remark1", _sides_fx2, 0.5,
                   note="second-kind product bound, reverses at nu=3/2; it is FX2 after "
                        "scaling by 2^(2nu) gamma(nu-1/2) gamma(nu+3/2) x^(-2nu) > 0"),
    InequalityCase("remark2_turan_gamma", _sides_remark2_turan, -0.5, any_x=True,
                   note="Turan-type gamma-function form of the ratio bound"),
    InequalityCase("remark2_ratio", _sides_remark2_ratio, -0.5, any_x=True,
                   note="two-sided bound on gamma(nu+1/2)/gamma(nu+1)"),
    InequalityCase("sign_m", _sides_sign_m, -0.5, lo_closed=True,
                   note="second-kind function is negative"),
    InequalityCase("cm_probe_x", _sides_cm_probe_x, -0.5,
                   note="derivative signs alternate in x through order 6"),
    InequalityCase("cm_probe_nu", _sides_cm_probe_nu, -0.5,
                   note="derivative signs alternate in nu through order 4"),
    InequalityCase("logconvex_x", _sides_logconvex_x, -0.5,
                   note="midpoint log-convexity in x"),
    InequalityCase("logconvex_nu", _sides_logconvex_nu, -0.5,
                   note="midpoint log-convexity in nu"),
    InequalityCase("neg_m_cm", _sides_neg_m_cm, -0.5, lo_closed=True, nu_hi=0.0,
                   note="-M derivative signs alternate for nu in [-1/2, 0]"),
    InequalityCase("h_negative_derivative", _sides_h_negative_derivative, -1.0,
                   nu_hi=20.0, any_x=True,
                   note="digamma-difference witness is positive and decreasing"),
)}

EXTRA_CASES: dict[str, InequalityCase] = {c.id: c for c in (
    InequalityCase("FX3_raw", _sides_fx3_raw, -1.0, nu_hi=-0.5,
                   note="series-route extension of the combined bound to orders in "
                        "(-1, -1/2]; violated - the underlying sinh lower bound "
                        "fails there"),
)}


def lookup(case_id: str) -> InequalityCase:
    """Find a case by id in the catalog or the extras registry."""
    if case_id in CATALOG:
        return CATALOG[case_id]
    if case_id in EXTRA_CASES:
        return EXTRA_CASES[case_id]
    raise KeyError(case_id)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _geo(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(float(v) for v in np.geomspace(lo, hi, n))


def _edge_grid(lo: float, hi: float, n: int, closed_lo: bool) -> tuple[float, ...]:
    """Order grid for a domain with lower edge lo: open edges start at
    distance 1e-2, closed edges include the endpoint itself."""
    span = hi - lo
    if closed_lo:
        return (lo,) + tuple(lo + g for g in _geo(1e-2, span, n - 1))
    return tuple(lo + g for g in _geo(1e-2, span, n))


_X_DEFAULT = _geo(1e-3, 30.0, 25)

#: Where the default order grid stops for a range without an upper edge.
_NU_GRID_TOP = 20.0


@cache
def default_grid(case_id: str) -> GridSpec:
    """The standard sweep grid for a case: 25 orders log-spaced across
    its order range (open edges approached to distance 1e-2, closed edges
    included, ending at the upper edge or at nu = 20 when there is none),
    25 arguments log-spaced in [1e-3, 30]; a two-argument case uses a
    10 x 10 x 6 (x, y, nu) grid. Built once per case (a GridSpec is frozen)."""
    case = lookup(case_id)
    hi = _NU_GRID_TOP if case.nu_hi is None else case.nu_hi
    if case.needs_y:
        return GridSpec(nu_values=_edge_grid(case.nu_lo, hi, 6, case.lo_closed),
                        x_values=_geo(1e-3, 30.0, 10),
                        y_values=_geo(1e-3, 30.0, 10))
    return GridSpec(nu_values=_edge_grid(case.nu_lo, hi, 25, case.lo_closed),
                    x_values=_X_DEFAULT)


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


def _domain_axes(case: InequalityCase, grid: GridSpec):
    """The axes of the grid points inside the case domain (their product in
    sweep order), and the number of grid points outside it."""
    axes = [grid.nu_values, grid.x_values]
    if case.needs_y:
        axes.append(grid.y_values or ())
    kept = [[v for v in axis if ok(v)]
            for axis, ok in zip(axes, (case._nu_ok, case._x_ok, case._y_ok))]
    outside = math.prod(map(len, axes)) - math.prod(map(len, kept))
    return kept, outside


def sweep_case(case: InequalityCase, grid: GridSpec,
               series_cfg: SeriesConfig = SERIES_DEFAULTS,
               quad_cfg: QuadConfig = QUAD_DEFAULTS) -> VerificationReport:
    """Sweep one case over a grid and classify every point.

    Points outside the case domain are skipped and counted. The margin runs once over
    the rest, as arrays, reading the pair's :data:`routes.memo`, whose values outlive
    the sweep. The report lists its points in grid order, and the argmin is the first
    point that attains the minimum. A point where a read or ev.each raised is recorded
    with that error, else one whose margin is not finite with its arithmetic's
    (_arithmetic_error), and counted as skipped, never fatal. When nothing was tested
    the result is a zero-point report: every grid point counts as skipped, or none when
    a two-argument case is handed no y grid.
    """
    start = time.perf_counter()
    axes, skipped = _domain_axes(case, grid)
    cols = [c.ravel() for c in np.meshgrid(*map(np.array, axes), indexing="ij")]
    size = math.prod(map(len, axes))
    ev = Reads(routes.memo(series_cfg, quad_cfg))
    with np.errstate(all="ignore"):
        margins = np.broadcast_to(case.margin(ev, *cols) if size else (), size)
    points = np.stack(cols, -1)  # read by flat index
    errors = ev.errors
    for i in np.flatnonzero(~np.isfinite(margins)).tolist():
        errors.setdefault(i, _arithmetic_error(case, ev.memo, points[i]))
    tested = np.ones(size, bool)
    tested[list(errors)] = False
    kept = np.flatnonzero(tested)
    margin = margins[kept]
    low = kept[np.argmin(margin)] if kept.size else None

    def listed(where):
        return tuple(zip(map(tuple, points[kept[where]].tolist()), margin[where].tolist()))

    failed = sorted(errors)
    return VerificationReport(
        case_id=case.id,
        points_tested=kept.size,
        points_skipped=skipped + len(errors),
        min_margin=None if low is None else float(margins[low]),
        argmin=None if low is None else tuple(points[low].tolist()),
        violations=listed(margin < -INCONCLUSIVE_BAND),
        inconclusive=listed(np.abs(margin) <= INCONCLUSIVE_BAND),
        errors=tuple(zip(map(tuple, points[failed].tolist()),
                         (f"{type(errors[i]).__name__}: {errors[i]}" for i in failed))),
        wall_time=time.perf_counter() - start,
    )


def _arithmetic_error(case: InequalityCase, memo: routes.Memo, point) -> ArithmeticError:
    """ZeroDivisionError or OverflowError, for the first floating-point fault of the
    margin run again at point (a coordinate array) alone, its reads now hits (a fault in
    a branch that np.where discards counts too)."""
    with np.errstate(all="raise", under="ignore"):
        try:
            case.margin(Reads(memo), *point[:, None])
        except FloatingPointError as exc:
            if "divide" in str(exc):
                return ZeroDivisionError("float division by zero")
            return OverflowError(str(exc))
    return OverflowError("the margin is not finite")


def run_case(case: InequalityCase, grid: GridSpec,
             series_cfg: SeriesConfig = SERIES_DEFAULTS,
             quad_cfg: QuadConfig = QUAD_DEFAULTS) -> VerificationReport:
    """:func:`sweep_case`, refusing a sweep that tested nothing.

    Raises DomainError when a two-argument case is handed no y grid, and
    EmptyDomainError when nothing was tested: the domain filter left no
    point, or every point it kept raised (the message says which, and
    quotes the first error).
    """
    if case.needs_y and not grid.y_values:
        raise DomainError(f"case {case.id} needs a y grid")
    report = sweep_case(case, grid, series_cfg, quad_cfg)
    if report.points_tested == 0:
        errors = report.errors
        raise EmptyDomainError(
            f"all {len(errors)} in-domain grid points of case {case.id} raised; "
            f"first at {errors[0][0]}: {errors[0][1]}" if errors else
            f"no grid point satisfies the domain of case {case.id}")
    return report


def run_all(grid: Optional[GridSpec] = None,
            series_cfg: SeriesConfig = SERIES_DEFAULTS,
            quad_cfg: QuadConfig = QUAD_DEFAULTS) -> list[VerificationReport]:
    """Run every catalog case at the given configs, each on its own default
    grid unless an explicit grid is given. A case that tests nothing on the explicit
    grid (its domain rejects every point, every in-domain point raised,
    or it needs a y grid the grid lacks) yields a zero-point report from
    :func:`sweep_case` rather than aborting the run."""
    return [sweep_case(case, grid if grid is not None else default_grid(case.id),
                       series_cfg, quad_cfg)
            for case in CATALOG.values()]
