"""Named inequality cases and the grid sweep that verifies them.

Every claim about the second-kind function, its normalized form, and the
associated gamma-function ratios is registered here as an
:class:`InequalityCase`: the order range the claim is stated on plus a
margin evaluator returning ``(margin, scale)`` oriented so that a positive
margin means the claim holds. The range is declared once per case (a lower
edge, open or closed, and an optional closed upper edge); the case's
domain predicate and its default sweep grid are both derived from it. The
executor sweeps a grid, normalizes each margin by its scale, and
classifies points as satisfied, inconclusive (within ``+-1e-9`` of zero
after normalization), or violations. A sweep visits again the points whose
quadrature the memo deferred, once one batch has filled them all.

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
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import foxwright, routes
from .core import (QUAD_DEFAULTS, SERIES_DEFAULTS, EvalPoint, QuadConfig,
                   SeriesConfig)
from .errors import DomainError, EmptyDomainError, StruveKitError
from .gammafuncs import (SQRT_PI, gamma_ratio, gamma_ratio_h,
                         gamma_ratio_h_prime, log_gamma)
from .series import struve_m_series

#: Normalized margins within this band of zero are inconclusive, not
#: violations: numerical noise must not manufacture counterexamples.
INCONCLUSIVE_BAND = 1e-9

_TINY = 1e-300
_TWO_OVER_SQRT_PI = 2.0 / SQRT_PI


@dataclass(frozen=True)
class InequalityCase:
    """A named claim on an order range, with a margin evaluator.

    The claim is stated for orders above ``nu_lo`` (from ``nu_lo`` on when
    ``lo_closed``) up to and including ``nu_hi``, or without an upper edge
    when ``nu_hi`` is None. Every case needs x > 0 unless ``any_x`` says
    its margin ignores x, and a two-argument case (``needs_y``) also needs
    y > 0; :meth:`domain` is the predicate derived from these fields, and
    :func:`default_grid` spans the same range.

    ``margin_fn(nu, x, y, ev)`` returns ``(margin, scale)``, reading
    function values from ev, the sweep's :class:`routes.Memo`; the margin
    is oriented so positive means the claim holds, and the executor
    reports ``margin/scale``. Inside a sweep a memo read may defer its
    quadrature step, so a margin may be called again at the same point; it
    must read the memo and compute, nothing more.
    """

    id: str
    margin_fn: Callable[..., tuple[float, float]]
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

    def flipped(self) -> "InequalityCase":
        """Self-test fixture: the same case claiming the opposite sign.

        Running a flipped case against a grid where the original passes
        must produce violations; that is how the harness proves it can
        fail (the executor is not trusted until it has rejected
        something).
        """
        orig = self.margin_fn

        def negated(*args, **kwargs):
            margin, scale = orig(*args, **kwargs)
            return -margin, scale

        return replace(self, id=self.id + "_flipped", margin_fn=negated)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: order values, argument values, optional second
    argument values for two-argument claims, and how they were spaced."""

    nu_values: tuple[float, ...]
    x_values: tuple[float, ...]
    y_values: Optional[tuple[float, ...]] = None
    spacing: str = "log"

    def __post_init__(self) -> None:
        if self.spacing not in ("linear", "log"):
            raise DomainError("spacing must be 'linear' or 'log'")
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
# margin evaluators
#
# Signature: fn(nu, x, y, ev) -> (margin, scale). ev is the routes.Memo of
# the sweep's (SeriesConfig, QuadConfig) pair: plain function values come
# from its memoized automatic routes, and the direct quadrature probes and
# the series-route FX3_raw read its configs.
# ---------------------------------------------------------------------------


def _gr(nu: float) -> float:
    """gamma(nu+1/2)/gamma(nu+1), the x -> 0 value of the normalized form."""
    return gamma_ratio(nu + 0.5, nu + 1.0)


def _margin_bound0(nu, x, y, ev):
    c = ev.calm(nu, x).value
    g = _gr(nu)
    return g - c, max(g, abs(c), _TINY)


def _turanian_parts(ev, nu, x):
    m_lo = ev.m(nu - 1.0, x).value
    m_md = ev.m(nu, x).value
    m_hi = ev.m(nu + 1.0, x).value
    return m_md * m_md, m_lo * m_hi


def _margin_ineqturan_lower(nu, x, y, ev):
    sq, prod = _turanian_parts(ev, nu, x)
    return sq - prod, max(sq, abs(prod), _TINY)


def _margin_ineqturan_upper(nu, x, y, ev):
    sq, prod = _turanian_parts(ev, nu, x)
    cap = sq / (nu + 0.5)
    return cap - (sq - prod), max(cap, abs(sq - prod), _TINY)


def _ratio(ev, nu, x):
    """x M_nu'(x) / M_nu(x); M_nu < 0 on the catalog domains."""
    return x * ev.m_prime(nu, x).value / ev.m(nu, x).value


def _margin_quot1(nu, x, y, ev):
    r = _ratio(ev, nu, x)
    return nu - r, max(abs(nu), abs(r), _TINY)


def _margin_quot2_left(nu, x, y, ev):
    r = _ratio(ev, nu, x)
    s = math.hypot(x, nu)
    return r + s, max(abs(r), s, _TINY)


def _margin_quot2_right(nu, x, y, ev):
    r = _ratio(ev, nu, x)
    s = math.hypot(x, nu)
    return s - r, max(abs(r), s, _TINY)


def _margin_fx1(nu, x, y, ev):
    lhs = ev.calm(nu, x + y).value
    rhs = ev.calm(nu, x).value * ev.calm(nu, y).value / _gr(nu)
    return lhs - rhs, max(abs(lhs), abs(rhs), _TINY)


def _margin_bound1(nu, x, y, ev):
    c = ev.calm(nu, x).value
    base = _gr(nu) * (-math.expm1(-x)) / x
    orient = 1.0 if nu >= 0.5 else -1.0
    return orient * (c - base), max(abs(c), abs(base), _TINY)


def _margin_fx2(nu, x, y, ev):
    lhs = ev.calm(nu - 1.0, x).value * ev.calm(nu + 1.0, x).value
    rhs = ev.calm(0.5, x).value * ev.calm(2.0 * nu - 0.5, x).value
    orient = 1.0 if nu >= 1.5 else -1.0
    return orient * (rhs - lhs), max(abs(lhs), abs(rhs), _TINY)


def _margin_fx3(nu, x, y, ev):
    expo = x * x / (4.0 * (nu + 1.0))
    if expo > 700.0:
        # the exponential side exceeds any normalized-form value by
        # hundreds of orders of magnitude; report a saturated margin
        # instead of overflowing
        return 1.0, 1.0
    lhs = ev.calm(nu, x).value
    rhs = (_gr(nu) * math.exp(expo)
           - (4.0 / (SQRT_PI * (2.0 * nu + 1.0))) * math.sinh(x / (2.0 * nu + 3.0)))
    return rhs - lhs, max(abs(lhs), abs(rhs), _TINY)


def _margin_fx3_raw(nu, x, y, ev):
    """Series-route form of the combined bound on -M_nu for orders in
    (-1, -1/2], where the normalized form has no integral
    representation. Genuinely violated; kept to document the failure."""
    expo = x * x / (4.0 * (nu + 1.0))
    if expo > 700.0:
        return 1.0, 1.0
    lhs = -struve_m_series(EvalPoint(nu, x), ev.series_cfg).value
    log_half_pow = nu * math.log(0.5 * x)
    i_bound = math.exp(expo + log_half_pow - log_gamma(nu + 1.0))
    l_bound = 2.0 * math.exp(log_half_pow - log_gamma(nu + 1.5)) \
        * math.sinh(x / (2.0 * nu + 3.0)) / SQRT_PI
    rhs = i_bound - l_bound
    return rhs - lhs, max(abs(lhs), abs(rhs), _TINY)


def _margin_quot3_left(nu, x, y, ev):
    r = _ratio(ev, nu, x)
    bound = 0.5 * (-1.0 - math.sqrt(1.0 + 4.0 * (x * x + nu * nu)))
    return r - bound, max(abs(r), abs(bound), _TINY)


def _margin_quot3_right(nu, x, y, ev):
    r = _ratio(ev, nu, x)
    bound = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * (x * x + nu * nu)))
    return bound - r, max(abs(r), abs(bound), _TINY)


def _ratio_derivative_analytic(ev, nu, x):
    """d/dx [x M'/M] through the quadratic identity for the Turanian:
    x [ (1 + nu^2/x^2) M^2 - (M')^2 + (nu+1/2) x^(nu-1) M
        / (sqrt(pi) 2^(nu-1) gamma(nu+3/2)) ] / M^2."""
    m = ev.m(nu, x).value
    md = ev.m_prime(nu, x).value
    coef = (nu + 0.5) * math.exp(
        (nu - 1.0) * math.log(0.5 * x) - log_gamma(nu + 1.5)) / SQRT_PI
    bracket = (1.0 + (nu / x) ** 2) * m * m - md * md + coef * m
    return x * bracket / (m * m)


def _margin_fx31(nu, x, y, ev):
    d_an = _ratio_derivative_analytic(ev, nu, x)
    h = 1e-5 * max(1.0, x)
    d_fd = (_ratio(ev, nu, x + h) - _ratio(ev, nu, x - h)) / (2.0 * h)
    deriv = max(d_an, d_fd)
    rhs = x / (nu + 0.5)
    return rhs - deriv, max(rhs, abs(d_an), abs(d_fd), _TINY)


def _margin_theorem4(nu, x, y, ev):
    lower, upper = foxwright.bilateral_bounds(EvalPoint(nu, x))
    c = ev.calm(nu, x).value
    n_lo = (c - lower) / max(abs(c), abs(lower), _TINY)
    n_up = (upper - c) / max(abs(c), abs(upper), _TINY)
    return min(n_lo, n_up), 1.0


def _margin_gammaineq_left(nu, x, y, ev):
    ratio = gamma_ratio(nu + 1.5, nu + 2.0)
    return _TWO_OVER_SQRT_PI - ratio, max(_TWO_OVER_SQRT_PI, ratio, _TINY)


def _margin_gammaineq_right(nu, x, y, ev):
    ratio = gamma_ratio(nu + 1.5, nu + 2.0)
    bound = math.sqrt(2.0 / (math.pi * (nu + 1.0)))
    return ratio - bound, max(ratio, bound, _TINY)


def _margin_remark2_turan(nu, x, y, ev):
    val = math.exp(2.0 * log_gamma(nu + 1.5)
                   - log_gamma(nu + 1.0) - log_gamma(nu + 2.0))
    bound = 2.0 / math.pi
    return val - bound, max(val, bound, _TINY)


def _margin_remark2_ratio(nu, x, y, ev):
    g = _gr(nu)
    upper = _TWO_OVER_SQRT_PI * (nu + 1.0) / (nu + 0.5)
    lower = math.sqrt(2.0 / math.pi) * math.sqrt(nu + 1.0) / (nu + 0.5)
    n_up = (upper - g) / max(upper, g, _TINY)
    n_lo = (g - lower) / max(g, lower, _TINY)
    return min(n_up, n_lo), 1.0


def _margin_sign_m(nu, x, y, ev):
    # sign M = -sign calM for nu > -1/2, and calM does not underflow where
    # M does; the closed edge nu = -1/2 keeps M's closed form
    neg = ev.calm(nu, x).value if nu > -0.5 else -ev.m(nu, x).value
    return neg, max(abs(neg), _TINY)


def _sign_margin(value: float, abs_err: float) -> float:
    """Normalized margin of a single positivity claim: close to +-1 when
    the sign is numerically certain, and graded into the inconclusive
    band once the value drops below its reported error bar."""
    return value / max(abs(value), abs_err / INCONCLUSIVE_BAND, _TINY)


def _margin_cm_probe_x(nu, x, y, ev):
    return min(_sign_margin((-1.0) ** n * fv.value, fv.abs_err)
               for n, fv in enumerate(ev.calm_dx(nu, x))), 1.0


def _margin_cm_probe_nu(nu, x, y, ev):
    return min(_sign_margin((-1.0) ** m * fv.value, fv.abs_err)
               for m, fv in enumerate(ev.calm_dnu(nu, x))), 1.0


def _margin_logconvex_x(nu, x, y, ev):
    prod = ev.calm(nu, x).value * ev.calm(nu, 1.5 * x).value
    mid = ev.calm(nu, 1.25 * x).value
    return prod - mid * mid, max(prod, mid * mid, _TINY)


def _margin_logconvex_nu(nu, x, y, ev):
    prod = ev.calm(nu, x).value * ev.calm(nu + 1.0, x).value
    mid = ev.calm(nu + 0.5, x).value
    return prod - mid * mid, max(prod, mid * mid, _TINY)


#: (1/2)_k, the rising factorial, for k = 0..6.
_RISING_HALF = list(itertools.accumulate((0.5 + i for i in range(6)), operator.mul, initial=1.0))


def _margin_neg_m_cm(nu, x, y, ev):
    """Sign alternation of the first seven derivatives of -M_nu for
    nu in [-1/2, 0].

    At nu = -1/2 the derivatives of the elementary form
    sqrt(2/pi) x^(-1/2) e^(-x) expand into an all-positive sum; elsewhere
    the Leibniz rule on -M = x^nu calM_nu / (2^nu gamma(nu+1/2)) keeps
    every term positive as well (falling factorials of nu <= 0 alternate
    against the alternating normalized-form derivatives), so the
    evaluation is cancellation-free.
    """
    vals = []
    if nu == -0.5:
        front = math.sqrt(2.0 / math.pi) * math.exp(-x)
        for n in range(7):
            acc = 0.0
            for k in range(n + 1):
                acc += math.comb(n, k) * _RISING_HALF[k] * x ** (-0.5 - k)
            vals.append(front * acc)
    else:
        front = math.exp(-nu * math.log(2.0) - log_gamma(nu + 0.5))
        falling = list(itertools.accumulate((nu - i for i in range(6)), operator.mul, initial=1.0))
        dx = [fv.value for fv in ev.calm_dx(nu, x)]
        for n in range(7):
            acc = 0.0
            for k in range(n + 1):
                acc += math.comb(n, k) * falling[k] * x ** (nu - k) * dx[n - k]
            vals.append((-1.0) ** n * front * acc)
    # every summand above is positive by construction, so the sign of
    # each order is certain and a per-order +-1 margin is honest
    return min(v / max(abs(v), _TINY) for v in vals), 1.0


def _margin_h_negative_derivative(nu, x, y, ev):
    hv = gamma_ratio_h(nu)
    hp = gamma_ratio_h_prime(nu)
    n_pos = hv / max(abs(hv), _TINY)
    n_dec = -hp / max(abs(hp), _TINY)
    return min(n_pos, n_dec), 1.0


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


CATALOG: dict[str, InequalityCase] = {c.id: c for c in (
    InequalityCase("bound0", _margin_bound0, -0.5,
                   note="normalized form stays below its value at zero argument"),
    InequalityCase("ineqturan_lower", _margin_ineqturan_lower, 0.5,
                   note="Turan-type difference is positive"),
    InequalityCase("ineqturan_upper", _margin_ineqturan_upper, 0.5,
                   note="Turan-type difference is below M^2/(nu+1/2)"),
    InequalityCase("quot1", _margin_quot1, -0.5,
                   note="logarithmic-derivative ratio stays below nu"),
    InequalityCase("quot2_left", _margin_quot2_left, 0.5,
                   note="ratio above -sqrt(x^2+nu^2)"),
    InequalityCase("quot2_right", _margin_quot2_right, 0.5,
                   note="ratio below sqrt(x^2+nu^2)"),
    InequalityCase("FX1", _margin_fx1, -0.5, needs_y=True,
                   note="normalized form is super-multiplicative after rescaling"),
    InequalityCase("bound1", _margin_bound1, -0.5,
                   note="comparison with the order-1/2 profile; reverses at nu=1/2"),
    InequalityCase("FX2", _margin_fx2, 0.5,
                   note="order-averaged product comparison; reverses at nu=3/2"),
    InequalityCase("FX3", _margin_fx3, -0.5,
                   note="combined exponential/sinh upper bound"),
    InequalityCase("quot3_left", _margin_quot3_left, -0.5, lo_closed=True, nu_hi=0.0,
                   note="quadratic-root lower bound for the ratio"),
    InequalityCase("quot3_right", _margin_quot3_right, -0.5, lo_closed=True, nu_hi=0.0,
                   note="quadratic-root upper bound for the ratio"),
    InequalityCase("FX31", _margin_fx31, 0.5,
                   note="derivative of x M'/M stays below x/(nu+1/2)"),
    InequalityCase("theorem4_bilateral", _margin_theorem4, -0.5,
                   note="exponential-decay bracket for the normalized form"),
    InequalityCase("gammaineq_left", _margin_gammaineq_left, -0.5, any_x=True,
                   note="gamma ratio below 2/sqrt(pi)"),
    InequalityCase("gammaineq_right", _margin_gammaineq_right, -0.5, any_x=True,
                   note="gamma ratio above sqrt(2/(pi(nu+1)))"),
    InequalityCase("remark1", _margin_fx2, 0.5,
                   note="second-kind product bound, reverses at nu=3/2; it is FX2 after "
                        "scaling by 2^(2nu) gamma(nu-1/2) gamma(nu+3/2) x^(-2nu) > 0"),
    InequalityCase("remark2_turan_gamma", _margin_remark2_turan, -0.5, any_x=True,
                   note="Turan-type gamma-function form of the ratio bound"),
    InequalityCase("remark2_ratio", _margin_remark2_ratio, -0.5, any_x=True,
                   note="two-sided bound on gamma(nu+1/2)/gamma(nu+1)"),
    InequalityCase("sign_m", _margin_sign_m, -0.5, lo_closed=True,
                   note="second-kind function is negative"),
    InequalityCase("cm_probe_x", _margin_cm_probe_x, -0.5,
                   note="derivative signs alternate in x through order 6"),
    InequalityCase("cm_probe_nu", _margin_cm_probe_nu, -0.5,
                   note="derivative signs alternate in nu through order 4"),
    InequalityCase("logconvex_x", _margin_logconvex_x, -0.5,
                   note="midpoint log-convexity in x"),
    InequalityCase("logconvex_nu", _margin_logconvex_nu, -0.5,
                   note="midpoint log-convexity in nu"),
    InequalityCase("neg_m_cm", _margin_neg_m_cm, -0.5, lo_closed=True, nu_hi=0.0,
                   note="-M derivative signs alternate for nu in [-1/2, 0]"),
    InequalityCase("h_negative_derivative", _margin_h_negative_derivative, -1.0,
                   nu_hi=20.0, any_x=True,
                   note="digamma-difference witness is positive and decreasing"),
)}

EXTRA_CASES: dict[str, InequalityCase] = {c.id: c for c in (
    InequalityCase("FX3_raw", _margin_fx3_raw, -1.0, nu_hi=-0.5,
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


def default_grid(case_id: str) -> GridSpec:
    """The standard sweep grid for a case: 25 orders log-spaced across
    its order range (open edges approached to distance 1e-2, closed edges
    included, ending at the upper edge or at nu = 20 when there is none),
    25 arguments log-spaced in [1e-3, 30]; a two-argument case uses a
    10 x 10 x 6 (x, y, nu) grid."""
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

    Points outside the case domain are skipped and counted. Every margin
    evaluation runs at the given configs through the pair's
    :data:`routes.memo`, resolved once per sweep; its values outlive the
    sweep. A point whose margin met a deferred quadrature miss is visited
    again once the memo has filled every such miss in one batch; the report
    keeps grid order and the first argmin in it all the same. Evaluation
    failures are recorded per point and counted as skipped, never fatal.
    When nothing was tested the result is a zero-point report: every grid
    point counts as skipped, or none when a two-argument case is handed no
    y grid.
    """
    start = time.perf_counter()
    ev = routes.memo(series_cfg, quad_cfg)
    (nus, *rest), skipped = _domain_axes(case, grid)
    margin_fn = case.margin_fn
    tested = 0
    min_margin: Optional[float] = None
    argmin: Optional[tuple[float, ...]] = None
    violations, inconclusive, errors = [], [], []  # (grid index, point, margin or message)
    todo = enumerate(itertools.product(nus, *rest))
    rounds = 0
    with ev.deferring() as fill:
        while True:
            deferred = []
            low = None
            for i, point in todo:
                try:
                    margin, scale = margin_fn(point[0], point[1],
                                              point[2] if len(point) > 2 else None, ev)
                except routes._Deferred:
                    deferred.append((i, point))
                    continue
                except (StruveKitError, OverflowError, ZeroDivisionError) as exc:
                    errors.append((i, point, f"{type(exc).__name__}: {exc}"))
                    skipped += 1
                    continue
                tested += 1
                normalized = margin / max(scale, _TINY)
                if low is None or normalized < low:
                    low, low_i, low_at = normalized, i, point
                if normalized < -INCONCLUSIVE_BAND:
                    violations.append((i, point, normalized))
                elif abs(normalized) <= INCONCLUSIVE_BAND:
                    inconclusive.append((i, point, normalized))
            if low is not None and (min_margin is None
                                    or (low, low_i) < (min_margin, argmin_i)):
                min_margin, argmin_i, argmin = low, low_i, low_at
            if not deferred:
                break
            fill()
            rounds += 1
            todo = deferred
    if rounds:  # revisited points were classified late: restore grid order
        for found in (violations, inconclusive, errors):
            found.sort(key=operator.itemgetter(0))
    return VerificationReport(
        case_id=case.id,
        points_tested=tested,
        points_skipped=skipped,
        min_margin=min_margin,
        argmin=argmin,
        violations=tuple((point, m) for _, point, m in violations),
        inconclusive=tuple((point, m) for _, point, m in inconclusive),
        errors=tuple((point, err) for _, point, err in errors),
        wall_time=time.perf_counter() - start,
    )


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
