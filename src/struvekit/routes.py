"""Top-level evaluators that dispatch among the independent routes.

Three genuinely independent computations are available for the second-kind
function and its normalized form: the merged power series, tanh-sinh
quadrature of the integral representation, and the Fox-Wright series. An
explicit method runs exactly that route, so cross-route comparisons stay
honest. The automatic route for M and calM stops at the first of these
that can certify its value:

1. the elementary expression at nu = +-1/2, or for calM at x = 0 the gamma ratio;
2. the float64 merged series at x <= X_CANCEL_MAX, if it certifies 1e-12 relative;
3. tanh-sinh quadrature, for nu > -1/2 (nu >= _QUAD_NU_MIN at x <= X_CANCEL_MAX);
4. the mpmath-escalated series: nu in (-1, -1/2], the band step 3 leaves
   out, or where quadrature stalls.

M' takes step 1, then step 2 by the termwise derivative of the same pass
(nu > -1/2, x > 0), then differentiated quadrature (m_deriv), and where
that stalls the recurrence M' = M_{nu+1} + (nu/x) M_nu + (x/2)^nu /
(sqrt(pi) gamma(nu+3/2)) over the automatic M values.

:data:`memo` memoizes the automatic M, M' and calM values per
(SeriesConfig, QuadConfig) pair for the verification sweeps, where one
grid point feeds many cases.
"""

from __future__ import annotations

import math
from contextlib import suppress
from functools import lru_cache

from . import closedforms, foxwright, quadrature, series
from .core import (QUAD_DEFAULTS, SERIES_DEFAULTS, EvalPoint, FuncValue,
                   Method, QuadConfig, SeriesConfig)
from .errors import DomainError, NonConvergenceError
from .gammafuncs import log_gamma

_EPS = 2.220446049250313e-16

#: Within 0.01 of nu = -1/2 endpoint rounding outgrows quadrature's error
#: bar (8x measured); below X_CANCEL_MAX the escalated series serves there.
_QUAD_NU_MIN = -0.49

#: Elementary expressions keyed by (function, order).
_CLOSED_FORMS = {("m", -0.5): closedforms.m_at_neg_half, ("m", 0.5): closedforms.m_at_pos_half,
                 ("calm", 0.5): closedforms.calm_at_pos_half,
                 ("m_prime", -0.5): closedforms.m_prime_at_neg_half,
                 ("m_prime", 0.5): closedforms.m_prime_at_pos_half}


def _closed_form(fn: str, p: EvalPoint, method: Method | None) -> FuncValue | None:
    """fn at p from the table, or None where another route serves. The
    automatic route takes the table only for x > 0 (any x for calM)."""
    if not (method is Method.CLOSED_FORM or method is None and p.nu in (-0.5, 0.5)):
        return None
    form = _CLOSED_FORMS.get((fn, p.nu))
    if method is Method.CLOSED_FORM and form is None:
        raise DomainError("the normalized form has a closed form only at nu = 1/2" if fn == "calm"
                          else "closed forms exist only at nu = -1/2 and nu = 1/2")
    if method is Method.CLOSED_FORM or (form and (p.x > 0.0 or fn == "calm")):
        value = form(p.x)
        return FuncValue(value, 4.0 * _EPS * abs(value), Method.CLOSED_FORM)
    return None


def _calm_at_zero(nu: float) -> FuncValue:
    """calM_nu(0) = gamma(nu+1/2)/gamma(nu+1), formed in log space. Log-gamma rounding
    dominates: mpmath scans over nu in (-1/2, 1e6] reached 4.8 eps (|lgamma(nu+1/2)| +
    |lgamma(nu+1)| + 1) relative, and the bar reports 8 x 4.6 eps of that form."""
    lg_a, lg_b = log_gamma(nu + 0.5), log_gamma(nu + 1.0)
    value = math.exp(lg_a - lg_b)
    err = 8.0 * 4.6 * _EPS * (abs(lg_a) + abs(lg_b) + 1.0) * value
    return FuncValue(value, err, Method.CLOSED_FORM)


def struve_m(p: EvalPoint, method: Method | None = None,
             series_cfg: SeriesConfig = SERIES_DEFAULTS,
             quad_cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """Modified Struve function of the second kind M_nu(x).

    method=None walks the automatic chain of the module docstring; an
    explicit method runs that route or raises DomainError off its domain.
    """
    if (closed := _closed_form("m", p, method)) is not None:
        return closed
    if method is Method.QUADRATURE:
        return quadrature.m_from_quadrature(p, quad_cfg)
    if method is Method.FOX_WRIGHT:
        return series.m_from_calm(p, foxwright.calm_via_fox_wright(p, series_cfg))
    run = None
    if method is None:
        if p.x <= series.X_CANCEL_MAX and (run := series.struve_m_float(p, series_cfg)) and run[0]:
            return run[0]
        if p.nu >= _QUAD_NU_MIN or (p.nu > -0.5 and p.x > series.X_CANCEL_MAX):
            with suppress(NonConvergenceError):
                return quadrature.m_from_quadrature(p, quad_cfg)
    return series.struve_m_series(p, series_cfg, run)


def calm(p: EvalPoint, method: Method | None = None,
         series_cfg: SeriesConfig = SERIES_DEFAULTS,
         quad_cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """Normalized form calM_nu(x), nu > -1/2, x >= 0.

    method=None walks the automatic chain of the module docstring; the
    series steps are rescaled by the exact power-gamma factor, which
    degenerates at x = 0 (hence the gamma ratio there).
    """
    if (closed := _closed_form("calm", p, method)) is not None:
        return closed
    if method is Method.QUADRATURE:
        return quadrature.calm(p, quad_cfg)
    if method is Method.FOX_WRIGHT:
        return foxwright.calm_via_fox_wright(p, series_cfg)
    run = None
    if method is None:
        if p.nu <= -0.5:
            raise DomainError("the normalized form requires nu > -1/2")
        if p.x == 0.0:
            return _calm_at_zero(p.nu)
        # the series->normalized rescale factor 2^nu gamma(nu+1/2) x^-nu can
        # overflow at large order and tiny argument; quadrature has no such factor
        if (0.0 < p.x <= series.X_CANCEL_MAX
                and p.nu * math.log(2.0 / p.x) + log_gamma(p.nu + 0.5) <= 700.0
                and (run := series.struve_m_float(p, series_cfg)) and run[0]):
            return series.calm_from_m(p, run[0])
        if p.nu >= _QUAD_NU_MIN or p.x > series.X_CANCEL_MAX:
            with suppress(NonConvergenceError):
                return quadrature.calm(p, quad_cfg)
    return series.calm_from_m(p, series.struve_m_series(p, series_cfg, run))


def struve_m_prime(p: EvalPoint, method: Method | None = None,
                   series_cfg: SeriesConfig = SERIES_DEFAULTS,
                   quad_cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """First derivative M_nu'(x).

    method=None walks the M' chain of the module docstring. The explicit
    series route goes through the order-lowering relation
    M_nu' = M_{nu-1} - (nu/x) M_nu and therefore needs nu > 0.
    """
    if (closed := _closed_form("m_prime", p, method)) is not None:
        return closed
    if method is Method.SERIES:
        if p.nu <= 0.0:
            raise DomainError("series derivative uses the lower order nu-1 and needs nu > 0")
        if p.x <= 0.0:
            raise DomainError("series derivative requires x > 0")
        lower = series.struve_m_series(EvalPoint(p.nu - 1.0, p.x), series_cfg)
        here = series.struve_m_series(p, series_cfg)
        value = lower.value - (p.nu / p.x) * here.value
        err = lower.abs_err + abs(p.nu / p.x) * here.abs_err + _EPS * abs(value)
        return FuncValue(value, err, Method.SERIES)
    if method is Method.FOX_WRIGHT:
        raise DomainError("no derivative evaluator is defined for this route")
    if method is None:
        if (p.nu > -0.5 and 0.0 < p.x <= series.X_CANCEL_MAX
                and (run := series.struve_m_float(p, series_cfg, order=1)) and run[0]):
            return run[0]
        with suppress(NonConvergenceError):
            return quadrature.m_deriv(p, quad_cfg)
        return _m_prime_by_recurrence(p, series_cfg, quad_cfg)
    return quadrature.m_deriv(p, quad_cfg)


def _m_prime_by_recurrence(p: EvalPoint, series_cfg: SeriesConfig,
                           quad_cfg: QuadConfig) -> FuncValue:
    """M_nu'(x) = M_{nu+1} + (nu/x) M_nu + (x/2)^nu / (sqrt(pi) gamma(nu+3/2)) from the
    automatic M values, where m_deriv stalls. The bar sums the input bars, the last
    term's exp(L) rounding and eps times the magnitudes of the three terms."""
    hi = struve_m(EvalPoint(p.nu + 1.0, p.x), None, series_cfg, quad_cfg)
    here = struve_m(p, None, series_cfg, quad_cfg)
    log_last = p.nu * math.log(0.5 * p.x) - 0.5 * math.log(math.pi) - log_gamma(p.nu + 1.5)
    last = math.exp(log_last)
    mid = (p.nu / p.x) * here.value
    err = (hi.abs_err + abs(p.nu / p.x) * here.abs_err + (1.0 + abs(log_last)) * _EPS * last
           + _EPS * (abs(hi.value) + abs(mid) + last))
    return FuncValue(hi.value + mid + last, err, here.method)


class Memo:
    """Automatic-route M, M' and calM FuncValues at one config pair, memoized on (nu, x)."""

    __slots__ = ("series_cfg", "quad_cfg", "m", "m_prime", "calm")

    def __init__(self, series_cfg: SeriesConfig, quad_cfg: QuadConfig, /) -> None:
        # positional-only, so that memo's cache key is always the config pair
        self.series_cfg, self.quad_cfg = series_cfg, quad_cfg
        memoized = lru_cache(maxsize=262144)
        self.m = memoized(lambda nu, x: struve_m(EvalPoint(nu, x), None, series_cfg, quad_cfg))
        self.m_prime = memoized(
            lambda nu, x: struve_m_prime(EvalPoint(nu, x), None, series_cfg, quad_cfg))
        self.calm = memoized(lambda nu, x: calm(EvalPoint(nu, x), None, series_cfg, quad_cfg))


#: memo(series_cfg, quad_cfg) returns the one Memo of that config pair. It outlives
#: the sweeps that read it, so a repeated sweep at the same configs starts warm.
memo = lru_cache(maxsize=4)(Memo)
