"""Top-level evaluators that dispatch among the independent routes.

Three genuinely independent computations are available for the second-kind
function and its normalized form: the merged power series, tanh-sinh
quadrature of the integral representation, and the Fox-Wright series. The
functions here pick a route automatically (series for x <= 8, quadrature
beyond, exact elementary expressions at nu = +-1/2, the exact gamma ratio
for calM at x = 0) or run exactly the route the caller names, so
cross-route comparisons stay honest.

The three ``cached_*`` helpers memoize scalar values of M, M' and calM at
the default configs for the verification sweeps, where one grid point
feeds many inequality cases. Derivative probes do not go through them:
they take one batched quadrature pass per point at the sweep's config.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import closedforms, foxwright, quadrature, series
from .core import (QUAD_DEFAULTS, SERIES_DEFAULTS, EvalPoint, FuncValue,
                   Method, QuadConfig, SeriesConfig)
from .errors import DomainError
from .gammafuncs import log_gamma
from .series import X_CANCEL_MAX

_EPS = 2.220446049250313e-16


def _closed_value(value: float) -> FuncValue:
    return FuncValue(value, 4.0 * _EPS * abs(value), Method.CLOSED_FORM)


def _calm_at_zero(nu: float) -> FuncValue:
    """calM_nu(0) = gamma(nu+1/2)/gamma(nu+1), formed in log space.

    The rounding of the two log-gamma values dominates the error, far
    above the 4 eps of the elementary closed forms: in scans against
    mpmath over nu in (-1/2, 1e6] it reached about
    4.8 eps (|lgamma(nu+1/2)| + |lgamma(nu+1)| + 1) relative. The bound
    reports 8 x 4.6 eps of that form.
    """
    lg_a, lg_b = log_gamma(nu + 0.5), log_gamma(nu + 1.0)
    value = math.exp(lg_a - lg_b)
    err = 8.0 * 4.6 * _EPS * (abs(lg_a) + abs(lg_b) + 1.0) * value
    return FuncValue(value, err, Method.CLOSED_FORM)


def struve_m(p: EvalPoint, method: Method | None = None,
             series_cfg: SeriesConfig = SERIES_DEFAULTS,
             quad_cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """Modified Struve function of the second kind M_nu(x).

    method=None picks automatically: the elementary expression at
    nu = +-1/2, the merged series for x <= 8 (and everywhere on
    nu in (-1, -1/2] where the integral representation fails), tanh-sinh
    quadrature otherwise. An explicit method always runs that route and
    raises DomainError outside its domain.
    """
    if method is Method.CLOSED_FORM:
        if p.nu == -0.5:
            return _closed_value(closedforms.m_at_neg_half(p.x))
        if p.nu == 0.5:
            return _closed_value(closedforms.m_at_pos_half(p.x))
        raise DomainError("closed forms exist only at nu = -1/2 and nu = 1/2")
    if method is Method.SERIES:
        return series.struve_m_series(p, series_cfg)
    if method is Method.QUADRATURE:
        return quadrature.m_from_quadrature(p, quad_cfg)
    if method is Method.FOX_WRIGHT:
        c = foxwright.calm_via_fox_wright(p, series_cfg)
        return series.m_from_calm(p, c)
    if p.x > 0.0 and p.nu == -0.5:
        return _closed_value(closedforms.m_at_neg_half(p.x))
    if p.x > 0.0 and p.nu == 0.5:
        return _closed_value(closedforms.m_at_pos_half(p.x))
    if p.x <= X_CANCEL_MAX or p.nu <= -0.5:
        return series.struve_m_series(p, series_cfg)
    return quadrature.m_from_quadrature(p, quad_cfg)


def calm(p: EvalPoint, method: Method | None = None,
         series_cfg: SeriesConfig = SERIES_DEFAULTS,
         quad_cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """Normalized form calM_nu(x), nu > -1/2, x >= 0.

    Automatic selection: elementary expression at nu = 1/2, the exact
    gamma ratio at x = 0 (where the series conversion factor degenerates),
    quadrature for x > 8, otherwise the series route rescaled by the exact
    power-gamma factor.
    """
    if method is Method.CLOSED_FORM:
        if p.nu == 0.5:
            return _closed_value(closedforms.calm_at_pos_half(p.x))
        raise DomainError("the normalized form has a closed form only at nu = 1/2")
    if method is Method.SERIES:
        return series.calm_from_m(p, series.struve_m_series(p, series_cfg))
    if method is Method.QUADRATURE:
        return quadrature.calm(p, quad_cfg)
    if method is Method.FOX_WRIGHT:
        return foxwright.calm_via_fox_wright(p, series_cfg)
    if p.nu <= -0.5:
        raise DomainError("the normalized form requires nu > -1/2")
    if p.nu == 0.5 and p.x >= 0.0:
        return _closed_value(closedforms.calm_at_pos_half(p.x))
    if p.x == 0.0:
        return _calm_at_zero(p.nu)
    if p.x > X_CANCEL_MAX:
        return quadrature.calm(p, quad_cfg)
    # the series->normalized rescale factor 2^nu gamma(nu+1/2) x^-nu can
    # overflow double precision at large order and tiny argument; the
    # integral route has no such factor
    if p.nu * math.log(2.0 / p.x) + log_gamma(p.nu + 0.5) > 700.0:
        return quadrature.calm(p, quad_cfg)
    return series.calm_from_m(p, series.struve_m_series(p, series_cfg))


def struve_m_prime(p: EvalPoint, method: Method | None = None,
                   series_cfg: SeriesConfig = SERIES_DEFAULTS,
                   quad_cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """First derivative M_nu'(x).

    Automatic selection: elementary expressions at nu = +-1/2, otherwise
    differentiated quadrature (nu > -1/2, x > 0). The explicit series
    route goes through the order-lowering relation
    M_nu' = M_{nu-1} - (nu/x) M_nu and therefore needs nu > 0.
    """
    if method is Method.CLOSED_FORM or (
            method is None and p.nu in (-0.5, 0.5) and p.x > 0.0):
        if p.nu == -0.5:
            return _closed_value(closedforms.m_prime_at_neg_half(p.x))
        if p.nu == 0.5:
            return _closed_value(closedforms.m_prime_at_pos_half(p.x))
        raise DomainError("closed forms exist only at nu = -1/2 and nu = 1/2")
    if method is Method.SERIES:
        if p.nu <= 0.0:
            raise DomainError(
                "series derivative uses the lower order nu-1 and needs nu > 0")
        if p.x <= 0.0:
            raise DomainError("series derivative requires x > 0")
        lower = series.struve_m_series(EvalPoint(p.nu - 1.0, p.x), series_cfg)
        here = series.struve_m_series(p, series_cfg)
        value = lower.value - (p.nu / p.x) * here.value
        err = lower.abs_err + abs(p.nu / p.x) * here.abs_err + _EPS * abs(value)
        return FuncValue(value, err, Method.SERIES)
    if method is Method.FOX_WRIGHT:
        raise DomainError("no derivative evaluator is defined for this route")
    return quadrature.m_deriv(p, quad_cfg)


@lru_cache(maxsize=262144)
def cached_m(nu: float, x: float) -> float:
    """Scalar M_nu(x) by the automatic route, memoized for grid sweeps."""
    return struve_m(EvalPoint(nu, x)).value


@lru_cache(maxsize=262144)
def cached_m_prime(nu: float, x: float) -> float:
    """Scalar M_nu'(x) by the automatic route, memoized for grid sweeps."""
    return struve_m_prime(EvalPoint(nu, x)).value


@lru_cache(maxsize=262144)
def cached_calm(nu: float, x: float) -> float:
    """Scalar calM_nu(x) by the automatic route, memoized for grid sweeps."""
    return calm(EvalPoint(nu, x)).value

