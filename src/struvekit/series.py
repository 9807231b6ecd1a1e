"""Power-series route for I_nu, L_nu and their difference M_nu = L_nu - I_nu.

Both ascending series share the shape sum_n (x/2)^(2n+p) / (G1(n) G2(n)).
Terms are generated by closed-form term ratios (one multiply per term, no
per-term gamma calls) and accumulated with compensated summation.

M_nu is the cancellation-prone case: I_nu grows like e^x while M_nu decays
algebraically (or exponentially at nu = +-1/2), so the merged alternating
series has condition number ~ 2 I_nu(x) / |M_nu(x)|. The float64 pass
measures it, and struve_m_float certifies its value only where that gives
1e-12 relative error; weighting each term by (2n+p)/x, the same pass sums
the termwise derivative M_nu' and measures its condition. struve_m_series
re-runs the M algorithm elsewhere on arbitrary-precision floats sized from
the measured condition, and refuses (CancellationError) beyond ~80 working
digits; the automatic router asks for it only where quadrature cannot serve.
Those passes are mpmath's only use, so mpmath is imported at the first one:
importing the package loads no mpmath, and the first escalation in a process
also pays the import (21-35 ms on a loaded 2-vCPU machine, numpy loaded).

The module owns the normalization M_nu(x) = -(x/2)^nu calM_nu(x) / gamma(nu+1/2):
calm_from_m, and m_from_calm and m_prime_from_calm, through which every route
that computes calM (quadrature, Fox-Wright) returns M and M'.

The array forms serve the sweep memo's bulk reads and keep every bit of the
scalar functions: struve_m_float_points, one float64 pass over many points
(value and bar arrays, NaN where struve_m_float gives None), and
calm_from_m_points, m_from_calm_points and m_prime_from_calm_points, NaN at the
points where the scalar function takes another branch or raises, which the
caller leaves to it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import SERIES_DEFAULTS, EvalPoint, FuncValue, Method, SeriesConfig
from .errors import CancellationError, DomainError, NonConvergenceError
from .gammafuncs import (EPS, LN2, LOG_MAX, TINY, exp_points, exp_rounded, log_gamma,
                         log_half, per_value, power_gamma, power_gamma_points)

_TWO_OVER_MAX = 2.0 / sys.float_info.max
_LOG_GAMMA_3_2 = log_gamma(1.5)

#: Largest argument at which the auto router tries the float64 pass of
#: the merged series; beyond it the cancellation is too deep to certify.
X_CANCEL_MAX = 8.0

#: Working-digit ceiling for the escalated path.
_MAX_WORK_DIGITS = 80


def _positive_series(p: EvalPoint, cfg: SeriesConfig, shift: float, log_power: float,
                     log_gam: float, log_gam2: float = 0.0) -> tuple[float, float]:
    """Sum sum_n (x/2)^(2n+nu+shift) / (Gamma(n+1+a) Gamma(n+nu+1+a)) style
    series with all-positive terms.

    shift is 0 for I_nu (denominators Gamma(n+1) Gamma(n+nu+1)) and 1 for
    L_nu (denominators Gamma(n+3/2) Gamma(n+nu+3/2)); the first term is
    exp(log_power - log_gam - log_gam2). The terms peak near n = x/2, so up to x/2
    terms past cfg.max_terms run. Returns (value, abs_err), the bar charging the tail,
    the first term's exp() rounding and 5 eps per term of the recurrence: (0, smallest
    subnormal) where the first term underflows and so does the sum, at most that term
    times exp(q / (nu + off)); CancellationError where it underflows and the sum need
    not, or the sum overflows."""
    q = 0.25 * p.x * p.x
    off = 1.0 if shift == 0.0 else 1.5
    log_norm = log_power - log_gam - log_gam2
    term, lead_err = (exp_rounded(log_norm, log_power, log_gam, log_gam2) if log_norm < LOG_MAX
                      else (math.inf, 0.0))
    if not term:  # I_2(1e-300) is about 1.25e-601
        if log_norm + q / (p.nu + off) < math.log(TINY):
            return 0.0, TINY
        raise CancellationError(f"series for (nu={p.nu:g}, x={p.x:g}) underflows float64")
    lead_rel = lead_err / term
    total = carry = 0.0
    budget = cfg.max_terms + int(0.5 * p.x)
    for n in range(budget):
        # compensated sum: error stays O(eps) independent of length
        y = term - carry
        t = total + y
        carry = (t - total) - y
        total = t
        term *= q / ((n + off) * (n + p.nu + off))
        # not >: at a subnormal total both sides reach 0, and an overflowed (NaN) total stops
        if not term > cfg.rel_tol * total and (
                q / ((n + 1 + off) * (n + 1 + p.nu + off)) < 0.5 or total != total):
            if not math.isfinite(total):
                raise CancellationError(f"series for (nu={p.nu:g}, x={p.x:g}) overflows float64")
            return total, 2.0 * term + (lead_rel + 5.0 * (n + 1) * EPS) * total + TINY
    raise NonConvergenceError(
        f"series for (nu={p.nu:g}, x={p.x:g}) did not settle in {budget} terms")


def bessel_i(p: EvalPoint, cfg: SeriesConfig = SERIES_DEFAULTS) -> FuncValue:
    """Modified Bessel function of the first kind I_nu(x), nu > -1, x >= 0.

    Ascending series, https://dlmf.nist.gov/10.25.E2. At x = 0 the limit
    is returned: 1 for nu = 0, 0 for nu > 0, +inf for nu in (-1, 0).
    """
    if p.nu <= -1.0:
        raise DomainError("bessel_i series requires nu > -1")
    if p.x < 0.0:
        raise DomainError("bessel_i requires x >= 0")
    if p.x == 0.0:
        if p.nu == 0.0:
            return FuncValue(1.0, 0.0, Method.SERIES)
        return FuncValue(0.0 if p.nu > 0 else math.inf, 0.0, Method.SERIES)
    value, err = _positive_series(p, cfg, 0.0, p.nu * log_half(p.x), log_gamma(p.nu + 1.0))
    return FuncValue(value, err, Method.SERIES)


def struve_l(p: EvalPoint, cfg: SeriesConfig = SERIES_DEFAULTS) -> FuncValue:
    """Modified Struve function of the first kind L_nu(x), nu > -3/2, x >= 0.

    Ascending series, https://dlmf.nist.gov/11.2.E2. At x = 0 the limit is
    returned: 0 for nu > -1, 2/pi for nu = -1, +inf for nu in (-3/2, -1).
    """
    if p.nu <= -1.5:
        raise DomainError("struve_l series requires nu > -3/2")
    if p.x < 0.0:
        raise DomainError("struve_l requires x >= 0")
    if p.x == 0.0:
        if p.nu > -1.0:
            return FuncValue(0.0, 0.0, Method.SERIES)
        if p.nu == -1.0:
            return FuncValue(2.0 / math.pi, 0.0, Method.SERIES)
        return FuncValue(math.inf, 0.0, Method.SERIES)
    value, err = _positive_series(p, cfg, 1.0, (p.nu + 1.0) * log_half(p.x), _LOG_GAMMA_3_2,
                                  log_gamma(p.nu + 1.5))
    return FuncValue(value, err, Method.SERIES)


def _overflow(nu: float, x: float) -> CancellationError:
    return CancellationError(f"M series at (nu={nu:g}, x={x:g}) overflows float64; "
                             "use the quadrature route")


def _merged_float(p: EvalPoint, cfg: SeriesConfig,
                  order: int = 0) -> tuple[FuncValue | None, float, float]:
    """One float64 pass over the merged M series (order 0) or its termwise
    x-derivative (order 1: i_n weighted by (2n+nu)/x, l_n by (2n+nu+1)/x,
    and the magnitude sum and tail bound taken over the weighted terms),
    terms in increasing powers of x: -i_0, +l_0, -i_1, ... Returns (the sum
    with its error bar, or None where the bar exceeds 1e-12 relative; the
    magnitude sum; the scale the bar is relative to). nu > -1, x >= 0."""
    nu, x = p.nu, p.x
    if nu <= -1.0:
        raise DomainError("struve_m_series requires nu > -1 (I-series domain)")
    if x < 0.0 or order and x == 0.0:
        raise DomainError(f"struve_m_series requires x {'>' if order else '>='} 0")
    if x == 0.0:
        limit = 0.0 if nu > 0.0 else -1.0 if nu == 0.0 else -math.inf
        return FuncValue(limit, 0.0, Method.SERIES), 0.0, 0.0
    q = 0.25 * x * x
    lx = log_half(x)
    log_i = nu * lx - log_gamma(nu + 1.0)
    log_l = (nu + 1.0) * lx - _LOG_GAMMA_3_2 - log_gamma(nu + 1.5)
    if max(log_i, log_l) > 709.0:  # math.exp raises past 709.78
        raise _overflow(nu, x)
    i_term, l_term = math.exp(log_i), math.exp(log_l)
    if not (i_term or l_term):  # the pass would only add zeros
        raise CancellationError(f"M series at (nu={nu:g}, x={x:g}) underflows float64: both "
                                "leading terms are 0; use the quadrature route")
    # exp(L) rounds by about |L| eps relative, and by up to all of a subnormal result;
    # a subnormal x/2 (log x - log 2 above) adds a rounding of L that this leaves out
    lead_err = ((abs(log_i) + abs(log_l) + 2.0) * EPS
                if min(i_term, l_term, 0.5 * x) >= sys.float_info.min else math.inf)
    # term n weighs a n + b: 1 for M, its power of x over x for M'
    a, b_i, b_l = (2.0 / x, nu / x, (nu + 1.0) / x) if order else (0.0, 1.0, 1.0)
    wi, wl = b_i * i_term, b_l * l_term
    rel_tol = cfg.rel_tol
    total = carry = smax = 0.0
    for n in range(cfg.max_terms):
        y = -wi - carry  # compensated, as in _positive_series
        t = total + y
        carry = (t - total) - y
        y = wl - carry
        total = t + y
        carry = (total - t) - y
        smax += (wi if wi >= 0.0 else -wi) + wl
        if smax > 1e307:
            raise _overflow(nu, x)
        k, s = n + 1.0, n + nu  # exact, and each s + c rounds as n + nu + c does
        i_term *= q / (k * (s + 1.0))
        l_term *= q / ((k + 0.5) * (s + 1.5))
        w = a * k + b_i
        wi, wl = w * i_term, (a * k + b_l) * l_term
        # stop once both next terms are negligible (or 0, with an underflowed bound) and
        # the weighted term ratio, falling from here on, is below 1/2 (tail < twice the next)
        if wi <= rel_tol * (total if total >= 0.0 else -total) >= wl and q / (
                (k + 1.0) * (s + 2.0)) * ((w + a) / w) < 0.5:
            err = 2.0 * (wi + wl) + (2.0 * k * EPS + lead_err) * smax
            scale = max(abs(total), smax * 1e-18)
            if err > 1e-12 * scale:
                return None, smax, scale
            return FuncValue(total, err, Method.SERIES), smax, scale
    raise NonConvergenceError(
        f"merged series for (nu={nu:g}, x={x:g}) did not settle in {cfg.max_terms} terms")


def _merged_mp(p: EvalPoint, cfg: SeriesConfig, digits: int) -> tuple[float, float]:
    """Escalated-precision pass over the merged series. Returns (value, rel_trunc)."""
    import mpmath as mp  # here, not at module level: see the module docstring

    with mp.workdps(digits):
        nu = mp.mpf(p.nu)
        x = mp.mpf(p.x)
        q = (x / 2) ** 2
        i_term = (x / 2) ** nu / mp.gamma(nu + 1)
        l_term = (x / 2) ** (nu + 1) / (mp.gamma(mp.mpf(1.5)) * mp.gamma(nu + mp.mpf(1.5)))
        total = mp.mpf(0)
        for n in range(cfg.max_terms):
            total += l_term - i_term
            i_term *= q / ((n + 1) * (n + nu + 1))
            l_term *= q / ((n + mp.mpf(1.5)) * (n + nu + mp.mpf(1.5)))
            nxt = max(i_term, l_term)
            if total and nxt < cfg.rel_tol * abs(total) and q / ((n + 2) * (n + nu + 2)) < 0.5:
                return float(total), float(2 * nxt / abs(total))
        raise NonConvergenceError(
            f"merged series for (nu={p.nu:g}, x={p.x:g}) did not settle in {cfg.max_terms} terms")


def struve_m_float(p: EvalPoint, cfg: SeriesConfig = SERIES_DEFAULTS,
                   order: int = 0) -> FuncValue | None:
    """One float64 pass of the merged series for M_nu(x) (order 0) or M_nu'(x)
    (order 1): the value where its measured condition certifies 1e-12 relative
    error; None elsewhere, and where the pass does not settle, overflows or underflows.
    nu > -1, x >= 0 (x > 0 for order 1)."""
    try:
        return _merged_float(p, cfg, order)[0]
    except (CancellationError, NonConvergenceError):
        return None


def struve_m_float_points(nu, x, cfg: SeriesConfig = SERIES_DEFAULTS,
                          order: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """struve_m_float at every (nu[i], x[i]), nu > -1 and x > 0, from one float64 pass
    over all the points: its value and bar arrays, NaN where it gives None (the pass
    does not certify, overflows, underflows or runs out of terms). _merged_float's
    operations run per point, in its order, on arrays (numpy's +, -, *, / and abs
    round as Python's), with the logs per distinct argument and order and the lead
    terms per point from math, so every value and bar is struve_m_float's bit for bit.
    A point is read as it stops."""
    nu, x = np.asarray(nu, float), np.asarray(x, float)
    value, abs_err = np.full(nu.size, math.nan), np.full(nu.size, math.nan)
    lx = per_value(log_half, x)
    log_i = nu * lx - per_value(log_gamma, nu + 1.0)
    log_l = ((nu + 1.0) * lx - _LOG_GAMMA_3_2) - per_value(log_gamma, nu + 1.5)
    live = np.flatnonzero(np.maximum(log_i, log_l) <= 709.0)  # math.exp raises past 709.78
    nu, x, log_i, log_l = nu[live], x[live], log_i[live], log_l[live]
    i_term, l_term = exp_points(log_i), exp_points(log_l)
    lead_err = np.where(np.minimum(np.minimum(i_term, l_term), 0.5 * x) >= sys.float_info.min,
                        (np.abs(log_i) + np.abs(log_l) + 2.0) * EPS, math.inf)
    with np.errstate(all="ignore"):  # Python's float operations do not warn
        q = 0.25 * x * x
        a, b_i, b_l = (2.0 / x, nu / x, (nu + 1.0) / x) if order else (0.0, 1.0, 1.0)
        wi, wl = b_i * i_term, b_l * l_term
        total = carry = smax = np.zeros(live.size)
        open_ = i_term + l_term > 0.0  # where both lead terms are 0, _merged_float raises
        for n in range(cfg.max_terms):
            y = -wi - carry  # compensated, as in _merged_float
            t = total + y
            carry = (t - total) - y
            y = wl - carry
            total = t + y
            carry = (total - t) - y
            smax = smax + (np.abs(wi) + wl)
            i_term = i_term * (q / ((n + 1.0) * (n + nu + 1.0)))
            l_term = l_term * (q / ((n + 1.5) * (n + nu + 1.5)))
            w = a * (n + 1) + b_i
            wi, wl = w * i_term, (a * (n + 1) + b_l) * l_term
            bound = cfg.rel_tol * np.abs(total)
            over = open_ & (smax > 1e307)
            stop = open_ & ~over & (wi <= bound) & (bound >= wl) & (
                q / ((n + 2.0) * (n + nu + 2.0)) * ((w + a) / w) < 0.5)
            if stop.any():
                err = 2.0 * (wi + wl) + (2 * (n + 1) * EPS + lead_err) * smax
                ok = stop & ~(err > 1e-12 * np.maximum(np.abs(total), smax * 1e-18))
                value[live[ok]], abs_err[live[ok]] = total[ok], err[ok]
            open_ &= ~(stop | over)
            if not open_.any():
                break
    return value, abs_err


def struve_m_series(p: EvalPoint, cfg: SeriesConfig = SERIES_DEFAULTS) -> FuncValue:
    """Modified Struve function of the second kind M_nu(x) = L_nu(x) - I_nu(x).

    Merged termwise summation of the two ascending series in increasing
    powers of x, compensated; escalates internal precision when the
    measured condition number makes float64 untrustworthy. nu > -1, x >= 0.

    Raises CancellationError when even the escalated path would need more
    than 80 working digits (use the quadrature route there). The first
    escalation in a process imports mpmath.
    """
    certified, smax, scale = _merged_float(p, cfg)
    if certified is not None:
        return certified

    # The float64 sum is cancellation noise at this point, so it cannot size
    # the escalated precision. Each arbitrary-precision pass is instead
    # checked against the value it actually produced: the rounding floor of
    # a pass at d digits is ~ smax * 10**-d, and the pass is only accepted
    # once that floor sits at least ten digits below |value|. A noise-level
    # result forces a strictly larger d, so the loop either certifies or
    # hits the digit ceiling and refuses.
    digits = 16 + max(0, int(math.ceil(math.log10(smax / scale)))) + 10
    while True:
        if digits > _MAX_WORK_DIGITS:
            raise CancellationError(
                f"M series at (nu={p.nu:g}, x={p.x:g}) needs about {digits} "
                "working digits; use the quadrature route")
        mp_value, rel_trunc = _merged_mp(p, cfg, digits)
        needed = 16 + 10 + max(0, int(math.ceil(math.log10(
            smax / max(abs(mp_value), 1e-300)))))
        if needed <= digits:
            break
        digits = needed
    noise = smax * 10.0 ** (10 - digits)
    abs_err = max(abs(mp_value) * max(rel_trunc, 1e-14) + noise, TINY)  # a subnormal rounds
    return FuncValue(mp_value, abs_err, Method.SERIES)


def _check_normalized(p: EvalPoint) -> None:
    """DomainError off nu > -1/2, x > 0, where M and calM convert."""
    if p.nu <= -0.5:
        raise DomainError("the normalized form requires nu > -1/2")
    if p.x <= 0.0:
        raise DomainError("the normalized-form factor requires x > 0")


def _log_two_over(x: float) -> float:
    """log(2/x), x > 0; below x = 2/DBL_MAX, where 2/x overflows, log 2 - log x."""
    return math.log(2.0 / x) if x > _TWO_OVER_MAX else LN2 - math.log(x)


def calm_from_m(p: EvalPoint, m: FuncValue) -> FuncValue:
    """Normalized form calM_nu(x) = -2^nu gamma(nu+1/2) x^(-nu) M_nu(x), nu > -1/2 (gamma
    factor finite) and x > 0; CancellationError where the factor overflows float64."""
    _check_normalized(p)
    power = p.nu * _log_two_over(p.x)
    log_gam = log_gamma(p.nu + 0.5)
    try:
        factor, rounding = exp_rounded(power + log_gam, power, log_gam)
    except OverflowError:
        raise CancellationError(f"the factor from M to calM at (nu={p.nu:g}, x={p.x:g}) "
                                "overflows float64; use the quadrature route") from None
    return FuncValue(-m.value * factor, m.abs_err * factor + rounding * abs(m.value), m.method)


def _finite(value: np.ndarray, abs_err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """value and abs_err, NaN at the points where either is not finite."""
    bad = ~(np.isfinite(value) & np.isfinite(abs_err))
    return np.where(bad, math.nan, value), np.where(bad, math.nan, abs_err)


def calm_from_m_points(nu, x, value, abs_err) -> tuple[np.ndarray, np.ndarray]:
    """calm_from_m at every point of the arrays, nu > -1/2 and x > 0: its value and bar
    bit for bit (logs per distinct argument and order, exp per point, from math); NaN
    where they are not finite or the factor's exp may overflow, where calm_from_m
    serves or raises."""
    with np.errstate(all="ignore"):
        power = nu * per_value(_log_two_over, x)
        log_gam = per_value(log_gamma, nu + 0.5)
        factor, rounding = exp_rounded(power + log_gam, power, log_gam, 0.0, exp_points)
        return _finite(-value * factor, abs_err * factor + rounding * np.abs(value))


def _scaled(p: EvalPoint, y: float, y_err: float) -> tuple[float, float]:
    """(x/2)^nu / gamma(nu+1/2) = exp(L) times y, and its bar. Where exp(L) overflows
    (L is 713 at nu = 161, x = 1e4) both are formed as exp(L + log|y|); (inf, inf)
    where they overflow too."""
    try:
        factor, factor_err = power_gamma(p.nu, p.x, p.nu + 0.5)
    except CancellationError:
        log_power, log_gam = p.nu * log_half(p.x), log_gamma(p.nu + 0.5)
        log_y = math.log(abs(y)) if y else -math.inf
        log_value = log_power - log_gam + log_y
        log_err = log_power - log_gam + math.log(y_err)
        if max(log_value, log_err) >= LOG_MAX:
            return math.inf, math.inf
        value, value_err = exp_rounded(log_value, log_power, log_gam, log_y) if y else (0.0, 0.0)
        return math.copysign(value, y), math.exp(log_err) + value_err
    return factor * y, factor * y_err + factor_err * abs(y) + TINY


def m_from_calm(p: EvalPoint, c: FuncValue) -> FuncValue:
    """Inverse of calm_from_m: M_nu(x) = -(x/2)^nu calM_nu(x) / gamma(nu+1/2).
    nu > -1/2, x > 0; CancellationError where M overflows float64."""
    _check_normalized(p)
    value, err = _scaled(p, c.value, c.abs_err)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise CancellationError(f"M at (nu={p.nu:g}, x={p.x:g}) overflows float64")
    return FuncValue(-value, err, c.method)


def m_from_calm_points(nu, x, c, c_err) -> tuple[np.ndarray, np.ndarray]:
    """m_from_calm at every point of the arrays, nu > -1/2 and x > 0, from calM's values
    c and bars c_err: its value and bar bit for bit (the factor from power_gamma_points);
    NaN where they are not finite or the factor may overflow, where m_from_calm takes
    its log-space branch or raises."""
    with np.errstate(all="ignore"):
        factor, factor_err = power_gamma_points(nu, x, nu + 0.5)
        return _finite(-(factor * c), factor * c_err + factor_err * np.abs(c) + TINY)


def m_prime_from_calm_points(nu, x, c, c_err, c1, c1_err) -> tuple[np.ndarray, np.ndarray]:
    """m_prime_from_calm at every point of the arrays, nu > -1/2 and x > 0, from calM and
    calM' (values and bars): its value and bar bit for bit; NaN where m_prime_from_calm
    takes its log-space or tiny-x branch or raises."""
    with np.errstate(all="ignore"):
        ratio = nu / x
        return m_from_calm_points(nu, x, ratio * c + c1, np.abs(ratio) * c_err + c1_err)


def m_prime_from_calm(p: EvalPoint, c: FuncValue, c1: FuncValue) -> FuncValue:
    """M_nu'(x) = -(x/2)^nu [(nu/x) calM_nu(x) + calM_nu'(x)] / gamma(nu+1/2) from
    calM_nu(x) and calM_nu'(x), nu > -1/2, x > 0. Where nu/x overflows or gives NaN
    (x below about 1e-290) the factor over x, (x/2)^(nu-1) / (2 gamma(nu+1/2)),
    serves. CancellationError where M' overflows float64, at tiny x or large."""
    _check_normalized(p)
    inner = (p.nu / p.x) * c.value + c1.value
    value, err = _scaled(p, inner, abs(p.nu / p.x) * c.abs_err + c1.abs_err)
    if math.isfinite(value) and math.isfinite(err):
        return FuncValue(-value, err, c.method)
    if p.x < 1.0:  # where the factor is at most exp(372)
        factor, factor_err = power_gamma(p.nu, p.x, p.nu + 0.5)
        try:
            over_x, over_x_err = power_gamma(p.nu - 1.0, p.x, p.nu + 0.5, LN2)
        except CancellationError:
            over_x = over_x_err = math.inf
        lead = over_x * p.nu * c.value
        value = -(lead + factor * c1.value)
        err = (over_x * abs(p.nu) * c.abs_err + over_x_err * abs(p.nu * c.value)
               + factor * c1.abs_err + factor_err * abs(c1.value)
               + EPS * (abs(lead) + abs(value)) + TINY)
        if math.isfinite(value) and math.isfinite(err):
            return FuncValue(value, err, c.method)
    raise CancellationError(f"M' at (nu={p.nu:g}, x={p.x:g}) overflows float64")
