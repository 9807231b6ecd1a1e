"""Power-series route for I_nu, L_nu and their difference M_nu = L_nu - I_nu.

Both ascending series share the shape sum_n (x/2)^(2n+p) / (G1(n) G2(n))
(https://dlmf.nist.gov/10.25.E2, https://dlmf.nist.gov/11.2.E2). Terms are
generated by closed-form term ratios (one multiply per term, no per-term gamma
calls) and accumulated with compensated summation.

The merged series is summed in normalized form, S_nu(x) = -Gamma(nu+1) (2/x)^nu
M_nu(x) = sum_n (i_n - l_n): i_0 = 1, l_0 = (x/2) Gamma(nu+1) / (Gamma(3/2)
Gamma(nu+3/2)), and each next term by the ratio q/((n+1)(n+nu+1)) or
q/((n+3/2)(n+nu+3/2)), q = x^2/4. No term carries (x/2)^nu, so S neither underflows
nor overflows at small x, whatever the order; S(0) = 1. M, M' and calM are views of
the sum: m_view gives M = -(x/2)^nu S / Gamma(nu+1) through power_gamma (M may
underflow there), and M' from the termwise derivative (nu/x) S + S' (i_n weighted
by (2n+nu)/x, l_n by (2n+nu+1)/x); calm_view gives calM = calM_nu(0) S, with the
ratio calM_nu(0) = Gamma(nu+1/2)/Gamma(nu+1) of calm_at_zero, which also serves
calM at x = 0. The Fox-Wright route's 1Psi1 series of calM at z = -x is
calM_nu(0) S term by term (even terms calM_nu(0) i_n, odd ones -calM_nu(0) l_n):
it recodes this Taylor series, not an independent representation.

The sum cancels: I_nu grows like e^x while M_nu decays algebraically (or
exponentially at nu = +-1/2), so its condition number is ~ 2 I_nu(x) / |M_nu(x)|.
The float64 pass measures it, and struve_m_float certifies a sum only where that
gives 1e-12 relative error. merged_series re-runs the sum elsewhere on
arbitrary-precision floats sized from the measured condition, and refuses
(CancellationError) beyond ~80 working digits; the automatic router asks for it
only where quadrature cannot serve. Those passes are mpmath's only use, so mpmath
is imported at the first one: importing the package loads no mpmath, and the
first escalation in a process also pays the import (21-35 ms on a loaded 2-vCPU
machine, numpy loaded). m_from_calm and m_prime_from_calm turn the calM of the
other routes (quadrature, Fox-Wright) into M and M'.

The array forms serve the sweep memo's bulk reads and keep every bit of the
scalar functions: struve_m_float_points, one float64 pass over many points
(value and bar arrays, NaN where struve_m_float gives None), and the views'
and conversions' *_points forms, NaN at the points where the scalar function
takes another branch or raises, which the caller leaves to it.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SERIES_DEFAULTS, EvalPoint, FuncValue, Method, SeriesConfig
from .errors import CancellationError, DomainError, NonConvergenceError
from .gammafuncs import (EPS, LN2, LOG_MAX, SQRT_PI, TINY, exp_points, exp_rounded,
                         log_gamma, log_half, per_value, power_gamma, power_gamma_points)

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


def calm_at_zero(nu: float) -> FuncValue:
    """calM_nu(0) = gamma(nu+1/2)/gamma(nu+1), nu > -1/2, formed in log space: calM at
    x = 0 and the factor of calm_view. Log-gamma rounding dominates: mpmath scans over
    nu in (-1/2, 1e6] reached 2.5 (|lgamma(nu+1/2)| + |lgamma(nu+1)|) + 6.4 eps relative
    (1.3 (|lgamma(nu+1/2)| + |lgamma(nu+1)|) eps past nu = 10), and the bar reports
    2.5 (|lgamma(nu+1/2)| + |lgamma(nu+1)| + 8) eps."""
    if nu <= -0.5:
        raise DomainError("the normalized form requires nu > -1/2")
    lg_a, lg_b = log_gamma(nu + 0.5), log_gamma(nu + 1.0)
    value = math.exp(lg_a - lg_b)
    return FuncValue(value, 2.5 * EPS * (abs(lg_a) + abs(lg_b) + 8.0) * value,
                     Method.CLOSED_FORM)


def _merged_float(p: EvalPoint, cfg: SeriesConfig,
                  order: int = 0) -> tuple[FuncValue | None, float, float]:
    """One float64 pass over S (order 0) or over (nu/x) S + S' (order 1: i_n weighted
    by (2n+nu)/x, l_n by (2n+nu+1)/x, and the magnitude sum and tail bound taken over
    the weighted terms), terms in increasing powers of x: +i_0, -l_0, +i_1, ...
    Returns (the sum with its error bar, or None where the bar exceeds 1e-12
    relative; the magnitude sum; the scale the bar is relative to). nu > -1, x >= 0."""
    nu, x = p.nu, p.x
    if nu <= -1.0:
        raise DomainError("struve_m_series requires nu > -1 (I-series domain)")
    if x < 0.0 or order and x == 0.0:
        raise DomainError(f"struve_m_series requires x {'>' if order else '>='} 0")
    q = 0.25 * x * x
    lg1, lg2 = log_gamma(nu + 1.0), log_gamma(nu + 1.5)
    i_term, l_term = 1.0, x * math.exp(lg1 - lg2) / SQRT_PI
    # every l_n carries l_0's rounding: the two log-gammas', exp's and the products'
    lead = (abs(lg1) + abs(lg2) + 2.0) * EPS
    # term n weighs a n + b: 1 for S, its power of x over x for (nu/x) S + S'
    a, b_i, b_l = (2.0 / x, nu / x, (nu + 1.0) / x) if order else (0.0, 1.0, 1.0)
    wi, wl = b_i * i_term, b_l * l_term
    rel_tol = cfg.rel_tol
    total = carry = smax = lsum = 0.0
    for n in range(cfg.max_terms):
        y = wi - carry  # compensated, as in _positive_series
        t = total + y
        carry = (t - total) - y
        y = -wl - carry
        total = t + y
        carry = (total - t) - y
        smax += (wi if wi >= 0.0 else -wi) + wl
        lsum += wl
        if smax > 1e307:
            raise CancellationError(f"M series at (nu={nu:g}, x={x:g}) overflows float64; "
                                    "use the quadrature route")
        k, s = n + 1.0, n + nu  # exact, and each s + c rounds as n + nu + c does
        i_term *= q / (k * (s + 1.0))
        l_term *= q / ((k + 0.5) * (s + 1.5))
        w = a * k + b_i
        wi, wl = w * i_term, (a * k + b_l) * l_term
        # stop once both next terms are negligible (or 0, with an underflowed bound) and
        # the weighted term ratio, falling from here on, is below 1/2 (tail < twice the next)
        if wi <= rel_tol * (total if total >= 0.0 else -total) >= wl and q / (
                (k + 1.0) * (s + 2.0)) * ((w + a) / w) < 0.5:
            err = 2.0 * (wi + wl) + 2.0 * k * EPS * smax + lead * lsum
            scale = max(abs(total), smax * 1e-18)
            if err > 1e-12 * scale:
                return None, smax, scale
            return FuncValue(total, err, Method.SERIES), smax, scale
    raise NonConvergenceError(
        f"merged series for (nu={nu:g}, x={x:g}) did not settle in {cfg.max_terms} terms")


def _merged_mp(p: EvalPoint, cfg: SeriesConfig, digits: int) -> tuple[float, float]:
    """Escalated-precision pass over S. Returns (value, rel_trunc)."""
    import mpmath as mp  # here, not at module level: see the module docstring

    with mp.workdps(digits):
        nu = mp.mpf(p.nu)
        x = mp.mpf(p.x)
        q = (x / 2) ** 2
        i_term = mp.mpf(1)
        l_term = x * mp.gamma(nu + 1) / (mp.sqrt(mp.pi) * mp.gamma(nu + mp.mpf(1.5)))
        total = mp.mpf(0)
        for n in range(cfg.max_terms):
            total += i_term - l_term
            i_term *= q / ((n + 1) * (n + nu + 1))
            l_term *= q / ((n + mp.mpf(1.5)) * (n + nu + mp.mpf(1.5)))
            nxt = max(i_term, l_term)
            if total and nxt < cfg.rel_tol * abs(total) and q / ((n + 2) * (n + nu + 2)) < 0.5:
                return float(total), float(2 * nxt / abs(total))
        raise NonConvergenceError(
            f"merged series for (nu={p.nu:g}, x={p.x:g}) did not settle in {cfg.max_terms} terms")


def struve_m_float(p: EvalPoint, cfg: SeriesConfig = SERIES_DEFAULTS,
                   order: int = 0) -> FuncValue | None:
    """One float64 pass of the merged series in normalized form: S_nu(x) (order 0) or
    (nu/x) S + S' (order 1), which m_view turns into M_nu(x) and M_nu'(x) and
    calm_view S into calM_nu(x). The sum where its measured condition certifies
    1e-12 relative error; None elsewhere, and where the pass does not settle or
    overflows. nu > -1, x >= 0 (x > 0 for order 1)."""
    try:
        return _merged_float(p, cfg, order)[0]
    except (CancellationError, NonConvergenceError):
        return None


def struve_m_float_points(nu, x, cfg: SeriesConfig = SERIES_DEFAULTS,
                          order: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """struve_m_float at every (nu[i], x[i]), nu > -1 and x > 0, from one float64 pass
    over all the points: its value and bar arrays, NaN where it gives None (the pass
    does not certify, overflows or runs out of terms). _merged_float's operations run
    per point, in its order, on arrays (numpy's +, -, *, / and abs round as Python's),
    with the log-gammas per distinct order and the exp per point from math, so every
    value and bar is struve_m_float's bit for bit. A point is read as it stops."""
    nu, x = np.asarray(nu, float), np.asarray(x, float)
    value, abs_err = np.full((2, nu.size), math.nan)
    lg1, lg2 = per_value(log_gamma, nu + 1.0), per_value(log_gamma, nu + 1.5)
    lead = (np.abs(lg1) + np.abs(lg2) + 2.0) * EPS
    with np.errstate(all="ignore"):  # Python's float operations do not warn
        q = 0.25 * x * x
        i_term, l_term = np.ones(nu.size), x * exp_points(lg1 - lg2) / SQRT_PI
        a, b_i, b_l = (2.0 / x, nu / x, (nu + 1.0) / x) if order else (0.0, 1.0, 1.0)
        wi, wl = b_i * i_term, b_l * l_term
        total = carry = smax = lsum = np.zeros(nu.size)
        open_ = np.ones(nu.size, bool)
        for n in range(cfg.max_terms):
            y = wi - carry  # compensated, as in _merged_float
            t = total + y
            carry = (t - total) - y
            y = -wl - carry
            total = t + y
            carry = (total - t) - y
            smax = smax + (np.abs(wi) + wl)
            lsum = lsum + wl
            i_term = i_term * (q / ((n + 1.0) * (n + nu + 1.0)))
            l_term = l_term * (q / ((n + 1.5) * (n + nu + 1.5)))
            w = a * (n + 1) + b_i
            wi, wl = w * i_term, (a * (n + 1) + b_l) * l_term
            bound = cfg.rel_tol * np.abs(total)
            over = open_ & (smax > 1e307)
            stop = open_ & ~over & (wi <= bound) & (bound >= wl) & (
                q / ((n + 2.0) * (n + nu + 2.0)) * ((w + a) / w) < 0.5)
            if stop.any():
                err = 2.0 * (wi + wl) + 2 * (n + 1) * EPS * smax + lead * lsum
                ok = stop & ~(err > 1e-12 * np.maximum(np.abs(total), smax * 1e-18))
                value[ok], abs_err[ok] = total[ok], err[ok]
            open_ &= ~(stop | over)
            if not open_.any():
                break
    return value, abs_err


def merged_series(p: EvalPoint, cfg: SeriesConfig = SERIES_DEFAULTS) -> FuncValue:
    """S_nu(x) by the merged series: the float64 pass where its measured condition
    certifies it, else escalated internal precision; nu > -1, x >= 0. CancellationError
    where that would need more than 80 working digits (use the quadrature route there).
    The first escalation in a process imports mpmath."""
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
    return FuncValue(mp_value, abs(mp_value) * max(rel_trunc, 1e-14) + noise, Method.SERIES)


def m_view(p: EvalPoint, s: FuncValue) -> FuncValue:
    """M_nu(x) = -(x/2)^nu S / gamma(nu+1) from the sum s of S, or M_nu'(x) from that of
    (nu/x) S + S', as m_from_calm forms M: the factor's rounding (at least 2.5 eps, which
    covers the product's) and the smallest subnormal join s's bar, so M may underflow
    to -0.0. At x = 0, M's limit. CancellationError where the factor overflows float64;
    inf where the product does (M' at small order and tiny x)."""
    if p.x == 0.0:
        return FuncValue(0.0 if p.nu > 0.0 else -1.0 if p.nu == 0.0 else -math.inf, 0.0,
                         s.method)
    factor, factor_err = power_gamma(p.nu, p.x, p.nu + 1.0)
    return FuncValue(-(factor * s.value),
                     factor * s.abs_err + factor_err * abs(s.value) + TINY, s.method)


def calm_view(p: EvalPoint, s: FuncValue) -> FuncValue:
    """calM_nu(x) = calM_nu(0) S from the sum s of S, nu > -1/2: the bar charges s's bar
    through the ratio and the ratio's (calm_at_zero's, at least 20 eps relative), which
    covers the product's rounding."""
    ratio = calm_at_zero(p.nu)
    return FuncValue(ratio.value * s.value,
                     ratio.value * s.abs_err + ratio.abs_err * abs(s.value), s.method)


def struve_m_series(p: EvalPoint, cfg: SeriesConfig = SERIES_DEFAULTS) -> FuncValue:
    """Modified Struve function of the second kind M_nu(x) = L_nu(x) - I_nu(x): m_view
    of merged_series. nu > -1, x >= 0; CancellationError where merged_series refuses
    or M overflows."""
    return m_view(p, merged_series(p, cfg))


def _check_normalized(p: EvalPoint) -> None:
    """DomainError off nu > -1/2, x > 0, where calM converts to M."""
    if p.nu <= -0.5:
        raise DomainError("the normalized form requires nu > -1/2")
    if p.x <= 0.0:
        raise DomainError("the normalized-form factor requires x > 0")


def _finite(value: np.ndarray, abs_err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """value and abs_err, NaN at the points where either is not finite."""
    bad = ~(np.isfinite(value) & np.isfinite(abs_err))
    return np.where(bad, math.nan, value), np.where(bad, math.nan, abs_err)


def _m_points(nu, x, y, y_err, a) -> tuple[np.ndarray, np.ndarray]:
    """-(x/2)^nu y / gamma(a) and its bar at every point of the arrays, x > 0, bit for bit
    as m_view (a = nu + 1) and m_from_calm (a = nu + 1/2) form them from power_gamma;
    NaN where either is not finite or the factor may overflow."""
    with np.errstate(all="ignore"):
        factor, factor_err = power_gamma_points(nu, x, a)
        return _finite(-(factor * y), factor * y_err + factor_err * np.abs(y) + TINY)


def m_view_points(nu, x, s, s_err) -> tuple[np.ndarray, np.ndarray]:
    """m_view at every point of the arrays from the sums s and their bars s_err;
    NaN where m_view raises or overflows."""
    return _m_points(nu, x, s, s_err, nu + 1.0)


def calm_view_points(nu, x, s, s_err) -> tuple[np.ndarray, np.ndarray]:
    """calm_view at every point of the arrays, nu > -1/2, from the sums s and their bars
    s_err: its value and bar bit for bit (calm_at_zero per distinct order)."""
    ratio = per_value(lambda v: calm_at_zero(v).value, nu)
    ratio_err = per_value(lambda v: calm_at_zero(v).abs_err, nu)
    return ratio * s, ratio * s_err + ratio_err * np.abs(s)


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
    """M_nu(x) = -(x/2)^nu calM_nu(x) / gamma(nu+1/2) from calM_nu(x).
    nu > -1/2, x > 0; CancellationError where M overflows float64."""
    _check_normalized(p)
    value, err = _scaled(p, c.value, c.abs_err)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise CancellationError(f"M at (nu={p.nu:g}, x={p.x:g}) overflows float64")
    return FuncValue(-value, err, c.method)


def m_from_calm_points(nu, x, c, c_err) -> tuple[np.ndarray, np.ndarray]:
    """m_from_calm at every point of the arrays, nu > -1/2 and x > 0, from calM's values
    c and bars c_err; NaN where m_from_calm takes its log-space branch or raises."""
    return _m_points(nu, x, c, c_err, nu + 0.5)


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
