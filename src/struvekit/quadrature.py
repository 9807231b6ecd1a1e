"""Tanh-sinh quadrature route for the normalized form and its derivatives.

For nu > -1/2 the normalized form has the integral representation

    calM_nu(x) = (2/sqrt(pi)) * int_0^1 (1-t^2)^(nu-1/2) e^(-xt) dt

and differentiating under the integral sign gives every derivative in x
(kernel t^n, sign (-1)^n) and in nu (kernel log(1/(1-t^2))^m, sign
(-1)^m). The integrand is singular at t = 1 whenever nu < 1/2; the
double-exponential substitution t = (1 + tanh((pi/2) sinh u)) / 2 absorbs
any integrable endpoint power singularity.

Implementation notes. Node tables store t together with log(1 - t^2) and
the log of the weight, computed from the substitution analytically, so the
integrand column is a single vectorized exp() of

    (nu - 1/2) log(1-t^2) - x t + log w

and stays meaningful far past the point where 1 - t lies below the
smallest positive float. One column per level serves every derivative
order through the level's kernel rows t^n or log(1/(1-t^2))^m, each
order with its own error estimate and stopping level. Refinement halves
the step; the error estimate is twice the difference between the last
two refinements plus an analytic bound on the truncated node tail, so a
near-boundary nu whose endpoint mass the fixed node range cannot see
fails loudly instead of silently.
The requested abs_tol is met whenever double precision can represent it;
when the result is so large that abs_tol sits below its roundoff floor,
refinement stops at machine precision and the reported abs_err stays
honest rather than claiming the impossible.

Node/weight tables and kernel rows per refinement level are computed
once and shared immutably (safe under concurrent readers).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable

import numpy as np

from .core import QUAD_DEFAULTS, EvalPoint, FuncValue, Method, QuadConfig
from .errors import DomainError, NonConvergenceError
from .gammafuncs import log_gamma

_EPS = 2.220446049250313e-16
_TINY = 5e-324  # smallest subnormal: the rounding floor of an underflowing value
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

#: Half-width of the node range in the double-exponential variable u.
#: Contributions decay like exp(-(nu+1/2) pi sinh u), so this range covers
#: nu + 1/2 >= ~1e-3 with margin; the analytic tail bound certifies it.
U_MAX = 10.5

#: log of the distance from t = 1 to the outermost node.
_LOG_DELTA = math.log(2.0) - math.pi * math.sinh(U_MAX)

_MAX_DX_ORDER = 10
_MAX_DNU_ORDER = 6


@functools.lru_cache(maxsize=16)
def _level_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, log(1-t^2), log weight) for the nodes new at this level.

    Level 0 holds all integer multiples of h = 1; level L >= 1 holds the
    odd multiples of h = 2^-L, so the union over levels 0..L is the full
    step-2^-L grid.
    """
    if level == 0:
        h = 1.0
        k = np.arange(-int(U_MAX), int(U_MAX) + 1, dtype=np.float64)
    else:
        h = 0.5 ** level
        kmax = int(U_MAX / h)
        k = np.arange(-kmax, kmax + 1, dtype=np.float64)
        k = k[np.abs(k) % 2 == 1]
    u = k * h
    absu = np.abs(u)
    a = 0.5 * math.pi * np.sinh(absu)
    e2a = np.exp(-2.0 * a)
    half_small = e2a / (1.0 + e2a)          # min(t, 1-t), exact near ends
    log_half_small = -2.0 * a - np.log1p(e2a)

    t = np.where(u >= 0.0, 1.0 - half_small, half_small)
    log_omt = np.where(u >= 0.0, log_half_small, np.log1p(-half_small))
    log_opt = np.log1p(t)
    lg1mt2 = log_omt + log_opt

    log_cosh_u = absu + np.log1p(np.exp(-2.0 * absu)) - math.log(2.0)
    log_cosh_a = a + np.log1p(e2a) - math.log(2.0)
    lgw = math.log(0.25 * math.pi) + log_cosh_u - 2.0 * log_cosh_a

    for arr in (t, lg1mt2, lgw):
        arr.flags.writeable = False
    return t, lg1mt2, lgw


def _log_tail_bound(power: float, log_order: int) -> float:
    """log of a bound on the integral mass beyond the outermost node.

    Bounds int_0^delta s^power log(1/s)^log_order ds (s = 1 - t), with the
    (1+t)^power factor bounded by max(1, 2^power) and e^(-xt) by 1.
    """
    p1 = power + 1.0
    log_tail = p1 * _LOG_DELTA - math.log(p1) + math.log(2.0)
    if log_order:
        log_tail += log_order * math.log(-_LOG_DELTA)
    log_tail += max(power, 0.0) * math.log(2.0)
    return log_tail


@functools.lru_cache(maxsize=64)
def _level_kernel(level: int, ns: tuple[int, ...],
                  ms: tuple[int, ...]) -> np.ndarray | None:
    """Rows t^n log(1/(1-t^2))^m over the nodes new at this level, one per
    (n, m) of ns, ms; None for a lone row of ones (n = m = 0), so that
    plain calM, the most frequent call, pays no multiply per level."""
    if ns == ms == (0,):
        return None
    t, lg1mt2, _ = _level_nodes(level)
    kernel = np.ones((len(ns), len(t)))
    with np.errstate(under="ignore"):
        for row, n, m in zip(kernel, ns, ms):
            if n:
                row *= t ** n
            if m:
                row *= (-lg1mt2) ** m
    kernel.flags.writeable = False
    return kernel


def _refine(p: EvalPoint, ns: tuple[int, ...], ms: tuple[int, ...],
            abs_tols: tuple[float, ...], max_level: int, name: str) -> list[FuncValue]:
    """Dyadic tanh-sinh refinement of every order pair (n, m) of ns, ms:
    (-1)^(n+m) (2/sqrt(pi)) int_0^1 (1-t^2)^(nu-1/2) t^n log(1/(1-t^2))^m e^(-xt) dt.

    One exp() column per level serves all orders through the level's
    kernel rows. Each order keeps its own tail bound and error estimate and
    freezes at the first level where its scaled err meets its abs_tol, or
    where the improvable part (refinement difference plus truncated tail)
    reaches the double-precision noise floor of its sum: below that floor
    abs_tol is unattainable and halving would only burn nodes, so the
    honest abs_err can then exceed abs_tol. NonConvergenceError names the
    first order still open at max_level: genuinely unresolved endpoint
    mass, not a big integrand.
    """
    pw = p.nu - 0.5
    tails = [math.exp(_log_tail_bound(pw, m)) for m in ms]
    frozen: list = [None] * len(ns)
    errs = [math.inf] * len(ns)
    with np.errstate(under="ignore"):
        for level in range(max_level + 1):
            t, lg1mt2, lgw = _level_nodes(level)
            col = np.exp(pw * lg1mt2 - p.x * t + lgw)
            kernel = _level_kernel(level, ns, ms)
            cols = ([float(col.sum())] if kernel is None
                    else (kernel * col).sum(axis=1).tolist())
            if level == 0:
                sums = cols
                continue
            h = 0.5 ** level
            for i, c in enumerate(cols):
                s = 0.5 * sums[i] + h * c
                improvable = 2.0 * abs(s - sums[i]) + tails[i]
                sums[i] = s
                if frozen[i] is None:
                    errs[i] = err = improvable + 32.0 * _EPS * abs(s)
                    if level >= 2 and (_TWO_OVER_SQRT_PI * err <= abs_tols[i]
                                       or improvable <= 8.0 * _EPS * abs(s)):
                        frozen[i] = (s, err)
            if None not in frozen:
                return [FuncValue((-1.0 if (n + m) % 2 else 1.0) * _TWO_OVER_SQRT_PI * s,
                                  _TWO_OVER_SQRT_PI * err, Method.QUADRATURE)
                        for n, m, (s, err) in zip(ns, ms, frozen)]
    i = frozen.index(None)
    tail = _TWO_OVER_SQRT_PI * tails[i]
    raise NonConvergenceError(
        f"{name}(nu={p.nu:g}, x={p.x:g}), order {ns[i] or ms[i]}: tanh-sinh "
        f"refinement stalled above abs_tol={abs_tols[i]:g} (last error "
        f"estimate {_TWO_OVER_SQRT_PI * errs[i]:.3g})" + (
            "; the endpoint mass lies beyond the node range for this order "
            f"(tail bound {tail:.3g})" if tail > abs_tols[i] else ""))


def _check_point(p: EvalPoint) -> None:
    if p.nu <= -0.5:
        raise DomainError("the integral representation requires nu > -1/2")
    if p.x < 0.0:
        raise DomainError("quadrature route requires x >= 0")


def calm_dx_orders(p: EvalPoint, ns: Iterable[int],
                   cfg: QuadConfig = QUAD_DEFAULTS) -> list[FuncValue]:
    """x-derivatives of the normalized form for every order in ns, signs
    included, from one refinement pass; each order in [0, 10].

    d^n/dx^n calM_nu(x) = (-1)^n (2/sqrt(pi)) int t^n (1-t^2)^(nu-1/2) e^(-xt) dt.
    Every value and abs_err equals the single-order result bit for bit.
    """
    _check_point(p)
    ns = tuple(ns)
    if not all(0 <= n <= _MAX_DX_ORDER for n in ns):
        raise DomainError(f"x-derivative order must lie in [0, {_MAX_DX_ORDER}]")
    return _refine(p, ns, (0,) * len(ns), (cfg.abs_tol,) * len(ns), cfg.max_level,
                   "calm_dx")


def calm_dnu_orders(p: EvalPoint, ms: Iterable[int],
                    cfg: QuadConfig = QUAD_DEFAULTS) -> list[FuncValue]:
    """nu-derivatives of the normalized form for every order in ms, signs
    included, from one refinement pass; each order in [0, 6].

    The kernel log(1/(1-t^2))^m sharpens the endpoint singularity, so for
    nu < 1/2 and m >= 2 the convergence threshold is relaxed to
    10 * abs_tol (the reported abs_err stays honest). Near nu = -1/2 a high
    order's endpoint mass can lie past the node range, so that no refinement
    converges; the error then says so and quotes the tail bound (4e6 at
    nu = -0.49898, x = 0.179, m = 6).
    """
    _check_point(p)
    ms = tuple(ms)
    if not all(0 <= m <= _MAX_DNU_ORDER for m in ms):
        raise DomainError(f"nu-derivative order must lie in [0, {_MAX_DNU_ORDER}]")
    tols = tuple(10.0 * cfg.abs_tol if p.nu < 0.5 and m >= 2 else cfg.abs_tol for m in ms)
    return _refine(p, (0,) * len(ms), ms, tols, cfg.max_level, "calm_dnu")


def calm(p: EvalPoint, cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """Normalized form calM_nu(x) by tanh-sinh quadrature. nu > -1/2, x >= 0.

    At x = 0 this reproduces the beta-function value
    gamma(nu+1/2)/gamma(nu+1), which serves as a built-in self-test of the
    node tables (exercised by the test suite).
    """
    return calm_dx_orders(p, (0,), cfg)[0]


def calm_dx(p: EvalPoint, n: int, cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """n-th x-derivative of the normalized form, sign included; n in [0, 10]."""
    return calm_dx_orders(p, (n,), cfg)[0]


def calm_dnu(p: EvalPoint, m: int, cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """m-th nu-derivative of the normalized form, sign included; m in [0, 6]."""
    return calm_dnu_orders(p, (m,), cfg)[0]


def _m_scale(p: EvalPoint) -> tuple[float, float]:
    """(x/2)^nu / gamma(nu+1/2) = exp(L), the normalized-form -> M_nu scale
    factor, and its rounding: about |L| eps relative, plus a subnormal's."""
    log_scale = p.nu * math.log(0.5 * p.x) - log_gamma(p.nu + 0.5)
    factor = math.exp(log_scale)
    return factor, (1.0 + abs(log_scale)) * _EPS * factor + _TINY


def m_from_quadrature(p: EvalPoint, cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """M_nu(x) = -(x/2)^nu calM_nu(x) / gamma(nu+1/2). nu > -1/2, x > 0."""
    _check_point(p)
    if p.x <= 0.0:
        raise DomainError("m_from_quadrature requires x > 0")
    c = calm(p, cfg)
    factor, factor_err = _m_scale(p)
    value = -factor * c.value
    return FuncValue(value, factor * c.abs_err + factor_err * abs(c.value) + _TINY,
                     Method.QUADRATURE)


def m_deriv(p: EvalPoint, cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """First x-derivative of M_nu, by the product rule on the scaled form.

    M_nu'(x) = -(x/2)^nu [ (nu/x) calM_nu(x) + calM_nu'(x) ] / gamma(nu+1/2),
    with calM_nu' from differentiated quadrature. nu > -1/2, x > 0.
    """
    _check_point(p)
    if p.x <= 0.0:
        raise DomainError("m_deriv requires x > 0")
    c, c1 = calm_dx_orders(p, (0, 1), cfg)
    factor, factor_err = _m_scale(p)
    inner = (p.nu / p.x) * c.value + c1.value
    err = factor * (abs(p.nu / p.x) * c.abs_err + c1.abs_err) + factor_err * abs(inner) + _TINY
    return FuncValue(-factor * inner, err, Method.QUADRATURE)


def _axis_vectors(level_cap: int, pw: float, x: float,
                  hyperbolic) -> tuple[np.ndarray, np.ndarray]:
    """Full node set through level_cap: (t, weighted integrand values).

    The union of levels 0..level_cap is the uniform grid with step
    2^-level_cap, so every node carries that same trapezoid weight (not
    the step of the level that introduced it).
    """
    ts = []
    vals = []
    for level in range(level_cap + 1):
        t, lg1mt2, lgw = _level_nodes(level)
        with np.errstate(under="ignore"):
            v = np.exp(pw * lg1mt2 + lgw) * hyperbolic(x * t)
        ts.append(t)
        vals.append(v)
    h = 0.5 ** level_cap
    return np.concatenate(ts), h * np.concatenate(vals)


def _tensor_sum(t_i: np.ndarray, a: np.ndarray, t_j: np.ndarray,
                b: np.ndarray) -> float:
    """sum_ij a_i b_j (t_i^2 - t_j^2)^2, chunked; every summand is >= 0."""
    ti2 = t_i * t_i
    tj2 = t_j * t_j
    total = 0.0
    chunk = max(1, 2 ** 22 // max(len(tj2), 1))
    for lo in range(0, len(ti2), chunk):
        diff = ti2[lo:lo + chunk, None] - tj2[None, :]
        total += float(a[lo:lo + chunk] @ (diff * diff) @ b)
    return total


def turanian_il_double_integral(p: EvalPoint, cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """Positive double integral associated with the I/L cross terms of the
    Turan-type quadratic form, for nu > 1/2, x > 0:

        D = (4 (x/2)^(2 nu) / (pi gamma(nu+1/2)^2)) *
            int int (1-t^2)^(nu-3/2) (1-s^2)^(nu-3/2) (t^2-s^2)^2
                    cosh(xt) sinh(xs) dt ds.

    D > 0 by construction (every summand is nonnegative). Note that D is
    NOT equal to the signed cross term
    I_{nu+1} L_{nu-1} + I_{nu-1} L_{nu+1} - 2 I_nu L_nu; carrying the exact
    gamma-function ratio gamma(nu+3/2) gamma(nu-1/2) / gamma(nu+1/2)^2
    = (nu+1/2)/(nu-1/2) through the same rearrangement gives the true
    relation

        cross term = ((nu - 1/2) D - 2 I_nu(x) L_nu(x)) / (nu + 1/2),

    which the test suite verifies against independent series evaluation
    (the cross term itself is negative on the sampled domain).

    Evaluated as a tensor product of the 1-D rule without assuming any
    symmetry of the kernel; every summand is nonnegative, so the double
    sum is cancellation-free. cfg.abs_tol acts relative to the running
    estimate because the magnitude spans many orders. Cost is quadratic in
    the node count, so refinement rarely needs to pass level 7.
    """
    if p.nu <= 0.5:
        raise DomainError("the cross-Turanian double integral requires nu > 1/2")
    if p.x <= 0.0:
        raise DomainError("the cross-Turanian double integral requires x > 0")
    pw = p.nu - 1.5
    log_pref = (math.log(4.0) - math.log(math.pi)
                + 2.0 * p.nu * math.log(0.5 * p.x) - 2.0 * log_gamma(p.nu + 0.5))
    pref = math.exp(log_pref)

    tail_axis = math.exp(_log_tail_bound(pw, 0))
    prev = None
    for level in range(2, cfg.max_level + 1):
        t_i, a = _axis_vectors(level, pw, p.x, np.cosh)
        t_j, b = _axis_vectors(level, pw, p.x, np.sinh)
        d = _tensor_sum(t_i, a, t_j, b)
        # (t^2-s^2)^2 <= 1 on the unit square, so each axis tail is bounded
        # by the 1-D tail times the companion axis mass.
        tail = tail_axis * (math.cosh(p.x) * abs(b.sum()) + math.sinh(p.x) * abs(a.sum()))
        if prev is not None:
            err = 2.0 * abs(d - prev) + tail + 32.0 * _EPS * abs(d)
            if err <= cfg.abs_tol * max(abs(d), 1e-300):
                return FuncValue(pref * d, pref * err, Method.QUADRATURE)
        prev = d
    raise NonConvergenceError(
        f"cross-Turanian refinement stalled at (nu={p.nu:g}, x={p.x:g})")
