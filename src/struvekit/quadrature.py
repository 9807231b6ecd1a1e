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

The node tables serve every point and the exp() argument is per point, so
calm_dx_points and calm_dnu_points refine points at any mix of (nu, x) with
one exp() matrix per level, bit for bit _refine at each point, each with its
own tails, tolerances, error estimates and stopping level; the sweep memo
batches its quadrature misses through them. _refine stays for lone points
(the single-call route chain), where array bookkeeping would cost more.

The cross-Turanian double integral uses these nodes on both axes; its
kernel (t^2 - s^2)^2 expands into three 1-D moments per axis, so a level
costs one column over its new nodes, not a product over every node pair.

Node/weight tables and kernel rows per refinement level are computed
once and shared immutably (safe under concurrent readers).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable

import numpy as np

from .core import QUAD_DEFAULTS, EvalPoint, FuncValue, Method, QuadConfig
from .errors import CancellationError, DomainError, NonConvergenceError
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

#: Most points x orders one batch refines: its exp() matrix holds at most this
#: many rows of a level's nodes (44 MB at level 10), whatever the grid.
_BATCH_CELLS = 512


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
                return _values(ns, ms, *zip(*frozen))
    i = frozen.index(None)
    raise _stall(name, p.nu, p.x, ns[i] or ms[i], abs_tols[i], errs[i], tails[i])


def _values(ns: tuple[int, ...], ms: tuple[int, ...], sums, errs) -> list[FuncValue]:
    """The signed, scaled FuncValues of the frozen sums and errors per order."""
    return [FuncValue((-1.0 if (n + m) % 2 else 1.0) * _TWO_OVER_SQRT_PI * s,
                      _TWO_OVER_SQRT_PI * err, Method.QUADRATURE)
            for n, m, s, err in zip(ns, ms, sums, errs)]


def _stall(name: str, nu: float, x: float, order: int, abs_tol: float,
           err: float, tail: float) -> NonConvergenceError:
    """The error of a refinement whose first open order stalled at max_level,
    naming the node range when the order's tail bound alone exceeds abs_tol."""
    tail = _TWO_OVER_SQRT_PI * tail
    return NonConvergenceError(
        f"{name}(nu={nu:g}, x={x:g}), order {order}: tanh-sinh "
        f"refinement stalled above abs_tol={abs_tol:g} (last error "
        f"estimate {_TWO_OVER_SQRT_PI * err:.3g})" + (
            "; the endpoint mass lies beyond the node range for this order "
            f"(tail bound {tail:.3g})" if tail > abs_tol else ""))


def _refine_points(points: list[EvalPoint], ns: tuple[int, ...], ms: tuple[int, ...],
                   abs_tols: list[tuple[float, ...]], max_level: int,
                   name: str) -> list[list[FuncValue] | NonConvergenceError]:
    """_refine at every point, each at its own (nu, x) and abs_tols row: per point
    its FuncValues or its stall error, in batches of at most _BATCH_CELLS points x
    orders.

    Per level one exp() matrix, points x nodes, times the kernel rows, summed
    over the last axis: numpy's pairwise row sum, as in _refine, so the bits
    match (a matmul would reorder the sum). Points leave once all orders froze.
    """
    step = max(1, _BATCH_CELLS // max(len(ns), 1))
    if len(points) > step:
        return [got for i in range(0, len(points), step) for got in _refine_points(
            points[i:i + step], ns, ms, abs_tols[i:i + step], max_level, name)]
    if not points:
        return []
    pw = [p.nu - 0.5 for p in points]
    tail_rows = {w: [math.exp(_log_tail_bound(w, m)) for m in ms] for w in set(pw)}
    tails = np.array([tail_rows[w] for w in pw])
    abs_tols = np.array(abs_tols)
    pw, x_col = np.array(pw)[:, None], np.array([p.x for p in points])[:, None]
    shape = (len(points), len(ns))
    sums, errs, frozen = np.zeros(shape), np.full(shape, math.inf), np.zeros(shape, bool)
    live = np.arange(len(points))
    with np.errstate(under="ignore"):
        for level in range(max_level + 1):
            t, lg1mt2, lgw = _level_nodes(level)
            col = np.exp(pw[live] * lg1mt2 - x_col[live] * t + lgw)
            kernel = _level_kernel(level, ns, ms)
            cols = (col.sum(axis=1, keepdims=True) if kernel is None
                    else (col[:, None, :] * kernel).sum(axis=2))
            if level == 0:
                sums[live] = cols
                continue
            prev = sums[live]
            s = 0.5 * prev + 0.5 ** level * cols
            improvable = 2.0 * np.abs(s - prev) + tails[live]
            err = improvable + 32.0 * _EPS * np.abs(s)
            open_ = ~frozen[live]
            # a frozen order keeps the sum and error it froze with
            sums[live] = np.where(open_, s, prev)
            errs[live] = np.where(open_, err, errs[live])
            if level >= 2:
                frozen[live] |= open_ & ((_TWO_OVER_SQRT_PI * err <= abs_tols[live])
                                         | (improvable <= 8.0 * _EPS * np.abs(s)))
            live = live[~frozen[live].all(axis=1)]
            if not live.size:
                break
    out = []
    for p, s, err, done, tail, tol in zip(points, sums.tolist(), errs.tolist(), frozen.tolist(),
                                          tails.tolist(), abs_tols.tolist()):
        i = done.index(False) if False in done else None
        out.append(_values(ns, ms, s, err) if i is None else
                   _stall(name, p.nu, p.x, ns[i] or ms[i], tol[i], err[i], tail[i]))
    return out


def _check_point(p: EvalPoint, m_of: str = "") -> EvalPoint:
    """p, or DomainError off the domain; the function of M named m_of needs x > 0."""
    if p.nu <= -0.5:
        raise DomainError("the integral representation requires nu > -1/2")
    if p.x < 0.0:
        raise DomainError("quadrature route requires x >= 0")
    if m_of and p.x == 0.0:
        raise DomainError(f"{m_of} requires x > 0")
    return p


def _dx_args(ns: Iterable[int], cfg: QuadConfig) -> tuple:
    """(ns, ms, abs_tols, max_level, name) of the refinement of x-orders ns."""
    ns = tuple(ns)
    if not all(0 <= n <= _MAX_DX_ORDER for n in ns):
        raise DomainError(f"x-derivative order must lie in [0, {_MAX_DX_ORDER}]")
    return ns, (0,) * len(ns), (cfg.abs_tol,) * len(ns), cfg.max_level, "calm_dx"


def _dnu_args(nu: float, ms: Iterable[int], cfg: QuadConfig) -> tuple:
    """(ns, ms, abs_tols, max_level, name) of the refinement of nu-orders ms."""
    ms = tuple(ms)
    if not all(0 <= m <= _MAX_DNU_ORDER for m in ms):
        raise DomainError(f"nu-derivative order must lie in [0, {_MAX_DNU_ORDER}]")
    tols = tuple(10.0 * cfg.abs_tol if nu < 0.5 and m >= 2 else cfg.abs_tol for m in ms)
    return (0,) * len(ms), ms, tols, cfg.max_level, "calm_dnu"


def calm_dx_orders(p: EvalPoint, ns: Iterable[int],
                   cfg: QuadConfig = QUAD_DEFAULTS) -> list[FuncValue]:
    """x-derivatives of the normalized form for every order in ns, signs
    included, from one refinement pass; each order in [0, 10].

    d^n/dx^n calM_nu(x) = (-1)^n (2/sqrt(pi)) int t^n (1-t^2)^(nu-1/2) e^(-xt) dt.
    Every value and abs_err equals the single-order result bit for bit.
    """
    return _refine(_check_point(p), *_dx_args(ns, cfg))


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
    return _refine(_check_point(p), *_dnu_args(p.nu, ms, cfg))


def calm_dx_points(points: Iterable[EvalPoint], ns: Iterable[int],
                   cfg: QuadConfig = QUAD_DEFAULTS) -> list[list[FuncValue] | NonConvergenceError]:
    """calm_dx_orders at every point, each at its own (nu, x), from one
    refinement of the batch: per point its FuncValues, bit for bit, or the
    NonConvergenceError calm_dx_orders raises there, returned; DomainError for
    any point off the domain. One point is cheaper through calm_dx_orders."""
    points = [_check_point(p) for p in points]
    ns, ms, tols, max_level, name = _dx_args(ns, cfg)
    return _refine_points(points, ns, ms, [tols] * len(points), max_level, name)


def calm_dnu_points(points: Iterable[EvalPoint], ms: Iterable[int],
                    cfg: QuadConfig = QUAD_DEFAULTS
                    ) -> list[list[FuncValue] | NonConvergenceError]:
    """calm_dnu_orders at every point, as calm_dx_points; each point keeps its own
    relaxed threshold for nu < 1/2."""
    points = [_check_point(p) for p in points]
    ns, ms, _, max_level, name = _dnu_args(0.5, ms, cfg)
    tols = {nu: _dnu_args(nu, ms, cfg)[2] for nu in {p.nu for p in points}}
    return _refine_points(points, ns, ms, [tols[p.nu] for p in points], max_level, name)


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
    _check_point(p, "m_from_quadrature")
    return _m_of(p, calm(p, cfg))


def _m_of(p: EvalPoint, c: FuncValue) -> FuncValue:
    """M_nu(x) from the quadrature value c of calM_nu(x)."""
    factor, factor_err = _m_scale(p)
    value = -factor * c.value
    return FuncValue(value, factor * c.abs_err + factor_err * abs(c.value) + _TINY,
                     Method.QUADRATURE)


def m_deriv(p: EvalPoint, cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """First x-derivative of M_nu, by the product rule on the scaled form.

    M_nu'(x) = -(x/2)^nu [ (nu/x) calM_nu(x) + calM_nu'(x) ] / gamma(nu+1/2),
    with calM_nu' from differentiated quadrature. nu > -1/2, x > 0.
    """
    _check_point(p, "m_deriv")
    return _m_prime_of(p, *calm_dx_orders(p, (0, 1), cfg))


def _m_prime_of(p: EvalPoint, c: FuncValue, c1: FuncValue) -> FuncValue:
    """M_nu'(x) from the quadrature values c, c1 of calM_nu(x) and calM_nu'(x)."""
    factor, factor_err = _m_scale(p)
    inner = (p.nu / p.x) * c.value + c1.value
    err = factor * (abs(p.nu / p.x) * c.abs_err + c1.abs_err) + factor_err * abs(inner) + _TINY
    return FuncValue(-factor * inner, err, Method.QUADRATURE)


def _centred_moments(columns: list[tuple[np.ndarray, np.ndarray]],
                     shift: float) -> np.ndarray:
    """Rows (sum w, sum w u, sum w u^2), u = t^2 - shift, of the cosh and sinh
    weights w over columns [(t^2, weights) per level], refined as in _refine."""
    for level, (t2, ab) in enumerate(columns):
        u = t2 - shift
        new = ab @ np.stack((np.ones_like(u), u, u * u), axis=1)
        moments = new if level == 0 else 0.5 * moments + 0.5 ** level * new
    return moments


def turanian_il_double_integral(p: EvalPoint, cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """Positive double integral associated with the I/L cross terms of the
    Turan-type quadratic form, for nu > 1/2, x > 0:

        D = (4 (x/2)^(2 nu) / (pi gamma(nu+1/2)^2)) *
            int int (1-t^2)^(nu-3/2) (1-s^2)^(nu-3/2) (t^2-s^2)^2
                    cosh(xt) sinh(xs) dt ds.

    D > 0 by construction (every summand is nonnegative). D is NOT the
    signed cross term I_{nu+1} L_{nu-1} + I_{nu-1} L_{nu+1} - 2 I_nu L_nu;
    identities.crossterm_double_integral_residual states the true relation.

    The product-rule sum sum_ij a_i b_j (t_i^2 - t_j^2)^2 (a the cosh, b the
    sinh weights) takes linear time from 1-D moments: with u = t^2 - c,
    A0 = sum a, U_k = sum a u^k, B0 = sum b, V_k = sum b u^k, it equals
    A0 V2 - 2 U1 V1 + U2 B0. The centre c is kept at the a-weighted mean of
    t^2 (re-centred whenever U1 V1 grows), so U1 is near zero and the other
    two terms, both nonnegative, carry a cancellation-free sum. cfg.abs_tol
    acts relative to the estimate. CancellationError when D (~ e^(2x))
    overflows float64.
    """
    if p.nu <= 0.5 or p.x <= 0.0:
        raise DomainError("the cross-Turanian double integral requires nu > 1/2, x > 0")
    pw = p.nu - 1.5
    log_power = 2.0 * p.nu * math.log(0.5 * p.x)
    log_gammas = 2.0 * log_gamma(p.nu + 0.5)
    log_pref = math.log(4.0) - math.log(math.pi) + log_power - log_gammas
    pref = math.exp(log_pref) if log_pref < 709.78 else math.inf  # math.exp raises past it
    # exp() turns the absolute rounding of log_pref into relative error: up to
    # ~2.5 eps per unit of its terms' size (log, lgamma, product, two sums)
    pref_err = 2.5 * (1.0 + abs(log_power) + abs(log_gammas)) * _EPS * pref + _TINY

    tail_axis = math.exp(_log_tail_bound(pw, 0))
    columns = []
    shift = prev = 0.0
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        for level in range(cfg.max_level + 1):
            t, lg1mt2, lgw = _level_nodes(level)
            col = np.exp(pw * lg1mt2 + lgw)
            columns.append((t * t, np.stack((col * np.cosh(p.x * t), col * np.sinh(p.x * t)))))
            new = _centred_moments(columns[-1:], shift)
            moments = new if level == 0 else 0.5 * moments + 0.5 ** level * new
            (a0, u1, u2), (b0, v1, v2) = moments.tolist()
            if 4.0 * abs(u1 * v1) > a0 * v2 + u2 * b0:
                # the centre is off the a-weighted mean of t^2: move it there
                shift += u1 / a0
                moments = _centred_moments(columns, shift)
                (a0, u1, u2), (b0, v1, v2) = moments.tolist()
            d = a0 * v2 - 2.0 * u1 * v1 + u2 * b0
            size = a0 * v2 + 2.0 * abs(u1 * v1) + u2 * b0
            if not math.isfinite(size * pref):
                raise CancellationError(
                    f"cross-Turanian double integral at (nu={p.nu:g}, x={p.x:g}) "
                    "overflows float64")
            # (t^2-s^2)^2 <= 1, so each axis tail is at most the 1-D tail times the
            # companion axis mass (tail_axis first: it is 0 where cosh(x) b0 overflows)
            tail = tail_axis * math.cosh(p.x) * abs(b0) + tail_axis * math.sinh(p.x) * abs(a0)
            err = 2.0 * abs(d - prev) + tail + 32.0 * _EPS * size
            if level >= 3 and err <= cfg.abs_tol * max(abs(d), 1e-300):
                return FuncValue(pref * d, pref * err + pref_err * abs(d) + _TINY,
                                 Method.QUADRATURE)
            prev = d
    bound = tail / max(abs(d), 1e-300)
    raise NonConvergenceError(
        f"cross-Turanian refinement stalled at (nu={p.nu:g}, x={p.x:g})" + (
            "; the endpoint mass lies beyond the node range (relative tail bound "
            f"{bound:.3g})" if bound > cfg.abs_tol else ""))
