"""Tanh-sinh quadrature route for the normalized form and its derivatives. The
module computes calM only: its M and M' wrappers, m_from_quadrature and m_deriv,
convert through series.m_from_calm and series.m_prime_from_calm.

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
The tail bound charges e^(-xt) <= e^(-x) on the last stretch [1 - delta, 1]
beyond the outermost node, so that next to nu = -1/2 (where the endpoint mass
is large) refinement converges at larger x.
The requested abs_tol is met whenever double precision can represent it;
when the result is so large that abs_tol sits below its roundoff floor,
refinement stops at machine precision and the reported abs_err stays
honest rather than claiming the impossible.

The node tables serve every point and the exp() argument is per point, so
calm_dx_points and calm_dnu_points refine points at any mix of (nu, x) with
one exp() matrix per level, bit for bit _refine at each point, each with its
own tails, tolerances, error estimates and stopping level. They return arrays,
one row of signed, scaled values and bars per order, NaN at the points that
stall, with those points' errors; the sweep memo batches its quadrature misses
through them. _refine serves lone points (the
single-call route chain, and a batch of one), where a one-point batch's array
bookkeeping would cost several times the refinement. Lone points freeze at level 4, so _refine
takes levels 0-4 in one pass over their joined nodes: one exp(), one kernel
product, then numpy's pairwise sum over each level's slice, which sees the
values of a per-level pass in the same order and so keeps every bit.

The route serves x up to X_MAX, the limit a scan of its error bars against
the integral's asymptotic series set (see X_MAX).

The cross-Turanian double integral uses these nodes on both axes; its
kernel (t^2 - s^2)^2 expands into three 1-D moments per axis in u = t^2 - c,
so a level costs one column over its new nodes, not a product over every node
pair. It stops at level 3 at the earliest (at 4 or 5 on perfbench's
identity_grid), so it too takes levels 0-4 in one pass over their joined nodes:
one exp(), cosh() and sinh(), then one np.add.reduceat for the node sums of
every level of the span. The centre c starts at level 0's weighted mean of t^2;
a later re-centring recomputes each span read so far with one reduction.

Node/weight tables and kernel rows per refinement level are computed
once and shared immutably (safe under concurrent readers).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable

import numpy as np

from . import series
from .core import QUAD_DEFAULTS, EvalPoint, FuncValue, Method, QuadConfig, Values
from .errors import CancellationError, DomainError, NonConvergenceError
from .gammafuncs import (EPS, LN2, LOG_MAX, LOG_SQRT_PI, TINY, TWO_OVER_SQRT_PI,
                         exp_points, exp_rounded, log_gamma, log_half)


#: Half-width of the node range in the double-exponential variable u.
#: Contributions decay like exp(-(nu+1/2) pi sinh u), so this range covers
#: nu + 1/2 >= ~1e-3 with margin; the analytic tail bound certifies it.
U_MAX = 10.5

#: log of the distance from t = 1 to the outermost node.
_LOG_DELTA = math.log(2.0) - math.pi * math.sinh(U_MAX)

#: Largest argument the quadrature route serves. The mass of e^(-xt) sits at t ~ 1/x;
#: once a value falls below abs_tol the refinement may stop at level 2 on two levels
#: that agree before they resolve it. Against the asymptotic series of the integral
#: (x-orders 0-10, nu-orders 0-6, nu in [-0.45, 80], 6-8 x per decade), calM and calM'
#: (the orders behind M, calM and M') hold their bars through x = 1e4 at abs_tol 1e-12,
#: 1e-9 and 1e-6 (at most 0.4 of the bar); they first breach at x = 3.6e4 (abs_tol
#: 1e-9) and 6.3e5 (1e-12), calM by 2.5x from x = 1e12 on. Higher orders, whose values
#: drop below abs_tol sooner, breach from x = 200 on (x-order 4 by 33x at nu = 80,
#: x = 356); this limit does not cover them.
X_MAX = 1e4

_MAX_DX_ORDER = 10
_MAX_DNU_ORDER = 6

#: Most points x orders one batch refines: its exp() matrix holds at most this
#: many rows of a level's nodes (44 MB at level 10), whatever the grid.
_BATCH_CELLS = 512


#: Last level of the span that _refine and turanian_il_double_integral take in one
#: pass: levels 0-4 (337 nodes) share one exp() (and, in the double integral, one
#: cosh() and sinh()), each level reads its slice, and each later level takes a pass
#: of its own. Lone points freeze at level 4 (all 2,523 one-point refinements of a
#: 6,000-point replay of perfbench's point_stream did), and the double integral
#: stops at level 4 or 5 on perfbench's identity_grid; there five small passes cost
#: more in numpy call overhead than one.
_JOINED_LAST = 4


@functools.lru_cache(maxsize=32)
def _level_nodes(level: int, last: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, log(1-t^2), log weight) for the nodes new at this level; with last, for
    the nodes new at levels level..last, joined in level order.

    Level 0 holds all integer multiples of h = 1; level L >= 1 holds the
    odd multiples of h = 2^-L, so the union over levels 0..L is the full
    step-2^-L grid.
    """
    if last is not None:
        joined = tuple(np.concatenate(arrays) for arrays in
                       zip(*map(_level_nodes, range(level, last + 1))))
        for arr in joined:
            arr.flags.writeable = False
        return joined
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


def _log_tail_bound(power: float, log_order: int, x: float = 0.0) -> float:
    """log of a bound on the integral mass beyond the outermost node.

    Bounds int_0^delta s^power log(1/s)^log_order e^(-xt) ds (s = 1 - t), with the
    (1+t)^power factor bounded by max(1, 2^power) and e^(-xt) by e^(-x(1-delta))
    on [1 - delta, 1]: delta = e^(-57,000) underflows, so that is e^(-x). The double
    integral, whose kernel is cosh/sinh(xt), passes no x.
    """
    p1 = power + 1.0
    log_tail = p1 * _LOG_DELTA - math.log(p1) + math.log(2.0)
    if log_order:
        log_tail += log_order * math.log(-_LOG_DELTA)
    log_tail += max(power, 0.0) * math.log(2.0)
    return log_tail - x


@functools.lru_cache(maxsize=128)
def _level_kernel(level: int, ns: tuple[int, ...], ms: tuple[int, ...],
                  last: int | None = None) -> np.ndarray | None:
    """Rows t^n log(1/(1-t^2))^m over the nodes _level_nodes(level, last) holds, one
    per (n, m) of ns, ms; None for a lone row of ones (n = m = 0), so that
    plain calM, the most frequent call, pays no multiply per level."""
    if ns == ms == (0,):
        return None
    t, lg1mt2, _ = _level_nodes(level, last)
    kernel = np.ones((len(ns), len(t)))
    with np.errstate(under="ignore"):
        for row, n, m in zip(kernel, ns, ms):
            if n:
                row *= t ** n
            if m:
                row *= (-lg1mt2) ** m
    kernel.flags.writeable = False
    return kernel


def _refine(nu: float, x: float, ns: tuple[int, ...], ms: tuple[int, ...],
            abs_tols: tuple[float, ...], max_level: int, name: str) -> list[tuple[float, float]]:
    """Dyadic tanh-sinh refinement of every order pair (n, m) of ns, ms:
    (-1)^(n+m) (2/sqrt(pi)) int_0^1 (1-t^2)^(nu-1/2) t^n log(1/(1-t^2))^m e^(-xt) dt.

    One exp() column per span of levels (0.._JOINED_LAST joined, then one level
    each) serves all orders through the span's kernel rows; each level's sum is
    numpy's pairwise sum over its slice, so every bit is that of a pass per level.
    Each order keeps its own tail bound and error estimate and freezes at the
    first level where its scaled err meets its abs_tol, or
    where the improvable part (refinement difference plus truncated tail)
    reaches the double-precision noise floor of its sum: below that floor
    abs_tol is unattainable and halving would only burn nodes, so the
    honest abs_err can then exceed abs_tol. NonConvergenceError names the
    first order still open at max_level: genuinely unresolved endpoint
    mass, not a big integrand. Returns the frozen (sum, error) of each order,
    unsigned and unscaled.
    """
    pw = nu - 0.5
    tails = [math.exp(_log_tail_bound(pw, m, x)) for m in ms]
    frozen: list = [None] * len(ns)
    errs = [math.inf] * len(ns)
    joined = min(_JOINED_LAST, max_level)
    spans = [(0, joined)] + [(level, level) for level in range(joined + 1, max_level + 1)]
    with np.errstate(under="ignore"):
        for first, last in spans:
            t, lg1mt2, lgw = _level_nodes(first, last)
            col = np.exp(pw * lg1mt2 - x * t + lgw)
            kernel = _level_kernel(first, ns, ms, last)
            if kernel is not None:
                col = kernel * col
            stop = 0
            for level in range(first, last + 1):
                start, stop = stop, stop + len(_level_nodes(level)[0])
                cols = ([float(col[start:stop].sum())] if kernel is None
                        else col[:, start:stop].sum(axis=1).tolist())
                if level == 0:
                    sums = cols
                    continue
                h = 0.5 ** level
                for i, c in enumerate(cols):
                    s = 0.5 * sums[i] + h * c
                    improvable = 2.0 * abs(s - sums[i]) + tails[i]
                    sums[i] = s
                    if frozen[i] is None:
                        errs[i] = err = improvable + 32.0 * EPS * abs(s)
                        if level >= 2 and (TWO_OVER_SQRT_PI * err <= abs_tols[i]
                                           or improvable <= 8.0 * EPS * abs(s)):
                            frozen[i] = (s, err)
                if None not in frozen:
                    return frozen
    i = frozen.index(None)
    raise _stall(name, nu, x, ns[i] or ms[i], abs_tols[i], errs[i], tails[i])


def _orders(p: EvalPoint, ns: tuple[int, ...], ms: tuple[int, ...],
            abs_tols: tuple[float, ...], max_level: int, name: str) -> list[FuncValue]:
    """_refine at p: the signed, scaled FuncValue of each order."""
    frozen = _refine(p.nu, p.x, ns, ms, abs_tols, max_level, name)
    return [FuncValue((-1.0 if (n + m) % 2 else 1.0) * TWO_OVER_SQRT_PI * s,
                      TWO_OVER_SQRT_PI * err, Method.QUADRATURE)
            for n, m, (s, err) in zip(ns, ms, frozen)]


def _stall(name: str, nu: float, x: float, order: int, abs_tol: float,
           err: float, tail: float) -> NonConvergenceError:
    """The error of a refinement whose first open order stalled at max_level,
    naming the node range when the order's tail bound alone exceeds abs_tol."""
    tail = TWO_OVER_SQRT_PI * tail
    return NonConvergenceError(
        f"{name}(nu={nu:g}, x={x:g}), order {order}: tanh-sinh "
        f"refinement stalled above abs_tol={abs_tol:g} (last error "
        f"estimate {TWO_OVER_SQRT_PI * err:.3g})" + (
            "; the endpoint mass lies beyond the node range for this order "
            f"(tail bound {tail:.3g})" if tail > abs_tol else ""))


def _refine_points(nu: np.ndarray, x: np.ndarray, ns: tuple[int, ...], ms: tuple[int, ...],
                   abs_tols: np.ndarray, max_level: int, name: str) -> Values:
    """_refine at every point (nu[i], x[i]) with its row of abs_tols: the signed, scaled
    values and bars, one row per order (orders x points), NaN at the points that stall
    and their errors by index. Batches hold at most _BATCH_CELLS points x orders; a
    lone point takes _refine itself (see the module docstring)."""
    shape = (nu.size, len(ns))
    sums, errs, stalls = np.zeros(shape), np.zeros(shape), {}
    if nu.size == 1:
        try:
            sums[0], errs[0] = zip(*_refine(nu.item(), x.item(), ns, ms,
                                            tuple(abs_tols[0].tolist()), max_level, name))
        except NonConvergenceError as exc:
            stalls[0] = exc
    else:
        step = max(1, _BATCH_CELLS // max(len(ns), 1))
        for start in range(0, nu.size, step):
            batch = slice(start, start + step)
            got = _refine_batch(nu[batch], x[batch], ns, ms, abs_tols[batch], max_level,
                                name, sums[batch], errs[batch])
            stalls.update((start + i, exc) for i, exc in got.items())
    sign = np.array([-1.0 if (n + m) % 2 else 1.0 for n, m in zip(ns, ms)])
    value, abs_err = (sign * TWO_OVER_SQRT_PI) * sums, TWO_OVER_SQRT_PI * errs
    value[list(stalls)] = abs_err[list(stalls)] = math.nan
    return Values(value.T, abs_err.T, stalls)


def _refine_batch(nu: np.ndarray, x: np.ndarray, ns: tuple[int, ...], ms: tuple[int, ...],
                  abs_tols: np.ndarray, max_level: int, name: str,
                  sums: np.ndarray, errs: np.ndarray) -> dict:
    """One batch of _refine_points: fills sums and errs (points x orders) with each
    point's frozen sums and errors, and returns the stall errors by index.

    Per level one exp() matrix, points x nodes, times the kernel rows, summed
    over the last axis: numpy's pairwise row sum, as in _refine, so the bits
    match (a matmul would reorder the sum). Points leave once all orders froze.
    Each point's tails are _refine's, per (nu, x).
    """
    pw = nu - 0.5
    log_rows = {w: [_log_tail_bound(w, m) for m in ms] for w in set(pw.tolist())}
    tails = exp_points(np.array([log_rows[w] for w in pw.tolist()]) - x[:, None])
    pw, x_col = pw[:, None], x[:, None]
    errs.fill(math.inf)
    frozen = np.zeros(sums.shape, bool)
    live = np.arange(nu.size)
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
            err = improvable + 32.0 * EPS * np.abs(s)
            open_ = ~frozen[live]
            # a frozen order keeps the sum and error it froze with
            sums[live] = np.where(open_, s, prev)
            errs[live] = np.where(open_, err, errs[live])
            if level >= 2:
                frozen[live] |= open_ & ((TWO_OVER_SQRT_PI * err <= abs_tols[live])
                                         | (improvable <= 8.0 * EPS * np.abs(s)))
            live = live[~frozen[live].all(axis=1)]
            if not live.size:
                break
    stalls = {}
    for i in live.tolist():
        j = frozen[i].tolist().index(False)
        stalls[i] = _stall(name, nu.item(i), x.item(i), ns[j] or ms[j], abs_tols.item(i, j),
                           errs.item(i, j), tails.item(i, j))
    return stalls


def check_point(p: EvalPoint, m_of: str = "") -> EvalPoint:
    """p, or DomainError off the domain; the function of M named m_of needs x > 0."""
    if p.nu <= -0.5:
        raise DomainError("the integral representation requires nu > -1/2")
    if p.x < 0.0:
        raise DomainError("quadrature route requires x >= 0")
    if p.x > X_MAX:
        raise DomainError(f"quadrature route requires x <= {X_MAX:g}: past it its "
                          "error bars are not certified")
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
    return _orders(check_point(p), *_dx_args(ns, cfg))


def calm_dnu_orders(p: EvalPoint, ms: Iterable[int],
                    cfg: QuadConfig = QUAD_DEFAULTS) -> list[FuncValue]:
    """nu-derivatives of the normalized form for every order in ms, signs
    included, from one refinement pass; each order in [0, 6].

    The kernel log(1/(1-t^2))^m sharpens the endpoint singularity, so for
    nu < 1/2 and m >= 2 the convergence threshold is relaxed to
    10 * abs_tol (the reported abs_err stays honest). Near nu = -1/2 a high
    order's endpoint mass can lie past the node range, so that no refinement
    converges; the error then says so and quotes the tail bound (3.4e6 at
    nu = -0.49898, x = 0.179, m = 6).
    """
    return _orders(check_point(p), *_dnu_args(p.nu, ms, cfg))


def _points(nu, x) -> tuple[np.ndarray, np.ndarray]:
    """The flat float arrays of a points pass, or the DomainError check_point raises at
    the first point off the domain."""
    nu, x = (a.ravel() for a in np.broadcast_arrays(np.asarray(nu, float),
                                                     np.asarray(x, float)))
    ok = np.isfinite(nu) & np.isfinite(x) & (nu > -0.5) & (x >= 0.0) & (x <= X_MAX)
    if not ok.all():
        i = int(np.argmin(ok))
        check_point(EvalPoint(nu.item(i), x.item(i)))
    return nu, x


def calm_dx_points(nu, x, ns: Iterable[int], cfg: QuadConfig = QUAD_DEFAULTS) -> Values:
    """calm_dx_orders at every point (nu[i], x[i]) of the broadcast arrays, from one
    refinement of the batch: values and bars, one row per order (orders x points),
    each calm_dx_orders' bit for bit, NaN at the points where calm_dx_orders raises
    NonConvergenceError, and those errors by point index; DomainError for any point
    off the domain."""
    nu, x = _points(nu, x)
    ns, ms, tols, max_level, name = _dx_args(ns, cfg)
    return _refine_points(nu, x, ns, ms, np.broadcast_to(tols, (nu.size, len(ns))),
                          max_level, name)


def calm_dnu_points(nu, x, ms: Iterable[int], cfg: QuadConfig = QUAD_DEFAULTS) -> Values:
    """calm_dnu_orders at every point, as calm_dx_points; each point keeps its own
    relaxed threshold for nu < 1/2."""
    nu, x = _points(nu, x)
    ns, ms, _, max_level, name = _dnu_args(0.5, ms, cfg)
    rows = {v: _dnu_args(v, ms, cfg)[2] for v in set(nu.tolist())}
    tols = np.array([rows[v] for v in nu.tolist()]).reshape(nu.size, len(ms))
    return _refine_points(nu, x, ns, ms, tols, max_level, name)


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


def m_from_quadrature(p: EvalPoint, cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """M_nu(x) by series.m_from_calm from the quadrature calM_nu(x). nu > -1/2, x > 0."""
    check_point(p, "m_from_quadrature")
    return series.m_from_calm(p, calm(p, cfg))


def m_deriv(p: EvalPoint, cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """M_nu'(x) by series.m_prime_from_calm from the quadrature calM_nu, calM_nu'."""
    check_point(p, "m_deriv")
    return series.m_prime_from_calm(p, *calm_dx_orders(p, (0, 1), cfg))


def _span_sums(starts: list[int], t2: np.ndarray, rows: np.ndarray,
               centre: float) -> list[list[float]]:
    """Each level's node sums (A0, B0, U1, V1, U2, V2) over a span, from one reduction
    at the level starts: sums of the cosh and sinh weights rows[:2], then of their
    products with u = t^2 - centre and with u^2, which overwrite rows[2:]."""
    u = t2 - centre
    np.multiply(rows[:2], u, out=rows[2:4])
    np.multiply(rows[2:4], u, out=rows[4:])
    return np.add.reduceat(rows, starts, axis=1).T.tolist()


def _overflow(p: EvalPoint) -> CancellationError:
    """The error of a double integral that overflows float64."""
    return CancellationError(
        f"cross-Turanian double integral at (nu={p.nu:g}, x={p.x:g}) overflows float64")


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
    A0 V2 - 2 U1 V1 + U2 B0. The centre c starts at the a-weighted mean of t^2
    over level 0's nodes and moves back to it whenever U1 V1 grows, so U1 is near
    zero and the other two terms, both nonnegative, carry a cancellation-free
    sum; the moments through a level are its step times the node sums. cfg.abs_tol
    acts relative to the estimate. CancellationError when D (~ e^(2x))
    overflows float64. Where cosh(x) overflows but the bound
    pref (B(1/2, nu-1/2)/2)^2 cosh(x) sinh(x) on D lies below the smallest
    subnormal (large order), D is 0 to within that subnormal.

    Levels 0.._JOINED_LAST take one pass over their joined nodes, each later
    level a pass of its own (see the module docstring).
    """
    if p.nu <= 0.5 or p.x <= 0.0:
        raise DomainError("the cross-Turanian double integral requires nu > 1/2, x > 0")
    pw = p.nu - 1.5
    log_power = 2.0 * p.nu * log_half(p.x)
    log_gammas = 2.0 * log_gamma(p.nu + 0.5)
    log_pref = math.log(4.0) - math.log(math.pi) + log_power - log_gammas
    pref, pref_err = (exp_rounded(log_pref, log_power, log_gammas) if log_pref < LOG_MAX
                      else (math.inf, math.inf))

    # (t^2-s^2)^2 <= 1, so each axis tail is at most the 1-D tail times the companion
    # axis mass: tail_cosh |B0| + tail_sinh |A0| (tail_axis first: it is 0 where
    # cosh(x) B0 overflows)
    tail_axis = math.exp(_log_tail_bound(pw, 0))
    try:
        tail_cosh, tail_sinh = tail_axis * math.cosh(p.x), tail_axis * math.sinh(p.x)
    except OverflowError:
        # D <= pref mu0^2 cosh(x) sinh(x) <= pref mu0^2 e^(2x) / 4, mu0 = B(1/2, nu-1/2)/2
        # the mass of one axis: below the smallest subnormal D is 0 to within it
        log_mu0 = LOG_SQRT_PI - LN2 + log_gamma(p.nu - 0.5) - log_gamma(p.nu)
        if log_pref + 2.0 * (log_mu0 + p.x - LN2) < math.log(TINY):
            return FuncValue(0.0, TINY, Method.QUADRATURE)
        # else cosh(x t) overflows too at the level-0 nodes where t rounds to 1, so level
        # 0's moments would not be finite either
        raise _overflow(p) from None
    seen, raw = [], []  # (level starts, t^2, weight rows) per span; sums per level
    prev = 0.0
    joined = min(_JOINED_LAST, cfg.max_level)
    spans = [(0, joined)] + [(level, level) for level in range(joined + 1, cfg.max_level + 1)]
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        for first, last in spans:
            t, lg1mt2, lgw = _level_nodes(first, last)
            col = np.exp(pw * lg1mt2 + lgw)
            xt, t2 = p.x * t, t * t
            rows = np.empty((6, len(t)))
            np.multiply(col, np.cosh(xt), out=rows[0])
            np.multiply(col, np.sinh(xt), out=rows[1])
            starts = list(itertools.accumulate(
                (len(_level_nodes(level)[0]) for level in range(first, last)), initial=0))
            seen.append((starts, t2, rows))
            if first == 0:  # the a-weighted mean of t^2 over level 0's nodes
                a = rows[0, :starts[1]]
                centre = float(a @ t2[:starts[1]]) / max(float(a.sum()), TINY)
            raw += _span_sums(starts, t2, rows, centre)
            for level in range(first, last + 1):
                sums = raw[0] if level == 0 else [s + n for s, n in zip(sums, raw[level])]
                a0, b0, u1, v1, u2, v2 = (0.5 ** level * s for s in sums)
                if 4.0 * abs(u1 * v1) > a0 * v2 + u2 * b0:
                    # the centre is off the a-weighted mean of t^2: move it there
                    centre += u1 / a0
                    raw = [new for span in seen for new in _span_sums(*span, centre)]
                    sums = [sum(new) for new in zip(*raw[:level + 1])]
                    a0, b0, u1, v1, u2, v2 = (0.5 ** level * s for s in sums)
                d = a0 * v2 - 2.0 * u1 * v1 + u2 * b0
                size = a0 * v2 + 2.0 * abs(u1 * v1) + u2 * b0
                if not math.isfinite(size * pref):
                    raise _overflow(p)
                tail = tail_cosh * abs(b0) + tail_sinh * abs(a0)
                err = 2.0 * abs(d - prev) + tail + 32.0 * EPS * size
                if level >= 3 and err <= cfg.abs_tol * max(abs(d), 1e-300):
                    return FuncValue(pref * d, pref * err + pref_err * abs(d) + TINY,
                                     Method.QUADRATURE)
                prev = d
    bound = tail / max(abs(d), 1e-300)
    raise NonConvergenceError(
        f"cross-Turanian refinement stalled at (nu={p.nu:g}, x={p.x:g})" + (
            "; the endpoint mass lies beyond the node range (relative tail bound "
            f"{bound:.3g})" if bound > cfg.abs_tol else ""))
