"""Top-level evaluators that dispatch among the evaluation routes.

Three routes are available for the second-kind function and its normalized form:
the merged power series, tanh-sinh quadrature of the integral representation, and
the Fox-Wright series, the merged series' Taylor expansion coded a second time, so
not an independent one (ROADMAP item 12 plans a third: the large-x asymptotic
series). An explicit method runs exactly that route. The automatic route for M and
calM stops at the first of these that can certify its value:

1. the elementary expression at nu = +-1/2, or for calM at x = 0 the gamma ratio;
2. the float64 merged series at x <= X_CANCEL_MAX, if it certifies 1e-12 relative;
3. tanh-sinh quadrature, for nu > -1/2 (nu >= _QUAD_NU_MIN at x <= X_CANCEL_MAX);
4. the mpmath-escalated series: nu in (-1, -1/2], the band step 3 leaves
   out, or where quadrature stalls.

M' takes step 1, then step 2 by the termwise derivative of the same pass
(nu > -1/2, x > 0), then differentiated quadrature (m_deriv), and where
that stalls the recurrence M' = M_{nu+1} + (nu/x) M_nu + (x/2)^nu /
(sqrt(pi) gamma(nu+3/2)) over the automatic M values. The recurrence also
replaces m_deriv in step 3's band, nu < _QUAD_NU_MIN at x <= X_CANCEL_MAX.

_auto runs a chain for a single call, which caches nothing and reads M, where its
chain needs it (the M' recurrence), by the single call too: the closed form, the
chain's head (_m_head, _calm_head, _m_prime_head), the quadrature step, and after a
stall the fallback. :data:`memo` keeps the automatic values of array reads per
(SeriesConfig, QuadConfig) pair, one store per function kind: sorted keys nu + 1j x
with rows of value, bar and method, which its array read, Memo.read, searches with
np.searchsorted. The misses, each distinct one once (np.unique), take the bulk steps
as arrays (one float64 series pass, one quadrature points pass per order set, however
few points, the chains' conversions), each bit for bit its scalar function; only the
points the arrays cannot serve (closed forms, calM's x = 0 among them, domain errors,
the band next to nu = -1/2, a conversion that overflows, a stall) take _auto from its
start, one at a time. A sign probe's stall keeps the batch's error.

Where M' overflows float64 (small order and tiny x) the routes raise
CancellationError rather than return an infinite value.
"""

from __future__ import annotations

import contextlib
import math
from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import closedforms, foxwright, quadrature, series
from .core import (QUAD_DEFAULTS, SERIES_DEFAULTS, EvalPoint, FuncValue,
                   Method, QuadConfig, SeriesConfig, Values)
from .errors import CancellationError, DomainError, NonConvergenceError, StruveKitError
from .gammafuncs import EPS, LOG_SQRT_PI, log_gamma, per_value, power_gamma

#: Within 0.01 of nu = -1/2 endpoint rounding outgrows quadrature's error
#: bar (8x measured); below X_CANCEL_MAX the escalated series serves there.
_QUAD_NU_MIN = -0.49

#: Elementary expressions keyed by (function, order).
_CLOSED_FORMS = {("m", -0.5): closedforms.m_at_neg_half, ("m", 0.5): closedforms.m_at_pos_half,
                 ("calm", 0.5): closedforms.calm_at_pos_half,
                 ("m_prime", -0.5): closedforms.m_prime_at_neg_half,
                 ("m_prime", 0.5): closedforms.m_prime_at_pos_half}


def _closed_form(fn: str, p: EvalPoint) -> FuncValue:
    """fn at p from the table, or DomainError at an order off it."""
    form = _CLOSED_FORMS.get((fn, p.nu))
    if form is None:
        raise DomainError("the normalized form has a closed form only at nu = 1/2" if fn == "calm"
                          else "closed forms exist only at nu = -1/2 and nu = 1/2")
    value = form(p.x)
    return _finite(FuncValue(value, 4.0 * EPS * abs(value), Method.CLOSED_FORM), p)


def _finite(fv: FuncValue, p: EvalPoint) -> FuncValue:
    """fv, or CancellationError where its value or bar overflows float64 (M' at
    small order and tiny x: at nu = -1/2 below x ~ 1e-206)."""
    if math.isfinite(fv.value) and math.isfinite(fv.abs_err):
        return fv
    raise CancellationError(f"the value at (nu={p.nu:g}, x={p.x:g}) overflows float64")


def _calm_at_zero(nu: float) -> FuncValue:
    """calM_nu(0) = gamma(nu+1/2)/gamma(nu+1), formed in log space. Log-gamma rounding
    dominates: mpmath scans over nu in (-1/2, 1e6] reached 4.8 eps (|lgamma(nu+1/2)| +
    |lgamma(nu+1)| + 1) relative, and the bar reports 8 x 4.6 eps of that form."""
    lg_a, lg_b = log_gamma(nu + 0.5), log_gamma(nu + 1.0)
    value = math.exp(lg_a - lg_b)
    err = 8.0 * 4.6 * EPS * (abs(lg_a) + abs(lg_b) + 1.0) * value
    return FuncValue(value, err, Method.CLOSED_FORM)


def struve_m(p: EvalPoint, method: Method | None = None,
             series_cfg: SeriesConfig = SERIES_DEFAULTS,
             quad_cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """Modified Struve function of the second kind M_nu(x).

    method=None walks the automatic chain of the module docstring; an
    explicit method runs that route or raises DomainError off its domain.
    """
    if method is None:
        return _auto("m", p, series_cfg, quad_cfg)
    if method is Method.CLOSED_FORM:
        return _closed_form("m", p)
    if method is Method.QUADRATURE:
        return quadrature.m_from_quadrature(p, quad_cfg)
    if method is Method.FOX_WRIGHT:
        return series.m_from_calm(p, foxwright.calm_via_fox_wright(p, series_cfg))
    return series.struve_m_series(p, series_cfg)


def _m_head(p: EvalPoint, series_cfg: SeriesConfig, quad_cfg: QuadConfig) -> FuncValue | None:
    """Automatic M up to its quadrature step: the series where quadrature does not
    serve p, else the certified float64 value at x <= X_CANCEL_MAX, else None."""
    if not (p.nu >= _QUAD_NU_MIN or (p.nu > -0.5 and p.x > series.X_CANCEL_MAX)):
        return series.struve_m_series(p, series_cfg)
    return series.struve_m_float(p, series_cfg) if p.x <= series.X_CANCEL_MAX else None


def calm(p: EvalPoint, method: Method | None = None,
         series_cfg: SeriesConfig = SERIES_DEFAULTS,
         quad_cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """Normalized form calM_nu(x), nu > -1/2, x >= 0.

    method=None walks the automatic chain of the module docstring; the
    series steps are rescaled by the exact power-gamma factor, which
    degenerates at x = 0 (hence the gamma ratio there).
    """
    if method is None:
        return _auto("calm", p, series_cfg, quad_cfg)
    if method is Method.CLOSED_FORM:
        return _closed_form("calm", p)
    if method is Method.QUADRATURE:
        return quadrature.calm(p, quad_cfg)
    if method is Method.FOX_WRIGHT:
        return foxwright.calm_via_fox_wright(p, series_cfg)
    return series.calm_from_m(p, series.struve_m_series(p, series_cfg))


def _calm_head(p: EvalPoint, series_cfg: SeriesConfig, quad_cfg: QuadConfig) -> FuncValue | None:
    """Automatic calM up to its quadrature step: _m_head's, rescaled."""
    if p.nu <= -0.5:
        raise DomainError("the normalized form requires nu > -1/2")
    if p.x < 0.0:
        raise DomainError("the normalized form requires x >= 0")
    if p.x == 0.0:
        return _calm_at_zero(p.nu)
    # the series->normalized rescale factor 2^nu gamma(nu+1/2) x^-nu can overflow at
    # large order and tiny argument (NaN at nu = 0 once 2/x does); quadrature has no such factor
    if not p.nu * math.log(2.0 / p.x) + log_gamma(p.nu + 0.5) <= 700.0:
        return None
    fv = _m_head(p, series_cfg, quad_cfg)
    return fv and series.calm_from_m(p, fv)


def struve_m_prime(p: EvalPoint, method: Method | None = None,
                   series_cfg: SeriesConfig = SERIES_DEFAULTS,
                   quad_cfg: QuadConfig = QUAD_DEFAULTS) -> FuncValue:
    """First derivative M_nu'(x).

    method=None walks the M' chain of the module docstring. The explicit
    series route goes through the order-lowering relation
    M_nu' = M_{nu-1} - (nu/x) M_nu and therefore needs nu > 0.
    """
    if method is None:
        return _auto("m_prime", p, series_cfg, quad_cfg)
    if method is Method.CLOSED_FORM:
        return _closed_form("m_prime", p)
    if method is Method.SERIES:
        if p.nu <= 0.0:
            raise DomainError("series derivative uses the lower order nu-1 and needs nu > 0")
        if p.x <= 0.0:
            raise DomainError("series derivative requires x > 0")
        lower = series.struve_m_series(EvalPoint(p.nu - 1.0, p.x), series_cfg)
        here = series.struve_m_series(p, series_cfg)
        value = lower.value - (p.nu / p.x) * here.value
        err = lower.abs_err + abs(p.nu / p.x) * here.abs_err + EPS * abs(value)
        return _finite(FuncValue(value, err, Method.SERIES), p)
    if method is Method.FOX_WRIGHT:
        raise DomainError("no derivative evaluator is defined for this route")
    return quadrature.m_deriv(p, quad_cfg)


def _m_prime_head(p: EvalPoint, series_cfg: SeriesConfig,
                  quad_cfg: QuadConfig) -> FuncValue | None:
    """Automatic M' up to its quadrature step: the certified float64 value of the
    termwise derivative, else in the band quadrature leaves to the series (nu below
    _QUAD_NU_MIN, x <= X_CANCEL_MAX) the recurrence over M, else None."""
    if not (p.nu > -0.5 and 0.0 < p.x <= series.X_CANCEL_MAX):
        return None
    fv = series.struve_m_float(p, series_cfg, 1)
    # differentiated quadrature lies outside its bar there (3.8x at nu = -0.499, x in
    # [4, 8]); the recurrence over the escalated-series M holds its bar
    return fv if fv is not None or p.nu >= _QUAD_NU_MIN else _m_prime_by_recurrence(
        p, series_cfg, quad_cfg)


def _m_prime_by_recurrence(p: EvalPoint, series_cfg: SeriesConfig,
                           quad_cfg: QuadConfig) -> FuncValue:
    """M_nu'(x) = M_{nu+1} + (nu/x) M_nu + (x/2)^nu / (sqrt(pi) gamma(nu+3/2)) from the
    automatic M values, where m_deriv stalls or lies outside its bar. The bar sums the
    input bars, the last term's exp(L) rounding and eps times the magnitudes of the
    three terms."""
    hi = struve_m(EvalPoint(p.nu + 1.0, p.x), None, series_cfg, quad_cfg)
    here = struve_m(p, None, series_cfg, quad_cfg)
    last, last_err = power_gamma(p.nu, p.x, p.nu + 1.5, LOG_SQRT_PI)
    mid = (p.nu / p.x) * here.value
    err = (hi.abs_err + abs(p.nu / p.x) * here.abs_err + last_err
           + EPS * (abs(hi.value) + abs(mid) + last))
    return _finite(FuncValue(hi.value + mid + last, err, here.method), p)


_MEMO_SIZE = 262144

#: Error-free array reads a Memo keeps whole (a catalog sweep makes about 30).
_ARRAY_READS = 256


class _Chain(NamedTuple):
    """An automatic chain: its head before the quadrature step (None for the probes'
    kinds); the order of its float64 series pass; its calM orders, and whether they
    are nu-orders; the step's value at p from the point's orders c (FuncValues), and
    points_step, the step at every point of arrays from the orders' values and bars
    (orders x points), NaN where step takes another branch or raises, or the quadrature
    stalls; the function of M whose x > 0 it needs, or ""; the fallback after a stalled
    quadrature, given the configs, or None to raise."""

    head: Callable | None
    order: int | None
    orders: tuple
    dnu: bool
    step: Callable
    points_step: Callable
    m_of: str
    after: Callable | None


_CHAINS = {
    "m": _Chain(_m_head, 0, (0,), False, lambda p, c: series.m_from_calm(p, c[0]),
                lambda nu, x, c, e: series.m_from_calm_points(nu, x, c[0], e[0]),
                "m_from_quadrature", lambda p, cfg, q: series.struve_m_series(p, cfg)),
    "calm": _Chain(_calm_head, 0, (0,), False, lambda p, c: c[0],
                   lambda nu, x, c, e: (c[0], e[0]), "", lambda p, cfg, q:
                   series.calm_from_m(p, series.struve_m_series(p, cfg))),
    "m_prime": _Chain(_m_prime_head, 1, (0, 1), False,
                      lambda p, c: series.m_prime_from_calm(p, *c),
                      lambda nu, x, c, e: series.m_prime_from_calm_points(nu, x, c[0], e[0],
                                                                          c[1], e[1]),
                      "m_deriv", _m_prime_by_recurrence),
    "calm_dx": _Chain(None, None, tuple(range(7)), False, lambda p, c: tuple(c),
                      lambda nu, x, c, e: (c.T, e.T), "", None),
    "calm_dnu": _Chain(None, None, tuple(range(5)), True, lambda p, c: tuple(c),
                       lambda nu, x, c, e: (c.T, e.T), "", None),
}

#: The errors a sweep records at a point, a read's or a margin's.
RECORDED = (StruveKitError, OverflowError, ZeroDivisionError)


def _auto(kind: str, p: EvalPoint, series_cfg: SeriesConfig, quad_cfg: QuadConfig):
    """The automatic chain of kind at p, one point: the closed form (x > 0, any x for
    calM), the chain's head, the quadrature step at p's orders, and after a stall the
    chain's fallback, or the stall where it has none."""
    if p.nu in (-0.5, 0.5) and (kind, p.nu) in _CLOSED_FORMS and (p.x > 0.0 or kind == "calm"):
        return _closed_form(kind, p)
    chain = _CHAINS[kind]
    if chain.head and (fv := chain.head(p, series_cfg, quad_cfg)) is not None:
        return fv
    quadrature.check_point(p, chain.m_of)
    try:
        got = (quadrature.calm_dnu_orders if chain.dnu else quadrature.calm_dx_orders)(
            p, chain.orders, quad_cfg)
    except NonConvergenceError:
        if chain.after is None:
            raise
    else:
        return chain.step(p, got)
    return chain.after(p, series_cfg, quad_cfg)  # outside the except: no chained stall


def _plan(kind: str, nu: np.ndarray, x: np.ndarray):
    """The masks of a bulk computation over the points (nu[i], x[i]): (bulk, the points
    its array steps serve; passes, those of its float64 series pass). They follow
    _auto up to its quadrature step: the closed forms (calM's x = 0 among them), the
    domain errors, the band next to nu = -1/2 where the escalated series or the M'
    recurrence serves, and x past quadrature.X_MAX stay out of bulk."""
    bulk = (np.isfinite(nu) & np.isfinite(x) & (nu > -0.5) & (x <= quadrature.X_MAX)
            & (x > 0.0 if _CHAINS[kind].head else x >= 0.0))
    none = np.zeros(nu.shape, bool)
    if _CHAINS[kind].head is None:
        return bulk, none
    bulk &= nu != 0.5
    band = (nu < _QUAD_NU_MIN) & (x > 0.0) & (x <= series.X_CANCEL_MAX)
    passes = bulk & (x > 0.0) & (x <= series.X_CANCEL_MAX)
    if kind == "calm":  # _calm_head's overflow guard sends the rest to quadrature
        at = np.flatnonzero(passes | (bulk & band))
        with np.errstate(invalid="ignore"):
            guard = none.copy()
            guard[at] = nu[at] * per_value(lambda v: math.log(2.0 / v), x[at]) + per_value(
                log_gamma, nu[at] + 0.5) <= 700.0
        band &= guard
        passes &= guard
    bulk &= ~band
    return bulk, passes & bulk


#: One kind's memo store: its sorted keys nu + 1j x and, aligned to them, each key's
#: value and abs_err (a row of one per order for the probes), method and insertion serial.
_Store = namedtuple("_Store", "keys value abs_err method serial")


class Memo:
    """Automatic-route M, M', calM and the sign probes' quadrature derivatives (calm_dx:
    calM's x-orders 0-6, calm_dnu: its nu-orders 0-4) at one config pair. Each kind's
    store, ``memo.stores[kind]``, is a _Store of the newest _MEMO_SIZE points that
    :meth:`read` computed without error, one row per key (np.unique keeps the first);
    a writer replaces it whole. ``memo.arrays`` keeps the newest _ARRAY_READS
    error-free reads whole. derived(fn, nu, x) holds fn(memo, nu, x), a value derived
    at one point (every input of the identity residuals, listed in ``identities``);
    fn, a module-level function, is part of the key."""

    __slots__ = ("series_cfg", "quad_cfg", "derived", "stores", "arrays")

    def __init__(self, series_cfg: SeriesConfig, quad_cfg: QuadConfig, /) -> None:
        # positional-only, so that memo's cache key is always the config pair
        self.series_cfg, self.quad_cfg = series_cfg, quad_cfg
        self.stores = {kind: _Store(np.empty(0, complex), *np.empty((2, 0) + (
            () if chain.head else (len(chain.orders),))), np.empty(0, object), np.empty(0, int))
            for kind, chain in _CHAINS.items()}
        self.arrays = {}
        self.derived = lru_cache(maxsize=_MEMO_SIZE)(lambda fn, nu, x: fn(self, nu, x))

    def read(self, kind: str, nu, x) -> Values:
        """kind at every point of the broadcast nu and x arrays; a NaN coordinate reads
        nothing. Its misses, each once, take _compute's bulk steps."""
        nu, x = np.broadcast_arrays(np.asarray(nu, float), np.asarray(x, float))
        whole = (kind, nu.shape, nu.tobytes(), x.tobytes())
        if (values := self.arrays.get(whole)) is not None:
            return values
        shape, nu, x = nu.shape, nu.ravel(), x.ravel()
        key = nu.astype(complex)
        key.imag = x
        store = self.stores[kind]
        value, abs_err = np.full((2, len(key)) + store.value.shape[1:], math.nan)
        hit, errors = np.zeros(len(key), bool), {}
        if len(store.keys):
            at = np.minimum(store.keys.searchsorted(key), len(store.keys) - 1)
            hit = store.keys[at] == key
            value[hit], abs_err[hit] = store.value[at[hit]], store.abs_err[at[hit]]
        miss = np.flatnonzero(~hit & (nu == nu) & (x == x))
        if len(miss):
            # each distinct miss once, at its first point (+-0.0 are one key, as in a dict)
            _, first, row = np.unique(key[miss], return_index=True, return_inverse=True)
            fresh = miss[first]
            got, got_err, method, raised = self._compute(kind, nu[fresh], x[fresh])
            value[miss], abs_err[miss] = got[row], got_err[row]
            failed = np.zeros(len(fresh), bool)
            failed[list(raised)] = True
            for j in np.flatnonzero(failed[row]).tolist():
                errors[miss.item(j)] = raised[row.item(j)]
            self._add(kind, key[fresh], got, got_err, method, keep=~failed)
        value.flags.writeable = abs_err.flags.writeable = False  # memo.arrays shares them
        values = Values(*(np.moveaxis(a.reshape(shape + a.shape[1:]), -1, 0) if a.ndim > 1
                          else a.reshape(shape) for a in (value, abs_err)), errors)
        if not errors:
            self.arrays[whole] = values
            while len(self.arrays) > _ARRAY_READS:  # drop the oldest read
                # another thread may drop it first, or change the dict during the walk
                with contextlib.suppress(RuntimeError):
                    self.arrays.pop(next(iter(self.arrays), None), None)
        return values

    def _add(self, kind: str, *rows: np.ndarray, keep: np.ndarray) -> None:
        """Merge the keep rows of new keys, values, bars and methods into kind's store as
        it is now, keeping its newest _MEMO_SIZE keys and, for a key another thread added
        since the read, the row it added."""
        store = self.stores[kind]
        start = store.serial.max(initial=-1) + 1
        merged = [np.concatenate(pair) for pair in zip(store, [r[keep] for r in rows] + [
            np.arange(start, start + keep.sum())])]
        order = np.unique(merged[0], return_index=True)[1]
        if len(order) > _MEMO_SIZE:
            serial = merged[-1][order]
            order = order[serial >= np.partition(serial, -_MEMO_SIZE)[-_MEMO_SIZE]]
        self.stores[kind] = _Store(*(a[order] for a in merged))

    def _compute(self, kind: str, nu: np.ndarray, x: np.ndarray) -> tuple:
        """kind at each point (nu[i], x[i]): rows of value, abs_err and method, and the
        RECORDED errors raised, by row. _plan's points take one float64 series pass
        (struve_m_float_points), one quadrature points pass over what it does not
        certify and the chain's conversions, as arrays; the rest, and a chain's point
        whose array step is NaN (a conversion that overflows, a stall), take _auto from
        its start per point. A probe's stall keeps the batch's error."""
        chain = _CHAINS[kind]
        value, abs_err = np.full((2, len(nu)) + self.stores[kind].value.shape[1:], math.nan)
        method, errors = np.full(len(nu), Method.QUADRATURE, object), {}
        bulk, passes = _plan(kind, nu, x)
        per_point = ~bulk
        if passes.any():
            at = np.flatnonzero(passes)
            got, got_err = series.struve_m_float_points(nu[at], x[at], self.series_cfg,
                                                        chain.order)
            served = at[~np.isnan(got)]
            if kind == "calm":
                got, got_err = series.calm_from_m_points(nu[at], x[at], got, got_err)
            value[at], abs_err[at] = got, got_err
            method[served] = Method.SERIES
            per_point[served] = np.isnan(value[served])
            bulk[served] = False
        if bulk.any():
            at = np.flatnonzero(bulk)
            batch = quadrature.calm_dnu_points if chain.dnu else quadrature.calm_dx_points
            c = batch(nu[at], x[at], chain.orders, self.quad_cfg)
            value[at], abs_err[at] = chain.points_step(nu[at], x[at], c.value, c.abs_err)
            if chain.after is None:  # a probe's stall is its error: nothing to refine
                errors.update((at.item(j), exc) for j, exc in c.errors.items())
            else:
                per_point[at] = np.isnan(value[at])
        for i in np.flatnonzero(per_point).tolist():
            try:
                fv = _auto(kind, EvalPoint(nu.item(i), x.item(i)), self.series_cfg,
                           self.quad_cfg)
            except RECORDED as exc:  # a probe's point gets here only off the domain
                errors[i] = exc
            else:
                value[i], abs_err[i], method[i] = fv.value, fv.abs_err, fv.method
        return value, abs_err, method, errors


#: memo(series_cfg, quad_cfg) returns the one Memo of that config pair. It outlives
#: the sweeps that read it, so a repeated sweep at the same configs starts warm.
memo = lru_cache(maxsize=4)(Memo)
