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
(sqrt(pi) gamma(nu+3/2)) over the automatic M values. The recurrence also
replaces m_deriv in step 3's band, nu < _QUAD_NU_MIN at x <= X_CANCEL_MAX.

Each chain is split at its quadrature step: _head takes the closed form or the
chain's head (_m_head, _calm_head, _m_prime_head), _tail the step's value or, after
a stall, the fallback; _auto runs them for a single call. :data:`memo` keeps the
automatic values per (SeriesConfig, QuadConfig) pair, one store per function kind,
for the sweeps and the identities. Its array read, Memo.read, answers its misses in
three bulk steps: one float64 series pass (series.struve_m_float_points, the single
pass bit for bit), one quadrature points pass per order set over what the heads
leave to it, and per point the step or the fallback.

Where M' overflows float64 (small order and tiny x) the routes raise
CancellationError rather than return an infinite value.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, partial
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import closedforms, foxwright, quadrature, series
from .core import (QUAD_DEFAULTS, SERIES_DEFAULTS, EvalPoint, FuncValue,
                   Method, QuadConfig, SeriesConfig)
from .errors import CancellationError, DomainError, NonConvergenceError, StruveKitError
from .gammafuncs import EPS, LOG_SQRT_PI, log_gamma, power_gamma

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


def _m_head(p: EvalPoint, series_cfg: SeriesConfig, quad_cfg: QuadConfig, float_at,
            m) -> FuncValue | None:
    """Automatic M up to its quadrature step: the series where quadrature does not
    serve p, else the certified float64 value at x <= X_CANCEL_MAX, else None. Each
    head takes its float64 pass as float_at(p, series_cfg, order), struve_m_float's
    signature, and M as m(nu, x), or None for the single call's."""
    if not (p.nu >= _QUAD_NU_MIN or (p.nu > -0.5 and p.x > series.X_CANCEL_MAX)):
        return series.struve_m_series(p, series_cfg)
    return float_at(p, series_cfg, 0) if p.x <= series.X_CANCEL_MAX else None


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


def _calm_head(p: EvalPoint, series_cfg: SeriesConfig, quad_cfg: QuadConfig, float_at,
               m) -> FuncValue | None:
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
    fv = _m_head(p, series_cfg, quad_cfg, float_at, m)
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


def _m_prime_head(p: EvalPoint, series_cfg: SeriesConfig, quad_cfg: QuadConfig, float_at,
                  m) -> FuncValue | None:
    """Automatic M' up to its quadrature step: the certified float64 value of the
    termwise derivative, else in the band quadrature leaves to the series (nu below
    _QUAD_NU_MIN, x <= X_CANCEL_MAX) the recurrence over M, else None."""
    if not (p.nu > -0.5 and 0.0 < p.x <= series.X_CANCEL_MAX):
        return None
    fv = float_at(p, series_cfg, 1)
    # differentiated quadrature lies outside its bar there (3.8x at nu = -0.499, x in
    # [4, 8]); the recurrence over the escalated-series M holds its bar
    return fv if fv is not None or p.nu >= _QUAD_NU_MIN else _m_prime_by_recurrence(
        p, series_cfg, quad_cfg, m)


def _m_prime_by_recurrence(p: EvalPoint, series_cfg: SeriesConfig, quad_cfg: QuadConfig,
                           m=None) -> FuncValue:
    """M_nu'(x) = M_{nu+1} + (nu/x) M_nu + (x/2)^nu / (sqrt(pi) gamma(nu+3/2)) from the
    automatic M values m(nu, x) (default: the single call), where m_deriv stalls or lies
    outside its bar. The bar sums the input bars, the last term's exp(L) rounding and
    eps times the magnitudes of the three terms."""
    m = m or (lambda nu, x: struve_m(EvalPoint(nu, x), None, series_cfg, quad_cfg))
    hi = m(p.nu + 1.0, p.x)
    here = m(p.nu, p.x)
    last, last_err = power_gamma(p.nu, p.x, p.nu + 1.5, LOG_SQRT_PI)
    mid = (p.nu / p.x) * here.value
    err = (hi.abs_err + abs(p.nu / p.x) * here.abs_err + last_err
           + EPS * (abs(hi.value) + abs(mid) + last))
    return _finite(FuncValue(hi.value + mid + last, err, here.method), p)


_MEMO_SIZE = 262144

#: Error-free array reads a Memo keeps whole (a catalog sweep makes about 30).
_ARRAY_READS = 256

#: An array read's entry where it read nothing: a NaN coordinate, or an error.
_BLANK = FuncValue(math.nan, math.nan, None)

#: Per automatic chain, split at its quadrature step: (its head, or None; the order of
#: its float64 series pass; its calM orders; whether they are nu-orders; the step's
#: value from the point's orders; the function of M whose x > 0 it needs, or ""; the
#: fallback after a stalled quadrature, given the configs and M as m(nu, x) or None, or
#: None to raise).
_CHAINS = {
    "m": (_m_head, 0, (0,), False, lambda p, c: series.m_from_calm(p, c[0]),
          "m_from_quadrature", lambda p, cfg, q, m: series.struve_m_series(p, cfg)),
    "calm": (_calm_head, 0, (0,), False, lambda p, c: c[0], "", lambda p, cfg, q, m:
             series.calm_from_m(p, series.struve_m_series(p, cfg))),
    "m_prime": (_m_prime_head, 1, (0, 1), False, lambda p, c: series.m_prime_from_calm(p, *c),
                "m_deriv", _m_prime_by_recurrence),
    "calm_dx": (None, None, tuple(range(7)), False, lambda p, c: tuple(c), "", None),
    "calm_dnu": (None, None, tuple(range(5)), True, lambda p, c: tuple(c), "", None),
}

#: The errors a sweep records at a point, a read's or a margin's.
RECORDED = (StruveKitError, OverflowError, ZeroDivisionError)


def _head(kind: str, p: EvalPoint, series_cfg: SeriesConfig, quad_cfg: QuadConfig, m,
          float_at=None) -> FuncValue | tuple | None:
    """kind at p up to its quadrature step: the closed form (x > 0, any x for calM) or
    the chain's head (its float64 pass float_at, default series.struve_m_float); else
    None, once the quadrature step accepts p."""
    if p.nu in (-0.5, 0.5) and (kind, p.nu) in _CLOSED_FORMS and (p.x > 0.0 or kind == "calm"):
        return _closed_form(kind, p)
    head = _CHAINS[kind][0]
    if head and (fv := head(p, series_cfg, quad_cfg, float_at or series.struve_m_float,
                            m)) is not None:
        return fv
    quadrature.check_point(p, _CHAINS[kind][5])
    return None


def _tail(kind: str, p: EvalPoint, got, series_cfg: SeriesConfig, quad_cfg: QuadConfig, m):
    """kind at p from its quadrature outcome got: the step's value, or after a stall
    (got is the NonConvergenceError) the chain's fallback."""
    step, _, after = _CHAINS[kind][4:]
    if not isinstance(got, NonConvergenceError):
        return step(p, got)
    if after is None:
        raise NonConvergenceError(*got.args)  # afresh: a batch's error keeps no frames
    return after(p, series_cfg, quad_cfg, m)


def _auto(kind: str, p: EvalPoint, series_cfg: SeriesConfig, quad_cfg: QuadConfig, m=None):
    """The automatic chain of kind at p, one point: _head, the quadrature step at p's
    orders, then _tail. The chain reads M through m(nu, x) (default: the single call)."""
    fv = _head(kind, p, series_cfg, quad_cfg, m)
    if fv is not None:
        return fv
    orders, dnu = _CHAINS[kind][2:4]
    try:
        got = (quadrature.calm_dnu_orders if dnu else quadrature.calm_dx_orders)(
            p, orders, quad_cfg)
    except NonConvergenceError as exc:
        got = exc
    return _tail(kind, p, got, series_cfg, quad_cfg, m)


def _keep(store: dict, got: dict, size: int) -> None:
    """Add got to store, dropping its oldest entries past size (pop: another thread
    may drop one first)."""
    store.update(got)
    if len(store) > size:
        for key in list(itertools.islice(store, len(store) - size)):
            store.pop(key, None)


class Values(NamedTuple):
    """An array read: values and bars in the read's shape (the order axis first for
    calm_dx and calm_dnu), NaN where it read nothing, and its errors by flat index."""

    value: np.ndarray
    abs_err: np.ndarray
    errors: dict


class Memo:
    """Automatic-route M, M', calM and the sign probes' quadrature derivatives (calm_dx:
    calM's x-orders 0-6, calm_dnu: its nu-orders 0-4) at one config pair, one store per
    kind, ``memo.stores[kind]``: a dict on (nu, x) that keeps its newest _MEMO_SIZE
    entries and no exception. ``memo.calm(nu, x)`` reads one point: an lru_cache answers
    its repeats, and a miss reads the store, else runs the single call's chain.
    :meth:`read` reads arrays, and ``memo.arrays`` keeps its newest
    error-free reads whole. derived(fn, nu, x) holds fn(memo, nu, x), a value derived at
    the point from its coordinates or the memo's reads (the Theorem 4 bounds, the
    identities' first-kind parts); fn, a module-level function, is part of the key."""

    __slots__ = ("series_cfg", "quad_cfg", "m", "m_prime", "calm", "calm_dx", "calm_dnu",
                 "derived", "stores", "arrays")

    def __init__(self, series_cfg: SeriesConfig, quad_cfg: QuadConfig, /) -> None:
        # positional-only, so that memo's cache key is always the config pair
        self.series_cfg, self.quad_cfg = series_cfg, quad_cfg
        self.stores, self.arrays = {kind: {} for kind in _CHAINS}, {}
        for kind in _CHAINS:
            setattr(self, kind, lru_cache(maxsize=_MEMO_SIZE)(partial(self._single, kind)))
        self.derived = lru_cache(maxsize=_MEMO_SIZE)(lambda fn, nu, x: fn(self, nu, x))

    def _single(self, kind: str, nu: float, x: float):
        """memo.kind(nu, x) past its lru_cache: the store's value, else the single
        call's chain, kept in the store."""
        fv = self.stores[kind].get((nu, x))
        if fv is None:
            fv = _auto(kind, EvalPoint(nu, x), self.series_cfg, self.quad_cfg, self.m)
            _keep(self.stores[kind], {(nu, x): fv}, _MEMO_SIZE)
        return fv

    def read(self, kind: str, nu, x) -> Values:
        """kind at every point of the broadcast nu and x arrays; a NaN coordinate reads
        nothing. Its misses, each once, take _compute's three bulk steps."""
        nu, x = np.broadcast_arrays(np.asarray(nu, float), np.asarray(x, float))
        whole = (kind, nu.shape, nu.tobytes(), x.tobytes())
        if (values := self.arrays.get(whole)) is not None:
            return values
        keys = list(zip(nu.ravel().tolist(), x.ravel().tolist()))
        got = list(map(self.stores[kind].get, keys))
        missing = [k for k, fv in zip(keys, got) if fv is None and k[0] == k[0] and k[1] == k[1]]
        done = self._compute(kind, list(dict.fromkeys(missing))) if missing else {}
        _keep(self.stores[kind], {k: v for k, v in done.items() if not isinstance(v, Exception)},
              _MEMO_SIZE)
        got = [done.get(k) if fv is None else fv for k, fv in zip(keys, got)]
        errors = {i: fv for i, fv in enumerate(got) if isinstance(fv, Exception)}
        orders = () if _CHAINS[kind][0] else (len(_CHAINS[kind][2]),)  # the probes' kinds
        blank = (_BLANK,) * orders[0] if orders else _BLANK
        got = [blank if fv is None or isinstance(fv, Exception) else fv for fv in got]
        if orders:
            got = list(itertools.chain.from_iterable(got))

        def array(name):  # read-only: memo.arrays hands it to every later read
            flat = np.fromiter(map(attrgetter(name), got), float, len(got))
            flat.flags.writeable = False
            return np.moveaxis(flat.reshape(nu.shape + orders), -1, 0) if orders else (
                flat.reshape(nu.shape))
        values = Values(array("value"), array("abs_err"), errors)
        if not errors:
            _keep(self.arrays, {whole: values}, _ARRAY_READS)
        return values

    def _compute(self, kind: str, keys: list) -> dict:
        """kind at each (nu, x) of keys, or the RECORDED error raised there, in three
        bulk steps: one float64 series pass (struve_m_float_points) over the keys its
        head may take, then the heads, one quadrature points pass over the points they
        leave to it, and per point the step or the stall's fallback."""
        order, orders, dnu = _CHAINS[kind][1:4]
        fit = [k for k in keys if k[0] > -1.0 and 0.0 < k[1] <= series.X_CANCEL_MAX]
        floats = dict(zip(fit, series.struve_m_float_points(
            *np.array(fit).T, self.series_cfg, order))) if order is not None and fit else {}

        def float_at(p, cfg, order):
            key = (p.nu, p.x)
            return floats[key] if key in floats else series.struve_m_float(p, cfg, order)
        done, quad = {}, []
        for key in keys:
            try:
                p = EvalPoint(*key)
                fv = _head(kind, p, self.series_cfg, self.quad_cfg, self.m, float_at)
            except RECORDED as exc:
                fv = exc
            if fv is None:
                quad.append(p)
            else:
                done[key] = fv
        batch = quadrature.calm_dnu_points if dnu else quadrature.calm_dx_points
        for p, got in zip(quad, batch(quad, orders, self.quad_cfg) if quad else ()):
            try:
                done[p.nu, p.x] = _tail(kind, p, got, self.series_cfg, self.quad_cfg, self.m)
            except RECORDED as exc:
                done[p.nu, p.x] = exc
        return done


#: memo(series_cfg, quad_cfg) returns the one Memo of that config pair. It outlives
#: the sweeps that read it, so a repeated sweep at the same configs starts warm.
memo = lru_cache(maxsize=4)(Memo)
