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

One walker, _auto, takes each chain for the single calls and :data:`memo`
alike: the closed form, the chain's head (_m_head, _calm_head, _m_prime_head:
the route decision up to quadrature), the quadrature step, and on a stall the
fallback. The memo keeps the automatic values per (SeriesConfig, QuadConfig)
pair for the sweeps, where one grid point feeds many cases, and the sign
probes' derivatives. A sweep runs its margin over the grid with Memo.map,
inside which the walker defers every quadrature step; map runs them a round
at a time in one points batch per order set and hands back each point's
margin or error in grid order. The derived cache, memo.derived(fn, nu, x),
keeps what a margin computes at a point from those values (-M's derivatives,
the Theorem 4 bounds, h and h'), so a warm sweep reads them too; margins and
verdicts are computed afresh.

Where M' overflows float64 (small order and tiny x) the routes raise
CancellationError rather than return an infinite value.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from threading import get_ident

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


def _m_head(p: EvalPoint, series_cfg: SeriesConfig) -> FuncValue | None:
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


def _calm_head(p: EvalPoint, series_cfg: SeriesConfig) -> FuncValue | None:
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
    m = _m_head(p, series_cfg)
    return m and series.calm_from_m(p, m)


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


def _m_prime_head(p: EvalPoint, series_cfg: SeriesConfig) -> FuncValue | None:
    """Automatic M' up to its quadrature step: the certified float64 value of the
    termwise derivative, else None."""
    serves = p.nu > -0.5 and 0.0 < p.x <= series.X_CANCEL_MAX
    return series.struve_m_float(p, series_cfg, order=1) if serves else None


def _m_prime_by_recurrence(p: EvalPoint, m) -> FuncValue:
    """M_nu'(x) = M_{nu+1} + (nu/x) M_nu + (x/2)^nu / (sqrt(pi) gamma(nu+3/2)) from the
    automatic M values m(nu, x), where m_deriv stalls. The bar sums the input bars, the
    last term's exp(L) rounding and eps times the magnitudes of the three terms."""
    hi = m(p.nu + 1.0, p.x)
    here = m(p.nu, p.x)
    last, last_err = power_gamma(p.nu, p.x, p.nu + 1.5, LOG_SQRT_PI)
    mid = (p.nu / p.x) * here.value
    err = (hi.abs_err + abs(p.nu / p.x) * here.abs_err + last_err
           + EPS * (abs(hi.value) + abs(mid) + last))
    return _finite(FuncValue(hi.value + mid + last, err, here.method), p)


_MEMO_SIZE = 262144


class _Deferred(Exception):
    """A memo read left for Memo._fill; no StruveKitError, so no handler catches it."""


#: Per automatic chain, split at its quadrature step: (its head, or None; its calM orders;
#: whether they are nu-orders; the step's value from the point's orders; the function of
#: M whose x > 0 it needs, or ""; the fallback after a stalled quadrature, given the
#: series config and M as m(nu, x), or None to raise).
_CHAINS = {
    "m": (_m_head, (0,), False, lambda p, c: series.m_from_calm(p, c[0]), "m_from_quadrature",
          lambda p, cfg, m: series.struve_m_series(p, cfg)),
    "calm": (_calm_head, (0,), False, lambda p, c: c[0], "", lambda p, cfg, m:
             series.calm_from_m(p, series.struve_m_series(p, cfg))),
    "m_prime": (_m_prime_head, (0, 1), False, lambda p, c: series.m_prime_from_calm(p, *c),
                "m_deriv", lambda p, cfg, m: _m_prime_by_recurrence(p, m)),
    "calm_dx": (None, tuple(range(7)), False, lambda p, c: tuple(c), "", None),
    "calm_dnu": (None, tuple(range(5)), True, lambda p, c: tuple(c), "", None),
}


def _auto(kind: str, p: EvalPoint, series_cfg: SeriesConfig, quad_cfg: QuadConfig,
          m=None, sweep: tuple | None = None):
    """The automatic chain of kind at p: the closed form (x > 0, any x for calM), the
    head, the quadrature step at p's orders, and on a stall the fallback, which reads M
    through m(nu, x) (default: the single call). Inside Memo.map, sweep is its
    (deferred keys, parked outcomes) pair: the step takes p's parked outcome, or records
    p's key and raises _Deferred."""
    head, orders, dnu, step, m_of, after = _CHAINS[kind]
    if sweep is None or (got := sweep[1].get((kind, p.nu, p.x))) is None:
        if p.nu in (-0.5, 0.5) and (kind, p.nu) in _CLOSED_FORMS and (p.x > 0.0 or kind == "calm"):
            return _closed_form(kind, p)
        if head and (fv := head(p, series_cfg)) is not None:
            return fv
        quadrature.check_point(p, m_of)
        if sweep is not None:
            sweep[0].append((kind, p.nu, p.x))
            raise _Deferred
        try:
            got = (quadrature.calm_dnu_orders if dnu else quadrature.calm_dx_orders)(
                p, orders, quad_cfg)
        except NonConvergenceError as exc:
            got = exc
    if not isinstance(got, NonConvergenceError):
        return step(p, got)
    if after is None:
        raise NonConvergenceError(*got.args)  # afresh: a parked error keeps no frames
    return after(p, series_cfg, m or (
        lambda nu, x: struve_m(EvalPoint(nu, x), None, series_cfg, quad_cfg)))


class Memo:
    """Automatic-route M, M' and calM FuncValues at one config pair, memoized on (nu, x),
    and the sign probes' quadrature derivatives: calm_dx holds calM's x-orders 0-6 and
    calm_dnu its nu-orders 0-4. Each is one lru_cache, read as memo.calm(nu, x).
    derived(fn, nu, x) holds fn(memo, nu, x), a value a margin derives at the point
    from the memo's reads or from nothing else; fn, a module-level function, is part of
    the key. An exception leaves no entry, as in every cache here.

    :meth:`map` runs a function of the memo over many points and batches their
    quadrature: inside it a miss whose next step is quadrature records its key and
    leaves the point for a later round (invalid input still raises at the read), and
    each round's misses run in one points pass per order set, parked for the repeated
    read. A deferred miss keeps only its key: more, kept alive among the values cached
    meanwhile, slows warm reads."""

    __slots__ = ("series_cfg", "quad_cfg", "m", "m_prime", "calm", "calm_dx", "calm_dnu",
                 "derived", "_sweeps")

    def __init__(self, series_cfg: SeriesConfig, quad_cfg: QuadConfig, /) -> None:
        # positional-only, so that memo's cache key is always the config pair
        self.series_cfg, self.quad_cfg = series_cfg, quad_cfg
        self._sweeps = {}  # thread id -> (deferred keys, parked outcomes) of its map
        for kind in _CHAINS:
            setattr(self, kind, lru_cache(maxsize=_MEMO_SIZE)(partial(self._read, kind)))
        self.derived = lru_cache(maxsize=_MEMO_SIZE)(lambda fn, nu, x: fn(self, nu, x))

    def _read(self, kind: str, nu: float, x: float):
        return _auto(kind, EvalPoint(nu, x), self.series_cfg, self.quad_cfg, self.m,
                     self._sweeps.get(get_ident()))

    def map(self, fn, points) -> list:
        """fn(memo, *point) at every point, in input order: its value, or the
        StruveKitError, OverflowError or ZeroDivisionError it raised. A point whose reads
        met a quadrature miss is visited again once the round's misses are filled, so fn
        must read the memo and compute, nothing more. Any other exception propagates."""
        thread = get_ident()
        self._sweeps[thread] = ([], {})
        todo = list(enumerate(points))
        outcomes = [None] * len(todo)
        try:
            while todo:
                deferred = []
                for i, point in todo:
                    try:
                        outcomes[i] = fn(self, *point)
                    except _Deferred:
                        deferred.append((i, point))
                    except (StruveKitError, OverflowError, ZeroDivisionError) as exc:
                        outcomes[i] = exc
                if deferred:
                    self._fill()
                todo = deferred
        finally:
            del self._sweeps[thread]
        return outcomes

    def _fill(self) -> None:
        """Run every quadrature step this thread's map deferred, one points pass per
        order set, and park each outcome for the read to repeat."""
        deferred, parked = self._sweeps[get_ident()]
        passes = {}
        for key in deferred:
            passes.setdefault(_CHAINS[key[0]][1:3], {}).setdefault(key[1:], []).append(key)
        for (orders, dnu), reads in passes.items():
            points = [EvalPoint(nu, x) for nu, x in reads]
            batch = quadrature.calm_dnu_points if dnu else quadrature.calm_dx_points
            for keys, got in zip(reads.values(), batch(points, orders, self.quad_cfg)):
                for key in keys:
                    parked[key] = got
        deferred.clear()


#: memo(series_cfg, quad_cfg) returns the one Memo of that config pair. It outlives
#: the sweeps that read it, so a repeated sweep at the same configs starts warm.
memo = lru_cache(maxsize=4)(Memo)
