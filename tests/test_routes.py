"""Route dispatch: automatic selection, explicit routes, cross-route agreement."""

import itertools
import math
import random
import re
from collections import Counter
from dataclasses import replace

import mpmath
import pytest

from struvekit import quadrature, series
from struvekit.closedforms import (calm_at_pos_half, m_at_neg_half,
                                   m_at_pos_half, m_prime_at_neg_half,
                                   m_prime_at_pos_half)
from struvekit import routes
from struvekit.core import (QUAD_DEFAULTS, SERIES_DEFAULTS, EvalPoint, Method,
                            QuadConfig, SeriesConfig)
from struvekit.errors import DomainError, NonConvergenceError
from struvekit.inequalities import CATALOG, GridSpec, run_all, sweep_case
from struvekit.routes import calm, struve_m, struve_m_prime

from conftest import rel_err
from oracles import CALM_TABLE, M_TABLE, MPRIME_TABLE


def test_automatic_route_matches_references():
    for (nu, x), want in M_TABLE.items():
        got = struve_m(EvalPoint(nu, x))
        assert rel_err(got.value, want) < 1e-10, (nu, x)
    for (nu, x), want in CALM_TABLE.items():
        got = calm(EvalPoint(nu, x))
        assert rel_err(got.value, want) < 1e-10, (nu, x)
    for (nu, x), want in MPRIME_TABLE.items():
        got = struve_m_prime(EvalPoint(nu, x))
        assert rel_err(got.value, want) < 1e-9, (nu, x)


def test_half_orders_use_elementary_expressions():
    """At nu = +-1/2 the automatic route returns the exact elementary forms."""
    for x in (0.3, 1.0, 7.0, 40.0):
        got = struve_m(EvalPoint(0.5, x))
        assert got.method is Method.CLOSED_FORM
        assert got.value == pytest.approx(m_at_pos_half(x), rel=1e-15)
        got = struve_m(EvalPoint(-0.5, x))
        assert got.method is Method.CLOSED_FORM
        assert got.value == pytest.approx(m_at_neg_half(x), rel=1e-15)
        got = calm(EvalPoint(0.5, x))
        assert got.method is Method.CLOSED_FORM
        assert got.value == pytest.approx(calm_at_pos_half(x), rel=1e-15)
        got = struve_m_prime(EvalPoint(0.5, x))
        assert got.method is Method.CLOSED_FORM
        assert got.value == pytest.approx(m_prime_at_pos_half(x), rel=1e-15)
        got = struve_m_prime(EvalPoint(-0.5, x))
        assert got.value == pytest.approx(m_prime_at_neg_half(x), rel=1e-15)


def test_automatic_route_switches_at_argument_threshold():
    """The float64 series serves M, calM and M' where it certifies itself;
    the cancellation strip below x = 8 and everything beyond it go to
    quadrature; orders at or below -1/2 keep the series at any argument."""
    assert struve_m(EvalPoint(1.0, 1.0)).method is Method.SERIES
    assert calm(EvalPoint(1.0, 1.0)).method is Method.SERIES
    assert struve_m(EvalPoint(1.0, 7.9)).method is Method.QUADRATURE
    assert calm(EvalPoint(1.0, 7.9)).method is Method.QUADRATURE
    assert struve_m(EvalPoint(1.0, 8.1)).method is Method.QUADRATURE
    assert calm(EvalPoint(1.0, 8.1)).method is Method.QUADRATURE
    assert struve_m(EvalPoint(-0.75, 8.5)).method is Method.SERIES
    assert struve_m(EvalPoint(-0.5 - 1e-9, 12.0)).method is Method.SERIES
    assert calm(EvalPoint(1.0, 0.0)).method is Method.CLOSED_FORM
    assert struve_m_prime(EvalPoint(1.0, 1.0)).method is Method.SERIES
    assert struve_m_prime(EvalPoint(20.5, 1e-3)).method is Method.SERIES
    assert struve_m_prime(EvalPoint(1.0, 8.1)).method is Method.QUADRATURE
    assert struve_m_prime(EvalPoint(0.1, 6.0)).method is Method.QUADRATURE


def _mpmath_m(nu, x, dps=50):
    with mpmath.workdps(dps):
        nu, x = mpmath.mpf(nu), mpmath.mpf(x)
        m = mpmath.struvel(nu, x) - mpmath.besseli(nu, x)
        return m, -mpmath.mpf(2) ** nu * mpmath.gamma(nu + 0.5) * x ** -nu * m


def _mpmath_m_prime(nu, x, m, dps=60):
    """M_nu'(x) by the raising recurrence M_nu' = M_{nu+1} + (nu/x) M_nu
    + (x/2)^nu / (sqrt(pi) gamma(nu+3/2)), which needs no negative order."""
    with mpmath.workdps(dps):
        nu, x = mpmath.mpf(nu), mpmath.mpf(x)
        m_up = mpmath.struvel(nu + 1, x) - mpmath.besseli(nu + 1, x)
        return m_up + nu / x * m + (x / 2) ** nu / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu + 1.5))


def _stream_points(seed, count):
    """point_stream's distribution: nu uniform in (-0.45, 20], x
    log-uniform in [1e-3, 30]."""
    rng = random.Random(seed)
    return [(20.0 - 20.45 * rng.random(), math.exp(rng.uniform(math.log(1e-3), math.log(30.0))))
            for _ in range(count)]


_EDGE_POINTS = ([(nu, 1e-300) for nu in (0.0, 0.25, 1.0, 2.5, 20.0, 40.0)]
                + [(0.0, x) for x in (1e-3, 0.4, 3.0, 7.5, 25.0)]
                + [(-0.4999, x) for x in (1e-200, 1e-3, 0.3, 1.0, 2.0)]
                + [(40.0, x) for x in (1e-3, 1.0, 6.0, 8.0, 30.0)]
                + [(37.0, 9e-8)])  # exp(L) of the leading term is subnormal


@pytest.mark.parametrize("nu, x", _stream_points(20261019, 100) + _EDGE_POINTS)
def test_automatic_values_hold_their_error_bars(nu, x):
    """M, calM and M' by the automatic chain lie within their own abs_err
    of mpmath at 60 digits, whichever route serves them: the bars carry
    the rounding of every exp(L) prefactor, subnormal ones included, and a
    value that underflows carries the smallest subnormal."""
    m_ref, c_ref = _mpmath_m(nu, x, dps=60)
    d_ref = _mpmath_m_prime(nu, x, m_ref)
    p = EvalPoint(nu, x)
    for fn, ref in ((struve_m, m_ref), (calm, c_ref), (struve_m_prime, d_ref)):
        got = fn(p)
        assert abs(got.value - float(ref)) <= got.abs_err, (fn.__name__, got, float(ref))


def _strip_points(seed, nu_lo, nu_hi, count):
    rng = random.Random(seed)
    return [(rng.uniform(nu_lo, nu_hi), rng.uniform(2.5, 8.0)) for _ in range(count)]


@pytest.mark.parametrize("nu, x", _strip_points(20261018, -0.49, 2.0, 40))
def test_cancellation_strip_values_hold_their_error_bars(nu, x):
    """Where the float64 series cannot certify itself the automatic route
    answers from quadrature, and both M and calM stay inside their bars."""
    m_ref, c_ref = _mpmath_m(nu, x, dps=60)
    for got, ref in ((struve_m(EvalPoint(nu, x)), m_ref), (calm(EvalPoint(nu, x)), c_ref)):
        assert abs(got.value - float(ref)) <= got.abs_err, (nu, x, got)


@pytest.mark.parametrize("nu, x", _strip_points(7, -0.4999, -0.49, 8))
def test_orders_next_to_minus_half_keep_the_escalated_series(nu, x):
    """Within 0.01 of nu = -1/2 quadrature's endpoint rounding outgrows its
    error bar, so below x = 8 the chain serves such points by the series."""
    m_ref, c_ref = _mpmath_m(nu, x, dps=60)
    for got, ref in ((struve_m(EvalPoint(nu, x)), m_ref), (calm(EvalPoint(nu, x)), c_ref)):
        assert got.method is Method.SERIES
        assert abs(got.value - float(ref)) <= got.abs_err, (nu, x, got)


@pytest.mark.parametrize("fn", [struve_m, calm])
def test_stalled_quadrature_falls_back_to_the_series(fn):
    """Next to nu = -1/2 at x > 8 tanh-sinh refinement stalls; the chain
    then serves the escalated series instead of raising."""
    m_ref, c_ref = _mpmath_m(-0.4995, 9.0)
    got = fn(EvalPoint(-0.4995, 9.0))
    assert got.method is Method.SERIES
    assert abs(got.value - float(m_ref if fn is struve_m else c_ref)) <= got.abs_err


@pytest.mark.parametrize("nu, x", [(-0.4999, 3.0), (-0.4999, 10.0),
                                   (-0.4995, 8.1), (-0.4995, 30.0)])
def test_stalled_derivative_quadrature_falls_back_to_the_recurrence(nu, x):
    """Next to nu = -1/2 differentiated quadrature stalls; automatic M'
    then comes from M_{nu+1} + (nu/x) M_nu + (x/2)^nu / (sqrt(pi)
    gamma(nu+3/2)) over the automatic M values, within its bar. An
    explicit quadrature request still raises."""
    p = EvalPoint(nu, x)
    with pytest.raises(NonConvergenceError):
        struve_m_prime(p, Method.QUADRATURE)
    m_ref, _ = _mpmath_m(nu, x, dps=60)
    got = struve_m_prime(p)
    assert abs(got.value - float(_mpmath_m_prime(nu, x, m_ref))) <= got.abs_err, got


@pytest.mark.parametrize("nu, x", [(1e6, 1.0), (1.0, 1e-320)])
def test_underflowing_values_come_from_quadrature(nu, x):
    """The float64 series never settles where its terms underflow; the
    chain answers from quadrature, whose bar covers the underflow (a
    reference below 5e-324 rounds to 0 and so counts as within it)."""
    got = struve_m(EvalPoint(nu, x))
    assert got.method is Method.QUADRATURE
    assert math.isfinite(got.value) and got.abs_err > 0.0
    assert abs(got.value - float(_mpmath_m(nu, x)[0])) <= got.abs_err


def test_default_sweep_never_escalates_to_mpmath(monkeypatch, cold_memo):
    """Every cancellation-strip point of the catalog sweep is served by
    quadrature, so run_all makes no arbitrary-precision series pass."""
    passes = []
    merged_mp = series._merged_mp
    monkeypatch.setattr(series, "_merged_mp",
                        lambda *args: passes.append(args) or merged_mp(*args))
    run_all()
    assert passes == []


def test_default_sweep_bounds_quadrature_derivative_calls(monkeypatch, cold_memo):
    """The float64 series serves most of the sweep's M' values, so
    quadrature m_deriv runs for at most the 684 the sweep measured (3,050
    when every M' came from quadrature)."""
    calls = []
    m_deriv = quadrature.m_deriv
    monkeypatch.setattr(quadrature, "m_deriv",
                        lambda *args: calls.append(args) or m_deriv(*args))
    run_all()
    assert len(calls) <= 684


def test_default_sweep_batches_every_quadrature_miss(monkeypatch, cold_memo):
    """A cold run_all() runs every quadrature step of the memo, M, calM and M'
    as well as the sign probes' derivatives, in 27 batched points passes: one
    per order set and fill round, (0,) for M and calM, (0, 1) for M', x-orders
    0-6 and nu-orders 0-4 for the probes. It makes no one-point pass. A second
    run_all() makes no quadrature pass at all."""
    points, batches = [], []

    def record(name, log, entry):
        fn = getattr(quadrature, name)
        monkeypatch.setattr(quadrature, name, lambda *args: log.append(entry(*args)) or fn(*args))

    for name in ("calm", "m_from_quadrature", "m_deriv", "calm_dx_orders", "calm_dnu_orders"):
        record(name, points, lambda *args, name=name: name)
    for name in ("calm_dx_points", "calm_dnu_points"):
        record(name, batches, lambda pts, orders, *cfg, name=name: (name, tuple(orders)))
    run_all()
    assert points == []
    assert Counter(batches) == {("calm_dx_points", (0,)): 18, ("calm_dx_points", (0, 1)): 6,
                                ("calm_dx_points", tuple(range(7))): 2,
                                ("calm_dnu_points", tuple(range(5))): 1}
    batches.clear()
    run_all()
    assert points == batches == []


def test_memo_derivatives_match_point_passes(cold_memo):
    """Derivatives read after a fill, or from a lone point, equal the
    per-point pass at the memo's config. Inside a sweep's deferral a read
    waits for the fill; a point that stalls parks its error, which every read
    raises again, message unchanged, as a lone read raises it."""
    xs = (0.0, 1e-3, 0.5, 7.0, 30.0)
    for quad_cfg in (QUAD_DEFAULTS, QuadConfig(abs_tol=1e-9, max_level=5)):
        ev = routes.memo(SERIES_DEFAULTS, quad_cfg)
        with ev.deferring() as fill:
            for read in (ev.calm_dx, ev.calm_dnu):
                for x in xs:
                    with pytest.raises(routes._Deferred):
                        read(1.5, x)
            fill()
            filled = [(ev.calm_dx(1.5, x), ev.calm_dnu(1.5, x)) for x in xs]
        for x, (dx, dnu) in zip(xs + (2.0,), filled + [(ev.calm_dx(1.5, 2.0),
                                                        ev.calm_dnu(1.5, 2.0))]):
            p = EvalPoint(1.5, x)
            assert dx == tuple(quadrature.calm_dx_orders(p, range(7), quad_cfg))
            assert dnu == tuple(quadrature.calm_dnu_orders(p, range(5), quad_cfg))
    ev = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    with pytest.raises(NonConvergenceError) as info:
        quadrature.calm_dnu_orders(EvalPoint(-0.49898, 0.179), range(5))
    stalled = re.escape(str(info.value))
    with ev.deferring() as fill:
        with pytest.raises(routes._Deferred):
            ev.calm_dnu(-0.49898, 0.179)
        fill()
        for _ in range(2):
            with pytest.raises(NonConvergenceError, match=stalled):
                ev.calm_dnu(-0.49898, 0.179)
    for read in (ev.calm_dnu, routes.memo(SERIES_DEFAULTS, QuadConfig()).calm_dnu,
                 routes.Memo(SERIES_DEFAULTS, QUAD_DEFAULTS).calm_dnu):
        with pytest.raises(NonConvergenceError, match=stalled):
            read(-0.49898, 0.179)


def test_sweep_batch_stalls_take_the_single_call_fallbacks(monkeypatch, cold_memo):
    """Next to nu = -1/2 a sweep's batch stalls: calM and M at (-0.4995, 9)
    and M' at (-0.4999, 3). Those points are deferred into batches that return
    their stalls, and the memo then takes the single call's fallback (the
    escalated series, the M' recurrence), so every value it serves equals the
    automatic single call bit for bit, method included."""
    outcomes = {}
    points = quadrature.calm_dx_points

    def recording(pts, orders, *cfg):
        pts = list(pts)
        got = points(pts, orders, *cfg)
        outcomes.update(((p.nu, p.x, tuple(orders)), out) for p, out in zip(pts, got))
        return got

    monkeypatch.setattr(quadrature, "calm_dx_points", recording)
    reads = {"calm": calm, "m": struve_m, "m_prime": struve_m_prime}

    def read_all(nu, x, y, ev):
        return sum(getattr(ev, kind)(nu, x).value for kind in reads), 1.0

    grid = GridSpec(nu_values=(-0.4999, -0.4995), x_values=(3.0, 9.0))
    report = sweep_case(replace(CATALOG["bound0"], margin_fn=read_all), grid)
    assert report.points_tested == 4
    for key in ((-0.4995, 9.0, (0,)), (-0.4999, 3.0, (0, 1))):
        assert isinstance(outcomes[key], NonConvergenceError), key
    ev = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    for nu, x in itertools.product(grid.nu_values, grid.x_values):
        for kind, single in reads.items():
            assert getattr(ev, kind)(nu, x) == single(EvalPoint(nu, x)), (kind, nu, x)
    assert ev.m(-0.4995, 9.0).method is ev.calm(-0.4995, 9.0).method is Method.SERIES


def test_invalid_reads_raise_at_the_read_inside_a_sweep(cold_memo):
    """A read whose quadrature step would reject its input raises that
    DomainError at the read, as the single call does, instead of joining a
    batch: calM at x < 0, and M' at x = 0."""
    def reads(nu, x, y, ev):
        return ev.calm(nu, x).value + ev.m_prime(nu, x).value, 1.0

    grid = GridSpec(nu_values=(0.3,), x_values=(-1.0, 0.0, 9.0))
    report = sweep_case(replace(CATALOG["bound0"], margin_fn=reads, any_x=True), grid)
    want = []
    for x in grid.x_values:
        try:
            calm(EvalPoint(0.3, x)), struve_m_prime(EvalPoint(0.3, x))
        except DomainError as exc:
            want.append(((0.3, x), f"DomainError: {exc}"))
    assert report.points_tested == 1 and len(want) == 2
    assert report.errors == tuple(want)


def test_escalation_reuses_the_float_pass(monkeypatch):
    """Where the float64 pass cannot certify M and the chain escalates,
    the pass runs once; the escalated value and bar equal those of an
    explicit series request, which runs the pass itself."""
    passes = []
    merged_float = series._merged_float
    monkeypatch.setattr(series, "_merged_float",
                        lambda *args: passes.append(args) or merged_float(*args))
    for fn, nu, x in ((struve_m, -0.75, 5.0), (struve_m, -0.9, 4.0),
                      (struve_m, -0.495, 6.0), (calm, -0.495, 6.0)):
        p = EvalPoint(nu, x)
        passes.clear()
        got = fn(p)
        assert got.method is Method.SERIES and len(passes) == 1, (fn.__name__, nu, x)
        assert got == fn(p, method=Method.SERIES)


@pytest.mark.parametrize("nu", [-0.4999, -0.4988, -0.49, 0.0, 1.0, 20.0, 1e6])
def test_normalized_form_at_zero_argument_is_the_gamma_ratio(nu):
    """At x = 0 the automatic route returns gamma(nu+1/2)/gamma(nu+1)
    within its error bar, including next to nu = -1/2 where quadrature
    stalls and at orders where log-gamma rounding dominates the error."""
    got = calm(EvalPoint(nu, 0.0))
    assert got.method is Method.CLOSED_FORM
    with mpmath.workdps(50):
        ref = mpmath.gamma(mpmath.mpf(nu) + 0.5) / mpmath.gamma(mpmath.mpf(nu) + 1)
    assert abs(got.value - float(ref)) <= got.abs_err


def test_series_route_covers_orders_below_minus_half():
    """On nu in (-1, -1/2] the integral representation is unavailable, so
    the automatic route stays with the series at any argument."""
    got = struve_m(EvalPoint(-0.75, 20.0))
    assert got.method is Method.SERIES
    ref = struve_m(EvalPoint(-0.75, 20.0), method=Method.SERIES)
    assert got.value == ref.value


def test_explicit_routes_agree_with_each_other():
    for nu, x in ((0.0, 0.5), (1.0, 2.0), (2.5, 5.0), (7.0, 3.0)):
        p = EvalPoint(nu, x)
        a = calm(p, method=Method.SERIES)
        b = calm(p, method=Method.QUADRATURE)
        c = calm(p, method=Method.FOX_WRIGHT)
        tol = a.abs_err + b.abs_err + 1e-12 * abs(a.value)
        assert abs(a.value - b.value) <= tol, (nu, x)
        assert abs(a.value - c.value) <= a.abs_err + c.abs_err + 1e-12, (nu, x)


def test_explicit_closed_form_rejected_off_half_orders():
    with pytest.raises(DomainError):
        struve_m(EvalPoint(1.0, 2.0), method=Method.CLOSED_FORM)
    with pytest.raises(DomainError):
        calm(EvalPoint(1.0, 2.0), method=Method.CLOSED_FORM)
    with pytest.raises(DomainError):
        struve_m_prime(EvalPoint(1.0, 2.0), method=Method.CLOSED_FORM)


def test_normalized_form_overflow_guard_reroutes():
    """At large order and tiny argument the series-to-normalized rescale
    factor would overflow, so the automatic route must use quadrature."""
    got = calm(EvalPoint(80.0, 1e-4))
    assert got.method is Method.QUADRATURE
    assert math.isfinite(got.value)
    assert got.value > 0.0
    from struvekit.gammafuncs import gamma_ratio
    assert abs(got.value - gamma_ratio(80.5, 81.0)) < 1e-5


def test_normalized_form_domain():
    with pytest.raises(DomainError):
        calm(EvalPoint(-0.5, 1.0))
    with pytest.raises(DomainError):
        calm(EvalPoint(-0.75, 1.0))


def test_series_derivative_route():
    p = EvalPoint(1.5, 2.0)
    via_series = struve_m_prime(p, method=Method.SERIES)
    via_quad = struve_m_prime(p, method=Method.QUADRATURE)
    assert via_series.method is Method.SERIES
    assert abs(via_series.value - via_quad.value) <= (
        via_series.abs_err + via_quad.abs_err + 1e-12)
    with pytest.raises(DomainError):
        struve_m_prime(EvalPoint(-0.2, 1.0), method=Method.SERIES)
    with pytest.raises(DomainError):
        struve_m_prime(EvalPoint(1.0, 0.0), method=Method.SERIES)
    with pytest.raises(DomainError):
        struve_m_prime(p, method=Method.FOX_WRIGHT)


@pytest.mark.parametrize("series_cfg, quad_cfg", [
    (SERIES_DEFAULTS, QUAD_DEFAULTS),
    (SeriesConfig(rel_tol=1e-13), QuadConfig(abs_tol=1e-9, max_level=6)),
])
def test_memo_matches_unmemoized(cold_memo, series_cfg, quad_cfg):
    """A memoized value equals the unmemoized call at the memo's configs
    in value, abs_err and method, also when it is read a second time."""
    ev = routes.memo(series_cfg, quad_cfg)
    assert (ev.series_cfg, ev.quad_cfg) == (series_cfg, quad_cfg)
    for read, route, nu, x in ((ev.m, struve_m, 1.0, 2.0), (ev.m, struve_m, 0.3, 5.0),
                               (ev.m_prime, struve_m_prime, 1.5, 2.0),
                               (ev.m_prime, struve_m_prime, 0.3, 9.0),
                               (ev.calm, calm, 1.0, 2.0), (ev.calm, calm, 0.3, 5.0)):
        want = route(EvalPoint(nu, x), None, series_cfg, quad_cfg)
        assert read(nu, x) == want and read(nu, x) == want, (route.__name__, nu, x)


def test_memo_is_one_per_config_pair(cold_memo):
    """Equal config pairs share one memo; different pairs never share an
    entry, even where their values differ."""
    ev = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    assert routes.memo(SeriesConfig(), QuadConfig()) is ev
    loose = routes.memo(SERIES_DEFAULTS, QuadConfig(abs_tol=1e-6, max_level=3))
    assert loose is not ev
    tight, coarse = ev.calm(0.3, 9.0), loose.calm(0.3, 9.0)
    assert tight.method is coarse.method is Method.QUADRATURE
    assert tight.abs_err < coarse.abs_err
    assert ev.calm(0.3, 9.0) is tight and loose.calm(0.3, 9.0) is coarse
