"""Identity residuals: ODE, recurrences, Turanian forms, cross-term analysis."""

import itertools
import math

import pytest

from struvekit import identities, routes, series
from struvekit.core import (QUAD_DEFAULTS, SERIES_DEFAULTS, EvalPoint, QuadConfig,
                            SeriesConfig)
from struvekit.errors import CancellationError, DomainError, NonConvergenceError
from struvekit.identities import (_residual, closed_forms, crossterm_double_integral_residual,
                                  decomposition_residual, ode_residual,
                                  recurrence_residuals, residual_suite,
                                  turanian, turanian_decomposition,
                                  turanian_quadratic_identity)
from struvekit.gammafuncs import TWO_OVER_SQRT_PI
from struvekit.quadrature import calm_dx_orders, turanian_il_double_integral
from struvekit.series import bessel_i, struve_l, struve_m_series

from oracles import DOUBLE_INTEGRAL_TABLE

SAMPLE_POINTS = [(0.6, 0.5), (1.0, 1.0), (1.5, 2.0), (3.0, 0.5), (5.0, 10.0)]


def test_ode_residual_small_on_samples():
    for nu, x in SAMPLE_POINTS:
        r = ode_residual(EvalPoint(nu, x))
        assert r.relative < 1e-8, (nu, x, r.relative)


def test_ode_residual_at_half_orders():
    """M's equation from the elementary expressions at nu = -1/2, and calM's
    from quadrature at nu = 1/2, hold to machine accuracy."""
    for nu in (-0.5, 0.5):
        for x in (0.2, 1.0, 5.0, 15.0):
            r = ode_residual(EvalPoint(nu, x))
            assert r.relative < 1e-12, (nu, x, r.relative)


def test_residual_is_the_sum_of_terms_over_the_largest():
    r = _residual("id", EvalPoint(1.0, 1.0), 3.0, -4.0, 0.5)
    assert (r.residual, r.scale, r.relative) == (0.5, 4.0, 0.125)
    with pytest.raises(CancellationError, match=r"id at \(nu=1, x=1\) overflows"):
        _residual("id", EvalPoint(1.0, 1.0), math.inf, 1.0)


@pytest.mark.parametrize("nu, x", [(-0.5, 1e-130), (-0.5, 1e-300), (-0.5, 5e-324)])
def test_ode_residual_refuses_where_the_elementary_m2_leaves_float64(nu, x):
    """At nu = -1/2 and tiny x the elementary M'' overflows (x^-2.5) or divides by
    x * x = 0. Each of these once returned an infinite residual or raised a bare
    OverflowError or ZeroDivisionError."""
    with pytest.raises(CancellationError):
        ode_residual(EvalPoint(nu, x))


@pytest.mark.parametrize("nu", [0.6, 0.5])
def test_ode_residual_holds_where_m_second_leaves_float64(nu):
    """calM's equation holds at x = 1e-300, where M'' is of order x^(nu-2): the
    M form once refused both points with a CancellationError."""
    assert ode_residual(EvalPoint(nu, 1e-300)).relative <= 1e-8


def test_ode_residual_at_half_order_and_subnormal_square():
    """On 400 log-spaced x in [1e-300, 1e-100], where x * x is subnormal or 0, the
    ODE at nu = 1/2 holds to 1e-8 relative at every x. The M form divided by
    x * x: it once read 0.147 at x = 3e-162, and refused below that."""
    for k in range(400):
        x = 10.0 ** (-300.0 + 200.0 * k / 399)
        r = ode_residual(EvalPoint(0.5, x))
        assert math.isfinite(r.relative) and r.relative <= 1e-8, (x, r.relative)
    assert ode_residual(EvalPoint(0.5, 3e-162)).relative <= 1e-8


@pytest.mark.parametrize("x", [358.5, 400.0, 700.0])
def test_decomposition_refuses_where_its_products_overflow(x):
    """I_nu^2 and I_nu L_nu overflow float64 from x = 358.4 at nu = 1 while every
    factor is finite; the parts were once -inf and NaN, and the residual NaN."""
    with pytest.raises(CancellationError, match="overflow float64"):
        turanian_decomposition(EvalPoint(1.0, x))
    with pytest.raises(CancellationError):
        decomposition_residual(EvalPoint(1.0, x))


def test_recurrence_residuals_small_on_samples():
    for nu, x in SAMPLE_POINTS:
        for r in recurrence_residuals(EvalPoint(nu, x)):
            assert r.relative < 1e-8, (r.id, nu, x, r.relative)


def test_quadratic_identity_small_on_samples():
    for nu, x in SAMPLE_POINTS:
        r = turanian_quadratic_identity(EvalPoint(nu, x))
        assert r.relative < 1e-8, (nu, x, r.relative)


def test_decomposition_sums_to_turanian():
    for nu, x in SAMPLE_POINTS:
        r = decomposition_residual(EvalPoint(nu, x))
        assert r.relative < 1e-8, (nu, x, r.relative)


def test_turanian_positive_on_sampled_domain():
    for nu, x in SAMPLE_POINTS:
        assert turanian(EvalPoint(nu, x)) > 0.0, (nu, x)


def test_decomposition_part_signs():
    """The first-kind parts are positive; the cross part is negative on the
    sampled domain."""
    for nu, x in SAMPLE_POINTS:
        d_i, d_l, d_il = turanian_decomposition(EvalPoint(nu, x))
        assert d_i > 0.0, (nu, x)
        assert d_l > 0.0, (nu, x)
        assert d_il < 0.0, (nu, x)


@pytest.mark.xfail(strict=True, reason="the cross term is negative on the "
                   "sampled domain; the claimed positivity is wrong")
def test_cross_term_positive_as_claimed():
    for nu, x in SAMPLE_POINTS:
        _, _, d_il = turanian_decomposition(EvalPoint(nu, x))
        assert d_il > 0.0, (nu, x)


@pytest.mark.xfail(strict=True, reason="the cross term does not equal the "
                   "double integral; they differ by a gamma-ratio factor and "
                   "a -2 I L term (see the corrected-relation test)")
def test_cross_term_equals_double_integral():
    for (nu, x) in DOUBLE_INTEGRAL_TABLE:
        r = crossterm_double_integral_residual(EvalPoint(nu, x))
        assert r.relative < 1e-8, (nu, x, r.relative)


def test_cross_term_corrected_relation():
    """(nu + 1/2) cross = (nu - 1/2) D - 2 I_nu(x) L_nu(x), verified with the
    double integral from quadrature and everything else from the series."""
    for nu, x in [(1.0, 1.0), (1.5, 2.0), (3.0, 0.5), (2.0, 4.0), (0.8, 1.5)]:
        p = EvalPoint(nu, x)
        _, _, d_il = turanian_decomposition(p)
        d = turanian_il_double_integral(p).value
        il = bessel_i(p).value * struve_l(p).value
        lhs = (nu + 0.5) * d_il
        rhs = (nu - 0.5) * d - 2.0 * il
        scale = max(abs(lhs), abs(rhs), abs(2.0 * il))
        assert abs(lhs - rhs) / scale < 1e-11, (nu, x, abs(lhs - rhs) / scale)


def test_direct_cross_comparison_reports_large_relative_gap():
    """The opt-in direct comparison shows an order-one relative gap, i.e. a
    real discrepancy rather than accumulated rounding."""
    r = crossterm_double_integral_residual(EvalPoint(1.0, 1.0))
    assert r.relative > 0.1


def test_closed_forms_match_series_route():
    for x in (0.1, 0.7, 2.0, 6.0):
        want_lo = struve_m_series(EvalPoint(-0.5, x)).value
        want_hi = struve_m_series(EvalPoint(0.5, x)).value
        got_lo, got_hi = closed_forms(x)
        assert got_lo == pytest.approx(want_lo, rel=1e-12)
        assert got_hi == pytest.approx(want_hi, rel=1e-12)


def test_domain_gates():
    with pytest.raises(DomainError):
        recurrence_residuals(EvalPoint(0.5, 1.0))
    with pytest.raises(DomainError):
        turanian(EvalPoint(0.4, 1.0))
    with pytest.raises(DomainError):
        turanian_decomposition(EvalPoint(1.0, 0.0))
    with pytest.raises(DomainError):
        turanian_quadratic_identity(EvalPoint(1.0, -1.0))


def test_residual_suite_shape_and_quality():
    out = residual_suite(nu_values=(0.6, 2.0), x_values=(0.5, 5.0))
    assert len(out) == 2 * 2 * 7
    for r in out:
        assert r.relative < 1e-8, (r.id, r.point, r.relative)
    with_cross = residual_suite(nu_values=(1.0,), x_values=(1.0,),
                                include_cross_term=True)
    assert len(with_cross) == 8
    cross = [r for r in with_cross
             if r.id == "turanian_cross_vs_double_integral"]
    assert len(cross) == 1 and cross[0].relative > 0.1


#: A config pair other than the defaults, to see that configs reach the memo.
OTHER_CONFIGS = (SeriesConfig(rel_tol=1e-13), QuadConfig(abs_tol=1e-9, max_level=6))


def test_residual_suite_matches_the_public_residuals():
    """Sharing each point's inputs changes no residual: the suite equals
    the public evaluators called one by one, at either config pair."""
    for (nu, x), (series_cfg, quad_cfg) in itertools.product(
            SAMPLE_POINTS, [(SERIES_DEFAULTS, QUAD_DEFAULTS), OTHER_CONFIGS]):
        p = EvalPoint(nu, x)
        alone = [ode_residual(p, quad_cfg), *recurrence_residuals(p, series_cfg, quad_cfg),
                 turanian_quadratic_identity(p, series_cfg, quad_cfg),
                 decomposition_residual(p, series_cfg, quad_cfg),
                 crossterm_double_integral_residual(p, series_cfg, quad_cfg)]
        assert residual_suite((nu,), (x,), series_cfg, quad_cfg,
                              include_cross_term=True) == alone


def test_residual_suite_computes_each_input_once(cold_memo, monkeypatch):
    """Per point: three automatic M chains (orders nu-1, nu, nu+1), one M'
    chain, six first-kind series calls (I and L at the same orders), one
    calM x-order pass for the ODE and one double integral, kept as four
    entries in the derived cache of the one memo of the config pair passed,
    and none in its array stores. A repeated call reads every one of them
    back."""
    calls = {"m": 0, "m_prime": 0, "series": 0, "calm_dx_orders": 0,
             "turanian_il_double_integral": 0}
    auto = routes._auto

    def counted_auto(kind, *args, **kwargs):
        calls[kind] = calls.get(kind, 0) + 1
        return auto(kind, *args, **kwargs)
    monkeypatch.setattr(routes, "_auto", counted_auto)
    for name in ("bessel_i", "struve_l"):
        fn = getattr(series, name)

        def counted(*args, _fn=fn, **kwargs):
            calls["series"] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(series, name, counted)
    for name in ("calm_dx_orders", "turanian_il_double_integral"):
        fn = getattr(identities, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(identities, name, counted)

    residual_suite((0.6, 2.0), (0.5, 5.0), *OTHER_CONFIGS, include_cross_term=True)
    assert calls == {"m": 3 * 4, "m_prime": 4, "series": 6 * 4, "calm_dx_orders": 4,
                     "turanian_il_double_integral": 4}
    assert routes.memo.cache_info().currsize == 1
    ev = routes.memo(*OTHER_CONFIGS)
    assert not any(len(store.keys) for store in ev.stores.values())
    assert ev.derived.cache_info().currsize == 4 * 4
    calls.update(dict.fromkeys(calls, 0))
    residual_suite((0.6, 2.0), (0.5, 5.0), *OTHER_CONFIGS, include_cross_term=True)
    assert calls == dict.fromkeys(calls, 0)


#: A point of perfbench's identity grid where both calM's x-orders 0-2 and D differ
#: in their bits between the default configs and OTHER_CONFIGS.
CONFIG_SENSITIVE_POINT = EvalPoint(4.151815531485128, 13.485043397071292)


def test_cached_inputs_follow_the_config(cold_memo):
    """The ODE residual and the cross-term residual read calM's x-orders and D
    from the derived cache of their own config pair's memo: after a call at the
    defaults, a call at OTHER_CONFIGS returns what the direct quadratures give
    at OTHER_CONFIGS, not the defaults' cached entry."""
    p = CONFIG_SENSITIVE_POINT

    def direct(series_cfg, quad_cfg):
        c0, c1, c2 = (c.value for c in calm_dx_orders(p, range(3), quad_cfg))
        ode = _residual("ode_second_kind", p, p.x * c2, (2.0 * p.nu + 1.0) * c1,
                        -p.x * c0, TWO_OVER_SQRT_PI)
        cross = _residual("turanian_cross_vs_double_integral", p,
                          turanian_decomposition(p, series_cfg)[2],
                          -turanian_il_double_integral(p, quad_cfg).value)
        return ode, cross

    want = {cfgs: direct(*cfgs) for cfgs in [(SERIES_DEFAULTS, QUAD_DEFAULTS), OTHER_CONFIGS]}
    (ode_a, cross_a), (ode_b, cross_b) = want.values()
    assert ode_a != ode_b and cross_a != cross_b
    for (series_cfg, quad_cfg), (ode, cross) in want.items():
        assert ode_residual(p, quad_cfg) == ode
        assert crossterm_double_integral_residual(p, series_cfg, quad_cfg) == cross


@pytest.mark.parametrize("call, p, error", [
    (ode_residual, EvalPoint(-0.4999, 1.0), NonConvergenceError),
    (crossterm_double_integral_residual, EvalPoint(500.0, 1000.0), CancellationError),
])
def test_a_raising_input_caches_nothing(cold_memo, call, p, error):
    """An input that raises leaves no entry in derived, so a repeated call
    computes it again and raises the same error. At (-0.4999, 1) calM's
    order-0 quadrature stalls (ROADMAP item 7); at (500, 1000) the first-kind
    series overflow float64."""
    texts = []
    for _ in range(2):
        with pytest.raises(error) as info:
            call(p)
        texts.append(str(info.value))
    assert texts[0] == texts[1]
    assert routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS).derived.cache_info().currsize == 0


@pytest.mark.xfail(strict=True, reason="the recurrences read M, which underflows at "
                   "large order and tiny x, so the (2 nu/x) M_nu term that cancels "
                   "M_{nu-1} is lost; the calM form of ROADMAP item 9 keeps it")
def test_recurrences_hold_where_m_underflows():
    """At (sqrt(4.8), 1e-150) M_{nu-1} is finite but M_nu and M_{nu+1} round to
    zero; the two relations that pair them should still read a small residual."""
    got = {r.id: r.relative for r in recurrence_residuals(EvalPoint(math.sqrt(4.8), 1e-150))}
    assert got["recurrence_three_term"] <= 1e-8, got
    assert got["recurrence_derivative_sum"] <= 1e-8, got


@pytest.mark.parametrize("nu, x, reason", [
    (-0.5000001, 1.0, "ode_residual requires nu >= -1/2"),
    (-3.0, 1.0, "ode_residual requires nu >= -1/2"),
    (1.0, 0.0, "ode_residual requires x > 0"),
    (-0.5, 0.0, "ode_residual requires x > 0"),
    (1.0, -1.0, "ode_residual requires x > 0"),
])
def test_ode_residual_refuses_points_off_its_domain(nu, x, reason):
    with pytest.raises(DomainError, match=reason):
        ode_residual(EvalPoint(nu, x))


@pytest.mark.xfail(strict=True, raises=NonConvergenceError, reason="calM's order-0 "
                   "x-quadrature stalls next to nu = -1/2 (the endpoint mass lies beyond the "
                   "node range), though routes.calm serves these points by series; ROADMAP "
                   "item 7's Gauss-Jacobi x-orders would mend it")
def test_ode_residual_holds_next_to_the_lowest_order():
    """calM has a value at these points (2076.216 at (-0.4999, 1)), so its equation
    should read a small residual rather than refuse them."""
    for nu, x in ((-0.4999, 1.0), (-0.4995, 1.0), (-0.4995, 5.0)):
        assert ode_residual(EvalPoint(nu, x)).relative <= 1e-8, (nu, x)


def test_turanian_raises_where_it_overflows():
    """At (500, 1000) both products of Delta_M overflow float64, so their difference
    would be NaN; the Turanian refuses the point under its own name, as the
    quadratic identity does."""
    p = EvalPoint(500.0, 1000.0)
    with pytest.raises(CancellationError, match=r"^turanian at \(nu=500, x=1000\) overflows"):
        turanian(p)
    with pytest.raises(CancellationError, match="turanian_quadratic"):
        turanian_quadratic_identity(p)


@pytest.mark.parametrize("nu, x", [(-0.4999, 1.0), (0.5, 1.0), (1.0, 0.0)])
def test_crossterm_residual_names_itself_off_its_domain(nu, x):
    with pytest.raises(DomainError) as info:
        crossterm_double_integral_residual(EvalPoint(nu, x))
    assert str(info.value) == "crossterm_double_integral_residual requires nu > 1/2 and x > 0"
