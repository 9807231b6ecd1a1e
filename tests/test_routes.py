"""Route dispatch: automatic selection, explicit routes, cross-route agreement."""

import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from struvekit import inequalities, quadrature, series
from struvekit.closedforms import (calm_at_pos_half, m_at_neg_half,
                                   m_at_pos_half, m_prime_at_neg_half,
                                   m_prime_at_pos_half, m_second_at_neg_half)
from struvekit import routes
from struvekit.core import (QUAD_DEFAULTS, SERIES_DEFAULTS, EvalPoint, FuncValue, Method,
                            QuadConfig, SeriesConfig)
from struvekit.errors import (CancellationError, DomainError, NonConvergenceError,
                              StruveKitError)
from struvekit.foxwright import bilateral_bounds
from struvekit.gammafuncs import gamma_ratio_h, gamma_ratio_h_prime
from struvekit.inequalities import CATALOG, GridSpec, run_all, sweep_case
from struvekit.routes import calm, struve_m, struve_m_prime

from conftest import large_x_calm_dx, rel_err
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
                + [(37.0, 9e-8)]  # exp(L) of the leading term is subnormal
                # quadrature's exp(L) with terms near 85 each: L's rounding follows their size
                + [(30.839385406907052, 33.05575825259971), (37.63956530976668, 66.68470936001509),
                   (35.120675727926724, 25.314005178631973)])


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


@pytest.mark.parametrize("x", [5e-324, 1e-310, 1e-300])
@pytest.mark.parametrize("nu", [-0.95, -0.75, -0.5, -0.4999, -0.3, 0.0, 0.3, 0.5, 0.7, 1.0,
                                2.5, 20.0, 80.0])
def test_tiny_arguments_give_a_value_within_its_bar_or_a_struvekit_error(nu, x):
    """At a subnormal or tiny x, automatic M, calM and M' return a finite value
    within its bar of mpmath, and raise a StruveKitError exactly where the
    function is off its order range (calM and M' at nu < -1/2) or its value
    overflows float64 (M' at small order, ~1e449 at nu = -1/2, x = 1e-300)."""
    p = EvalPoint(nu, x)
    with mpmath.workdps(60):
        m_ref = mpmath.struvel(nu, x) - mpmath.besseli(nu, x)
        refs = {struve_m: m_ref,
                calm: (-mpmath.mpf(2) ** nu * mpmath.gamma(nu + 0.5) * mpmath.mpf(x) ** -nu
                       * m_ref) if nu > -0.5 else None,
                struve_m_prime: _mpmath_m_prime(nu, x, m_ref) if nu >= -0.5 else None}
    for fn, ref in refs.items():
        if ref is None or abs(ref) > sys.float_info.max:
            with pytest.raises(StruveKitError):
                fn(p)
            continue
        got = fn(p)
        assert math.isfinite(got.value) and math.isfinite(got.abs_err), (fn.__name__, got)
        assert abs(mpmath.mpf(got.value) - ref) <= got.abs_err, (fn.__name__, got, ref)


def _integral_m_and_m_prime(nu, x):
    """M_nu(x) and M_nu'(x) from calM and calM' as integrals at 40 digits: mpmath's
    struvel and besseli would need thousands of digits at x = 1e4."""
    c, c1 = large_x_calm_dx(nu, x), large_x_calm_dx(nu, x, 1)
    with mpmath.workdps(40):
        nu, x = mpmath.mpf(nu), mpmath.mpf(x)
        scale = (x / 2) ** nu / mpmath.gamma(nu + 0.5)
        return -scale * c, -scale * (nu / x * c + c1)


@pytest.mark.parametrize("nu", [161.0, 162.5])
def test_m_and_m_prime_where_only_the_scale_factor_overflows(nu):
    """At x = 1e4 the scale factor (x/2)^nu / gamma(nu+1/2) passes float64 from
    nu = 160 on while M and M' stay finite up to nu ~ 162.6: both come out of log
    space within their bars, where math.exp once raised a bare OverflowError."""
    p = EvalPoint(nu, 1e4)
    for fn, ref in zip((struve_m, struve_m_prime), _integral_m_and_m_prime(nu, 1e4)):
        got = fn(p)
        assert got.method is Method.QUADRATURE and math.isfinite(got.abs_err)
        assert abs(mpmath.mpf(got.value) - ref) <= got.abs_err, (fn.__name__, got, ref)


@pytest.mark.parametrize("fn, nu, x, error", [
    (struve_m, 165.0, 1e4, CancellationError), (struve_m_prime, 165.0, 1e4, CancellationError),
    (struve_m, 40.0, 1e11, DomainError), (struve_m_prime, 40.0, 1e11, DomainError),
    (struve_m, 20.0, 1e20, DomainError)])
def test_large_order_and_argument_raise_a_struvekit_error(fn, nu, x, error):
    """Where M or M' overflows float64 the route says so; past quadrature.X_MAX the
    quadrature route refuses x. Each of these raised a bare OverflowError."""
    with pytest.raises(error, match="overflows float64" if error is CancellationError
                       else "requires x <= 10000"):
        fn(EvalPoint(nu, x))
    with pytest.raises(error):
        fn(EvalPoint(nu, x), Method.QUADRATURE)


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
    m_ref, c_ref = _mpmath_m(-0.4999, 9.0)
    got = fn(EvalPoint(-0.4999, 9.0))
    assert got.method is Method.SERIES
    assert abs(got.value - float(m_ref if fn is struve_m else c_ref)) <= got.abs_err


@pytest.mark.parametrize("nu, x", [(-0.4999, 3.0), (-0.4999, 10.0),
                                   (-0.4999, 8.1), (-0.4999, 30.0)])
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


def _served(ev, kind, nu, x):
    """kind at the one point (nu, x) as ev.read serves it, with the method its store
    row keeps: a FuncValue, or for the probes a tuple of one per order. The read's
    error is raised."""
    got = ev.read(kind, nu, x)
    if got.errors:
        raise got.errors[0]
    store = ev.stores[kind]
    method = store.method[store.keys.tolist().index(complex(nu, x))]
    fvs = tuple(FuncValue(v, e, method) for v, e in zip(
        np.ravel(got.value).tolist(), np.ravel(got.abs_err).tolist()))
    return fvs if len(fvs) > 1 else fvs[0]


def test_derivative_next_to_minus_half_comes_from_the_recurrence():
    """Within 0.01 of nu = -1/2 differentiated quadrature lies outside its bar
    (10 of these 12 points, up to 3.8x), so below x = 8 automatic M' is the
    recurrence over automatic M, where the float64 series does not certify it.
    Against M_{nu-1} - (nu/x) M_nu at 80 digits each value lies within its bar,
    the worst at 0.057 of it, and the memo serves the same values."""
    nu, worst = -0.499, 0.0
    ev = routes.Memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    for x in (4.0 + 4.0 * k / 11 for k in range(12)):
        with mpmath.workdps(80):
            n, z = mpmath.mpf(nu), mpmath.mpf(x)
            ref = (mpmath.struvel(n - 1, z) - mpmath.besseli(n - 1, z)
                   - n / z * (mpmath.struvel(n, z) - mpmath.besseli(n, z)))
        got = struve_m_prime(EvalPoint(nu, x))
        assert got.method is Method.SERIES and _served(ev, "m_prime", nu, x) == got, x
        assert ev.read("m_prime", nu, [x]).value[0] == got.value, x
        worst = max(worst, float(abs(got.value - ref)) / got.abs_err)
    assert worst <= 0.06


@pytest.mark.parametrize("nu, x", [(1e6, 1.0)])
def test_underflowing_values_come_from_quadrature(nu, x):
    """At nu = 1e6 the float64 series does not certify S: its l_0's gamma ratio,
    formed from log-gammas near 1.3e7, carries a bar of about 3e-9 relative. The
    chain answers from quadrature, whose bar covers the underflow of M (a reference
    below 5e-324 rounds to 0 and so counts as within it)."""
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


_LAZY_IMPORTS = """
import json, sys
import struvekit
from struvekit import EvalPoint
loaded = lambda: sorted(name for name in ("mpmath", "numpy.ma") if name in sys.modules)
seen = [loaded()]
struvekit.run_all()
seen.append(loaded())
struvekit.residual_suite((1.3,), (2.0,), include_cross_term=True)
seen.append(loaded())
fv = struvekit.struve_m(EvalPoint(-0.4995, 3.0))
print(json.dumps([seen, loaded(), repr(fv.value), repr(fv.abs_err), fv.method.value]))
"""


def test_only_an_escalation_imports_mpmath():
    """A fresh interpreter imports neither mpmath nor numpy.ma (which a bare
    np.unique loads) for import struvekit, run_all() or residual_suite: mpmath
    comes in at the first escalated series pass, whose value, bar and method
    equal those of the same call here."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _LAZY_IMPORTS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    seen, escalated, value, abs_err, method = json.loads(done.stdout)
    assert seen == [[], [], []]
    assert escalated == ["mpmath"]
    want = struve_m(EvalPoint(-0.4995, 3.0))
    assert want.method is Method.SERIES
    assert (value, abs_err, method) == (repr(want.value), repr(want.abs_err), want.method.value)


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
    """A cold run_all() runs every quadrature step of the memo, M, calM and M' as well
    as the sign probes' derivatives, in 15 batched points passes over 4,050 rows, one
    per array read with a quadrature miss: (0,) for M and calM (9), (0, 1) for M' (3),
    x-orders 0-6 (2) and nu-orders 0-4 (1) for the probes. It makes no one-point pass,
    and its 12 float64 series passes are array passes. A chain step runs per point
    only at the 75 closed-form misses (nu = +-1/2): the conversions of every other
    miss are array expressions. A second run_all() makes no series pass and no
    quadrature pass at all."""
    points, batches, chains = [], [], []

    def record(module, name, log, entry):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: log.append(entry(*args)) or fn(*args))

    for name in ("calm", "m_from_quadrature", "m_deriv", "calm_dx_orders", "calm_dnu_orders"):
        record(quadrature, name, points, lambda *args, name=name: name)
    for name in ("_merged_float", "struve_m_float", "struve_m_series"):
        record(series, name, points, lambda *args, name=name: name)
    for name in ("calm_dx_points", "calm_dnu_points"):
        record(quadrature, name, batches,
               lambda nu, x, orders, *cfg, name=name: (name, tuple(orders), len(nu)))
    record(series, "struve_m_float_points", batches, lambda nu, *args: ("series", len(nu)))
    record(routes, "_auto", chains, lambda kind, p, *args: (kind, p.nu))
    run_all()
    assert points == []
    quad = [entry for entry in batches if entry[0] != "series"]
    assert Counter(entry[:2] for entry in quad) == {
        ("calm_dx_points", (0,)): 9, ("calm_dx_points", (0, 1)): 3,
        ("calm_dx_points", tuple(range(7))): 2, ("calm_dnu_points", tuple(range(5))): 1}
    assert sum(entry[2] for entry in quad) == 4050 and min(entry[2] for entry in quad) > 1
    assert len(batches) - len(quad) == 12
    assert len(chains) == 75 and {nu for _, nu in chains} == {-0.5, 0.5}
    batches.clear()
    chains.clear()
    run_all()
    assert points == batches == chains == []


def test_the_array_series_pass_equals_the_single_pass_on_a_cold_sweep(monkeypatch, cold_memo):
    """Every point of every float64 series pass of a cold run_all() gets, from
    struve_m_float_points, struve_m_float's value and bar bit for bit, and NaN where
    that gives None. The passes hold 8,906 points: the 63 closed-form misses at
    nu = +-1/2 and x <= 8 do not join them."""
    seen = []
    points = series.struve_m_float_points

    def recording(nu, x, cfg, order):
        value, abs_err = points(nu, x, cfg, order)
        seen.extend(zip(nu.tolist(), x.tolist(), [order] * len(nu), value.tolist(),
                        abs_err.tolist()))
        return value, abs_err

    monkeypatch.setattr(series, "struve_m_float_points", recording)
    run_all()
    assert len(seen) == 8906
    for nu, x, order, value, abs_err in seen:
        fv = series.struve_m_float(EvalPoint(nu, x), SERIES_DEFAULTS, order)
        if fv is None:
            assert math.isnan(value) and math.isnan(abs_err), (nu, x, order)
        else:
            assert (value.hex(), abs_err.hex()) == (fv.value.hex(), fv.abs_err.hex()), (
                nu, x, order)


#: 40 log-spaced x in [8.05, 1e4] next to nu = -1/2.
_NEAR_HALF_XS = np.geomspace(8.05, 1e4, 40).tolist()


@pytest.mark.parametrize("nu", [-0.4995, -0.4999, -0.5 + 1e-9])
def test_automatic_values_next_to_minus_half_raise_nowhere_past_x_cancel_max(nu):
    """Next to nu = -1/2 the tail bound of quadrature charges e^(-xt) <= e^(-x) on the
    node range's last stretch [1 - delta, 1], so from x = 8.05 to 1e4 automatic M, M'
    and calM each give a finite value and bar: quadrature converges where it did not
    (nu + 1/2 = 5e-4), and where it still stalls the fallbacks serve."""
    for x in _NEAR_HALF_XS:
        for fn in (struve_m, struve_m_prime, calm):
            fv = fn(EvalPoint(nu, x))
            assert math.isfinite(fv.value) and math.isfinite(fv.abs_err), (fn.__name__, x)


@pytest.mark.parametrize("nu", [-0.4995, -0.4999, -0.5 + 1e-9])
def test_automatic_values_next_to_minus_half_hold_their_bars(nu):
    """At five of those x, up to 646, automatic M, calM and M' lie within their bars of
    mpmath at 60 + x/2.3 digits (fewer digits make the reference wrong past x ~ 100);
    M' from the raising recurrence, which needs no order below -1/2."""
    for x in _NEAR_HALF_XS[:25:6]:
        dps = int(60 + x / 2.3)
        m_ref, c_ref = _mpmath_m(nu, x, dps)
        m_prime_ref = _mpmath_m_prime(nu, x, m_ref, dps)
        for fn, ref in ((struve_m, m_ref), (calm, c_ref), (struve_m_prime, m_prime_ref)):
            fv = fn(EvalPoint(nu, x))
            assert float(abs(fv.value - ref)) <= fv.abs_err, (fn.__name__, x, fv)


@given(st.lists(st.floats(min_value=-0.5, max_value=40.0, exclude_min=True), min_size=1,
                max_size=30))
@example([-0.5 + 1e-15, -0.49, 0.0, 0.3, 1.0, 39.5, 40.0])
def test_calm_at_zero_points_equal_the_scalar_gamma_ratio(nu):
    """An array read of calM at x = 0 serves the single call's value and bar, the
    gamma ratio, at every order."""
    got = routes.Memo(SERIES_DEFAULTS, QUAD_DEFAULTS).read("calm", nu, 0.0)
    assert not got.errors
    for i, v in enumerate(nu):
        want = calm(EvalPoint(v, 0.0))
        assert (got.value[i], got.abs_err[i]) == (want.value, want.abs_err), v


def test_memo_derivatives_match_point_passes(monkeypatch, cold_memo):
    """Derivatives from an array read, or from a lone point, equal the per-point pass
    at the memo's config, value, bar and method. An array read's misses go through
    one points pass, so no per-point pass runs; a point that stalls returns its error,
    message unchanged, at every index where it is read, as a lone read raises it."""
    xs = (0.0, 1e-3, 0.5, 7.0, 30.0)
    ev = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    with pytest.raises(NonConvergenceError) as info:
        quadrature.calm_dnu_orders(EvalPoint(-0.49898, 0.179), range(5))
    stalled = re.escape(str(info.value))
    singles = []
    with monkeypatch.context() as patch:
        for name in ("calm_dx_orders", "calm_dnu_orders"):
            single = getattr(quadrature, name)
            patch.setattr(quadrature, name,
                          lambda *args, single=single: singles.append(args) or single(*args))
        for quad_cfg in (QUAD_DEFAULTS, QuadConfig(abs_tol=1e-9, max_level=5)):
            for kind in ("calm_dx", "calm_dnu"):
                routes.memo(SERIES_DEFAULTS, quad_cfg).read(kind, 1.5, xs)
        stalls = ev.read("calm_dnu", -0.49898, [0.179, 0.179])
    assert singles == []
    for quad_cfg in (QUAD_DEFAULTS, QuadConfig(abs_tol=1e-9, max_level=5)):
        ev = routes.memo(SERIES_DEFAULTS, quad_cfg)
        for x in xs + (2.0,):
            p = EvalPoint(1.5, x)
            assert _served(ev, "calm_dx", 1.5, x) == tuple(
                quadrature.calm_dx_orders(p, range(7), quad_cfg))
            assert _served(ev, "calm_dnu", 1.5, x) == tuple(
                quadrature.calm_dnu_orders(p, range(5), quad_cfg))
        got = ev.read("calm_dx", 1.5, xs)
        assert got.value.shape == got.abs_err.shape == (7, len(xs)) and not got.errors
        for i, x in enumerate(xs):
            assert [(fv.value, fv.abs_err) for fv in quadrature.calm_dx_orders(
                EvalPoint(1.5, x), range(7), quad_cfg)] == list(
                zip(got.value[:, i].tolist(), got.abs_err[:, i].tolist()))
    assert list(stalls.errors) == [0, 1] and np.isnan(stalls.value).all()
    for got in stalls.errors.values():
        assert isinstance(got, NonConvergenceError) and re.search(stalled, str(got))
    ev = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    for lone in (ev, routes.memo(SERIES_DEFAULTS, QuadConfig()),
                 routes.Memo(SERIES_DEFAULTS, QUAD_DEFAULTS)):
        with pytest.raises(NonConvergenceError, match=stalled):
            _served(lone, "calm_dnu", -0.49898, 0.179)


def test_array_read_keeps_input_order_and_batches_its_misses(monkeypatch, cold_memo):
    """Memo.read returns each point's value in input order, each distinct miss read
    once, with NaN and the chain's error at the points that raised; a NaN coordinate
    reads nothing. Its quadrature misses reach calm_dx_points as one pass per order
    set, and no per-point pass runs. An error-free read is kept whole."""
    batches, singles = [], []
    points_pass, single = quadrature.calm_dx_points, quadrature.calm_dx_orders

    def recording(nu, x, orders, *cfg):
        batches.append((tuple(orders), list(zip(nu.tolist(), x.tolist()))))
        return points_pass(nu, x, orders, *cfg)

    monkeypatch.setattr(quadrature, "calm_dx_points", recording)
    monkeypatch.setattr(quadrature, "calm_dx_orders",
                        lambda *args: singles.append(args) or single(*args))
    ev = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    xs = [9.0, 0.5, -1.0, 15.0, math.nan, 9.0]
    got = ev.read("calm", 0.3, xs)
    primes = ev.read("m_prime", [[0.3], [0.4]], [12.0, 20.0, 0.5])
    assert singles == []
    assert batches == [((0,), [(0.3, 9.0), (0.3, 15.0)]),
                       ((0, 1), [(0.3, 12.0), (0.3, 20.0), (0.4, 12.0), (0.4, 20.0)])]
    assert list(got.errors) == [2] and isinstance(got.errors[2], DomainError)
    assert str(got.errors[2]) == "the normalized form requires x >= 0"
    for i, x in enumerate(xs):
        if i in (2, 4):
            assert math.isnan(got.value[i]) and math.isnan(got.abs_err[i])
        else:
            want = calm(EvalPoint(0.3, x))
            assert (got.value[i], got.abs_err[i]) == (want.value, want.abs_err), x
    assert primes.value.shape == (2, 3) and not primes.errors
    for (i, nu), (j, x) in itertools.product(enumerate((0.3, 0.4)),
                                             enumerate((12.0, 20.0, 0.5))):
        assert primes.value[i, j] == struve_m_prime(EvalPoint(nu, x)).value
    batches.clear()
    assert ev.read("calm", 0.3, xs).errors.keys() == {2}
    assert ev.read("m_prime", [[0.3], [0.4]], [12.0, 20.0, 0.5]) is primes
    assert batches == []


def test_array_read_takes_the_scalar_step_where_a_conversion_overflows(monkeypatch,
                                                                      cold_memo):
    """Where the array form of a step is NaN, the read takes the single call's chain
    from its start: M at nu = 161, x = 1e4 (the factor's exp overflows, the log-space
    branch serves), M and M' at nu = 200 (M overflows: the same CancellationError) and
    M' at tiny x (nu/x overflows: the tiny-x branch serves). Every value, bar and error
    equals the single call's."""
    chains = []
    auto = routes._auto
    monkeypatch.setattr(routes, "_auto", lambda kind, p, *args: chains.append(
        (kind, p.nu, p.x)) or auto(kind, p, *args))
    ev = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    points = {"m": ([161.0, 200.0, 1.0], [1e4, 1e4, 2.0]),
              "m_prime": ([161.0, 200.0, 2.0, 1.0], [1e4, 1e4, 1e-310, 5e-324])}
    reads = {kind: ev.read(kind, nu, x) for kind, (nu, x) in points.items()}
    assert sorted(chains) == sorted([("m", 161.0, 1e4), ("m", 200.0, 1e4),
                                     ("m_prime", 161.0, 1e4), ("m_prime", 200.0, 1e4),
                                     ("m_prime", 2.0, 1e-310), ("m_prime", 1.0, 5e-324)])
    for kind, (nu, x) in points.items():
        got = reads[kind]
        for i, (a, b) in enumerate(zip(nu, x)):
            single = struve_m if kind == "m" else struve_m_prime
            try:
                want = single(EvalPoint(a, b))
            except CancellationError as exc:
                assert (type(got.errors[i]), str(got.errors[i])) == (type(exc), str(exc))
                assert math.isnan(got.value[i]) and math.isnan(got.abs_err[i])
            else:
                assert i not in got.errors
                assert (got.value[i], got.abs_err[i]) == (want.value, want.abs_err), (a, b)


def test_sweep_batch_stalls_take_the_single_call_fallbacks(monkeypatch, cold_memo):
    """Next to nu = -1/2 a sweep's batch stalls: calM, M and M' at (-0.4999, 9).
    Their points return their stalls from the batch, and the memo then takes the
    single call's fallback (the escalated series, the M' recurrence), so every value
    it serves equals the automatic single call bit for bit, method included. M' at
    (-0.4999, 3) never reaches quadrature: in the band next to -1/2 the recurrence
    serves it at once. At nu = -0.4995 quadrature converges, since its tail bound
    charges e^(-xt)."""
    outcomes = {}
    points = quadrature.calm_dx_points

    def recording(nu, x, orders, *cfg):
        got = points(nu, x, orders, *cfg)
        outcomes.update(((a, b, tuple(orders)), got.errors.get(i)) for i, (a, b) in
                        enumerate(zip(nu.tolist(), x.tolist())))
        return got

    monkeypatch.setattr(quadrature, "calm_dx_points", recording)
    reads = {"calm": calm, "m": struve_m, "m_prime": struve_m_prime}

    def read_all(ev, nu, x, y=None):
        return [(sum(getattr(ev, kind)(nu, x).value for kind in reads), 0.0)]

    grid = GridSpec(nu_values=(-0.4999, -0.4995), x_values=(3.0, 9.0))
    report = sweep_case(replace(CATALOG["bound0"], sides=read_all), grid)
    assert report.points_tested == 4
    for key in ((-0.4999, 9.0, (0,)), (-0.4999, 9.0, (0, 1))):
        assert isinstance(outcomes[key], NonConvergenceError), key
    for key in ((-0.4995, 9.0, (0,)), (-0.4995, 9.0, (0, 1))):
        assert outcomes[key] is None, key
    assert (-0.4999, 3.0, (0, 1)) not in outcomes
    ev = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    for nu, x in itertools.product(grid.nu_values, grid.x_values):
        for kind, single in reads.items():
            assert _served(ev, kind, nu, x) == single(EvalPoint(nu, x)), (kind, nu, x)
    assert (_served(ev, "m", -0.4999, 9.0).method is _served(ev, "calm", -0.4999, 9.0).method
            is Method.SERIES)
    assert _served(ev, "m", -0.4995, 9.0).method is Method.QUADRATURE


def test_invalid_reads_raise_at_the_read_inside_a_sweep(cold_memo):
    """A read whose quadrature step would reject its input raises that
    DomainError at the read, as the single call does, instead of joining a
    batch: calM at x < 0, and M' at x = 0."""
    def reads(ev, nu, x, y=None):
        return [(ev.calm(nu, x).value + ev.m_prime(nu, x).value, 0.0)]

    grid = GridSpec(nu_values=(0.3,), x_values=(-1.0, 0.0, 9.0))
    report = sweep_case(replace(CATALOG["bound0"], sides=reads, any_x=True), grid)
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


#: Points the automatic chains of M, calM and M' leave to quadrature: past the
#: float64 series' reach, and where it does not certify (1, 7.9).
_QUADRATURE_SERVED = [(1.0, 7.9)] + [
    (nu, x) for nu in (0.3, 1.0, 20.0) for x in (8.1, 12.0, 1e3)]


def test_quadrature_step_is_the_explicit_route(monkeypatch):
    """Where quadrature serves the automatic chain, the chain calls the explicit
    quadrature route first, and its value, bar and method equal those of an explicit
    quadrature request."""
    calls = []
    for name in ("m_from_quadrature", "calm", "m_deriv"):
        route = getattr(quadrature, name)
        monkeypatch.setattr(quadrature, name, partial(
            lambda route, *args: calls.append(route.__name__) or route(*args), route))
    for fn, route in ((struve_m, "m_from_quadrature"), (calm, "calm"),
                      (struve_m_prime, "m_deriv")):
        for nu, x in _QUADRATURE_SERVED:
            p = EvalPoint(nu, x)
            calls.clear()
            got = fn(p)
            # m_from_quadrature calls calm in turn
            assert got.method is Method.QUADRATURE and calls[:1] == [route], (fn.__name__, nu, x)
            assert got == fn(p, method=Method.QUADRATURE), (fn.__name__, nu, x)


@pytest.mark.parametrize("fn, nu, x, message", [
    (struve_m_prime, 1.0, 0.0, "m_deriv requires x > 0"),
    *((fn, 1.0, 2e4, "quadrature route requires x <= 10000: past it its error bars are "
       "not certified") for fn in (struve_m, calm, struve_m_prime)),
])
def test_automatic_chain_raises_the_quadrature_route_error(fn, nu, x, message):
    """Off the quadrature route's domain the automatic chain raises that route's own
    error, text included."""
    for method in (None, Method.QUADRATURE):
        with pytest.raises(DomainError) as info:
            fn(EvalPoint(nu, x), method=method)
        assert str(info.value) == message, method


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


def test_normalized_form_domain():
    with pytest.raises(DomainError):
        calm(EvalPoint(-0.5, 1.0))
    with pytest.raises(DomainError):
        calm(EvalPoint(-0.75, 1.0))


@pytest.mark.parametrize("nu", [-0.4995, 0.3, 0.5])
def test_normalized_form_rejects_negative_arguments_alike(cold_memo, nu):
    """calM at x < 0 raises one DomainError at every order, in the band next to
    -1/2 and at the closed form too, from the single call and the memo alike."""
    ev = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    message = "^the normalized form requires x >= 0$"
    with pytest.raises(DomainError, match=message):
        calm(EvalPoint(nu, -1.0))
    with pytest.raises(DomainError, match=message):
        _served(ev, "calm", nu, -1.0)
    got = ev.read("calm", nu, [-1.0])
    assert isinstance(got.errors[0], DomainError) and re.search(message, str(got.errors[0]))


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
    in value, abs_err and method, also when it is read a second time, on every
    branch of the chains; an invalid read raises what the single call raises."""
    ev = routes.memo(series_cfg, quad_cfg)
    assert (ev.series_cfg, ev.quad_cfg) == (series_cfg, quad_cfg)
    m, m_prime, cm = ("m", struve_m), ("m_prime", struve_m_prime), ("calm", calm)
    for (kind, route), nu, x in (
            (m, 1.0, 2.0), (m, 0.3, 5.0), (m_prime, 1.5, 2.0), (m_prime, 0.3, 9.0),
            (cm, 1.0, 2.0), (cm, 0.3, 5.0),
            (m, -0.5, 2.0), (m, 0.5, 2.0), (cm, 0.5, 2.0), (m_prime, -0.5, 2.0),
            (m_prime, 0.5, 2.0),  # closed forms
            (cm, 1.0, 0.0), (m, -0.4995, 3.0), (cm, -0.4995, 3.0),  # gamma ratio, band
            (m, -0.4999, 9.0), (cm, -0.4999, 9.0), (m_prime, -0.4999, 3.0),  # stalls
            (cm, 80.0, 1e-4), (m, -0.75, 5.0)):  # M underflows, below -1/2
        want = route(EvalPoint(nu, x), None, series_cfg, quad_cfg)
        assert _served(ev, kind, nu, x) == want and _served(ev, kind, nu, x) == want, (
            route.__name__, nu, x)
    for (kind, route), nu, x in ((m, 1.0, -1.0), (m_prime, 1.0, 0.0), (cm, -0.5, 1.0)):
        with pytest.raises(StruveKitError) as single:
            route(EvalPoint(nu, x), None, series_cfg, quad_cfg)
        with pytest.raises(StruveKitError) as memoized:
            _served(ev, kind, nu, x)
        assert (type(memoized.value), str(memoized.value)) == (
            type(single.value), str(single.value)), (route.__name__, nu, x)


def test_memo_is_one_per_config_pair(cold_memo):
    """Equal config pairs share one memo; different pairs never share an
    entry, even where their values differ."""
    ev = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    assert routes.memo(SeriesConfig(), QuadConfig()) is ev
    loose = routes.memo(SERIES_DEFAULTS, QuadConfig(abs_tol=1e-6, max_level=3))
    assert loose is not ev
    tight, coarse = _served(ev, "calm", 0.3, 9.0), _served(loose, "calm", 0.3, 9.0)
    assert tight.method is coarse.method is Method.QUADRATURE
    assert tight.abs_err < coarse.abs_err
    assert _served(ev, "calm", 0.3, 9.0) == tight and _served(loose, "calm", 0.3, 9.0) == coarse


def _bounds(memo, nu, x):
    """The Theorem 4 bounds at (nu, x), as memo.derived calls a function."""
    return bilateral_bounds(EvalPoint(nu, x))


@pytest.mark.parametrize("nu, x", [(-0.5, 0.7), (-0.5, 12.0), (-0.3, 0.7), (-0.3, 12.0),
                                   (0.0, 2.0)])
def test_derived_values_equal_the_direct_computation(cold_memo, nu, x):
    """What margins derive at a point equals its direct computation. -M's
    x-derivatives (the closed form's at nu = -1/2, the Leibniz sum over calm_dx
    elsewhere) agree with independent evaluations: orders 0-2 with the closed forms
    at nu = -1/2, orders 0-1 with the automatic M and M' elsewhere. memo.derived(fn,
    nu, x) is fn(memo, nu, x), computed once and then read, as the Theorem 4 bounds
    and their read through Reads.each are."""
    ev = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    p = EvalPoint(nu, x)
    scale, sums = inequalities._neg_m_derivatives(
        inequalities.Reads(ev), np.array([nu]), np.array([x]))
    vals = [(scale * s).item() for s in sums]
    assert len(vals) == 7 and min(vals) > 0.0 and min(s.item() for s in sums) > 0.0
    # vals[n] = (-1)^n d^n(-M)/dx^n
    if nu == -0.5:
        checks = (-m_at_neg_half(x), m_prime_at_neg_half(x), -m_second_at_neg_half(x))
    else:
        checks = (-struve_m(p).value, struve_m_prime(p).value)
    for n, want in enumerate(checks):
        assert rel_err(vals[n], want) < 1e-12, (n, vals[n], want)
    if nu > -0.5:
        got = ev.derived(_bounds, nu, x)
        assert got == bilateral_bounds(p) and ev.derived(_bounds, nu, x) is got
        lower, upper = inequalities.Reads(ev).each(partial(ev.derived, _bounds), [nu, nu], x)
        assert (lower.tolist(), upper.tolist()) == ([got[0]] * 2, [got[1]] * 2)
        assert ev.derived.cache_info().currsize == 1


def test_a_derived_read_that_raises_caches_nothing(cold_memo):
    """A derived read that raises a StruveKitError leaves no entry. In a sweep's
    Reads the point keeps the error and reads NaN, and the other points their values."""
    ev = routes.memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    reads = inequalities.Reads(ev)
    lower, upper = reads.each(partial(ev.derived, _bounds), [-0.7, 0.7], 0.7)
    assert list(reads.errors) == [0] and isinstance(reads.errors[0], DomainError)
    assert math.isnan(lower[0]) and math.isnan(upper[0])
    assert (lower[1], upper[1]) == bilateral_bounds(EvalPoint(0.7, 0.7))
    assert ev.derived.cache_info().currsize == 1


def test_concurrent_sweeps_share_the_memo(monkeypatch, cold_memo):
    """Sweeps in six threads at once, switching threads every microsecond, read and
    fill one memo whose stores keep only 64 entries each, so that entries are dropped
    while other threads read them. Every report equals the one a lone sweep gives."""
    cases = [CATALOG[cid] for cid in ("bound0", "quot1", "cm_probe_x", "logconvex_x")]
    grid = GridSpec(nu_values=(0.3, 1.0, 2.5), x_values=(0.5, 3.0, 9.0, 20.0))
    want = [inequalities.report_to_json_dict(sweep_case(case, grid)) for case in cases]
    routes.memo.cache_clear()
    monkeypatch.setattr(routes, "_MEMO_SIZE", 64)
    monkeypatch.setattr(routes, "_ARRAY_READS", 2)
    got, failures = [], []

    def sweep_all():
        try:
            for _ in range(3):
                got.append([inequalities.report_to_json_dict(sweep_case(case, grid))
                            for case in cases])
        except Exception as exc:  # reported below, with the thread's traceback lost
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep_all) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [] and len(got) == 18
    assert all(reports == want for reports in got)


def _single_or_error(kind, nu, x):
    """kind at (nu, x) by the single call's chain: its values and bars as float lists
    (one per order for the probes), or the RECORDED error it raised."""
    try:
        fv = routes._auto(kind, EvalPoint(nu, x), SERIES_DEFAULTS, QUAD_DEFAULTS)
    except routes.RECORDED as exc:
        return exc
    fvs = fv if isinstance(fv, tuple) else (fv,)
    return [f.value for f in fvs], [f.abs_err for f in fvs]


def _bits(values) -> list:
    return np.asarray(values, float).ravel().view(np.int64).tolist()


_READ_NU = st.one_of(st.sampled_from([-0.5, 0.5, -0.49898, -0.0, 0.0, -1.0, 20.0, math.nan]),
                     st.floats(min_value=-1.2, max_value=25.0))
_READ_X = st.one_of(st.sampled_from([-0.0, 0.0, 0.179, -1.0, 1e-310, 9.0, 30.0, math.nan]),
                    st.floats(min_value=0.0, max_value=40.0))
#: Reads drawn with repeats, in any order, from up to six distinct points.
_READ_POINTS = st.lists(st.tuples(_READ_NU, _READ_X), min_size=1, max_size=6).flatmap(
    lambda pts: st.lists(st.sampled_from(pts), min_size=1, max_size=2 * len(pts)))


@pytest.mark.parametrize("kind", list(routes._CHAINS))
@given(points=_READ_POINTS)
@example(points=[(math.nan, 1.0), (0.3, math.nan), (math.nan, math.nan)])
@example(points=[(-0.49898, 0.179), (0.3, -0.0), (0.3, 0.0), (-0.0, 2.0), (0.0, 2.0),
                 (-0.49898, 0.179), (-0.7, 1.0), (0.5, 3.0), (1.0, -1.0)])
@example(points=[(161.0, 1e4), (200.0, 1e4), (2.0, 1e-310), (1.0, 5e-324), (-0.4999, 9.0),
                 (-0.4999, 9.0)])
def test_array_read_equals_single_calls_point_by_point(kind, points):
    """Memo.read on a cold memo against the single call's chain at each point: values
    and bars bit for bit, and at exactly the points where the single call raises the
    same error type and text. A repeated point reads its first occurrence (+-0.0 are one
    key, as in a dict), a NaN coordinate reads NaN and no error, and an all-NaN read
    of an empty store reads nothing. The store then holds each point that did not
    raise once, in a row of the same bits again."""
    nu, x = (np.array(axis, float) for axis in zip(*points))
    ev = routes.Memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    got = ev.read(kind, nu, x)
    value, abs_err = (np.moveaxis(a, 0, -1).reshape(len(points), -1) for a in got[:2])
    first = {}
    for i, key in enumerate(points):
        first.setdefault(key, i)  # keyed as in a dict: -0.0 equals 0.0
    want = {i: _single_or_error(kind, *points[i]) for i in set(first.values())}
    kept = set()
    for i, key in enumerate(points):
        if math.isnan(key[0]) or math.isnan(key[1]):
            assert i not in got.errors and np.isnan(value[i]).all(), key
            continue
        ref = want[first[key]]
        if isinstance(ref, Exception):
            assert type(got.errors[i]) is type(ref) and str(got.errors[i]) == str(ref), key
            assert np.isnan(value[i]).all() and np.isnan(abs_err[i]).all(), key
            continue
        assert i not in got.errors, key
        assert (_bits(value[i]), _bits(abs_err[i])) == (_bits(ref[0]), _bits(ref[1])), key
        kept.add(points[first[key]])
    store = ev.stores[kind]
    assert sorted(zip(store.keys.real.tolist(), store.keys.imag.tolist())) == sorted(kept)
    for key in kept:
        i = store.keys.tolist().index(complex(*key))
        ref = want[first[key]]
        assert (_bits(store.value[i]), _bits(store.abs_err[i])) == (
            _bits(ref[0]), _bits(ref[1])), key


def test_a_full_store_keeps_its_newest_points(monkeypatch):
    """With room for 8 points, reads of three blocks of 4 leave the last two blocks in
    the store, and a block larger than the store keeps 8 of its points. Every read,
    of evicted points too, still equals the single calls."""
    monkeypatch.setattr(routes, "_MEMO_SIZE", 8)
    monkeypatch.setattr(routes, "_ARRAY_READS", 0)  # every read goes to the store
    ev = routes.Memo(SERIES_DEFAULTS, QUAD_DEFAULTS)
    blocks = [[(nu, x) for x in (0.5, 3.0, 9.0, 20.0)] for nu in (0.3, 1.0, 2.5)]

    def check(points):
        got = ev.read("calm", *zip(*points))
        assert not got.errors
        for i, p in enumerate(points):
            ref = calm(EvalPoint(*p))
            assert (got.value[i], got.abs_err[i]) == (ref.value, ref.abs_err), p

    def stored():
        keys = ev.stores["calm"].keys
        return set(zip(keys.real.tolist(), keys.imag.tolist()))

    for block in blocks:
        check(block)
    assert stored() == set(blocks[1] + blocks[2])
    check(blocks[0] + blocks[2])
    assert stored() == set(blocks[2] + blocks[0])
    check([(4.0, x) for x in (0.5, 1.0, 2.0, 3.0, 5.0, 9.0, 12.0, 15.0, 20.0, 25.0)])
    assert len(stored()) == 8 and len(set(ev.stores["calm"].serial.tolist())) == 8
    check(blocks[1])


@pytest.mark.parametrize("form, x, reason", [
    (m_at_neg_half, 0.0, "closed forms require x > 0"),
    (m_at_pos_half, -1.0, "closed forms require x > 0"),
    (m_prime_at_neg_half, 0.0, "closed forms require x > 0"),
    (m_prime_at_pos_half, -5e-324, "closed forms require x > 0"),
    (m_second_at_neg_half, -1.0, "closed forms require x > 0"),
    (m_at_pos_half, math.nan, "closed forms require x > 0"),
    (calm_at_pos_half, -5e-324, "the normalized form requires x >= 0"),
])
def test_closed_forms_refuse_arguments_off_their_domain(form, x, reason):
    """The elementary expressions take x > 0, calM's x >= 0."""
    with pytest.raises(DomainError, match=reason):
        form(x)
