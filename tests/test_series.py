"""Series route: first-kind functions, the merged difference series, and
the normalized-form conversion."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from struvekit import quadrature, series
from struvekit.core import EvalPoint, FuncValue, Method, SeriesConfig
from struvekit.errors import CancellationError, DomainError, NonConvergenceError
from struvekit.gammafuncs import log_gamma, log_half
from struvekit.series import (X_CANCEL_MAX, bessel_i, calm_from_m, m_from_calm,
                              m_prime_from_calm, struve_l, struve_m_float,
                              struve_m_float_points, struve_m_series)

from conftest import rel_err
from oracles import BESSEL_I_TABLE, CALM_TABLE, M_TABLE, STRUVE_L_TABLE


@pytest.mark.parametrize("key,want", sorted(BESSEL_I_TABLE.items()))
def test_bessel_i_table(key, want):
    nu, x = key
    fv = bessel_i(EvalPoint(nu, x))
    assert rel_err(fv.value, want) < 1e-13
    assert abs(fv.value - want) <= max(fv.abs_err, 1e-13 * abs(want))


@pytest.mark.parametrize("key,want", sorted(STRUVE_L_TABLE.items()))
def test_struve_l_table(key, want):
    nu, x = key
    fv = struve_l(EvalPoint(nu, x))
    assert rel_err(fv.value, want) < 1e-13


@pytest.mark.parametrize("key,want", sorted(M_TABLE.items()))
def test_merged_series_table(key, want):
    nu, x = key
    fv = struve_m_series(EvalPoint(nu, x))
    assert rel_err(fv.value, want) < 1e-12


def test_merged_series_closed_forms():
    # x beyond the cancellation cutoff exercises the escalated branch
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        want_neg = -math.sqrt(2.0 / (math.pi * x)) * math.exp(-x)
        want_pos = math.sqrt(2.0 / (math.pi * x)) * (math.exp(-x) - 1.0)
        assert rel_err(struve_m_series(EvalPoint(-0.5, x)).value,
                       want_neg) < 1e-11
        assert rel_err(struve_m_series(EvalPoint(0.5, x)).value,
                       want_pos) < 1e-11


def test_value_at_zero_argument_by_order_sign():
    assert struve_m_series(EvalPoint(1.0, 0.0)).value == 0.0
    assert struve_m_series(EvalPoint(0.0, 0.0)).value == -1.0
    assert struve_m_series(EvalPoint(-0.5, 0.0)).value == -math.inf


@pytest.mark.parametrize("fn, nu, want", [
    (bessel_i, 0.0, 1.0), (bessel_i, 1.5, 0.0), (bessel_i, -0.5, math.inf),
    (struve_l, 0.5, 0.0), (struve_l, -1.0, 2.0 / math.pi), (struve_l, -1.25, math.inf),
])
def test_first_kind_limits_at_zero_argument(fn, nu, want):
    assert fn(EvalPoint(nu, 0.0)) == FuncValue(want, 0.0, Method.SERIES)


def test_cancellation_refused_when_uncertifiable():
    with pytest.raises(CancellationError):
        struve_m_series(EvalPoint(1.0, 500.0))


@pytest.mark.parametrize("fn, p, cfg, error, message", [
    (struve_m_series, EvalPoint(2.0, 1e300), SeriesConfig(), CancellationError,
     "M series at (nu=2, x=1e+300) overflows float64; use the quadrature route"),
    (bessel_i, EvalPoint(0.0, 60.0), SeriesConfig(max_terms=30), NonConvergenceError,
     "series for (nu=0, x=60) did not settle in 60 terms"),
    (struve_l, EvalPoint(0.0, 60.0), SeriesConfig(max_terms=30), NonConvergenceError,
     "series for (nu=0, x=60) did not settle in 60 terms"),
])
def test_series_error_exits_name_their_cause(fn, p, cfg, error, message):
    """A leading term past float64 and a term budget too small for x raise with the
    point and the cause."""
    with pytest.raises(error) as info:
        fn(p, cfg)
    assert str(info.value) == message


def test_domain_rejections():
    with pytest.raises(DomainError):
        bessel_i(EvalPoint(-1.0, 1.0))
    with pytest.raises(DomainError):
        struve_l(EvalPoint(-1.5, 1.0))
    with pytest.raises(DomainError):
        struve_m_series(EvalPoint(-1.0, 1.0))
    with pytest.raises(DomainError):
        struve_m_series(EvalPoint(1.0, -1.0))
    c = FuncValue(1.0, 0.0, Method.QUADRATURE)
    for p in (EvalPoint(-0.5, 1.0), EvalPoint(1.0, 0.0), EvalPoint(1.0, -1.0)):
        with pytest.raises(DomainError):
            m_from_calm(p, c)
        with pytest.raises(DomainError):
            m_prime_from_calm(p, c, c)


@pytest.mark.parametrize("fn, subnormal_at", [(bessel_i, 1e-161), (struve_l, 6e-107)])
def test_first_kind_series_past_the_float64_range(fn, subnormal_at):
    """A leading term that underflows, with a sum below the smallest subnormal
    (I_2(1e-300) ~ 1.25e-601), gives 0 with that subnormal for its bar; one that
    overflows, or underflows while the sum need not (nu = 1e4 near the Laplace limit
    x = 0.6627 nu), or whose sum overflows (x = 1e4), raises CancellationError; a
    subnormal one settles."""
    assert fn(EvalPoint(2.0, 1e-300)) == FuncValue(0.0, 5e-324, Method.SERIES)
    for p in (EvalPoint(300.0, 5000.0), EvalPoint(1e4, 6628.0), EvalPoint(1.0, 1e4)):
        with pytest.raises(CancellationError):
            fn(p)
    p = EvalPoint(2.0, subnormal_at)
    fv = fn(p)
    want = float(mp.besseli(2, mp.mpf(p.x)) if fn is bessel_i else mp.struvel(2, mp.mpf(p.x)))
    assert 0.0 < fv.value < 1e-308 and abs(fv.value - want) <= fv.abs_err


@pytest.mark.parametrize("fn, nu, x", [
    (bessel_i, 39.13, 617.1), (bessel_i, 15.86036688476029, 0.04396987649080479),
    (struve_l, 26.82, 0.005), (struve_l, 17.101108916544185, 0.011535359186916975),
    (bessel_i, 1.0, 710.0), (struve_l, 1.0, 710.0), (bessel_i, -0.9, 713.5),
])
def test_first_kind_values_hold_their_error_bars(fn, nu, x):
    """Each value lies within its bar of mpmath at 50 digits. The first four lay 34x,
    22x, 10x and 44x outside a bar that left out the first term's exp() rounding and
    the term recurrence's. Near x = 710 the terms peak past max_terms = 500
    (I_1(710) = 3.34e306), so the sum runs up to x/2 more terms."""
    fv = fn(EvalPoint(nu, x))
    with mp.workdps(50):
        want = (mp.besseli if fn is bessel_i else mp.struvel)(nu, x)
        assert abs(mp.mpf(fv.value) - want) <= fv.abs_err


def test_cutoff_constant_is_sane():
    assert 0.0 < X_CANCEL_MAX <= 16.0


@pytest.mark.parametrize("key", sorted(k for k in M_TABLE if k[0] > -0.5
                                       and k[1] > 0.0))
def test_normalized_conversion_round_trip(key):
    nu, x = key
    p = EvalPoint(nu, x)
    m = struve_m_series(p)
    c = calm_from_m(p, m)
    back = m_from_calm(p, c)
    assert rel_err(back.value, m.value) < 1e-14
    assert rel_err(c.value, CALM_TABLE[key]) < 1e-12


@given(st.floats(min_value=-0.45, max_value=6.0),
       st.floats(min_value=1e-3, max_value=7.5))
def test_merged_series_equals_difference_of_parts(nu, x):
    # in the pre-cancellation regime the merged pass must agree with the
    # literal difference of the two first-kind series
    p = EvalPoint(nu, x)
    merged = struve_m_series(p).value
    diff = struve_l(p).value - bessel_i(p).value
    assert abs(merged - diff) <= 1e-11 * max(1.0, abs(bessel_i(p).value))


def test_tight_tolerance_config_respected():
    fv = struve_m_series(EvalPoint(1.0, 1.0), SeriesConfig(rel_tol=1e-9))
    assert rel_err(fv.value, M_TABLE[(1.0, 1.0)]) < 1e-8


#: Orders in (-1, 40] and arguments in [5e-324, X_CANCEL_MAX], subnormal ones included.
_FLOAT_PASS_POINTS = st.lists(st.tuples(
    st.floats(min_value=-1.0, max_value=40.0, exclude_min=True),
    st.one_of(st.floats(min_value=5e-324, max_value=X_CANCEL_MAX),
              st.floats(min_value=5e-324, max_value=1e-300))), min_size=1, max_size=40)


@given(_FLOAT_PASS_POINTS, st.sampled_from([0, 1]))
@example([(0.1, 7.9), (2.0, 5e-324), (-0.9, 4.0), (30.0, 1e-3), (1.0, 2.0)], 0)
@example([(0.1, 7.9), (2.0, 5e-324), (-0.9, 4.0), (30.0, 1e-3), (1.0, 2.0)], 1)
def test_array_float_pass_equals_the_single_pass(points, order):
    """struve_m_float_points gives at every point struve_m_float's value and bar bit
    for bit, and NaN for both where that gives None: the points it does not certify
    (0.1, 7.9 and -0.9, 4 above) and those whose terms overflow or underflow."""
    nu, x = zip(*points)
    value, abs_err = struve_m_float_points(nu, x, SeriesConfig(), order)
    assert value.shape == abs_err.shape == (len(points),)
    for p, v, e in zip(points, value.tolist(), abs_err.tolist()):
        fv = struve_m_float(EvalPoint(*p), SeriesConfig(), order)
        if fv is None:
            assert math.isnan(v) and math.isnan(e), p
        else:
            assert fv.method is Method.SERIES
            assert (v.hex(), e.hex()) == (fv.value.hex(), fv.abs_err.hex()), p


def _scalar_outcome(fn):
    """fn()'s value and bar as hex strings, or the type and message of what it raised."""
    try:
        fv = fn()
    except (ArithmeticError, DomainError) as exc:
        return type(exc), str(exc)
    return fv.value.hex(), fv.abs_err.hex()


#: Orders in (-1/2, 40] and arguments in [5e-324, X_MAX], subnormal ones included.
_CONVERSION_POINTS = st.lists(st.tuples(
    st.floats(min_value=-0.5, max_value=40.0, exclude_min=True),
    st.one_of(st.floats(min_value=5e-324, max_value=quadrature.X_MAX),
              st.floats(min_value=5e-324, max_value=1e-300)),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=0.0, max_value=1.0),
    st.one_of(st.floats(min_value=-1e3, max_value=1e3), st.sampled_from([1e308, -1e308]))),
    min_size=1, max_size=30)

#: Where the factor's exp overflows (calm_from_m at large order and tiny x, m_from_calm
#: at nu = 161 and 200, x = 1e4), where nu/x overflows (tiny x), where the value
#: overflows (c = 1e308), and ordinary points.
_CONVERSION_EDGES = [(40.0, 1e-300, 0.5, 1e-16, -0.1), (0.3, 5e-324, 1.0, 1e-16, 2.0),
                     (161.0, 1e4, 1e-4, 1e-18, -1e-6), (200.0, 1e4, 1e-4, 1e-18, -1e-6),
                     (2.0, 1e-310, 0.2, 1e-17, -0.5), (1.0, 5e-324, 0.9, 1e-16, -0.4),
                     (3.0, 2.0, 1e308, 1e290, -1e308), (0.0, 1e-320, 1.1, 1e-16, -1.0),
                     (-0.49, 7.0, 2.0, 1e-15, -0.3), (12.0, 30.0, 0.03, 1e-17, -1e-3)]


@given(_CONVERSION_POINTS)
@example(_CONVERSION_EDGES)
def test_array_conversions_equal_the_scalar_functions(points):
    """calm_from_m_points, m_from_calm_points and m_prime_from_calm_points give every
    value and bar of calm_from_m, m_from_calm and m_prime_from_calm bit for bit where
    they give a number, and NaN (value and bar) where the scalar function raises, so
    that those points take the scalar path and raise its error. They leave to it
    only the points where it takes another branch: the factor's exp past LOG_MAX,
    nu/x past float64, a value that is not finite."""
    nu, x, c, c_err, c1 = (np.array(a) for a in zip(*points))
    c1_err = 0.5 * c_err
    arrays = {
        "calm_from_m": series.calm_from_m_points(nu, x, c, c_err),
        "m_from_calm": series.m_from_calm_points(nu, x, c, c_err),
        "m_prime_from_calm": series.m_prime_from_calm_points(nu, x, c, c_err, c1, c1_err)}
    for i, (a, b) in enumerate(zip(nu.tolist(), x.tolist())):
        p = EvalPoint(a, b)
        fv = FuncValue(c.item(i), c_err.item(i), Method.QUADRATURE)
        fv1 = FuncValue(c1.item(i), c1_err.item(i), Method.QUADRATURE)
        scalar = {"calm_from_m": lambda: calm_from_m(p, fv),
                  "m_from_calm": lambda: m_from_calm(p, fv),
                  "m_prime_from_calm": lambda: m_prime_from_calm(p, fv, fv1)}
        log_power, log_gam = a * log_half(b), log_gamma(a + 0.5)
        exp_args = {"calm_from_m": a * series._log_two_over(b) + log_gam,
                    "m_from_calm": log_power - log_gam, "m_prime_from_calm": log_power - log_gam}
        for name, (value, abs_err) in arrays.items():
            want = _scalar_outcome(scalar[name])
            v, e = value.item(i), abs_err.item(i)
            if math.isnan(v):
                assert math.isnan(e), (name, points[i])
                served = isinstance(want[0], str) and all(math.isfinite(float.fromhex(w)) for w in want)
                assert not (served and exp_args[name] < 700.0 and abs(a / b) < 1e300
                            and max(abs(c.item(i)), abs(c1.item(i))) < 1e300), (name, points[i])
            else:
                assert (v.hex(), e.hex()) == want, (name, points[i])


@pytest.mark.parametrize("fn, x, reason", [
    (bessel_i, -1.0, "bessel_i requires x >= 0"),
    (bessel_i, -5e-324, "bessel_i requires x >= 0"),
    (struve_l, -1.0, "struve_l requires x >= 0"),
    (struve_l, -5e-324, "struve_l requires x >= 0"),
])
def test_first_kind_series_refuse_negative_arguments(fn, x, reason):
    with pytest.raises(DomainError, match=reason):
        fn(EvalPoint(1.0, x))
