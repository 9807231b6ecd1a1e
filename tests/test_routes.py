"""Route dispatch: automatic selection, explicit routes, cross-route agreement."""

import math

import mpmath
import pytest

from struvekit.closedforms import (calm_at_pos_half, m_at_neg_half,
                                   m_at_pos_half, m_prime_at_neg_half,
                                   m_prime_at_pos_half)
from struvekit.core import EvalPoint, Method
from struvekit.errors import DomainError
from struvekit.routes import (cached_calm, cached_m, cached_m_prime, calm,
                              struve_m, struve_m_prime)

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
    assert struve_m(EvalPoint(1.0, 7.9)).method is Method.SERIES
    assert struve_m(EvalPoint(1.0, 8.1)).method is Method.QUADRATURE
    assert calm(EvalPoint(1.0, 7.9)).method is Method.SERIES
    assert calm(EvalPoint(1.0, 8.1)).method is Method.QUADRATURE
    assert calm(EvalPoint(1.0, 0.0)).method is Method.CLOSED_FORM


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


def test_cached_wrappers_match_uncached():
    assert cached_m(1.0, 2.0) == struve_m(EvalPoint(1.0, 2.0)).value
    assert cached_m_prime(1.5, 2.0) == struve_m_prime(EvalPoint(1.5, 2.0)).value
    assert cached_calm(1.0, 2.0) == calm(EvalPoint(1.0, 2.0)).value
