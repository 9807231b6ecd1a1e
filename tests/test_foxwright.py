"""Fox-Wright series route: reference values, guard rails, bound machinery."""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from struvekit import routes
from struvekit.core import EvalPoint, Method, SeriesConfig
from struvekit.errors import (CancellationError, ConvergenceDomainError,
                              DomainError, NonConvergenceError, PoleError)
from struvekit.foxwright import (FoxWrightParams, bilateral_bounds, bilateral_bounds_points,
                                 calm_via_fox_wright, fox_wright_eval,
                                 fx4_conditions, fx4_margins,
                                 norm_form_params, psi_m)
from struvekit.gammafuncs import SQRT_PI, gamma, gamma_ratio

from conftest import rel_err
from oracles import CALM_TABLE, FOX_WRIGHT_TABLE


def test_series_matches_reference_values():
    """The 1Psi1 sum agrees with high-precision references, both signs of z."""
    for (nu, z), want in FOX_WRIGHT_TABLE.items():
        got = fox_wright_eval(norm_form_params(nu), z)
        assert rel_err(got.value, want) < 1e-12, (nu, z)
        assert abs(got.value - want) <= max(got.abs_err, 1e-13 * abs(want))


def test_normalized_form_matches_reference_at_moderate_x():
    checked = 0
    for (nu, x), want in CALM_TABLE.items():
        if x > 6.0:
            continue
        got = calm_via_fox_wright(EvalPoint(nu, x))
        assert rel_err(got.value, want) < 1e-10, (nu, x)
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("fn, nu, x", [
    ("calM", 51.11361046424727, 1.088046025867304),
    ("M", 38.595514595094336, 7.3487931249898315),
])
def test_bar_covers_the_value_at_large_order(fn, nu, x):
    """At large order every term's log-gamma sum runs to the hundreds (lgamma(nu+1/2)
    is about 150 at nu = 51), and exp() turns its absolute rounding into relative
    error: the bars charge each term and the Gamma(nu+1/2)/sqrt(pi) factor by that
    size. calM here was 6.1x outside its old bar of eps |value| for the factor."""
    with mpmath.workdps(80):
        nu_, x_ = mpmath.mpf(nu), mpmath.mpf(x)
        m = mpmath.struvel(nu_, x_) - mpmath.besseli(nu_, x_)
        ref = m if fn == "M" else -(2 ** nu_) * mpmath.gamma(nu_ + 0.5) * x_ ** -nu_ * m
    evaluate = routes.struve_m if fn == "M" else routes.calm
    got = evaluate(EvalPoint(nu, x), Method.FOX_WRIGHT)
    assert abs(mpmath.mpf(got.value) - ref) <= got.abs_err, (got, ref)


def test_argument_zero_returns_leading_coefficient():
    params = norm_form_params(1.5)
    got = fox_wright_eval(params, 0.0)
    assert got.value == pytest.approx(psi_m(params, 0), rel=1e-15)
    assert got.abs_err <= 1e-14


@pytest.mark.parametrize("nu", [1.0, 50.0, 100.0])
def test_argument_zero_bar_covers_the_leading_coefficient(nu):
    """At z = 0 the sum is its leading term Gamma(1/2)/Gamma(nu+1), whose exp()
    rounding follows its log-gamma sum; a bar of eps |value| left it 1.3x, 42x and
    125x outside here."""
    got = fox_wright_eval(norm_form_params(nu), 0.0)
    with mpmath.workdps(50):
        want = mpmath.gamma(0.5) / mpmath.gamma(mpmath.mpf(nu) + 1)
    assert abs(mpmath.mpf(got.value) - want) <= got.abs_err, (got, want)


def test_normalized_form_bar_at_zero_argument():
    """calM_nu(0) = Gamma(nu+1/2)/Gamma(nu+1) lies within the route's bar at 400
    seeded orders; leaving out the leading term's rounding put one 1.25x outside."""
    rng = random.Random(2)
    for nu in (rng.uniform(-0.5, 171.0) for _ in range(400)):
        got = calm_via_fox_wright(EvalPoint(nu, 0.0))
        with mpmath.workdps(50):
            want = mpmath.gamma(mpmath.mpf(nu) + 0.5) / mpmath.gamma(mpmath.mpf(nu) + 1)
        assert abs(mpmath.mpf(got.value) - want) <= got.abs_err, nu


def test_overflow_is_refused():
    """Gamma(nu+1/2) overflows float64 from nu = 171.6 at any x, and at nu = 1,
    x = 1000 a term of the sum does: each raises CancellationError, where a bare
    OverflowError once escaped. Over 700 seeded points in nu in [-0.49, 600],
    x in {0} and [1e-3, 25], every value is finite or refused."""
    for nu, x in ((171.7, 0.0), (200.0, 1.0), (1.0, 1000.0)):
        with pytest.raises(CancellationError, match="overflows float64"):
            calm_via_fox_wright(EvalPoint(nu, x))
    rng = random.Random(0)
    for _ in range(700):
        p = EvalPoint(rng.uniform(-0.49, 600.0),
                      0.0 if rng.random() < 0.2 else rng.uniform(1e-3, 25.0))
        try:
            fv = calm_via_fox_wright(p)
        except CancellationError:
            continue
        assert math.isfinite(fv.value) and math.isfinite(fv.abs_err), p


def test_term_budget_too_small_raises():
    """Thirty terms do not settle the normalized form's series at z = -20."""
    with pytest.raises(NonConvergenceError, match="^series did not settle within 30 terms$"):
        fox_wright_eval(norm_form_params(1.0), -20.0, SeriesConfig(max_terms=30))


def test_convergence_index_gate():
    """Series with epsilon <= 0 must be refused, not summed divergently."""
    bad = FoxWrightParams(upper=((1.0, 2.0),), lower=((1.0, 0.5),))
    assert bad.convergence_index == pytest.approx(-0.5)
    with pytest.raises(ConvergenceDomainError):
        fox_wright_eval(bad, 0.5)
    good = norm_form_params(0.0)
    assert good.convergence_index == pytest.approx(1.0)


def test_gamma_pole_in_parameters_raises():
    with pytest.raises(PoleError):
        fox_wright_eval(FoxWrightParams(upper=((0.0, 0.5),),
                                        lower=((1.0, 0.5),)), 0.5)
    with pytest.raises(PoleError):
        psi_m(FoxWrightParams(upper=((-1.0, 1.0),), lower=((1.0, 1.0),)), 0)


@pytest.mark.parametrize("z", [0.5, -1.0, 2.0])
def test_negative_gamma_arguments_carry_their_sign(z):
    """The upper parameter -0.3 makes the first term's gamma argument negative, so
    that term is summed from log|gamma(-0.3)| with gamma's sign. The sum lies within
    its bar of a 50-digit sum of gamma(-0.3 + n/2) / gamma(1 + n/2) z^n / n!."""
    got = fox_wright_eval(FoxWrightParams(upper=((-0.3, 0.5),), lower=((1.0, 0.5),)), z)
    with mpmath.workdps(50):
        a, zz = mpmath.mpf("-0.3"), mpmath.mpf(z)
        want = mpmath.nsum(lambda n: mpmath.gamma(a + n / 2) / mpmath.gamma(1 + n / 2)
                           * zz ** n / mpmath.factorial(n), [0, mpmath.inf])
        assert abs(got.value - want) <= got.abs_err, (got, want)


def test_alternating_cancellation_refused_at_large_x():
    """At large x the alternating sum loses too many digits and must refuse
    rather than return a polluted value."""
    with pytest.raises(CancellationError):
        calm_via_fox_wright(EvalPoint(1.0, 30.0))


def test_nonfinite_parameters_rejected():
    with pytest.raises(DomainError):
        FoxWrightParams(upper=((math.inf, 0.5),), lower=((1.0, 0.5),))
    with pytest.raises(DomainError):
        FoxWrightParams(upper=((0.5, 0.5),), lower=((1.0, math.nan),))


def test_normalized_form_domain():
    with pytest.raises(DomainError):
        calm_via_fox_wright(EvalPoint(-0.5, 1.0))
    with pytest.raises(DomainError):
        calm_via_fox_wright(EvalPoint(1.0, -0.1))
    with pytest.raises(DomainError):
        psi_m(norm_form_params(1.0), -1)


def test_psi_m_negative_noninteger_arguments():
    """Coefficients with negative non-integer gamma arguments use the direct
    product path and keep the sign."""
    params = FoxWrightParams(upper=((-0.3, 0.25),), lower=((1.0, 1.0),))
    assert psi_m(params, 0) == pytest.approx(gamma(-0.3), rel=1e-13)
    assert psi_m(params, 0) < 0.0


def test_psi_m_log_space_matches_direct_products():
    params = norm_form_params(2.5)
    for m in range(4):
        direct = gamma(0.5 + 0.5 * m) / gamma(3.5 + 0.5 * m)
        assert psi_m(params, m) == pytest.approx(direct, rel=1e-13)


def test_coefficient_conditions_hold_across_order_range():
    """Both gate conditions for the bilateral bound hold on the whole
    admissible order range, with strictly positive margins."""
    lo = -0.49
    for i in range(40):
        nu = lo + (100.0 - lo) * i / 39.0
        params = norm_form_params(nu)
        first, second = fx4_margins(params)
        assert first > 0.0, nu
        assert second > 0.0, nu
        assert fx4_conditions(params) == (True, True)


def test_bilateral_bounds_collapse_at_zero():
    for nu in (-0.45, 0.0, 1.0, 7.5):
        gr = gamma_ratio(nu + 0.5, nu + 1.0)
        lower, upper = bilateral_bounds(EvalPoint(nu, 0.0))
        assert lower == pytest.approx(gr, rel=1e-14)
        assert upper == pytest.approx(gr, rel=1e-14)


def test_bilateral_bounds_bracket_reference_values():
    for (nu, x), want in CALM_TABLE.items():
        lower, upper = bilateral_bounds(EvalPoint(nu, x))
        assert lower <= want * (1.0 + 1e-12), (nu, x)
        assert want <= upper * (1.0 + 1e-12) + 1e-12, (nu, x)


def _bilateral_reference(nu, x):
    """The Theorem 4 bounds in math's scalar arithmetic, operation for operation."""
    gr = gamma_ratio(nu + 0.5, nu + 1.0)
    rate = gamma_ratio(nu + 1.0, nu + 1.5) / SQRT_PI
    return gr * math.exp(-rate * x), gr - (-math.expm1(-x)) / (SQRT_PI * (nu + 0.5))


@given(st.lists(st.tuples(st.floats(min_value=-0.4999, max_value=1e3),
                          st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e4))),
                min_size=1, max_size=8))
@example([(-0.4999, 0.0), (-0.4999, 1e-300), (0.3, 1.0), (80.0, 1e4), (1e3, 1e4)])
def test_bilateral_bounds_points_equal_the_scalar_bounds(points):
    """bilateral_bounds_points gives bilateral_bounds at every point, and both the
    scalar formula's bits, with repeated orders and arguments among the points."""
    nu, x = map(np.array, zip(*(points + points[:1])))
    lower, upper = bilateral_bounds_points(nu, x)
    for i, (v, w) in enumerate(points + points[:1]):
        want = [b.hex() for b in _bilateral_reference(v, w)]
        assert [b.hex() for b in bilateral_bounds(EvalPoint(v, w))] == want
        assert [lower[i].hex(), upper[i].hex()] == want


def test_bilateral_bounds_domain():
    with pytest.raises(DomainError):
        bilateral_bounds(EvalPoint(-0.5, 1.0))
    with pytest.raises(DomainError):
        bilateral_bounds(EvalPoint(1.0, -1.0))


def test_tight_tolerance_config_shrinks_error_bar():
    loose = fox_wright_eval(norm_form_params(1.0), -2.0,
                            SeriesConfig(rel_tol=1e-8))
    tight = fox_wright_eval(norm_form_params(1.0), -2.0,
                            SeriesConfig(rel_tol=1e-14))
    assert tight.abs_err <= loose.abs_err
    assert rel_err(tight.value, FOX_WRIGHT_TABLE[(1.0, -2.0)]) < 1e-13
