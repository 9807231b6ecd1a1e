"""Gamma-function helpers against frozen mpmath references."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from struvekit.errors import CancellationError, DomainError, PoleError
from struvekit.gammafuncs import (EULER_GAMMA, LN2, LOG_MAX, LOG_SQRT_PI, SQRT_PI, digamma,
                                  gamma, gamma_ratio, gamma_ratio_f, gamma_ratio_g,
                                  gamma_ratio_h, gamma_ratio_h_prime, log_gamma, log_half,
                                  power_gamma, power_gamma_points, trigamma)

from conftest import rel_err
from oracles import DIGAMMA_TABLE, GAMMA_TABLE, TRIGAMMA_TABLE


def test_constants():
    assert SQRT_PI == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert EULER_GAMMA == pytest.approx(0.5772156649015328606065, rel=1e-15)


@pytest.mark.parametrize("a,want", sorted(GAMMA_TABLE.items()))
def test_gamma_table(a, want):
    assert rel_err(gamma(a), want) < 1e-13
    assert rel_err(log_gamma(a), math.log(want)) < 1e-12


@pytest.mark.parametrize("a,want", sorted(DIGAMMA_TABLE.items()))
def test_digamma_table(a, want):
    assert rel_err(digamma(a), want) < 1e-12


@pytest.mark.parametrize("a,want", sorted(TRIGAMMA_TABLE.items()))
def test_trigamma_table(a, want):
    assert rel_err(trigamma(a), want) < 1e-11


@given(st.floats(min_value=0.05, max_value=30.0),
       st.floats(min_value=0.05, max_value=30.0))
def test_gamma_ratio_matches_quotient(a, b):
    assert rel_err(gamma_ratio(a, b), gamma(a) / gamma(b)) < 1e-12


@pytest.mark.parametrize("power, x, a, log_c", [
    (1.0, 3.0, 1.5, 0.0), (32.0, 31.0, 32.5, 0.0), (150.0, 1e4, 150.5, 0.0),
    (20.0, 1e-300, 21.5, LOG_SQRT_PI), (-0.4, 5e-324, 0.1, 0.0), (2.0, 5e-324, 1.0, 0.0)])
def test_power_gamma_within_its_charge(power, x, a, log_c):
    """(x/2)^power / (e^log_c gamma(a)) against mpmath, subnormal x and a result
    that underflows to 0 included."""
    value, err = power_gamma(power, x, a, log_c)
    with mp.workdps(50):
        want = (mp.mpf(x) / 2) ** power / (mp.exp(log_c) * mp.gamma(a))
    assert abs(mp.mpf(value) - want) <= err


def test_power_gamma_overflow_is_a_struvekit_error():
    with pytest.raises(CancellationError):
        power_gamma(161.0, 1e4, 161.5)


#: power, x and a of one point: x down to the smallest subnormal, powers and gamma
#: arguments that take (x/2)^power / gamma(a) past float64 either way.
_POWER_GAMMA_POINT = st.tuples(
    st.floats(min_value=-1.0, max_value=400.0),
    st.one_of(st.floats(min_value=5e-324, max_value=1e-300),
              st.floats(min_value=1e-300, max_value=1e5)),
    st.floats(min_value=1e-3, max_value=400.0))


@given(st.lists(_POWER_GAMMA_POINT, min_size=1, max_size=8),
       st.sampled_from([0.0, LOG_SQRT_PI, LN2]))
# overflow; a log in [LOG_MAX, log(DBL_MAX)], where math.exp still serves; underflow
@example([(161.0, 1e4, 161.5), (2.0, 2.0 * math.exp(709.781 / 2.0), 1.0),
          (300.0, 1e-300, 2.0)], 0.0)
def test_power_gamma_points_equal_the_scalar_function(points, log_c):
    """power_gamma_points gives power_gamma's value and bar at every point, bit for
    bit, with repeated arguments and orders among the points; inf where the log of
    the value reaches LOG_MAX, which covers every point where power_gamma raises
    CancellationError."""
    power, x, a = map(np.array, zip(*(points + points[:1])))
    value, err = power_gamma_points(power, x, a, log_c)
    for i, (p, xi, ai) in enumerate(points + points[:1]):
        log_value = (p * log_half(xi) - log_c) - log_gamma(ai)
        try:
            want = power_gamma(p, xi, ai, log_c)
        except CancellationError:
            assert value[i] == err[i] == math.inf and log_value >= LOG_MAX
            continue
        if log_value >= LOG_MAX:
            assert value[i] == err[i] == math.inf
        else:
            assert (value[i].hex(), err[i].hex()) == (want[0].hex(), want[1].hex())


def test_gamma_ratio_handles_large_arguments():
    # direct quotient would overflow near a ~ 180
    assert gamma_ratio(200.5, 201.0) == pytest.approx(
        math.exp(log_gamma(200.5) - log_gamma(201.0)), rel=1e-13)


def test_ratio_f_and_g_pinned_at_minus_half():
    assert gamma_ratio_f(-0.5) == pytest.approx(1.0, rel=1e-14)
    assert gamma_ratio_g(-0.5) == pytest.approx(1.0, rel=1e-14)


@given(st.floats(min_value=-0.45, max_value=20.0))
def test_ratio_f_decreasing_g_increasing(nu):
    h = 1e-3
    assert gamma_ratio_f(nu + h) < gamma_ratio_f(nu)
    assert gamma_ratio_g(nu + h) > gamma_ratio_g(nu)


def test_h_matches_definition():
    for nu in (-0.9, -0.3, 0.0, 1.7, 12.0):
        want = (digamma(nu + 1.5) - digamma(nu + 2.0)
                + 0.5 / (nu + 1.0))
        assert gamma_ratio_h(nu) == pytest.approx(want, rel=1e-13)


def test_h_prime_matches_finite_difference():
    for nu in (-0.5, 0.4, 3.0, 15.0):
        h = 1e-5
        fd = (gamma_ratio_h(nu + h) - gamma_ratio_h(nu - h)) / (2 * h)
        assert gamma_ratio_h_prime(nu) == pytest.approx(fd, abs=1e-7)


def test_domain_rejection():
    from struvekit.errors import DomainError
    with pytest.raises(DomainError):
        gamma_ratio_h(-1.0)
    with pytest.raises(DomainError):
        gamma_ratio_f(-1.2)


@pytest.mark.parametrize("fn, z, error, reason", [
    (gamma, 0.0, PoleError, "gamma has a pole at z = 0"),
    (gamma, -3.0, PoleError, "gamma has a pole at z = -3"),
    (log_gamma, 0.0, DomainError, r"log_gamma requires z > 0"),
    (log_gamma, -2.5, DomainError, r"log_gamma requires z > 0"),
    (digamma, 0.0, DomainError, r"digamma requires z > 0"),
    (digamma, -0.5, DomainError, r"digamma requires z > 0"),
    (trigamma, 0.0, DomainError, r"trigamma requires z > 0"),
    (trigamma, -5e-324, DomainError, r"trigamma requires z > 0"),
])
def test_gamma_helpers_refuse_poles_and_nonpositive_arguments(fn, z, error, reason):
    """gamma refuses its poles; the log and polygamma helpers, every z <= 0."""
    with pytest.raises(error, match=reason):
        fn(z)
