"""Gamma-family primitives used by every other module.

gamma/log_gamma wrap the platform libm implementations (Lanczos/Stirling
class accuracy, verified against the functional equation in the test
suite) behind explicit domain contracts. digamma and trigamma are
implemented here directly: recurrence shift into the asymptotic region
followed by the Bernoulli-number tail. Ratios of gamma values are always
formed in log space so they stay finite long after gamma itself would
overflow. The log-space helpers every route shares sit here too: log_half,
log(x/2) down to the smallest subnormal x; exp_rounded, exp(L) with the
rounding of the terms L was summed from; and power_gamma, (x/2)^p / Gamma(a), the
prefactor of the M <-> calM normalization and of the recurrences. per_value and
exp_points apply math's functions over arrays (numpy's may round differently), so
that array forms such as power_gamma_points keep every bit.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import CancellationError, DomainError, PoleError

#: Machine epsilon of float64, the unit of every rounding charge.
EPS = 2.220446049250313e-16
#: The smallest subnormal: the rounding floor of an underflowing value.
TINY = 5e-324
LN2 = math.log(2.0)
_HALF_NORMAL = 2.0 * sys.float_info.min  # from here on x/2 is a normal float, exact
LOG_MAX = 709.78  # math.exp overflows float64 past log(DBL_MAX) = 709.7827

#: Euler-Mascheroni constant, gamma = lim (H_n - ln n).
EULER_GAMMA = 0.5772156649015328606

SQRT_PI = math.sqrt(math.pi)
LOG_SQRT_PI = 0.5 * math.log(math.pi)
TWO_OVER_SQRT_PI = 2.0 / SQRT_PI

# Asymptotic digamma tail: psi(z) ~ ln z - 1/(2z) - sum c_k z^(-2k),
# c_k = B_{2k}/(2k). Terms through B_14 keep the truncation error below
# machine precision once z >= _ASYMPTOTIC_Z.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# Trigamma tail coefficients B_{2k} for psi'(z) ~ 1/z + 1/(2z^2)
# + sum B_{2k} z^(-2k-1).
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

_ASYMPTOTIC_Z = 10.0


def gamma(z: float) -> float:
    """Gamma function for real z, z not a non-positive integer."""
    if z <= 0.0 and z == math.floor(z):
        raise PoleError(f"gamma has a pole at z = {z:g}")
    return math.gamma(z)


def log_gamma(z: float) -> float:
    """Natural log of gamma(z) for z > 0."""
    if z <= 0.0:
        raise DomainError("log_gamma requires z > 0")
    return math.lgamma(z)


def gamma_ratio(a: float, b: float) -> float:
    """gamma(a) / gamma(b) for a, b > 0, formed in log space."""
    return math.exp(log_gamma(a) - log_gamma(b))


def log_half(x: float) -> float:
    """log(x/2) for x > 0. Below twice the smallest normal float x/2 rounds (to 0
    at x = 5e-324), so log x - log 2 serves there; above, log(x/2) as written."""
    return math.log(0.5 * x) if x >= _HALF_NORMAL else math.log(x) - LN2


def per_value(fn, a) -> np.ndarray:
    """fn at every point of the array a, one call per distinct value."""
    values, index = np.unique(a, return_inverse=True)
    return np.array([fn(v) for v in values.tolist()])[index].reshape(np.shape(a))


def exp_points(log_value: np.ndarray) -> np.ndarray:
    """math.exp at every point of the array; inf from LOG_MAX on, where it may
    overflow float64."""
    return np.array([math.exp(v) if not v >= LOG_MAX else math.inf
                     for v in np.ravel(log_value).tolist()]).reshape(np.shape(log_value))


def exp_rounded(log_value: float, a: float, b: float, c: float = 0.0,
                exp=math.exp) -> tuple[float, float]:
    """exp(L) for L = log_value, summed from the terms a, b and c, and a bound on
    its absolute rounding. L's absolute rounding follows the size of its terms, not
    |L|: at nu = 32, x = 31, nu log(x/2) and lgamma(nu+1/2) are each about 85 while
    L is about 8. So the bound is 2.5 (1 + |a| + |b| + |c|) eps exp(L), plus the
    smallest subnormal, which covers a subnormal exp(L) that keeps only part of its
    digits. Arrays take exp=exp_points, which gives inf where math.exp would raise
    OverflowError."""
    value = exp(log_value)
    return value, 2.5 * (1.0 + abs(a) + abs(b) + abs(c)) * EPS * value + TINY


def power_gamma(power: float, x: float, a: float, log_c: float = 0.0) -> tuple[float, float]:
    """(x/2)^power / (e^log_c gamma(a)) for x > 0, a > 0, and its rounding as
    exp_rounded charges it; CancellationError where it overflows float64."""
    log_power, log_gam = power * log_half(x), log_gamma(a)
    try:
        return exp_rounded((log_power - log_c) - log_gam, log_power, log_c, log_gam)
    except OverflowError:  # math.exp raises past log(DBL_MAX)
        raise CancellationError(f"(x/2)^{power:g} / gamma({a:g}) at x = {x:g} overflows "
                                "float64") from None


def power_gamma_points(power, x, a, log_c: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """power_gamma at every point of the arrays, bit for bit (logs per distinct value, exp
    per point); inf from LOG_MAX on, where power_gamma may raise CancellationError."""
    log_power, log_gam = power * per_value(log_half, x), per_value(log_gamma, a)
    return exp_rounded((log_power - log_c) - log_gam, log_power, log_c, log_gam, exp_points)


def digamma(z: float) -> float:
    """Logarithmic derivative of gamma, psi(z) = gamma'(z)/gamma(z), z > 0."""
    if z <= 0.0:
        raise DomainError("digamma requires z > 0")
    acc = 0.0
    while z < _ASYMPTOTIC_Z:
        acc -= 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        tail = (tail + c) * w
    return acc + math.log(z) - 0.5 / z - tail


def trigamma(z: float) -> float:
    """Derivative of digamma, psi'(z), z > 0."""
    if z <= 0.0:
        raise DomainError("trigamma requires z > 0")
    acc = 0.0
    while z < _ASYMPTOTIC_Z:
        acc += 1.0 / (z * z)
        z += 1.0
    w = 1.0 / (z * z)
    tail = 0.0
    for c in reversed(_TRIGAMMA_TAIL):
        tail = (tail + c) * w
    tail *= 1.0 / z
    return acc + 1.0 / z + 0.5 * w + tail


def _require_above_minus_one(nu: float) -> None:
    if nu <= -1.0:
        raise DomainError("gamma-ratio witnesses require nu > -1")


def gamma_ratio_f(nu: float) -> float:
    """(sqrt(pi)/2) * gamma(nu+3/2) / gamma(nu+2).

    Strictly decreasing witness for the upper gamma-ratio bound
    gamma(nu+3/2)/gamma(nu+2) < 2/sqrt(pi); equals 1 at nu = -1/2.
    """
    _require_above_minus_one(nu)
    return 0.5 * SQRT_PI * gamma_ratio(nu + 1.5, nu + 2.0)


def gamma_ratio_g(nu: float) -> float:
    """sqrt(pi/2) * sqrt(nu+1) * gamma(nu+3/2) / gamma(nu+2).

    Strictly increasing witness for the lower gamma-ratio bound
    gamma(nu+3/2)/gamma(nu+2) > sqrt(2/(pi (nu+1))); equals 1 at nu = -1/2.
    """
    _require_above_minus_one(nu)
    return math.sqrt(0.5 * math.pi * (nu + 1.0)) * gamma_ratio(nu + 1.5, nu + 2.0)


def gamma_ratio_h(nu: float) -> float:
    """Logarithmic derivative of gamma_ratio_g.

    h(nu) = psi(nu+3/2) - psi(nu+2) + 1/(2(nu+1)). Positive and strictly
    decreasing on nu > -1, which is what makes gamma_ratio_g increasing.
    """
    _require_above_minus_one(nu)
    return digamma(nu + 1.5) - digamma(nu + 2.0) + 0.5 / (nu + 1.0)


def gamma_ratio_h_prime(nu: float) -> float:
    """Derivative of gamma_ratio_h: trigamma difference minus 1/(2(nu+1)^2)."""
    _require_above_minus_one(nu)
    return trigamma(nu + 1.5) - trigamma(nu + 2.0) - 0.5 / ((nu + 1.0) ** 2)
