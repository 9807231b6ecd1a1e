"""Exact elementary expressions at the half-integer orders nu = -1/2, 1/2.

At these two orders the function M reduces to elementary functions:

    M_{-1/2}(x) = -sqrt(2/(pi x)) e^(-x)
    M_{+1/2}(x) = sqrt(2/(pi x)) (e^(-x) - 1)

and the normalized form at nu = 1/2 is (2/sqrt(pi)) (1 - e^(-x)) / x.
These serve as reference truth for the numerical routes and as exact
inputs for identity checks whose recurrence neighbors land on a half
order. Derivatives are carried analytically so no route needs finite
differences here.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError
from .gammafuncs import TWO_OVER_SQRT_PI

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _check_x(x: float) -> None:
    if not x > 0.0:
        raise DomainError("closed forms require x > 0")


def m_at_neg_half(x: float) -> float:
    """M at order -1/2: -sqrt(2/(pi x)) e^(-x)."""
    _check_x(x)
    return -_SQRT_2_OVER_PI * math.exp(-x) / math.sqrt(x)


def m_at_pos_half(x: float) -> float:
    """M at order +1/2: sqrt(2/(pi x)) (e^(-x) - 1), computed via expm1; at a
    subnormal x, where the product with expm1 would round to few digits, its
    limit -sqrt(2x/pi)."""
    _check_x(x)
    if x < sys.float_info.min:
        return -_SQRT_2_OVER_PI * math.sqrt(x)
    return _SQRT_2_OVER_PI * math.expm1(-x) / math.sqrt(x)


def m_prime_at_neg_half(x: float) -> float:
    """d/dx of M at order -1/2: -M_{-1/2}(x) (1 + 1/(2x))."""
    return -m_at_neg_half(x) * (1.0 + 0.5 / x)


def m_prime_at_pos_half(x: float) -> float:
    _check_x(x)
    # d/dx [x^(-1/2)(e^(-x)-1)] = -(e^(-x)-1)/(2 x^(3/2)) - e^(-x)/sqrt(x)
    return -0.5 * m_at_pos_half(x) / x - _SQRT_2_OVER_PI * math.exp(-x) / math.sqrt(x)


def m_second_at_neg_half(x: float) -> float:
    """Second derivative at order -1/2, from differentiating the product form."""
    m = m_at_neg_half(x)
    return m * (1.0 + 0.5 / x) ** 2 + 0.5 * m / (x * x)


def calm_at_pos_half(x: float) -> float:
    """Normalized form at nu = 1/2: (2/sqrt(pi)) (1 - e^(-x)) / x; value at
    x = 0, and at a subnormal x, is the continuous limit 2/sqrt(pi)."""
    if x < 0.0:
        raise DomainError("the normalized form requires x >= 0")
    if x < sys.float_info.min:  # (1 - e^(-x))/x = 1 to within x
        return TWO_OVER_SQRT_PI
    return TWO_OVER_SQRT_PI * (-math.expm1(-x)) / x
