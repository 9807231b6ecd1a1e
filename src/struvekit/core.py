"""Shared value types and evaluation configs."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError


class Method(enum.Enum):
    """Which route produced a function value."""

    SERIES = "series"
    QUADRATURE = "quadrature"
    FOX_WRIGHT = "foxwright"
    CLOSED_FORM = "closedform"


@dataclass(frozen=True)
class EvalPoint:
    """An (order, argument) pair at which the Struve family is evaluated."""

    nu: float
    x: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and math.isfinite(self.x)):
            raise DomainError("evaluation point must be finite")


@dataclass(frozen=True, slots=True)
class FuncValue:
    """A computed value with an honest absolute-error estimate. Slotted:
    the memo's single reads hold thousands and read ``value`` on every hit."""

    value: float
    abs_err: float
    method: Method


class Values(NamedTuple):
    """Values and bars at many points: arrays (the order axis first where a read has
    several orders), NaN where nothing was read, and the errors raised, by flat point
    index."""

    value: np.ndarray
    abs_err: np.ndarray
    errors: dict


@dataclass(frozen=True)
class SeriesConfig:
    """Stopping control for the power-series route.

    rel_tol is the next-term / partial-sum stopping ratio and must lie in
    (0, 1e-6]; max_terms must allow at least 30 terms so the stopping test
    is meaningful for every supported argument.
    """

    rel_tol: float = 1e-15
    max_terms: int = 500

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-6):
            raise DomainError("rel_tol must lie in (0, 1e-6]")
        if self.max_terms < 30:
            raise DomainError("max_terms must be at least 30")


@dataclass(frozen=True)
class QuadConfig:
    """Refinement control for the tanh-sinh quadrature route.

    abs_tol is the target absolute error of the returned value, in
    (0, 1e-6]. max_level caps dyadic step refinements and must lie in
    [3, 12].
    """

    abs_tol: float = 1e-12
    max_level: int = 10

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol <= 1e-6):
            raise DomainError("abs_tol must lie in (0, 1e-6]")
        if not (3 <= self.max_level <= 12):
            raise DomainError("max_level must lie in [3, 12]")


SERIES_DEFAULTS = SeriesConfig()
QUAD_DEFAULTS = QuadConfig()

#: Margins within this band of zero are inconclusive: noise must not make counterexamples.
INCONCLUSIVE_BAND = 1e-9

#: Floor of a margin's scale max(|a|, |b|): two zero sides divide by it, not by 0.
_SCALE_FLOOR = 1e-300


def rel_margin(a, b, err=None):
    """Normalized margin of the claim a >= b: (a - b) / max(|a|, |b|, _SCALE_FLOOR), in
    [-2, 2] for finite sides, positive where the claim holds, 0 where both sides are. A bar
    err joins the scale as err / INCONCLUSIVE_BAND: a difference it can flip is graded."""
    scale = np.maximum(np.abs(a), np.abs(b))
    if err is not None:
        scale = np.maximum(scale, err / INCONCLUSIVE_BAND)
    return (a - b) / np.maximum(scale, _SCALE_FLOOR)
