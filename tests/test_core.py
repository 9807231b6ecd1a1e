"""Evaluation configs: their range checks."""

import math

import pytest

from struvekit.core import QuadConfig, SeriesConfig
from struvekit.errors import DomainError


@pytest.mark.parametrize("config, field, bad, edge, reason", [
    (SeriesConfig, "rel_tol", 0.0, 5e-324, r"rel_tol must lie in \(0, 1e-6\]"),
    (SeriesConfig, "rel_tol", 2e-6, 1e-6, r"rel_tol must lie in \(0, 1e-6\]"),
    (SeriesConfig, "rel_tol", math.nan, 1e-6, r"rel_tol must lie in \(0, 1e-6\]"),
    (SeriesConfig, "max_terms", 29, 30, "max_terms must be at least 30"),
    (QuadConfig, "abs_tol", -1e-12, 5e-324, r"abs_tol must lie in \(0, 1e-6\]"),
    (QuadConfig, "abs_tol", 2e-6, 1e-6, r"abs_tol must lie in \(0, 1e-6\]"),
    (QuadConfig, "max_level", 2, 3, r"max_level must lie in \[3, 12\]"),
    (QuadConfig, "max_level", 13, 12, r"max_level must lie in \[3, 12\]"),
])
def test_configs_refuse_values_out_of_range(config, field, bad, edge, reason):
    """A config refuses a value past its range and keeps the nearest one inside."""
    assert getattr(config(**{field: edge}), field) == edge
    with pytest.raises(DomainError, match=reason):
        config(**{field: bad})
