"""Acceptance gate: one test per acceptance criterion, named and ordered.

Run with ``pytest -v`` to get a pass/fail line per criterion. The paper's
claimed equality between the decomposition cross term and the positive double
integral is false (README, "Known deviations"). The criterion-4 cross-term
test therefore pins the deviation: it asserts the order-one gap that the suite
reports for the direct comparison, and the corrected relation that does hold.
It fails if the gap ever closes or the corrected relation stops holding.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from struvekit.closedforms import m_at_neg_half, m_at_pos_half
from struvekit.cli import EXIT_VIOLATIONS, main
from struvekit.core import EvalPoint, Method
from struvekit.foxwright import bilateral_bounds
from struvekit.gammafuncs import gamma_ratio, gamma_ratio_h
from struvekit.identities import residual_suite, turanian_decomposition
from struvekit.inequalities import (CATALOG, EXTRA_CASES, default_grid,
                                    run_case)
from struvekit.quadrature import (calm_dnu, calm_dx,
                                  turanian_il_double_integral)
from struvekit.routes import calm, struve_m
from struvekit.series import bessel_i, struve_l

from oracles import DOUBLE_INTEGRAL_TABLE

CLOSED_FORM_X = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
AGREEMENT_NU = (-0.45, -0.25, 0.0, 0.5, 1.0, 2.0, 5.0)
AGREEMENT_X = (0.01, 0.1, 1.0, 3.0, 6.0)


def test_criterion_1_closed_forms_recovered_by_both_routes():
    """Series route reproduces the elementary expressions at orders +-1/2 to
    1e-11 relative; quadrature does the same at +1/2 to 1e-10 (its integral
    representation needs order > -1/2)."""
    for x in CLOSED_FORM_X:
        want_neg = m_at_neg_half(x)
        want_pos = m_at_pos_half(x)
        got = struve_m(EvalPoint(-0.5, x), method=Method.SERIES)
        assert abs(got.value - want_neg) <= 1e-11 * abs(want_neg), ("series", -0.5, x)
        got = struve_m(EvalPoint(0.5, x), method=Method.SERIES)
        assert abs(got.value - want_pos) <= 1e-11 * abs(want_pos), ("series", 0.5, x)
        got = struve_m(EvalPoint(0.5, x), method=Method.QUADRATURE)
        assert abs(got.value - want_pos) <= 1e-10 * abs(want_pos), ("quad", 0.5, x)


def test_criterion_2_three_route_agreement():
    """The three routes for the normalized form agree pairwise within their
    reported error bars and within 1e-9 absolute. Only series and quadrature
    are independent: the Fox-Wright route's 1Psi1 series is calM's Taylor
    series at x = 0, which recodes the merged series."""
    for nu in AGREEMENT_NU:
        for x in AGREEMENT_X:
            p = EvalPoint(nu, x)
            values = {
                "series": calm(p, method=Method.SERIES),
                "quadrature": calm(p, method=Method.QUADRATURE),
                "foxwright": calm(p, method=Method.FOX_WRIGHT),
            }
            names = list(values)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    fa, fb = values[a], values[b]
                    gap = abs(fa.value - fb.value)
                    assert gap <= fa.abs_err + fb.abs_err + 5e-13, \
                        (a, b, nu, x, gap, fa.abs_err, fb.abs_err)
                    assert gap <= 1e-9, (a, b, nu, x, gap)


def test_criterion_3_zero_argument_value():
    """calM at x = 0 equals gamma(nu+1/2)/gamma(nu+1) to 1e-11 relative on
    20 log-spaced orders approaching the domain edge."""
    nus = -0.49 + np.geomspace(1e-2, 20.49, 20)
    for nu in nus:
        want = gamma_ratio(nu + 0.5, nu + 1.0)
        got = calm(EvalPoint(float(nu), 0.0))
        assert abs(got.value - want) <= 1e-11 * abs(want), (nu, got.value, want)


def test_criterion_4_identity_residuals_standard_grid():
    """ODE, recurrence, quadratic-Turanian and decomposition residuals all
    stay below 1e-8 relative on the standard 7 x 7 grid."""
    rows = residual_suite()
    assert len(rows) == 7 * 7 * 7
    for r in rows:
        assert r.relative <= 1e-8, (r.id, r.point.nu, r.point.x, r.relative)


def test_criterion_4_cross_term_sub_check_direct_comparison():
    """The direct comparison of the decomposition cross term with the
    positive double integral D detects the false claimed equality: at every
    oracle point the cross term is negative while D > 0, the relative gap is
    order one both computed here and as reported by the residual suite, and
    the corrected relation (nu+1/2) cross = (nu-1/2) D - 2 I_nu L_nu holds
    to 1e-11 relative."""
    for nu, x in DOUBLE_INTEGRAL_TABLE:
        p = EvalPoint(nu, x)
        _, _, d_il = turanian_decomposition(p)
        d = turanian_il_double_integral(p).value
        assert d_il < 0.0 < d, (nu, x, d_il, d)

        rel_gap = abs(d_il - d) / max(abs(d_il), abs(d))
        assert rel_gap > 0.1, (nu, x, rel_gap)
        (row,) = [r for r in residual_suite((nu,), (x,), include_cross_term=True)
                  if r.id == "turanian_cross_vs_double_integral"]
        assert row.relative > 0.1, (nu, x, row.relative)

        il = bessel_i(p).value * struve_l(p).value
        lhs = (nu + 0.5) * d_il
        rhs = (nu - 0.5) * d - 2.0 * il
        scale = max(abs(lhs), abs(rhs), abs(2.0 * il))
        assert abs(lhs - rhs) / scale < 1e-11, (nu, x, abs(lhs - rhs) / scale)


def test_criterion_5_catalog_sweeps_clean(default_reports):
    """Every catalog case passes its default sweep with zero violations,
    including the orientation-reversing cases on both sides of their pivot;
    the registered extension case keeps reporting its genuine violations."""
    assert set(default_reports) == set(CATALOG)
    for case_id, report in default_reports.items():
        assert report.points_tested > 0, case_id
        assert report.violations == (), (case_id, report.min_margin,
                                         report.argmin)
    for case_id, pivot in (("bound1", 0.5), ("FX2", 1.5), ("remark1", 1.5)):
        grid = default_grid(case_id)
        assert any(nu < pivot for nu in grid.nu_values), case_id
        assert any(nu > pivot for nu in grid.nu_values), case_id
    raw = run_case(EXTRA_CASES["FX3_raw"], default_grid("FX3_raw"))
    assert len(raw.violations) > 300
    assert raw.min_margin < -0.5


def test_criterion_6_sign_probes_and_derivative_cross_check(default_reports):
    """Derivative sign probes hold through order 6 in x and order 4 in nu;
    first quadrature derivatives agree with central differences at h=1e-5
    to 1e-6 absolute, in both variables."""
    for case_id in ("cm_probe_x", "cm_probe_nu"):
        report = default_reports[case_id]
        assert report.violations == (), case_id
        assert report.points_tested > 0
    h = 1e-5
    for nu, x in ((0.0, 0.5), (1.0, 2.0), (5.0, 10.0)):
        p = EvalPoint(nu, x)
        dx = calm_dx(p, 1).value
        fd_x = (calm(EvalPoint(nu, x + h)).value
                - calm(EvalPoint(nu, x - h)).value) / (2.0 * h)
        assert abs(dx - fd_x) <= 1e-6, ("x", nu, x, dx, fd_x)
        dn = calm_dnu(p, 1).value
        fd_n = (calm(EvalPoint(nu + h, x)).value
                - calm(EvalPoint(nu - h, x)).value) / (2.0 * h)
        assert abs(dn - fd_n) <= 1e-6, ("nu", nu, x, dn, fd_n)


def test_criterion_7_bilateral_bracket(default_reports):
    """The exponential bracket holds at all 625 sweep points and both sides
    collapse onto the function value to 1e-6 at x = 1e-4."""
    report = default_reports["theorem4_bilateral"]
    assert report.points_tested == 625
    assert report.violations == ()
    for nu in default_grid("theorem4_bilateral").nu_values[::3]:
        p = EvalPoint(nu, 1e-4)
        c = calm(p).value
        lo, up = bilateral_bounds(p)
        assert lo <= c * (1.0 + 1e-12) and c <= up * (1.0 + 1e-12), nu
        assert abs(c - lo) <= 1e-6, (nu, c - lo)
        assert abs(up - c) <= 1e-6, (nu, up - c)


def test_criterion_8_gamma_ratio_family():
    """The pure-gamma inequalities and both Turan-type gamma forms hold at
    100 log-spaced orders up to 100, and the logarithmic-derivative witness
    h stays positive and strictly decreasing."""
    nus = -0.499 + np.geomspace(1e-2, 100.499, 100)
    h_values = []
    for nu in map(float, nus):
        for case_id in ("gammaineq_left", "gammaineq_right",
                        "remark2_turan_gamma", "remark2_ratio"):
            assert CATALOG[case_id].margin(None, nu, 1.0) > 0.0, (case_id, nu)
        h_values.append(gamma_ratio_h(nu))
    assert all(h > 0.0 for h in h_values)
    assert all(b < a for a, b in zip(h_values, h_values[1:]))


def test_criterion_9_flipped_harness_detects_violations():
    """Negating every margin of a passing case must produce violations and
    exit code 3: the harness is not trusted until it has failed something."""
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "--case", "sign_m",
                                  "--self-test-flip", "--format", "json"])
    assert result.exit_code == EXIT_VIOLATIONS
    report = json.loads(result.output)[0]
    assert report["case_id"] == "sign_m_flipped"
    assert len(report["violations"]) > 0
    assert report["min_margin"] < 0.0
