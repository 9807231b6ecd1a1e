"""Residual evaluators for every identity the second-kind function
satisfies in this toolkit.

Each evaluator computes its inputs by the independent evaluation routes
(quadrature derivatives, merged series, elementary expressions at the half
orders), writes the identity as terms that sum to zero, and returns
through _residual the residual |sum of terms| with the scale max |term|,
so callers can assess the residual relatively (residual over scale). A
residual is finite: where a term leaves the float64 range the evaluator
raises CancellationError. Nothing here rearranges the identity being tested
to produce its own inputs. The ODE residual checks calM's own equation,
x calM'' + (2 nu + 1) calM' - x calM = -2/sqrt(pi), for nu > -1/2, with calM''
from differentiated quadrature, not from the ODE itself; at nu = -1/2 it
checks M's, x^2 M'' + x M' - (x^2 + 1/4) M = 0, from the elementary expressions.

Every input of every residual (calM's x-orders 0-2, M at nu-1, nu and nu+1 with M_nu',
the Turanian's first-kind parts and the double integral D) is read through the
``derived`` cache of ``routes.memo(series_cfg, quad_cfg)``, so the residuals at one point
share one evaluation of each input and a repeated call reads them back. A private
function holds each formula; it takes the inputs residuals share and reads the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import closedforms, routes, series
from .core import (QUAD_DEFAULTS, SERIES_DEFAULTS, EvalPoint, QuadConfig,
                   SeriesConfig)
from .errors import CancellationError, DomainError
from .gammafuncs import LOG_SQRT_PI, TWO_OVER_SQRT_PI, power_gamma
from .quadrature import calm_dx_orders, turanian_il_double_integral


@dataclass(frozen=True)
class IdentityResidual:
    """Absolute residual of one identity at one point, with the magnitude
    of the largest term for relative assessment."""

    id: str
    point: EvalPoint
    residual: float
    scale: float

    @property
    def relative(self) -> float:
        return self.residual / max(self.scale, 1e-300)


def _residual(rid: str, p: EvalPoint, *terms: float) -> IdentityResidual:
    """The residual rid at p of the identity sum(terms) = 0: |sum(terms)|, with the
    scale max |term|; CancellationError where either is not finite."""
    residual, scale = abs(sum(terms)), max(map(abs, terms))
    if not (math.isfinite(residual) and math.isfinite(scale)):
        raise CancellationError(f"{rid} at (nu={p.nu:g}, x={p.x:g}) overflows float64")
    return IdentityResidual(rid, p, residual, scale)


def _g_term(p: EvalPoint) -> float:
    """(x/2)^nu / (sqrt(pi) gamma(nu+3/2)), the recurrences' inhomogeneous term."""
    return power_gamma(p.nu, p.x, p.nu + 1.5, LOG_SQRT_PI)[0]


def _ode_orders(ev: routes.Memo, nu: float, x: float) -> tuple[float, float, float]:
    """calM's x-orders 0-2 by one quadrature pass at the memo's quad config."""
    return tuple(c.value for c in calm_dx_orders(EvalPoint(nu, x), range(3), ev.quad_cfg))


def ode_residual(p: EvalPoint,
                 quad_cfg: QuadConfig = QUAD_DEFAULTS) -> IdentityResidual:
    """Residual of the second-kind differential equation. nu >= -1/2, x > 0.

    For nu > -1/2 it is calM's own equation,

        x calM'' + (2 nu + 1) calM' - x calM = -2/sqrt(pi),

    which integrating calM_nu(x) = (2/sqrt(pi)) int_0^1 (1-t^2)^(nu-1/2) e^(-xt) dt
    by parts gives (DLMF 11.5.4); calM and its first two x-derivatives come from
    one differentiated-quadrature pass, which keeps the test independent of the
    equation itself. At nu = -1/2, where calM is not defined, it is M's equation
    x^2 M'' + x M' - (x^2 + 1/4) M = 0 from the elementary expressions.
    """
    if p.nu < -0.5:
        raise DomainError("ode_residual requires nu >= -1/2")
    if p.x <= 0.0:
        raise DomainError("ode_residual requires x > 0")
    return _ode(routes.memo(SERIES_DEFAULTS, quad_cfg), p)


def _ode(ev: routes.Memo, p: EvalPoint) -> IdentityResidual:
    if p.nu > -0.5:
        c0, c1, c2 = ev.derived(_ode_orders, p.nu, p.x)
        return _residual("ode_second_kind", p, p.x * c2, (2.0 * p.nu + 1.0) * c1,
                         -p.x * c0, TWO_OVER_SQRT_PI)
    try:
        m = closedforms.m_at_neg_half(p.x)
        m1 = closedforms.m_prime_at_neg_half(p.x)
        m2 = closedforms.m_second_at_neg_half(p.x)
    except (OverflowError, ZeroDivisionError):  # x^-2 overflows, or x * x is 0
        raise CancellationError(f"M'' at (nu={p.nu:g}, x={p.x:g}) leaves the float64 "
                                "range") from None
    return _residual("ode_second_kind", p, p.x * (p.x * m2), p.x * m1,
                     -((p.x * p.x + 0.25) * m))


def _require_turanian_domain(p: EvalPoint, name: str) -> None:
    if p.nu <= 0.5 or p.x <= 0.0:
        raise DomainError(f"{name} requires nu > 1/2 and x > 0")


def _neighbors(ev: routes.Memo, nu: float, x: float) -> tuple[float, float, float, float]:
    """(M_{nu-1}, M_nu, M_{nu+1}, M_nu') by the automatic single calls at the memo's
    configs, read through ev.derived."""
    cfgs = ev.series_cfg, ev.quad_cfg
    m_lo, m_md, m_hi = (routes.struve_m(EvalPoint(nu + k, x), None, *cfgs).value
                        for k in (-1.0, 0.0, 1.0))
    return m_lo, m_md, m_hi, routes.struve_m_prime(EvalPoint(nu, x), None, *cfgs).value


def recurrence_residuals(p: EvalPoint,
                         series_cfg: SeriesConfig = SERIES_DEFAULTS,
                         quad_cfg: QuadConfig = QUAD_DEFAULTS
                         ) -> tuple[IdentityResidual, ...]:
    """Residuals of the four recurrence relations linking orders
    nu-1, nu, nu+1 and the first derivative. nu > 1/2, x > 0.

    The four relations, with g = (x/2)^nu / (sqrt(pi) gamma(nu+3/2)):

        three_term:      M_{nu-1} - M_{nu+1} = (2 nu / x) M_nu + g
        derivative_sum:  M_{nu-1} + M_{nu+1} = 2 M_nu' - g
        lower_order:     x M_nu' + nu M_nu = x M_{nu-1}
        raise_order:     M_{nu+1} = M_nu' - (nu / x) M_nu - g
    """
    _require_turanian_domain(p, "recurrence_residuals")
    m = routes.memo(series_cfg, quad_cfg).derived(_neighbors, p.nu, p.x)
    return _recurrences(p, m, _g_term(p))


def _recurrences(p: EvalPoint, neighbors: tuple, g: float) -> tuple[IdentityResidual, ...]:
    m_lo, m_md, m_hi, m_d = neighbors
    mid = 2.0 * p.nu * m_md / p.x  # not (2 nu/x) M: that is inf * 0 where M underflows
    return (
        _residual("recurrence_three_term", p, m_lo, -m_hi, -mid, -g),
        _residual("recurrence_derivative_sum", p, m_lo, m_hi, -2.0 * m_d, g),
        _residual("recurrence_lower_order", p, p.x * m_d, p.nu * m_md, -p.x * m_lo),
        _residual("recurrence_raise_order", p, m_hi, -m_d, 0.5 * mid, g),
    )


def turanian(p: EvalPoint,
             series_cfg: SeriesConfig = SERIES_DEFAULTS,
             quad_cfg: QuadConfig = QUAD_DEFAULTS) -> float:
    """The Turan-type quantity Delta_M = M_nu^2 - M_{nu-1} M_{nu+1},
    nu > 1/2, x > 0. Positive on that domain."""
    _require_turanian_domain(p, "turanian")
    m_lo, m_md, m_hi, _ = routes.memo(series_cfg, quad_cfg).derived(_neighbors, p.nu, p.x)
    return m_md * m_md - m_lo * m_hi


def turanian_decomposition(p: EvalPoint,
                           series_cfg: SeriesConfig = SERIES_DEFAULTS
                           ) -> tuple[float, float, float]:
    """Split Delta_M into first-kind parts: (delta_i, delta_l, delta_il).

    Writing M = L - I and expanding M_nu^2 - M_{nu-1} M_{nu+1}:

        delta_i  = I_nu^2 - I_{nu-1} I_{nu+1}
        delta_l  = L_nu^2 - L_{nu-1} L_{nu+1}
        delta_il = I_{nu-1} L_{nu+1} + I_{nu+1} L_{nu-1} - 2 I_nu L_nu

    and delta_i + delta_l + delta_il = Delta_M exactly. All six factors
    come from the all-positive ascending series, so each product is fully
    accurate; the cross part delta_il is negative on the sampled domain
    (delta_i and delta_l are positive), which the verification suite
    records explicitly. nu > 1/2, x > 0. CancellationError where a product
    overflows float64 (at nu = 1 from x = 358.4 on) while its factors do not.
    """
    _require_turanian_domain(p, "turanian_decomposition")
    i_lo, i_md, i_hi = (series.bessel_i(EvalPoint(p.nu + k, p.x), series_cfg).value
                        for k in (-1.0, 0.0, 1.0))
    l_lo, l_md, l_hi = (series.struve_l(EvalPoint(p.nu + k, p.x), series_cfg).value
                        for k in (-1.0, 0.0, 1.0))
    parts = (i_md * i_md - i_lo * i_hi,
             l_md * l_md - l_lo * l_hi,
             i_lo * l_hi + i_hi * l_lo - 2.0 * i_md * l_md)
    if not all(map(math.isfinite, parts)):
        raise CancellationError(f"the Turanian's first-kind parts at (nu={p.nu:g}, "
                                f"x={p.x:g}) overflow float64")
    return parts


def _decomposition(ev: routes.Memo, nu: float, x: float) -> tuple[float, float, float]:
    """turanian_decomposition at the memo's series config, read through ev.derived."""
    return turanian_decomposition(EvalPoint(nu, x), ev.series_cfg)


def turanian_quadratic_identity(p: EvalPoint,
                                series_cfg: SeriesConfig = SERIES_DEFAULTS,
                                quad_cfg: QuadConfig = QUAD_DEFAULTS
                                ) -> IdentityResidual:
    """Residual of the quadratic form for the Turanian:

        Delta_M = (1 + nu^2/x^2) M_nu^2 - (M_nu')^2
                  + x^nu M_{nu-1} / (sqrt(pi) 2^nu gamma(nu+3/2))

    which follows from eliminating M_{nu+1} between the recurrence
    relations. nu > 1/2, x > 0.
    """
    _require_turanian_domain(p, "turanian_quadratic_identity")
    m = routes.memo(series_cfg, quad_cfg).derived(_neighbors, p.nu, p.x)
    return _quadratic(p, m, _g_term(p))


def _quadratic(p: EvalPoint, neighbors: tuple, g: float) -> IdentityResidual:
    m_lo, m_md, m_hi, m_d = neighbors
    nu_m = p.nu * m_md / p.x
    t_sq = m_md * m_md + nu_m * nu_m  # (1 + nu^2/x^2) M^2, finite where M underflows
    return _residual("turanian_quadratic", p, m_md * m_md, -(m_lo * m_hi), -t_sq,
                     m_d * m_d, -(g * m_lo))


def closed_forms(x: float) -> tuple[float, float]:
    """The elementary values (M_{-1/2}(x), M_{1/2}(x)), x > 0."""
    return closedforms.m_at_neg_half(x), closedforms.m_at_pos_half(x)


def decomposition_residual(p: EvalPoint,
                           series_cfg: SeriesConfig = SERIES_DEFAULTS,
                           quad_cfg: QuadConfig = QUAD_DEFAULTS
                           ) -> IdentityResidual:
    """Residual of Delta_M = delta_i + delta_l + delta_il, where the left
    side comes from the automatic routes and the parts from independent
    first-kind series. nu > 1/2, x > 0."""
    _require_turanian_domain(p, "decomposition_residual")
    ev = routes.memo(series_cfg, quad_cfg)
    return _decomposed(p, ev.derived(_neighbors, p.nu, p.x),
                       ev.derived(_decomposition, p.nu, p.x))


def _decomposed(p: EvalPoint, neighbors: tuple, parts: tuple) -> IdentityResidual:
    (m_lo, m_md, m_hi, _), (d_i, d_l, d_il) = neighbors, parts
    return _residual("turanian_decomposition", p, m_md * m_md - m_lo * m_hi,
                     -d_i, -d_l, -d_il)


def crossterm_double_integral_residual(p: EvalPoint,
                                       series_cfg: SeriesConfig = SERIES_DEFAULTS,
                                       quad_cfg: QuadConfig = QUAD_DEFAULTS
                                       ) -> IdentityResidual:
    """Discrepancy between the decomposition cross term and the positive
    double integral D, compared directly as if they were equal.

    They are not equal: the correct relation, obtained by carrying the
    gamma-function ratio gamma(nu+3/2) gamma(nu-1/2) / gamma(nu+1/2)^2
    = (nu+1/2)/(nu-1/2) through the rearrangement, is

        (nu + 1/2) * cross = (nu - 1/2) * D - 2 I_nu(x) L_nu(x),

    and the cross term is negative on the sampled domain while D > 0.
    This evaluator reports the direct-comparison residual so the
    discrepancy stays visible; the corrected relation is verified
    separately in the test suite.
    """
    ev = routes.memo(series_cfg, quad_cfg)
    return _cross(ev, p, ev.derived(_decomposition, p.nu, p.x)[2])


def _double_integral(ev: routes.Memo, nu: float, x: float) -> float:
    """The double integral D at the memo's quad config, read through ev.derived."""
    return turanian_il_double_integral(EvalPoint(nu, x), ev.quad_cfg).value


def _cross(ev: routes.Memo, p: EvalPoint, d_il: float) -> IdentityResidual:
    return _residual("turanian_cross_vs_double_integral", p, d_il,
                     -ev.derived(_double_integral, p.nu, p.x))


#: Order values of the standard identity-residual grid.
STANDARD_NU = (0.6, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0)
#: Argument values of the standard identity-residual grid.
STANDARD_X = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


def residual_suite(nu_values: tuple[float, ...] = STANDARD_NU,
                   x_values: tuple[float, ...] = STANDARD_X,
                   series_cfg: SeriesConfig = SERIES_DEFAULTS,
                   quad_cfg: QuadConfig = QUAD_DEFAULTS,
                   include_cross_term: bool = False
                   ) -> list[IdentityResidual]:
    """Run every identity residual over a (nu, x) grid.

    Per point: the ODE residual, the four recurrence residuals, the
    quadratic Turanian residual, and the decomposition residual. The
    direct cross-term-versus-double-integral comparison is opt-in because
    it reports a genuine discrepancy, not numerical error; see
    crossterm_double_integral_residual.
    """
    if any(nu <= 0.5 for nu in nu_values) or any(x <= 0.0 for x in x_values):
        raise DomainError("identity residuals need orders above 1/2 (recurrences and the "
                          "decomposition are undefined at or below it) and x > 0")
    ev, out = routes.memo(series_cfg, quad_cfg), []
    for nu in nu_values:
        for x in x_values:
            p = EvalPoint(nu, x)
            out.append(_ode(ev, p))
            m, g = ev.derived(_neighbors, nu, x), _g_term(p)
            out.extend(_recurrences(p, m, g))
            out.append(_quadratic(p, m, g))
            parts = ev.derived(_decomposition, nu, x)
            out.append(_decomposed(p, m, parts))
            if include_cross_term:
                out.append(_cross(ev, p, parts[2]))
    return out
