"""Residual evaluators for every identity the second-kind function
satisfies in this toolkit.

Each evaluator computes its inputs by the independent evaluation routes
(quadrature derivatives, merged series, elementary expressions at
nu = +-1/2) and returns the absolute residual together with the magnitude
of the largest participating term, so callers can assess the residual
relatively. Nothing here rearranges the identity being tested to produce
its own inputs; in particular the ODE residual gets its second derivative
from differentiated quadrature, not from the ODE itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import closedforms, routes, series
from .core import (QUAD_DEFAULTS, SERIES_DEFAULTS, EvalPoint, QuadConfig,
                   SeriesConfig)
from .errors import DomainError
from .gammafuncs import SQRT_PI, log_gamma
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


def _g_term(p: EvalPoint) -> float:
    """(x/2)^nu / (sqrt(pi) gamma(nu+3/2)), the inhomogeneous term shared
    by the recurrence relations."""
    return math.exp(p.nu * math.log(0.5 * p.x)
                    - log_gamma(p.nu + 1.5)) / SQRT_PI


def ode_residual(p: EvalPoint,
                 quad_cfg: QuadConfig = QUAD_DEFAULTS) -> IdentityResidual:
    """Residual of x^2 M'' + x M' - (x^2 + nu^2) M = x^(nu+1) / (sqrt(pi) 2^(nu-1) gamma(nu+1/2)).

    nu >= -1/2, x > 0. At nu = +-1/2 the three derivatives come from the
    elementary expressions; elsewhere M, M', M'' are assembled from the
    normalized form and its first two quadrature derivatives through the
    product rule, which keeps the test independent of the ODE itself.
    """
    if p.nu < -0.5:
        raise DomainError("ode_residual requires nu >= -1/2")
    if p.x <= 0.0:
        raise DomainError("ode_residual requires x > 0")
    if p.nu == -0.5:
        m = closedforms.m_at_neg_half(p.x)
        m1 = closedforms.m_prime_at_neg_half(p.x)
        m2 = closedforms.m_second_at_neg_half(p.x)
    elif p.nu == 0.5:
        m = closedforms.m_at_pos_half(p.x)
        m1 = closedforms.m_prime_at_pos_half(p.x)
        m2 = closedforms.m_second_at_pos_half(p.x)
    else:
        c0, c1, c2 = (fv.value for fv in calm_dx_orders(p, range(3), quad_cfg))
        f = math.exp(p.nu * math.log(0.5 * p.x) - log_gamma(p.nu + 0.5))
        m = -f * c0
        m1 = -f * ((p.nu / p.x) * c0 + c1)
        m2 = -f * ((p.nu * (p.nu - 1.0) / (p.x * p.x)) * c0
                   + (2.0 * p.nu / p.x) * c1 + c2)
    if p.nu == -0.5:
        # 1/gamma(0) = 0: the equation is homogeneous at this order
        rhs = 0.0
    else:
        rhs = math.exp((p.nu + 1.0) * math.log(p.x)
                       - (p.nu - 1.0) * math.log(2.0)
                       - log_gamma(p.nu + 0.5)) / SQRT_PI
    t_second = p.x * p.x * m2
    t_first = p.x * m1
    t_zeroth = (p.x * p.x + p.nu * p.nu) * m
    residual = abs(t_second + t_first - t_zeroth - rhs)
    scale = max(abs(t_second), abs(t_first), abs(t_zeroth), abs(rhs))
    return IdentityResidual("ode_second_kind", p, residual, scale)


def _require_turanian_domain(p: EvalPoint, name: str) -> None:
    if p.nu <= 0.5 or p.x <= 0.0:
        raise DomainError(f"{name} requires nu > 1/2 and x > 0")


_Neighbors = tuple[float, float, float, float]  # (M_{nu-1}, M_nu, M_{nu+1}, M_nu')


def _neighbor_values(p: EvalPoint, series_cfg: SeriesConfig, quad_cfg: QuadConfig,
                     name: str) -> _Neighbors:
    """_Neighbors by the automatic routes; off nu > 1/2, x > 0 a DomainError names the caller."""
    _require_turanian_domain(p, name)
    m_lo, m_md, m_hi = (routes.struve_m(EvalPoint(p.nu + k, p.x), None, series_cfg,
                                        quad_cfg).value for k in (-1.0, 0.0, 1.0))
    return m_lo, m_md, m_hi, routes.struve_m_prime(p, None, series_cfg, quad_cfg).value


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
    return _recurrence_residuals(
        p, _neighbor_values(p, series_cfg, quad_cfg, "recurrence_residuals"))


def _recurrence_residuals(p: EvalPoint, neighbors: _Neighbors) -> tuple[IdentityResidual, ...]:
    m_lo, m_md, m_hi, m_d = neighbors
    g = _g_term(p)
    ratio = 2.0 * p.nu / p.x

    r0 = abs(m_lo - m_hi - ratio * m_md - g)
    s0 = max(abs(m_lo), abs(m_hi), abs(ratio * m_md), g)
    r1 = abs(m_lo + m_hi - 2.0 * m_d + g)
    s1 = max(abs(m_lo), abs(m_hi), 2.0 * abs(m_d), g)
    r2 = abs(p.x * m_d + p.nu * m_md - p.x * m_lo)
    s2 = max(abs(p.x * m_d), abs(p.nu * m_md), abs(p.x * m_lo))
    r3 = abs(m_hi - m_d + (0.5 * ratio) * m_md + g)
    s3 = max(abs(m_hi), abs(m_d), abs(0.5 * ratio * m_md), g)
    return (
        IdentityResidual("recurrence_three_term", p, r0, s0),
        IdentityResidual("recurrence_derivative_sum", p, r1, s1),
        IdentityResidual("recurrence_lower_order", p, r2, s2),
        IdentityResidual("recurrence_raise_order", p, r3, s3),
    )


def turanian(p: EvalPoint,
             series_cfg: SeriesConfig = SERIES_DEFAULTS,
             quad_cfg: QuadConfig = QUAD_DEFAULTS) -> float:
    """The Turan-type quantity Delta_M = M_nu^2 - M_{nu-1} M_{nu+1},
    nu > 1/2, x > 0. Positive on that domain."""
    m_lo, m_md, m_hi, _ = _neighbor_values(p, series_cfg, quad_cfg, "turanian")
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
    records explicitly. nu > 1/2, x > 0.
    """
    _require_turanian_domain(p, "turanian_decomposition")
    i_lo, i_md, i_hi = (series.bessel_i(EvalPoint(p.nu + k, p.x), series_cfg).value
                        for k in (-1.0, 0.0, 1.0))
    l_lo, l_md, l_hi = (series.struve_l(EvalPoint(p.nu + k, p.x), series_cfg).value
                        for k in (-1.0, 0.0, 1.0))
    delta_i = i_md * i_md - i_lo * i_hi
    delta_l = l_md * l_md - l_lo * l_hi
    delta_il = i_lo * l_hi + i_hi * l_lo - 2.0 * i_md * l_md
    return delta_i, delta_l, delta_il


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
    return _quadratic_residual(
        p, _neighbor_values(p, series_cfg, quad_cfg, "turanian_quadratic_identity"))


def _quadratic_residual(p: EvalPoint, neighbors: _Neighbors) -> IdentityResidual:
    m_lo, m_md, m_hi, m_d = neighbors
    lhs = m_md * m_md - m_lo * m_hi
    t_sq = (1.0 + (p.nu / p.x) ** 2) * m_md * m_md
    t_dq = m_d * m_d
    t_g = _g_term(p) * m_lo
    residual = abs(lhs - (t_sq - t_dq + t_g))
    scale = max(abs(m_md * m_md), abs(m_lo * m_hi), abs(t_sq), t_dq, abs(t_g))
    return IdentityResidual("turanian_quadratic", p, residual, scale)


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
    neighbors = _neighbor_values(p, series_cfg, quad_cfg, "decomposition_residual")
    return _decomposition_residual(p, neighbors, turanian_decomposition(p, series_cfg))


def _decomposition_residual(p: EvalPoint, neighbors: _Neighbors,
                            parts: tuple[float, float, float]) -> IdentityResidual:
    m_lo, m_md, m_hi, _ = neighbors
    lhs = m_md * m_md - m_lo * m_hi
    d_i, d_l, d_il = parts
    residual = abs(lhs - (d_i + d_l + d_il))
    scale = max(abs(lhs), abs(d_i), abs(d_l), abs(d_il))
    return IdentityResidual("turanian_decomposition", p, residual, scale)


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
    return _crossterm_residual(p, turanian_decomposition(p, series_cfg)[2], quad_cfg)


def _crossterm_residual(p: EvalPoint, d_il: float,
                        quad_cfg: QuadConfig) -> IdentityResidual:
    d = turanian_il_double_integral(p, quad_cfg).value
    residual = abs(d_il - d)
    scale = max(abs(d_il), abs(d))
    return IdentityResidual("turanian_cross_vs_double_integral",
                            p, residual, scale)


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
    out: list[IdentityResidual] = []
    for nu in nu_values:
        for x in x_values:
            p = EvalPoint(nu, x)
            out.append(ode_residual(p, quad_cfg))
            neighbors = _neighbor_values(p, series_cfg, quad_cfg, "residual_suite")
            parts = turanian_decomposition(p, series_cfg)
            out.extend(_recurrence_residuals(p, neighbors))
            out.append(_quadratic_residual(p, neighbors))
            out.append(_decomposition_residual(p, neighbors, parts))
            if include_cross_term:
                out.append(_crossterm_residual(p, parts[2], quad_cfg))
    return out
