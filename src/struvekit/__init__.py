"""struvekit: the modified Struve function of the second kind.

M_nu(x) = L_nu(x) - I_nu(x) and its normalized companion
calM_nu(x) = -2^nu gamma(nu+1/2) x^(-nu) M_nu(x), evaluated by three
routes (merged power series, double-exponential quadrature of the
finite-interval representation, and a Fox-Wright recoding of the series), with
residual checks for every identity the function satisfies and a sweep
harness that verifies a catalog of inequalities with explicit margins.
"""

from .core import (EvalPoint, FuncValue, Method, QuadConfig, SeriesConfig, Values,
                   QUAD_DEFAULTS, SERIES_DEFAULTS)
from .errors import (CancellationError, ConvergenceDomainError, DomainError,
                     EmptyDomainError, NonConvergenceError, PoleError,
                     StruveKitError)
from .routes import calm, struve_m, struve_m_prime
from .series import bessel_i, struve_l, struve_m_series
from .quadrature import (calm_dnu, calm_dnu_orders, calm_dnu_points, calm_dx, calm_dx_orders,
                         calm_dx_points, m_deriv, m_from_quadrature, turanian_il_double_integral)
from .foxwright import (FoxWrightParams, bilateral_bounds, calm_via_fox_wright,
                        fox_wright_eval, fx4_conditions, norm_form_params)
from .identities import (IdentityResidual, closed_forms,
                         crossterm_double_integral_residual,
                         decomposition_residual, ode_residual,
                         recurrence_residuals, residual_suite, turanian,
                         turanian_decomposition, turanian_quadratic_identity)
from .inequalities import (CATALOG, EXTRA_CASES, GridSpec, InequalityCase,
                           VerificationReport, default_grid, lookup,
                           report_from_json_dict, report_to_json_dict,
                           run_all, run_case)

__version__ = "0.1.0"

__all__ = [
    "EvalPoint", "FuncValue", "Method", "QuadConfig", "SeriesConfig", "Values",
    "QUAD_DEFAULTS", "SERIES_DEFAULTS",
    "StruveKitError", "DomainError", "PoleError", "ConvergenceDomainError",
    "NonConvergenceError", "CancellationError", "EmptyDomainError",
    "struve_m", "calm", "struve_m_prime",
    "bessel_i", "struve_l", "struve_m_series",
    "calm_dx", "calm_dnu", "calm_dx_orders", "calm_dnu_orders",
    "calm_dx_points", "calm_dnu_points",
    "m_from_quadrature", "m_deriv", "turanian_il_double_integral",
    "FoxWrightParams", "norm_form_params", "fox_wright_eval",
    "calm_via_fox_wright", "fx4_conditions", "bilateral_bounds",
    "IdentityResidual", "ode_residual", "recurrence_residuals",
    "turanian", "turanian_decomposition", "turanian_quadratic_identity",
    "decomposition_residual", "crossterm_double_integral_residual",
    "residual_suite", "closed_forms",
    "InequalityCase", "GridSpec", "VerificationReport", "CATALOG",
    "EXTRA_CASES", "lookup", "default_grid", "run_case", "run_all",
    "report_to_json_dict", "report_from_json_dict",
    "__version__",
]
