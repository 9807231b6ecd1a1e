"""Fox-Wright generalized hypergeometric series and the bound machinery
built on it.

The general object is

    pPsi_q[(a_1,alpha_1),...,(a_p,alpha_p); (b_1,beta_1),...,(b_q,beta_q) | z]
        = sum_n  prod_l Gamma(a_l + alpha_l n) / prod_j Gamma(b_j + beta_j n)
                 * z^n / n!

convergent for all bounded z when the index
epsilon = 1 + sum(beta) - sum(alpha) is positive. The normalized form is

    calM_nu(x) = (Gamma(nu+1/2)/sqrt(pi)) * 1Psi1[(1/2,1/2);(nu+1,1/2) | -x]

and the leading coefficient ratios psi_0, psi_1, psi_2 drive a bilateral
exponential bound: when psi_1 > psi_2 and psi_1^2 < psi_2 psi_0,

    gr * exp(-Gamma(nu+1) x / (sqrt(pi) Gamma(nu+3/2)))
        <= calM_nu(x) <= gr - (1 - e^(-x)) / (sqrt(pi) (nu+1/2)),

with gr = Gamma(nu+1/2)/Gamma(nu+1). For the Struve parameterization the
two coefficient conditions reduce to the gamma-ratio inequalities
2/sqrt(pi) > Gamma(nu+3/2)/Gamma(nu+2) > sqrt(2/(pi(nu+1))), which hold
for all nu > -1/2 (monotonicity of the f and g ratio functions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import SERIES_DEFAULTS, EvalPoint, FuncValue, Method, SeriesConfig, rel_margin
from .errors import (CancellationError, ConvergenceDomainError, DomainError,
                     NonConvergenceError, PoleError)
from .gammafuncs import (EPS, SQRT_PI, exp_points, exp_rounded, gamma, gamma_ratio,
                         log_gamma, per_value)

#: Alternating sums are refused when sum|term| / |sum term| exceeds this.
CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class FoxWrightParams:
    """Parameter list for pPsi_q: upper (a_l, alpha_l), lower (b_j, beta_j)."""

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for a, alpha in self.upper:
            if not (math.isfinite(a) and math.isfinite(alpha)):
                raise DomainError("upper parameters must be finite")
        for b, beta in self.lower:
            if not (math.isfinite(b) and math.isfinite(beta)):
                raise DomainError("lower parameters must be finite")

    @property
    def convergence_index(self) -> float:
        """epsilon = 1 + sum(beta_j) - sum(alpha_l); series needs epsilon > 0."""
        return 1.0 + sum(b[1] for b in self.lower) - sum(a[1] for a in self.upper)


def norm_form_params(nu: float) -> FoxWrightParams:
    """The 1Psi1 parameterization whose value at z = -x gives
    sqrt(pi)/Gamma(nu+1/2) times the normalized form."""
    return FoxWrightParams(upper=((0.5, 0.5),), lower=((nu + 1.0, 0.5),))


def psi_m(params: FoxWrightParams, m: int) -> float:
    """Coefficient ratio prod Gamma(a_l + alpha_l m) / prod Gamma(b_j + beta_j m).

    psi_0 is the series' leading coefficient. Computed in log space when
    every gamma argument is positive (overflow safety for large orders);
    negative non-integer arguments fall back to direct gamma products.
    """
    if m < 0:
        raise DomainError("psi_m requires m >= 0")
    args_up = [a + alpha * m for a, alpha in params.upper]
    args_lo = [b + beta * m for b, beta in params.lower]
    for z in args_up + args_lo:
        if z <= 0.0 and z == math.floor(z):
            raise PoleError(f"gamma argument {z:g} is a non-positive integer")
    if all(z > 0.0 for z in args_up + args_lo):
        lg = sum(log_gamma(z) for z in args_up) - sum(log_gamma(z) for z in args_lo)
        return math.exp(lg)
    val = 1.0
    for z in args_up:
        val *= gamma(z)
    for z in args_lo:
        val /= gamma(z)
    return val


def fox_wright_eval(params: FoxWrightParams, z: float,
                    cfg: SeriesConfig = SERIES_DEFAULTS) -> FuncValue:
    """Sum the series at argument z with a tail-term error estimate.

    Stops once the term magnitude falls below rel_tol times the running
    sum and keeps falling; term coefficients go through log-gamma so large
    parameters cannot overflow intermediate factors, and a term that
    overflows float64 raises CancellationError. For z < 0 the partial
    sums alternate, so the running peak-to-sum ratio is tracked and the
    evaluation refuses (CancellationError) when it passes CONDITION_LIMIT,
    the same pathology guard the merged series route uses.
    """
    eps_index = params.convergence_index
    if eps_index <= 0.0:
        raise ConvergenceDomainError(
            f"series requires convergence index > 0, got {eps_index:g}")
    total = 0.0
    carry = 0.0
    peak = 0.0
    term_abs = 0.0
    rounding = 0.0
    log_abs_z = math.log(abs(z)) if z != 0.0 else -math.inf
    sign_z = -1.0 if z < 0.0 else 1.0
    for n in range(cfg.max_terms):
        lg = -log_gamma(n + 1.0)
        size = abs(lg)  # the sum of the magnitudes of the terms lg is summed from
        sign = 1.0
        for pairs, side in ((params.upper, 1.0), (params.lower, -1.0)):
            for a, alpha in pairs:
                arg = a + alpha * n
                if arg <= 0.0:
                    if arg == math.floor(arg):
                        raise PoleError(
                            f"gamma argument {arg:g} is a non-positive integer")
                    g = gamma(arg)
                    sign *= math.copysign(1.0, g)
                    part = math.log(abs(g))
                else:
                    part = log_gamma(arg)
                lg += side * part
                size += abs(part)
        if n > 0 and log_abs_z == -math.inf:
            break
        log_power = n * log_abs_z if n else 0.0  # 0 * -inf is NaN at z = 0
        try:
            term_abs, term_err = exp_rounded(lg + log_power, size, log_power)
        except OverflowError:  # math.exp raises past log(DBL_MAX)
            raise CancellationError(f"term {n} of the series at z = {z:g} overflows "
                                    "float64") from None
        rounding += term_err
        term = sign * (sign_z ** n) * term_abs
        y = term - carry
        t = total + y
        carry = (t - total) - y
        total = t
        peak = max(peak, abs(total), term_abs)
        if n >= 4 and term_abs <= cfg.rel_tol * max(abs(total), 1e-300):
            # superalgebraically decaying tail: bound it by a geometric
            # series with the observed ratio, conservatively 2x last term;
            # then each term's exp() rounding, which follows the size of its
            # log-gamma sum (about 150 per gamma at nu = 50), and the summation's
            err = 2.0 * term_abs + rounding + 4.0 * EPS * peak * (n + 1)
            if z < 0.0 and peak / max(abs(total), 1e-300) > CONDITION_LIMIT:
                raise CancellationError(
                    "alternating series loses more than 8 digits "
                    f"(condition {peak / abs(total):.3g})")
            return FuncValue(total, err, Method.FOX_WRIGHT)
    if log_abs_z == -math.inf:  # z = 0: the leading term alone, with its exp() rounding
        return FuncValue(total, rounding, Method.FOX_WRIGHT)
    raise NonConvergenceError(
        f"series did not settle within {cfg.max_terms} terms")


def calm_via_fox_wright(p: EvalPoint, cfg: SeriesConfig = SERIES_DEFAULTS) -> FuncValue:
    """Normalized form by the Fox-Wright route. nu > -1/2, x >= 0.

    Multiplies the 1Psi1 value at z = -x by Gamma(nu+1/2)/sqrt(pi): the merged
    series' Taylor expansion in x coded a second time, not a representation
    independent of it (ROADMAP item 12 plans the third route). Its cancellation
    guard inherits from fox_wright_eval. CancellationError where the factor (from
    nu = 171.6 on) or a term of the sum overflows float64.
    """
    if p.nu <= -0.5:
        raise DomainError("the normalized form requires nu > -1/2")
    if p.x < 0.0:
        raise DomainError("the series argument requires x >= 0")
    log_gam = log_gamma(p.nu + 0.5)
    try:
        power, power_err = exp_rounded(log_gam, log_gam, 0.0)
    except OverflowError:  # math.exp raises past log(DBL_MAX)
        raise CancellationError(f"gamma({p.nu + 0.5:g}) overflows float64") from None
    base = fox_wright_eval(norm_form_params(p.nu), -p.x, cfg)
    factor = power / SQRT_PI
    value = factor * base.value
    return FuncValue(value, factor * base.abs_err + power_err / SQRT_PI * abs(base.value)
                     + EPS * abs(value), Method.FOX_WRIGHT)


def fx4_conditions(params: FoxWrightParams) -> tuple[bool, bool]:
    """Truth values of the two coefficient conditions psi_1 > psi_2 and
    psi_1^2 < psi_2 psi_0 that gate the bilateral exponential bound."""
    return tuple(m > 0.0 for m in fx4_margins(params))


def fx4_margins(params: FoxWrightParams) -> tuple[float, float]:
    """The rel_margin of each coefficient condition, psi_1 >= psi_2 and
    psi_2 psi_0 >= psi_1^2 (positive means the condition holds)."""
    p0, p1, p2 = (psi_m(params, m) for m in range(3))
    return float(rel_margin(p1, p2)), float(rel_margin(p2 * p0, p1 * p1))


def bilateral_bounds(p: EvalPoint) -> tuple[float, float]:
    """Lower and upper exponential-decay bounds on the normalized form:

        lower = gr * exp(-Gamma(nu+1) x / (sqrt(pi) Gamma(nu+3/2)))
        upper = gr - (1 - e^(-x)) / (sqrt(pi) (nu+1/2))

    with gr = Gamma(nu+1/2)/Gamma(nu+1). Both collapse to gr as x -> 0+.
    nu > -1/2, x >= 0.
    """
    if p.nu <= -0.5:
        raise DomainError("the bilateral bounds require nu > -1/2")
    if p.x < 0.0:
        raise DomainError("the bilateral bounds require x >= 0")
    return tuple(map(float, bilateral_bounds_points(p.nu, p.x)))


def bilateral_bounds_points(nu, x):
    """bilateral_bounds at every point of the arrays, unchecked: the gamma ratios per
    distinct order, exp per point and expm1 per distinct x, from math."""
    gr = per_value(lambda v: gamma_ratio(v + 0.5, v + 1.0), nu)
    rate = per_value(lambda v: gamma_ratio(v + 1.0, v + 1.5), nu) / SQRT_PI
    return gr * exp_points(-rate * x), gr - (-per_value(math.expm1, -x)) / (SQRT_PI * (nu + 0.5))
