"""Double-exponential quadrature route: the normalized form, both
derivative families, the unnormalized function, and the cross-term
double integral."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from struvekit import quadrature
from struvekit.core import EvalPoint, FuncValue, Method, QuadConfig
from struvekit.errors import DomainError, NonConvergenceError
from struvekit.gammafuncs import gamma_ratio
from struvekit.quadrature import (calm, calm_dnu, calm_dnu_orders, calm_dx,
                                  calm_dx_orders, m_deriv, m_from_quadrature,
                                  turanian_il_double_integral)

from conftest import rel_err
from oracles import (CALM_DNU_TABLE, CALM_DX_TABLE, CALM_TABLE,
                     DOUBLE_INTEGRAL_TABLE, MPRIME_TABLE, M_TABLE)


@pytest.mark.parametrize("key,want", sorted(CALM_TABLE.items()))
def test_calm_table(key, want):
    fv = calm(EvalPoint(*key))
    assert rel_err(fv.value, want) < 1e-12
    assert abs(fv.value - want) <= max(fv.abs_err, 1e-12 * abs(want))


def test_calm_at_zero_is_gamma_ratio():
    for nu in (-0.49, -0.2, 0.0, 0.5, 3.0, 17.5):
        fv = calm(EvalPoint(nu, 0.0))
        assert rel_err(fv.value, gamma_ratio(nu + 0.5, nu + 1.0)) < 1e-13


@pytest.mark.parametrize("key,want", sorted(CALM_DX_TABLE.items()))
def test_calm_dx_table(key, want):
    nu, x, n = key
    fv = calm_dx(EvalPoint(nu, x), n)
    assert rel_err(fv.value, want) < 1e-10


@pytest.mark.parametrize("key,want", sorted(CALM_DNU_TABLE.items()))
def test_calm_dnu_table(key, want):
    nu, x, m = key
    fv = calm_dnu(EvalPoint(nu, x), m)
    assert rel_err(fv.value, want) < 1e-9


def test_calm_dx_order_zero_is_calm():
    p = EvalPoint(1.3, 2.7)
    assert calm_dx(p, 0).value == pytest.approx(calm(p).value, rel=1e-13)


@pytest.mark.parametrize("key,want", sorted(M_TABLE.items()))
def test_m_from_quadrature_table(key, want):
    nu, x = key
    if nu <= -0.5 or x <= 0.0:
        return
    fv = m_from_quadrature(EvalPoint(nu, x))
    assert rel_err(fv.value, want) < 1e-11


@pytest.mark.parametrize("key,want", sorted(MPRIME_TABLE.items()))
def test_m_deriv_table(key, want):
    fv = m_deriv(EvalPoint(*key))
    assert rel_err(fv.value, want) < 1e-10


@pytest.mark.parametrize("key,want", sorted(DOUBLE_INTEGRAL_TABLE.items()))
def test_double_integral_table(key, want):
    fv = turanian_il_double_integral(EvalPoint(*key))
    assert rel_err(fv.value, want) < 1e-9
    assert fv.value > 0.0


def test_domain_rejections():
    with pytest.raises(DomainError):
        calm(EvalPoint(-0.5, 1.0))
    with pytest.raises(DomainError):
        calm(EvalPoint(1.0, -0.1))
    with pytest.raises(DomainError):
        m_from_quadrature(EvalPoint(1.0, 0.0))
    with pytest.raises(DomainError):
        turanian_il_double_integral(EvalPoint(0.5, 1.0))
    with pytest.raises(DomainError):
        calm_dx(EvalPoint(1.0, 1.0), 11)
    with pytest.raises(DomainError):
        calm_dnu(EvalPoint(1.0, 1.0), 7)


def _seeded_points() -> list[EvalPoint]:
    """Orders near -1/2, below 1/2 (where nu-derivatives of order >= 2 get
    the relaxed tolerance) and up to 20; arguments zero or log-uniform."""
    rng = random.Random(20)
    pts = []
    for nu in ([-0.5 + 10.0 ** rng.uniform(-3.0, -1.0) for _ in range(8)]
               + [rng.uniform(-0.45, 0.45) for _ in range(12)]
               + [rng.uniform(0.5, 20.0) for _ in range(10)]):
        x = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3.0, 1.5)
        pts.append(EvalPoint(nu, x))
    return pts


def _scalar_reference(p: EvalPoint, n: int, m: int, cfg: QuadConfig) -> FuncValue:
    """The one-order-at-a-time refinement loop that the batched pass
    replaced, kept as the reference: same node tables and stopping rule,
    one exp() column per order and level."""
    abs_tol, max_level = cfg.abs_tol, cfg.max_level
    if p.nu < 0.5 and m >= 2:
        abs_tol *= 10.0
    scale = 2.0 / math.sqrt(math.pi)
    eps = quadrature._EPS
    pw = p.nu - 0.5
    tail = math.exp(quadrature._log_tail_bound(pw, m))

    def column(level):
        t, lg1mt2, lgw = quadrature._level_nodes(level)
        with np.errstate(under="ignore"):
            col = np.exp(pw * lg1mt2 - p.x * t + lgw)
            if n:
                col = col * t ** n
            if m:
                col = col * (-lg1mt2) ** m
        return float(col.sum())

    s = prev = column(0)
    for level in range(1, max_level + 1):
        s = 0.5 * s + 0.5 ** level * column(level)
        improvable = 2.0 * abs(s - prev) + tail
        err = improvable + 32.0 * eps * abs(s)
        if level >= 2 and (scale * err <= abs_tol or improvable <= 8.0 * eps * abs(s)):
            sign = -1.0 if (n + m) % 2 else 1.0
            return FuncValue(sign * scale * s, scale * err, Method.QUADRATURE)
        prev = s
    raise NonConvergenceError("reference refinement stalled")


def _outcome(fn):
    try:
        return fn()
    except NonConvergenceError:
        return NonConvergenceError


@pytest.mark.parametrize("batch,single,kind,orders", [
    (calm_dx_orders, calm_dx, "n", range(11)),
    (calm_dx_orders, calm_dx, "n", (6, 0, 3)),
    (calm_dnu_orders, calm_dnu, "m", range(7)),
    (calm_dnu_orders, calm_dnu, "m", (4, 1)),
])
@pytest.mark.parametrize("cfg", [QuadConfig(), QuadConfig(abs_tol=1e-9, max_level=5)])
def test_batched_orders_equal_scalar_reference(batch, single, kind, orders, cfg):
    """One refinement pass for a batch of orders returns exactly the
    values and error bars of the per-order loop and of the single-order
    calls, and stalls exactly when some order stalls on its own."""
    for p in _seeded_points():
        want = _outcome(lambda: [
            _scalar_reference(p, k if kind == "n" else 0, k if kind == "m" else 0, cfg)
            for k in orders])
        assert _outcome(lambda: batch(p, orders, cfg)) == want, p
        assert _outcome(lambda: [single(p, k, cfg) for k in orders]) == want, p


@pytest.mark.parametrize("batch,orders", [
    (calm_dx_orders, (0, 11, 1)),
    (calm_dx_orders, (-1,)),
    (calm_dnu_orders, (2, 7)),
    (calm_dnu_orders, (0, -1, 3)),
])
def test_out_of_range_order_anywhere_in_a_batch_raises(batch, orders):
    with pytest.raises(DomainError):
        batch(EvalPoint(1.0, 1.0), orders)


@given(st.floats(min_value=-0.45, max_value=15.0),
       st.floats(min_value=1e-3, max_value=30.0))
def test_reported_error_bound_is_honest_vs_tight_rerun(nu, x):
    p = EvalPoint(nu, x)
    fv = calm(p)
    ref = calm(p, QuadConfig(abs_tol=1e-13, max_level=12))
    assert abs(fv.value - ref.value) <= fv.abs_err + ref.abs_err + 1e-14


@given(st.floats(min_value=-0.45, max_value=10.0),
       st.floats(min_value=1e-2, max_value=20.0))
def test_first_derivative_matches_finite_difference(nu, x):
    p = EvalPoint(nu, x)
    h = 1e-5
    fd = (calm(EvalPoint(nu, x + h)).value
          - calm(EvalPoint(nu, x - h)).value) / (2.0 * h)
    assert abs(calm_dx(p, 1).value - fd) < 1e-6


def test_stall_past_the_node_range_names_its_cause():
    """Next to nu = -1/2 the sixth nu-derivative's endpoint mass lies past
    the outermost node: the error says so and quotes the tail bound, alone
    and inside a batch. A stall the tail bound does not explain (order 1,
    tail bound about 6e-30) says nothing about the node range."""
    p = EvalPoint(-0.49898, 0.179)
    beyond = r"endpoint mass lies beyond the node range for this order \(tail bound 4\.1e\+06\)"
    with pytest.raises(NonConvergenceError, match=r"order 6: .*" + beyond):
        calm_dnu(p, 6)
    with pytest.raises(NonConvergenceError, match=r"order 6: .*" + beyond):
        calm_dnu_orders(p, (1, 6))
    with pytest.raises(NonConvergenceError, match=r"order 1: .*estimate [^;]*$"):
        calm_dnu(EvalPoint(-0.4985, 0.179), 1)
