"""Double-exponential quadrature route: the normalized form, both
derivative families, the unnormalized function, and the cross-term
double integral."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from struvekit import quadrature
from struvekit.core import EvalPoint, FuncValue, Method, QuadConfig
from struvekit.errors import CancellationError, DomainError, NonConvergenceError
from struvekit.gammafuncs import gamma_ratio, log_gamma
from struvekit.quadrature import (calm, calm_dnu, calm_dnu_orders, calm_dnu_points,
                                  calm_dx, calm_dx_orders, calm_dx_points, m_deriv,
                                  m_from_quadrature, turanian_il_double_integral)

from conftest import large_x_calm_dx, rel_err
from oracles import (CALM_DNU_TABLE, CALM_DX_TABLE, CALM_TABLE, DOUBLE_INTEGRAL_BAR_MISSES,
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


@pytest.mark.parametrize("key,want", list(DOUBLE_INTEGRAL_TABLE.items()))
def test_double_integral_table(key, want):
    fv = turanian_il_double_integral(EvalPoint(*key))
    assert rel_err(fv.value, want) < 1e-9
    assert fv.value > 0.0


@pytest.mark.parametrize("key,want", list(DOUBLE_INTEGRAL_TABLE.items()))
def test_double_integral_bar_covers_reference(key, want):
    fv = turanian_il_double_integral(EvalPoint(*key))
    assert abs(fv.value - want) <= fv.abs_err, (key, fv.value - want, fv.abs_err)


def test_double_integral_refuses_an_overflowing_prefactor():
    """At nu = 500, x = 1000 the prefactor's log passes LOG_MAX and cosh(x) overflows:
    D is refused, not returned infinite."""
    with pytest.raises(CancellationError, match=re.escape(
            "cross-Turanian double integral at (nu=500, x=1000) overflows float64")):
        turanian_il_double_integral(EvalPoint(500.0, 1000.0))


@pytest.mark.xfail(strict=True, reason="near nu = 1/2 at large x the stop level's estimate "
                   "2|d - prev| is smaller than D's discretization error")
@pytest.mark.parametrize("key,want", list(DOUBLE_INTEGRAL_BAR_MISSES.items()))
def test_double_integral_bar_covers_its_quadrature_error(key, want):
    """At (0.5013186950227101, 351.8120029434722) D is 1.72e-14 relative off the
    reference at the key's floats, 1.35 times its bar."""
    fv = turanian_il_double_integral(EvalPoint(*key))
    assert abs(fv.value - want) <= fv.abs_err, (key, fv.value - want, fv.abs_err)


def _tensor_double_sum(p: EvalPoint, level: int) -> float:
    """D from the explicit O(N^2) product-rule sum over every node through
    `level`: sum_ij a_i b_j (t_i^2 - t_j^2)^2 with cosh weights a and sinh
    weights b, times the prefactor."""
    t, lg1mt2, lgw = (np.concatenate(arrays) for arrays in
                      zip(*(quadrature._level_nodes(lv) for lv in range(level + 1))))
    col = 0.5 ** level * np.exp((p.nu - 1.5) * lg1mt2 + lgw)
    a, b = col * np.cosh(p.x * t), col * np.sinh(p.x * t)
    diff = t[:, None] ** 2 - t[None, :] ** 2
    diff *= diff  # in place: 58 MB at level 7
    log_pref = (math.log(4.0 / math.pi) + 2.0 * p.nu * math.log(0.5 * p.x)
                - 2.0 * log_gamma(p.nu + 0.5))
    return math.exp(log_pref) * float(a @ diff @ b)


def _double_integral_stop_level(p: EvalPoint, monkeypatch=None) -> int:
    """The level where turanian_il_double_integral(p) stops: the smallest max_level at
    which it returns (below it, it raises NonConvergenceError; from it on, it refines
    the same levels). Builds every node table it needs and patches nothing, so a
    monkeypatch passed in is not used."""
    for max_level in range(3, 13):
        try:
            turanian_il_double_integral(p, QuadConfig(max_level=max_level))
            return max_level
        except NonConvergenceError:
            pass
    raise AssertionError(f"{p} does not converge by level 12")


# (nu, x, stop level); levels 0-4 form one joined pass, its moments centred from the
# start at level 0's a-weighted mean of t^2, and a re-centring recomputes the sums of
# every span read so far
@pytest.mark.parametrize("key", [
    (1.0, 1.0, 4),          # stops in the joined span, never re-centred
    (0.55, 30.0, 5),        # never re-centred
    (6.5, 30.0, 5),         # re-centred at level 1
    (20.0, 0.05, 5),        # never re-centred
    (46.0, 220.0, 6),       # re-centred at level 1
    (26.285, 0.519, 5),     # re-centred at level 1
    (169.6, 192.9, 6),      # re-centred at level 4, the last of the joined span
    (139.5, 286.3, 7)])     # re-centred at levels 2 and 3, within the joined span
def test_double_integral_moments_match_tensor_sum(key):
    """The linear-time moment pass returns the tensor sum over the same
    nodes, at the level where it stopped, to rounding. At (46, 220) the
    integrand peaks between the level-0 nodes, so the moments must be
    re-centred to stay free of cancellation."""
    nu, x, stop = key
    p = EvalPoint(nu, x)
    assert _double_integral_stop_level(p) == stop
    fv = turanian_il_double_integral(p)
    assert rel_err(fv.value, _tensor_double_sum(p, stop)) < 1e-13


@pytest.mark.parametrize("key,stop", [((1.0, 1.0), 4), ((139.5, 286.3), 7)])
def test_double_integral_refines_levels_0_to_4_in_one_pass(key, stop, monkeypatch):
    """D takes one exp(), cosh() and sinh() over the joined nodes of levels 0-4
    (337), then one of each per later level; a re-centring takes none."""
    p = EvalPoint(*key)
    assert _double_integral_stop_level(p, monkeypatch) == stop  # also builds the tables
    joined = sum(len(quadrature._level_nodes(level)[0]) for level in range(5))
    later = [len(quadrature._level_nodes(level)[0]) for level in range(5, stop + 1)]
    sizes = {name: [] for name in ("exp", "cosh", "sinh")}
    for name, calls in sizes.items():
        fn = getattr(np, name)
        monkeypatch.setattr(np, name, lambda arg, fn=fn, calls=calls:
                            calls.append(arg.size) or fn(arg))
    turanian_il_double_integral(p)
    assert sizes == {name: [joined] + later for name in sizes}
    assert joined == 337


def test_double_integral_is_centred_before_its_first_moments():
    """At (0.5234135767924081, 352.779288606644) the level-0 moments about t^2 = 0
    overflow float64 in a0 v2 + u2 b0. D centres them at level 0's a-weighted mean of
    t^2 before it forms them, so it is finite and within its bar of the reference."""
    key = (0.5234135767924081, 352.779288606644)
    t, lg1mt2, lgw = quadrature._level_nodes(0)
    col = np.exp((key[0] - 1.5) * lg1mt2 + lgw)
    rows = np.empty((6, len(t)))
    rows[0], rows[1] = col * np.cosh(key[1] * t), col * np.sinh(key[1] * t)
    a0, b0, _, _, u2, v2 = quadrature._span_sums([0], t * t, rows, 0.0)[0]
    assert a0 * v2 + u2 * b0 == math.inf
    fv = turanian_il_double_integral(EvalPoint(*key))
    assert math.isfinite(fv.value)
    assert abs(fv.value - DOUBLE_INTEGRAL_TABLE[key]) <= fv.abs_err


@pytest.mark.parametrize("x", [700.0, 800.0])
def test_double_integral_overflow_is_named(x):
    """D grows like e^(2x): past float64 it raises rather than stalling."""
    with pytest.raises(CancellationError, match="overflows float64"):
        turanian_il_double_integral(EvalPoint(0.6, x))


@pytest.mark.parametrize("x", [710.475860073944, 800.0])
def test_double_integral_underflow_past_cosh_overflow_is_zero(x):
    """From x = 710.475860073944 on cosh(x) overflows float64. At nu = 1e4 D's
    bound pref (B(1/2, nu-1/2)/2)^2 cosh(x) sinh(x) still lies below the smallest
    subnormal, so D is 0 within it; at nu = 1.5 D itself overflows."""
    assert turanian_il_double_integral(EvalPoint(1e4, x)) == FuncValue(
        0.0, 5e-324, Method.QUADRATURE)
    with pytest.raises(CancellationError, match="overflows float64"):
        turanian_il_double_integral(EvalPoint(1.5, x))


@pytest.mark.parametrize("key,bound", [((0.5001, 1.0), "190"), ((0.5001, 10.0), "3.7e+03"),
                                       ((0.5001, 300.0), "3.01e+06"),
                                       ((0.5005, 1.0), "4.68e-09")])
def test_double_integral_stall_past_the_node_range_names_its_cause(key, bound):
    """Next to nu = 1/2 the axis tail bound times the companion mass
    exceeds the tolerance at every level: the error says so and quotes
    that bound relative to D."""
    with pytest.raises(NonConvergenceError, match=(
            r"stalled at \(nu=%g, x=%g\); the endpoint mass lies beyond the node range "
            r"\(relative tail bound %s\)$" % (*key, re.escape(bound)))):
        turanian_il_double_integral(EvalPoint(*key))


@pytest.mark.parametrize("key", [(200.0, 1.0), (1.0, 1e-300)])
def test_double_integral_underflow_keeps_a_bar(key):
    """D lies below the smallest subnormal here: 0 with a nonzero bar."""
    fv = turanian_il_double_integral(EvalPoint(*key))
    assert fv.value == 0.0 < fv.abs_err


@pytest.mark.parametrize("nu", [-0.45, 2.0, 40.0])
def test_arguments_past_x_max_are_refused(nu):
    """Up to X_MAX calM keeps its bar; past it every quadrature entry point refuses
    x with a DomainError that names the limit, where calM once came back 2.5x
    outside its bar (x = 1e12) or 0 +- 0 (x = 1e290)."""
    fv = calm(EvalPoint(nu, quadrature.X_MAX))
    assert abs(fv.value - large_x_calm_dx(nu, quadrature.X_MAX)) <= fv.abs_err
    for x in (1.001 * quadrature.X_MAX, 1e12, 1e290):
        for fn in (calm, m_from_quadrature, m_deriv, lambda p: calm_dnu(p, 1),
                   lambda p: calm_dx_points(p.nu, p.x, (0,))):
            with pytest.raises(DomainError, match=r"requires x <= 10000"):
                fn(EvalPoint(nu, x))


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
    eps = quadrature.EPS
    pw = p.nu - 0.5
    tail = math.exp(quadrature._log_tail_bound(pw, m, p.x))

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
@pytest.mark.parametrize("cfg", [QuadConfig(), QuadConfig(abs_tol=1e-9, max_level=5),
                                 QuadConfig(max_level=3)])
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


def per_point(got):
    """A points pass's outcome at each point: its FuncValues per order, as the one-point
    call returns them, or its stall error, where its values and bars are NaN."""
    assert got.value.shape == got.abs_err.shape
    out = []
    for i, (values, bars) in enumerate(zip(got.value.T.tolist(), got.abs_err.T.tolist())):
        if i in got.errors:
            assert np.isnan(values + bars).all()
            out.append(got.errors[i])
        else:
            out.append([FuncValue(v, e, Method.QUADRATURE) for v, e in zip(values, bars)])
    assert set(got.errors) <= set(range(len(out)))
    return out


def calm_dx_row(nu, xs, ns, cfg=QuadConfig()):
    """A row: one points batch at a repeated nu, per point."""
    return per_point(calm_dx_points(nu, xs, ns, cfg))


def calm_dnu_row(nu, xs, ms, cfg=QuadConfig()):
    """A row: one points batch at a repeated nu, per point."""
    return per_point(calm_dnu_points(nu, xs, ms, cfg))


@pytest.mark.parametrize("row,batch,kind,orders", [
    (calm_dx_row, calm_dx_orders, "n", range(11)),
    (calm_dx_row, calm_dx_orders, "n", (6, 0, 3)),
    (calm_dnu_row, calm_dnu_orders, "m", range(7)),
    (calm_dnu_row, calm_dnu_orders, "m", (4, 1)),
])
@pytest.mark.parametrize("cfg", [QuadConfig(), QuadConfig(abs_tol=1e-9, max_level=5)])
def test_rows_equal_scalar_reference(row, batch, kind, orders, cfg):
    """A whole x row at one nu, as one points batch, returns, at each point, exactly the
    values and error bars of the per-order loop, or the error the
    per-point call raises there, message included. The rows start at
    x = 0 and the orders come within 1e-3 of -1/2."""
    rng = random.Random(21)
    for nu in sorted({p.nu for p in _seeded_points()}):
        xs = (0.0,) + tuple(10.0 ** rng.uniform(-3.0, 1.5) for _ in range(5))
        for x, got in zip(xs, row(nu, xs, orders, cfg)):
            p = EvalPoint(nu, x)
            want = _outcome(lambda: [
                _scalar_reference(p, k if kind == "n" else 0, k if kind == "m" else 0, cfg)
                for k in orders])
            if want is NonConvergenceError:
                with pytest.raises(NonConvergenceError) as info:
                    batch(p, orders, cfg)
                assert isinstance(got, NonConvergenceError), p
                assert str(got) == str(info.value), p
            else:
                assert got == want, p


_ROWS = (calm_dx_row, calm_dnu_row)


@pytest.mark.parametrize("batch,orders", [
    (calm_dx_orders, (0, 11, 1)),
    (calm_dx_orders, (-1,)),
    (calm_dnu_orders, (2, 7)),
    (calm_dnu_orders, (0, -1, 3)),
    (calm_dx_row, (0, 11, 1)),
    (calm_dx_row, (-1,)),
    (calm_dnu_row, (2, 7)),
    (calm_dnu_row, (0, -1, 3)),
])
def test_out_of_range_order_anywhere_in_a_batch_raises(batch, orders):
    with pytest.raises(DomainError):
        if batch in _ROWS:
            batch(1.0, (0.5, 1.0), orders)
        else:
            batch(EvalPoint(1.0, 1.0), orders)


@pytest.mark.parametrize("row", _ROWS)
@pytest.mark.parametrize("nu,xs", [(-0.5, (1.0,)), (-0.7, (0.5, 1.0)), (1.0, (0.5, -1e-3, 2.0)),
                                   (1.0, (-1.0,))])
def test_rows_reject_points_off_the_integral_domain(row, nu, xs):
    """As at one point: nu <= -1/2, or an x < 0 anywhere in the row, raises."""
    with pytest.raises(DomainError):
        row(nu, xs, (0, 1))


#: Points a mixed batch must carry: x = 0 on both sides of nu = 1/2, orders
#: either side of 1/2 (nu-orders >= 2 relax their tolerance only below it),
#: and the stall whose sixth nu-derivative lies past the node range.
_MIXED_EDGES = (EvalPoint(0.3, 0.0), EvalPoint(0.7, 0.0), EvalPoint(0.4999, 2.0),
                EvalPoint(0.5001, 2.0), EvalPoint(0.4999, 0.0), EvalPoint(-0.49898, 0.179))


@pytest.mark.parametrize("points,single,orders", [
    (calm_dx_points, calm_dx_orders, range(11)),
    (calm_dnu_points, calm_dnu_orders, range(7)),
    (calm_dnu_points, calm_dnu_orders, (1, 6)),
])
@pytest.mark.parametrize("cfg", [QuadConfig(), QuadConfig(abs_tol=1e-9, max_level=5),
                                 QuadConfig(max_level=3)])
def test_mixed_batches_equal_scalar_reference(points, single, orders, cfg):
    """One batch over points at many (nu, x) returns, at each point, exactly
    what the one-point call returns there, or the error it raises, message
    included; the stall next to nu = -1/2 keeps its node-range message."""
    rng = random.Random(22)
    batch = list(_MIXED_EDGES) + [EvalPoint(p.nu, 10.0 ** rng.uniform(-3.0, 1.5))
                                  for p in _seeded_points() for _ in range(3)]
    rng.shuffle(batch)
    results = per_point(points([p.nu for p in batch], [p.x for p in batch], orders, cfg))
    assert len(results) == len(batch)
    for p, got in zip(batch, results):
        try:
            want = single(p, orders, cfg)
        except NonConvergenceError as exc:
            assert isinstance(got, NonConvergenceError), p
            assert str(got) == str(exc), p
        else:
            assert got == want, p
    if tuple(orders) == (1, 6) and cfg == QuadConfig():  # at max_level 5 order 1 stalls first
        got = results[batch.index(EvalPoint(-0.49898, 0.179))]
        assert re.fullmatch(r"calm_dnu\(nu=-0\.49898, x=0\.179\), order 6: .*; the endpoint "
                            r"mass lies beyond the node range for this order \(tail bound "
                            r"3\.43e\+06\)", str(got)), str(got)


def test_a_lone_point_refines_levels_0_to_4_in_one_exp_pass(monkeypatch):
    """A one-point refinement that freezes at level 4, as lone calls do, takes one
    exp() over the joined nodes of levels 0-4 (337), not one per level; one that
    stalls (the first nu-derivative next to nu = -1/2) takes one more per level."""
    joined = sum(len(quadrature._level_nodes(level)[0]) for level in range(5))
    later = [len(quadrature._level_nodes(level)[0]) for level in range(5, 11)]
    lone, stall = EvalPoint(1.3, 12.0), EvalPoint(-0.4985, 0.179)
    calm_dx_orders(lone, (0, 1))  # fills the node and kernel tables
    with pytest.raises(NonConvergenceError):
        calm_dnu(stall, 1)
    exp, sizes = np.exp, []
    monkeypatch.setattr(np, "exp", lambda arg: sizes.append(arg.size) or exp(arg))
    calm_dx_orders(lone, (0, 1))
    assert sizes == [joined] == [337]
    sizes.clear()
    with pytest.raises(NonConvergenceError):
        calm_dnu(stall, 1)
    assert sizes == [joined] + later


def test_batches_past_the_cap_are_split_without_changing_a_bit(monkeypatch):
    """A batch holds at most _BATCH_CELLS points x orders; a longer list is
    refined in several batches, with the same results. An empty list gives
    empty arrays, one row per order."""
    nu, x = np.repeat([-0.3, 0.5, 4.0], 3), np.tile([0.0, 0.5, 9.0], 3)
    want = calm_dx_points(nu, x, (0, 1, 2))
    sizes = []
    refine = quadrature._refine_batch
    monkeypatch.setattr(quadrature, "_refine_batch",
                        lambda batch, *args: sizes.append(len(batch)) or refine(batch, *args))
    monkeypatch.setattr(quadrature, "_BATCH_CELLS", 7)
    got = calm_dx_points(nu, x, (0, 1, 2))
    assert got.errors == want.errors == {} and got.value.shape == (3, 9)
    assert got.value.tolist() == want.value.tolist()
    assert got.abs_err.tolist() == want.abs_err.tolist()
    assert sizes == [2, 2, 2, 2, 1]  # at most 2 points x 3 orders each
    empty = calm_dx_points([], [], (0, 1, 2))
    assert empty.value.shape == empty.abs_err.shape == (3, 0) and empty.errors == {}


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
    tail bound about 5e-30) says nothing about the node range."""
    p = EvalPoint(-0.49898, 0.179)
    beyond = r"endpoint mass lies beyond the node range for this order \(tail bound 3\.43e\+06\)"
    with pytest.raises(NonConvergenceError, match=r"order 6: .*" + beyond):
        calm_dnu(p, 6)
    with pytest.raises(NonConvergenceError, match=r"order 6: .*" + beyond):
        calm_dnu_orders(p, (1, 6))
    (got,) = calm_dnu_row(p.nu, (p.x,), (1, 6))
    assert isinstance(got, NonConvergenceError)
    with pytest.raises(NonConvergenceError) as info:
        calm_dnu_orders(p, (1, 6))
    assert str(got) == str(info.value)
    with pytest.raises(NonConvergenceError, match=r"order 1: .*estimate [^;]*$"):
        calm_dnu(EvalPoint(-0.4985, 0.179), 1)
