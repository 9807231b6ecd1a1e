"""Correctness gates of the benchmark and the mpmath reference they use.

Each gate takes what a worker returned and gives back a list of failure
messages; an empty list means the gate passed. The gates are plain
functions of their inputs so that run.py can prove each one can fail,
the way ``InequalityCase.flipped()`` proves the sweep harness can: it
feeds a gate a flipped catalog case or a corrupted value and requires a
failure.
"""

from __future__ import annotations

import math

import mpmath as mp

#: Largest relative distance from the mpmath reference a value may have.
REL_TOL = 1e-10
#: Largest relative residual an identity other than the cross term may have.
IDENTITY_TOL = 1e-8
#: The cross term and the double integral differ by order one (the known
#: false claim); a relative gap below this would mean it went missing.
CROSS_GAP_MIN = 0.5
CROSS_ID = "turanian_cross_vs_double_integral"
#: Working digits of the reference. L_nu and I_nu cancel by up to ~14
#: digits at x = 30, so this leaves well over double precision.
REFERENCE_DPS = 60


def catalog_gate(case_ids: list[str], passes: list[list[list]],
                 fx3_raw: list) -> list[str]:
    """Every catalog case is reported, has zero violations and has tested
    + skipped equal to its grid size, in every pass; FX3_raw still reports
    violations.

    Reports are worker summaries:
    [case_id, tested, skipped, violations, inconclusive, errored, grid size].
    """
    failures = []
    for number, reports in enumerate(passes):
        missing = set(case_ids) - {r[0] for r in reports}
        if missing:
            failures.append(f"pass {number}: no report for {sorted(missing)}")
        for cid, tested, skipped, violations, _, _, size in reports:
            if violations:
                failures.append(f"pass {number}: {cid} has {violations} violations")
            if tested + skipped != size:
                failures.append(f"pass {number}: {cid} tested {tested} + skipped "
                                f"{skipped} != grid size {size}")
    cid, tested, skipped, violations, _, _, size = fx3_raw
    if not violations:
        failures.append(f"{cid} reports no violations; the known false claim "
                        "must stay false")
    if tested + skipped != size:
        failures.append(f"{cid} tested {tested} + skipped {skipped} != grid size {size}")
    return failures


def reference(nu: float, x: float) -> tuple[float, float, float]:
    """(M_nu(x), calM_nu(x), M_nu'(x)) from mpmath: M = struvel - besseli,
    M' by the order-lowering recurrence M_nu' = M_{nu-1} - (nu/x) M_nu."""
    with mp.workdps(REFERENCE_DPS):
        n, z = mp.mpf(nu), mp.mpf(x)
        m = mp.struvel(n, z) - mp.besseli(n, z)
        m_lower = mp.struvel(n - 1, z) - mp.besseli(n - 1, z)
        calm = -mp.power(2, n) * mp.gamma(n + 0.5) * mp.power(z, -n) * m
        return float(m), float(calm), float(m_lower - n / z * m)


def point_gate(results: list[list], refs: list[float]) -> tuple[list[str], int]:
    """Every returned value lies within REL_TOL relative of its reference.

    results are worker entries [value, abs_err, method] (value None when
    the call raised), refs the matching reference values. Also returns how
    many returned values miss their reference by more than their own
    abs_err; that count is reported, not gated.
    """
    failures = []
    breaches = 0
    for (value, abs_err, _), ref in zip(results, refs, strict=True):
        if value is None:
            continue
        err = abs(value - ref)
        if not (math.isfinite(value) and err <= REL_TOL * abs(ref)):
            failures.append(f"value {value!r} vs reference {ref!r}: absolute "
                            f"error {err:.3g}")
        if err > abs_err:
            breaches += 1
    return failures, breaches


def identity_gate(stats: dict[str, list]) -> list[str]:
    """Every identity except the cross term has relative residual at most
    IDENTITY_TOL; the cross-term comparison keeps its order-one gap.

    stats maps identity id to [count, largest relative, smallest relative].
    """
    failures = []
    if CROSS_ID not in stats:
        failures.append("no cross-term residuals were computed")
    for rid, (count, largest, smallest) in sorted(stats.items()):
        if rid == CROSS_ID:
            if smallest < CROSS_GAP_MIN:
                failures.append(f"{rid}: relative gap {smallest:.3g} is no longer "
                                "order one")
        elif largest > IDENTITY_TOL:
            failures.append(f"{rid}: relative residual {largest:.3g} over "
                            f"{count} points exceeds {IDENTITY_TOL:g}")
    return failures
