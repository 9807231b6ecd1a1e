"""struvekit benchmark: catalog sweep, point stream and identity grid.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload is a closed loop: one caller in one process, no threads, the
next call issued when the previous one returns. Every sample of cold
behaviour comes from a fresh interpreter started by this script (see
worker.py), one at a time. With --trace 0 the run measures end-to-end
metrics with tracing off; with --trace 1 it instead runs the workload once
untraced and once traced (tracer.py) and reports per-layer metrics plus
the tracing overhead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. A failed
correctness gate prints correct: false and exits with code 1; a checkout
without the package source exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

import gates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters per run of each workload; each gives one setup_s and
#: one cold_s sample, then spends its share of --seconds on warm passes.
CATALOG_WORKERS = 7
STREAM_WORKERS = 10
IDENTITY_WORKERS = 7
#: Catalog case a self-test flips to prove the catalog gate can fail.
FLIP_CASE = "bound0"
#: point_stream: points per pass, and passes per worker (one cold, then warm).
#: The count is fixed because every returned value is checked against an
#: mpmath reference that costs about four times the evaluation itself.
STREAM_GRID = (20, 25)
BATCH = STREAM_GRID[0] * STREAM_GRID[1]
PASSES_PER_WORKER = 6
NU_RANGE = (-0.45, 20.0)
X_RANGE = (1e-3, 30.0)
#: identity_grid: log-spaced 17 x 17 grid.
IDENTITY_NU = (0.55, 20.0)
IDENTITY_X = (0.05, 30.0)
IDENTITY_N = 17
WORKER_TIMEOUT_S = 150
#: Mean time of one speed probe (worker.SpeedProbe) on the reference
#: machine of the seed measurements in README.md.
PROBE_REF_S = 2.2e-5

WORKLOADS = ("catalog_sweep", "point_stream", "identity_grid")


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def geomspace(lo: float, hi: float, n: int) -> list[float]:
    step = math.log(hi / lo) / (n - 1)
    return [lo * math.exp(i * step) for i in range(n)]


def stream_points(seed: int, n_batches: int) -> list[list[float]]:
    """Seeded, non-repeating (nu, x) points: nu uniform in (-0.45, 20], x
    log-uniform in [1e-3, 30], in batches of one point per cell of a
    STREAM_GRID grid over the (nu, x) plane. Across the batches the points
    of each cell are themselves stratified (a Latin hypercube within the
    cell), so both a batch and the whole run cover the plane evenly and
    hold nearly the same mix of routes, the mpmath-escalating strip
    included, whatever the seed."""
    rng = random.Random(seed)
    n_nu, n_x = STREAM_GRID
    nu_lo, nu_hi = NU_RANGE
    log_lo, log_span = math.log(X_RANGE[0]), math.log(X_RANGE[1] / X_RANGE[0])
    batches = [[] for _ in range(n_batches)]
    for i in range(n_nu):
        for j in range(n_x):
            nu_slots = rng.sample(range(n_batches), n_batches)
            x_slots = rng.sample(range(n_batches), n_batches)
            for batch, a, b in zip(batches, nu_slots, x_slots):
                u = (i + (a + rng.random()) / n_batches) / n_nu
                v = (j + (b + rng.random()) / n_batches) / n_x
                batch.append([nu_hi - (nu_hi - nu_lo) * u,
                              min(X_RANGE[1], math.exp(log_lo + log_span * v))])
    points = []
    for batch in batches:
        rng.shuffle(batch)
        points.extend(batch)
    return points


def run_worker(job: dict) -> dict:
    job = dict(job, src=str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(job), capture_output=True,
                              text=True, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Result:
    """Metrics, gate failures and operation counts of one run."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.named: dict[str, tuple[float, str, str]] = {}
        self.detail: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.versions: dict = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def named_metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        """A metric under the name the roadmap and issues use for it."""
        self.named[name] = (value, unit, note)


def sum_of_medians(rows: list[list[float]]) -> float:
    """Time of one pass, from several timed passes over the same items:
    the sum over items of each item's median time. Each median ignores the
    minority of samples that a busy neighbour on a shared machine slowed,
    which the wall time of a whole pass cannot."""
    return sum(statistics.median(column) for column in zip(*rows, strict=True))


def item_times(cold: list[list[float]], warm: list[list[float]]) -> tuple:
    """(cold, warm, p50, p99) for passes that time the same items each
    time (catalog cases, grid points): cold and warm are sums of per-item
    medians, p50 and p99 are taken over the items' warm medians."""
    per_item = [statistics.median(column) for column in zip(*warm, strict=True)]
    return (sum_of_medians(cold), sum(per_item),
            quantile(per_item, 50), quantile(per_item, 99))


def speed(probe_s: list[float]) -> float:
    """Factor that takes a time measured while these speed probes ran
    (worker.SpeedProbe) to the reference machine's speed. The slowest 5%
    of probes are left out: a probe that the operating system descheduled
    stretches far more than the work around it."""
    kept = sorted(probe_s)[:max(1, len(probe_s) * 19 // 20)]
    return PROBE_REF_S * len(kept) / sum(kept)


def timing_metrics(res: Result, workers: list[dict], pass_times) -> None:
    """The end-to-end metrics every workload reports.

    pass_times(scale) gives (cold, warm, p50, p99) in seconds, with every
    pass's times multiplied by scale(pass). The gated metrics use the
    speed factor; the raw seconds are reported beside them.
    """
    setup = [w["setup_s"] * speed(w["setup_probe_s"]) for w in workers]
    cold, warm, p50, p99 = pass_times(lambda p: speed(p["probe_s"]))
    res.metric("setup_s", statistics.median(setup), "s")
    res.metric("cold_s", cold, "s")
    res.metric("warm_s", warm, "s")
    res.metric("p50_us", p50 * 1e6, "us")
    res.metric("p99_us", p99 * 1e6, "us")
    res.named_metric("setup_s", res.metrics["setup_s"][0], "s",
                     f"median of {len(setup)} fresh interpreters")
    cold, warm, p50, p99 = pass_times(lambda p: 1.0)
    res.detail.update({
        "raw.setup_s": statistics.median(w["setup_s"] for w in workers),
        "raw.cold_s": cold, "raw.warm_s": warm,
        "raw.p50_us": p50 * 1e6, "raw.p99_us": p99 * 1e6,
        "speed_factor.median": statistics.median(
            speed(p["probe_s"]) for w in workers for p in w["passes"]),
        "samples.cold_passes": len(workers),
        "samples.warm_passes": sum(len(w["passes"]) - 1 for w in workers),
    })
    res.versions = workers[0]["versions"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def timed_jobs(base: dict, workers: int, seconds: float, trace: bool) -> list[dict]:
    """Jobs for the fresh interpreters of one run. A traced run is one
    untraced cold pass (with the route micro-timings) and one traced."""
    if trace:
        run = dict(base, budget_s=0.0, min_warm=0, max_warm=0)
        return [dict(run, trace=False, micro=True), dict(run, trace=True)]
    return [dict(base, trace=False, budget_s=seconds / workers, min_warm=1,
                 max_warm=1000)] * workers


def check_catalog(res: Result, workers: list[dict]) -> None:
    for w in workers:
        reports = [p["reports"] for p in w["passes"]]
        res.failures += gates.catalog_gate(w["case_ids"], reports, w["fx3_raw"])
        for rep in reports:
            res.attempted += sum(r[1] + r[5] for r in rep)
            res.failed += sum(r[5] for r in rep)
        # self-test: the same gate must reject a pass holding a flipped case
        flipped = [[[FLIP_CASE] + w["flipped"][1:] if r[0] == FLIP_CASE else r
                    for r in reports[0]]]
        if not gates.catalog_gate(w["case_ids"], flipped, w["fx3_raw"]):
            res.failures.append(f"self-test: the catalog gate accepted "
                                f"{FLIP_CASE} flipped")


def catalog_sweep(seconds: float, trace: bool) -> Result:
    res = Result()
    base = {"workload": "catalog_sweep", "flip_case": FLIP_CASE}
    workers = [run_worker(job) for job in timed_jobs(base, CATALOG_WORKERS, seconds, trace)]
    check_catalog(res, workers)
    first = workers[0]["passes"][0]
    res.detail["inequalities.points_tested"] = sum(r[1] for r in first["reports"])
    res.detail["inequalities.points_errored"] = sum(r[5] for r in first["reports"])
    res.detail["inequalities.inconclusive"] = sum(r[4] for r in first["reports"])
    res.detail["FX3_raw.violations"] = workers[0]["fx3_raw"][3]
    if trace:
        layer_metrics(res, workers)
        factor = speed(first["probe_s"])
        for cid, case_s in first["case_s"].items():
            if case_s is not None:
                res.detail[f"inequalities.case_s.{cid}"] = case_s * factor
        memo = workers[0]["memo"]
        if memo:
            total = memo["hits"] + memo["misses"]
            res.detail["routes.memo_hits"] = memo["hits"]
            res.detail["routes.memo_misses"] = memo["misses"]
            res.detail["routes.memo_hit_ratio"] = memo["hits"] / total if total else 0.0
        return res
    ids = workers[0]["case_ids"]
    sweeps = [[[p["case_s"].get(cid) for cid in ids] for p in w["passes"]]
              for w in workers]
    if any(s is None for sweep in sweeps for row in sweep for s in row):
        raise BenchmarkError("run_all reports carry no per-case wall_time")

    def pass_times(scale):
        cold = [[t * scale(w["passes"][0]) for t in sweep[0]]
                for w, sweep in zip(workers, sweeps)]
        warm = [[t * scale(p) for t in row] for w, sweep in zip(workers, sweeps)
                for p, row in zip(w["passes"][1:], sweep[1:])]
        return item_times(cold, warm)

    timing_metrics(res, workers, pass_times)
    n_warm = int(res.detail["samples.warm_passes"])
    res.named_metric("sweep_cold_s", res.metrics["cold_s"][0], "s",
                     f"sum over {len(ids)} cases of the median across "
                     f"{len(workers)} fresh interpreters")
    res.named_metric("sweep_warm_s", res.metrics["warm_s"][0], "s",
                     f"sum over cases of the median across {n_warm} warm sweeps")
    res.named_metric("sweep_failed_frac", res.failed / max(res.attempted, 1), "frac",
                     f"{res.failed} of {res.attempted} points")
    return res


def check_stream(res: Result, jobs: list[dict], workers: list[dict]) -> int:
    """Gate every returned value against mpmath; returns the bar breaches."""
    breaches = 0
    for job, w in zip(jobs, workers, strict=True):
        results = w["results"]
        refs = [r for nu, x in job["points"][:len(results) // 3]
                for r in gates.reference(nu, x)]
        failures, n = gates.point_gate(results, refs)
        res.failures += failures[:5]
        if len(failures) > 5:
            res.failures.append(f"... and {len(failures) - 5} more values off")
        breaches += n
        res.attempted += len(results)
        res.failed += sum(r[0] is None for r in results)
        # self-test: the same gate must reject one corrupted value
        corrupt = next((i for i, r in enumerate(results) if r[0]), None)
        if corrupt is not None:
            bad = [list(r) for r in results]
            bad[corrupt][0] *= 1.0 + 1e-7
            if not gates.point_gate(bad, refs)[0]:
                res.failures.append("self-test: the point gate accepted a "
                                    "corrupted value")
    return breaches


def point_stream(seed: int, seconds: float, trace: bool) -> Result:
    res = Result()
    if trace:
        # one cold pass over as many points as a worker gets in a timed run
        base = {"workload": "point_stream", "batch": BATCH * PASSES_PER_WORKER,
                "points": stream_points(seed, PASSES_PER_WORKER)}
        jobs = timed_jobs(base, 1, seconds, trace)
    else:
        points = stream_points(seed, STREAM_WORKERS * PASSES_PER_WORKER)
        share = BATCH * PASSES_PER_WORKER
        jobs = [{"workload": "point_stream", "batch": BATCH, "trace": False,
                 "points": points[i * share:(i + 1) * share],
                 "budget_s": seconds / STREAM_WORKERS, "min_warm": 1,
                 "max_warm": PASSES_PER_WORKER - 1}
                for i in range(STREAM_WORKERS)]
    workers = [run_worker(job) for job in jobs]
    breaches = check_stream(res, jobs, workers)
    if trace:
        layer_metrics(res, workers)
        return res

    def pass_times(scale):
        cold = [w["passes"][0]["wall_s"] * scale(w["passes"][0]) for w in workers]
        warm = [p for w in workers for p in w["passes"][1:]]
        pooled = [t * scale(p) for p in warm for t in p["latency_s"]]
        return (statistics.median(cold),
                statistics.median(p["wall_s"] * scale(p) for p in warm),
                quantile(pooled, 50), quantile(pooled, 99))

    timing_metrics(res, workers, pass_times)
    warm = [p for w in workers for p in w["passes"][1:]]
    warm_calls = sum(len(p["latency_s"]) for p in warm)
    warm_s = sum(p["wall_s"] * speed(p["probe_s"]) for p in warm)
    note = f"{warm_calls} calls in {len(warm)} warm passes of {BATCH} points x 3 functions"
    returned = res.attempted - res.failed
    res.named_metric("eval_per_s", warm_calls / warm_s, "1/s", note)
    res.named_metric("eval_p50_us", res.metrics["p50_us"][0], "us", note)
    res.named_metric("eval_p99_us", res.metrics["p99_us"][0], "us", note)
    res.named_metric("eval_failed_frac", res.failed / max(res.attempted, 1), "frac",
                     f"{res.failed} of {res.attempted} calls")
    res.named_metric("eval_bar_breach_frac", breaches / max(returned, 1), "frac",
                     f"{breaches} of {returned} values")
    return res


def identity_grid(seconds: float, trace: bool) -> Result:
    res = Result()
    base = {"workload": "identity_grid",
            "nu": geomspace(*IDENTITY_NU, IDENTITY_N),
            "x": geomspace(*IDENTITY_X, IDENTITY_N)}
    workers = [run_worker(job)
               for job in timed_jobs(base, IDENTITY_WORKERS, seconds, trace)]
    for w in workers:
        for p in w["passes"]:
            res.failures += gates.identity_gate(p["stats"])
            res.attempted += p["calls"]
            res.failed += p["failed"]
        res.failures += w["failures"]
    if trace:
        layer_metrics(res, workers)
        return res

    def pass_times(scale):
        cold = [[t * scale(w["passes"][0]) for t in w["passes"][0]["latency_s"]]
                for w in workers]
        warm = [[t * scale(p) for t in p["latency_s"]]
                for w in workers for p in w["passes"][1:]]
        return item_times(cold, warm)

    timing_metrics(res, workers, pass_times)
    res.named_metric("identities_s", res.metrics["cold_s"][0], "s",
                     f"{IDENTITY_N}x{IDENTITY_N} grid: sum over points of the "
                     f"median across {len(workers)} fresh interpreters")
    cold_failed = sum(w["passes"][0]["failed"] for w in workers)
    res.named_metric("identities_failed_frac", float(cold_failed > 0), "frac",
                     f"residual_suite raised at {cold_failed} points of the cold passes")
    return res


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: Inclusive time of these public functions, under the issue's names.
NAMED_SPANS = {
    "identities.ode_s": "identities.ode_residual",
    "identities.recurrence_s": "identities.recurrence_residuals",
    "identities.turanian_s": "identities.turanian_quadratic_identity",
    "identities.decomposition_s": "identities.decomposition_residual",
    "identities.crossterm_s": "identities.crossterm_double_integral_residual",
    "quadrature.double_integral_s": "quadrature.turanian_il_double_integral",
}


def layer_metrics(res: Result, workers: list[dict]) -> None:
    """Per-layer metrics from an untraced worker (micro-timings, baseline
    time) and a traced worker running the same job. Times are scaled by
    the speed probes like the end-to-end metrics; counts are as counted."""
    plain, traced = workers
    tr = traced["trace"]
    f_plain = speed([s for p in plain["passes"] for s in p["probe_s"]])
    f_traced = speed([s for p in traced["passes"] for s in p["probe_s"]])
    f_micro = speed(plain["micro_probe_s"])
    res.versions = plain["versions"]
    for layer in ("routes", "series", "quadrature"):
        res.metric(f"{layer}.calls", tr["layer_calls"].get(layer, 0), "count")
        res.metric(f"{layer}.self_s", tr["layer_self_s"].get(layer, 0.0) * f_traced, "s")
    res.metric("series.escalations", tr["escalations"], "count")
    res.metric("series.escalation_s", tr["escalation_s"] * f_traced, "s")
    for method in ("series", "quadrature", "closedform"):
        res.metric(f"routes.served.{method}", tr["served"].get(method, 0), "count")
    for method in ("series", "quadrature"):
        n = tr["served"].get(method, 0)
        per_call = tr["served_s"].get(method, 0.0) / n if n else 0.0
        res.metric(f"{method}.us_per_call", per_call * f_traced * 1e6, "us")
    for fn in ("struve_m", "struve_m_prime"):
        median_s = tr["route_median_s"].get(f"routes.{fn}", 0.0)
        res.metric(f"routes.{fn}.us", median_s * f_traced * 1e6, "us")
    for name, timing in plain["micro"].items():
        res.metric(name, timing["us"] * f_micro, "us")
    plain_s = sum(p["wall_s"] for p in plain["passes"]) * f_plain
    traced_s = sum(p["wall_s"] for p in traced["passes"]) * f_traced
    res.metric("trace.overhead_s", traced_s - plain_s, "s")

    res.detail["trace.untraced_s"] = plain_s
    res.detail["trace.traced_s"] = traced_s
    for layer in sorted(set(tr["layer_calls"]) | set(tr["layer_self_s"])):
        if f"{layer}.calls" not in res.metrics:
            res.detail[f"{layer}.calls"] = tr["layer_calls"].get(layer, 0)
            res.detail[f"{layer}.self_s"] = tr["layer_self_s"].get(layer, 0.0) * f_traced
    if "routes.calm" in tr["route_median_s"]:
        res.detail["routes.calm.us"] = tr["route_median_s"]["routes.calm"] * f_traced * 1e6
    for name, span in NAMED_SPANS.items():
        if span in tr["fn_s"]:
            res.detail[name] = tr["fn_s"][span] * f_traced
    res.detail["quadrature.double_integral_calls"] = tr["fn_calls"].get(
        "quadrature.turanian_il_double_integral", 0)
    timed = sum(tr["layer_self_s"].get(layer, 0.0) for layer in ("series", "quadrature"))
    res.detail["series_quadrature_share_of_traced"] = timed * f_traced / traced_s


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    if name == "catalog_sweep":
        return catalog_sweep(seconds, trace)
    if name == "point_stream":
        return point_stream(seed, seconds, trace)
    return identity_grid(seconds, trace)


def report(name: str, res: Result) -> None:
    print(f"== {name}")
    for metric, (value, unit) in res.metrics.items():
        print(f"  {metric:34s} {value!r} {unit}")
    for metric, (value, unit, note) in res.named.items():
        print(f"  {metric:34s} {value!r} {unit}  ({note})")
    for metric, value in sorted(res.detail.items()):
        print(f"  {metric:34s} {value!r}")
    for failure in res.failures:
        print(f"  GATE FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "struvekit" / "__init__.py").is_file():
        print(f"no struvekit source under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    print(f"struvekit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, trace)
    except BenchmarkError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    versions = next(iter(results.values())).versions
    print(f"machine: cpu={cpu_model()!r} nproc={os.cpu_count()} "
          f"python={versions['python']} numpy={versions['numpy']} "
          f"mpmath={versions['mpmath']} struvekit={versions['struvekit']}")
    for name, res in results.items():
        report(name, res)
    if len(names) == 1:
        metrics = results[names[0]].metrics
    elif trace:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r.metrics.items()}
    else:
        metrics = {m: v[:2] for r in results.values() for m, v in r.named.items()}
        metrics["setup_s"] = (statistics.median(
            r.metrics["setup_s"][0] for r in results.values()), "s")
    correct = not any(r.failures for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
