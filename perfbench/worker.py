"""One benchmark process: times ``import struvekit``, runs the passes of one
workload and writes a JSON result to stdout.

run.py starts this script in a fresh interpreter for every sample of cold
behaviour, so "cold" never depends on clearing a cache. The job arrives as
JSON on stdin; the program under test receives only the inputs in it.
"""

from __future__ import annotations

import json
import math
import signal
import statistics
import sys
import time
from pathlib import Path

#: Seconds between speed probes, and the probe's loop length (about 60 us,
#: so probing costs under 1% of a timed region).
PROBE_INTERVAL_S = 0.01
PROBE_ITERATIONS = 40


def _size(grid) -> int:
    return (len(grid.nu_values) * len(grid.x_values)
            * (len(grid.y_values) if grid.y_values else 1))


def _summary(report, grid_size: int) -> list:
    """[case_id, tested, skipped, violations, inconclusive, errored, grid size]."""
    return [report.case_id, report.points_tested, report.points_skipped,
            len(report.violations), len(report.inconclusive),
            len(getattr(report, "errors", ())), grid_size]


def _memo_info(sk) -> dict | None:
    """Summed cache_info() of the memo caches in ``routes``, if any remain."""
    infos = [obj.cache_info() for name, obj in vars(sk.routes).items()
             if name.startswith("cached_") and hasattr(obj, "cache_info")]
    if not infos:
        return None
    return {"hits": sum(i.hits for i in infos),
            "misses": sum(i.misses for i in infos)}


class _ProbeItem:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b

    def at(self, z: float) -> float:
        return self.a * z + self.b


def _speed_probe() -> float:
    """Seconds taken by a short fixed mix of what the interpreter spends
    this program's time on (small objects, method calls, dict lookups,
    float math), using no struvekit code. The loop runs twice and only the
    second run is timed, so the probe sees the core's speed rather than the
    cost of reloading its own code and data after the interruption."""
    for _ in range(2):
        start = time.perf_counter()
        table = {}
        acc = 0.0
        for k in range(PROBE_ITERATIONS):
            key = (k, 0.5 * k)
            table[key] = _ProbeItem(k, math.sqrt(k + 1.0))
            acc += table[key].at(0.25)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the machine's speed while a timed region runs.

    A real-time interval timer interrupts the region every PROBE_INTERVAL_S
    and times _speed_probe(), so the samples are spread evenly over wall
    time. run.py divides each timed region by the mean probe time measured
    inside it; a busy neighbour on a shared machine then slows the probe
    and the program alike and does not read as a slower program. spent_s
    is the time the interruptions took, which timers inside the region
    subtract from what they measure.
    """

    def __enter__(self) -> "SpeedProbe":
        self.samples = [_speed_probe()]
        self.spent_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(_speed_probe())

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(_speed_probe())
        self.spent_s += time.perf_counter() - start


def run_passes(job: dict, one_pass, more=lambda: True) -> list[dict]:
    """The cold pass, then warm passes until the job's time budget and pass
    limits are used up (and while more() holds). one_pass(number, probe)
    times its own work, less probe.spent_s, and returns a record with
    wall_s; each record also gets the speed probes taken while it ran."""
    passes = []
    measured = 0.0
    while more() and (not passes or len(passes) - 1 < job["min_warm"] or (
            measured < job["budget_s"] and len(passes) - 1 < job["max_warm"])):
        with SpeedProbe() as probe:
            record = one_pass(len(passes), probe)
        record["probe_s"] = probe.samples
        measured += record["wall_s"]
        passes.append(record)
    return passes


def catalog_sweep(sk, job: dict) -> dict:
    sizes = {cid: _size(sk.default_grid(cid)) for cid in sk.CATALOG}

    def one_pass(number, probe):
        start = time.perf_counter()
        reports = sk.run_all()
        wall = time.perf_counter() - start - probe.spent_s
        return {"wall_s": wall,
                "case_s": {r.case_id: getattr(r, "wall_time", None) for r in reports},
                "reports": [_summary(r, sizes.get(r.case_id, -1)) for r in reports]}

    out = {"passes": run_passes(job, one_pass), "memo": _memo_info(sk),
           "case_ids": list(sk.CATALOG)}
    # untimed checks, after every timed pass so they warm nothing
    raw_grid = sk.default_grid("FX3_raw")
    out["fx3_raw"] = _summary(sk.run_case(sk.lookup("FX3_raw"), raw_grid),
                              _size(raw_grid))
    flip_id = job["flip_case"]
    flip_grid = sk.default_grid(flip_id)
    out["flipped"] = _summary(sk.run_case(sk.lookup(flip_id).flipped(), flip_grid),
                              _size(flip_grid))
    return out


def point_stream(sk, job: dict) -> dict:
    """Each point evaluated as M, calM and M' by the automatic route, one
    call at a time; a pass is the next job["batch"] points, so no point
    repeats."""
    evaluators = (sk.struve_m, sk.calm, sk.struve_m_prime)
    points = job["points"]
    batch = job["batch"]
    errors = (sk.StruveKitError, ArithmeticError, ValueError)
    results = []
    clock = time.perf_counter

    def one_pass(number, probe):
        latency = []
        start = clock()
        for nu, x in points[number * batch:(number + 1) * batch]:
            p = sk.EvalPoint(nu, x)
            for fn in evaluators:
                spent = probe.spent_s
                t0 = clock()
                try:
                    fv = fn(p)
                except errors as exc:
                    t1 = clock()
                    results.append([None, None, f"{type(exc).__name__}: {exc}"])
                else:
                    t1 = clock()
                    results.append([fv.value, fv.abs_err, fv.method.value])
                latency.append(t1 - t0 - (probe.spent_s - spent))
        return {"wall_s": clock() - start - probe.spent_s, "latency_s": latency}

    passes = run_passes(job, one_pass, lambda: len(results) < 3 * len(points))
    return {"passes": passes, "results": results}


def _residual_stats(residuals) -> dict:
    """Per identity: [count, largest relative residual, smallest relative]."""
    stats: dict[str, list] = {}
    for r in residuals:
        rel = r.relative
        entry = stats.setdefault(r.id, [0, rel, rel])
        entry[0] += 1
        entry[1] = max(entry[1], rel)
        entry[2] = min(entry[2], rel)
    return stats


def identity_grid(sk, job: dict) -> dict:
    """Passes over the grid, one residual_suite call per point, so that
    each point's latency is a sample."""
    nus, xs = job["nu"], job["x"]
    errors = (sk.StruveKitError, ArithmeticError, ValueError)
    failures = []

    def one_pass(number, probe):
        latency = []
        found = []
        failed = 0
        start = time.perf_counter()
        for nu in nus:
            for x in xs:
                spent = probe.spent_s
                t0 = time.perf_counter()
                try:
                    found.extend(sk.residual_suite((nu,), (x,), include_cross_term=True))
                except errors as exc:
                    failed += 1
                    failures.append(f"{type(exc).__name__}: {exc}")
                latency.append(time.perf_counter() - t0 - (probe.spent_s - spent))
        wall = time.perf_counter() - start - probe.spent_s
        return {"wall_s": wall, "calls": len(latency), "failed": failed,
                "latency_s": latency, "stats": _residual_stats(found)}

    return {"passes": run_passes(job, one_pass), "failures": failures[:5]}


def micro_timings(sk) -> dict:
    """Median microseconds per call of each route at fixed points (the
    per-route table of the roadmap baseline). A route whose public name no
    longer exists is left out."""
    point, method = sk.EvalPoint, sk.Method
    calls = {
        "series.us.x1": lambda: sk.struve_m(point(1.0, 1.0), method.SERIES),
        "series.us.escalating": lambda: sk.struve_m(point(0.1, 7.9), method.SERIES),
        "quadrature.us.m_x6": lambda: sk.struve_m(point(0.1, 6.0), method.QUADRATURE),
        "foxwright.us.calm": lambda: sk.calm(point(1.0, 1.0), method.FOX_WRIGHT),
        "quadrature.us.calm_dx6": lambda: sk.calm_dx(point(1.0, 1.0), 6),
        "quadrature.us.m_deriv": lambda: sk.m_deriv(point(1.0, 1.0)),
        "quadrature.us.double_integral":
            lambda: sk.turanian_il_double_integral(point(1.0, 1.0)),
    }
    out = {}
    for name, call in calls.items():
        try:
            call()
        except AttributeError:
            continue
        samples = []
        spent = 0.0
        while len(samples) < 30 or (spent < 0.15 and len(samples) < 5000):
            t0 = time.perf_counter()
            call()
            dt = time.perf_counter() - t0
            samples.append(dt)
            spent += dt
        out[name] = {"us": statistics.median(samples) * 1e6, "n": len(samples)}
    return out


WORKLOADS = {"catalog_sweep": catalog_sweep, "point_stream": point_stream,
             "identity_grid": identity_grid}


def main() -> int:
    job = json.load(sys.stdin)
    with SpeedProbe() as setup_probe:
        start = time.perf_counter()
        import struvekit as sk
        setup_s = time.perf_counter() - start - setup_probe.spent_s
    src = Path(job["src"]).resolve()
    if src not in Path(sk.__file__).resolve().parents:
        print(f"imported struvekit from {sk.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(sk)
    out = WORKLOADS[job["workload"]](sk, job)
    out["setup_s"] = setup_s
    out["setup_probe_s"] = setup_probe.samples
    if tracer is not None:
        out["trace"] = tracer.report()
    if job.get("micro"):
        with SpeedProbe() as probe:
            out["micro"] = micro_timings(sk)
        out["micro_probe_s"] = probe.samples
    import mpmath
    import numpy
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "mpmath": mpmath.__version__, "struvekit": sk.__version__}
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
