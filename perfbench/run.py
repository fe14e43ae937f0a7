"""Closed-loop benchmark of the screened-mc pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload mc-validate --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed set of requests untraced and traced in turn,
and reports the per-layer metrics and the tracing overhead.  Both check every
output.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the run context and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 7
# labels printed for the per-kind latencies
KIND_LABELS = {"bound": "bound_ms", "rates": "rate_ms", "entropy": "entropy_ms"}


def run_context(seed: int, jobs: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jobs": jobs,
        "seed": seed,
    }


def measure_setup(config: dict) -> float:
    """Wall time of a fresh interpreter that imports, parses and builds."""
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = os.path.join(HERE, "setup_probe.py")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, probe, json.dumps(config)], env=env, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def percentile_lines(name: str, values: list[float], scale: float, unit: str) -> list[str]:
    """Median always; p90 only with at least ten samples beyond it."""
    lines = [f"{name}_p50 = {scale * statistics.median(values):.6g} {unit} (n={len(values)})"]
    if len(values) >= 100:
        p90 = statistics.quantiles(values, n=10)[-1]
        lines.append(f"{name}_p90 = {scale * p90:.6g} {unit} (n={len(values)})")
    return lines


def measure(wl, seconds: float) -> tuple[dict, object, list[str]]:
    """The untraced closed loop and its end-to-end metrics."""
    import calibrate
    from workloads import Recorder

    rec = Recorder()
    warm = Recorder()
    wl.warmup(warm)
    gauge = calibrate.HostGauge(
        getattr(calibrate, wl.reference_step), wl.jobs if wl.uses_workers else 1
    )
    # the set-up probes are spread over the run, between requests, and
    # their time is added to the deadline
    setup: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    try:
        while i < wl.min_requests or time.perf_counter() < deadline or len(setup) < SETUP_REPEATS:
            if len(setup) < SETUP_REPEATS and (
                time.perf_counter() - start >= len(setup) * seconds / SETUP_REPEATS
            ):
                setup.append(measure_setup(wl.setup_config()))
                deadline += setup[-1]
                continue
            t0 = time.perf_counter()
            wl.request(rec, i, wl.jobs)
            i += 1
            gauge.after_request(time.perf_counter() - t0)
    finally:
        gauge.close()
    wl.gates(rec)
    rec.merge(warm)

    # Each request is charged the fastest latency of its population: the
    # requests of a population do the same work, and a request can run
    # slower than the program's own cost, never faster.  Busy neighbours
    # slowed identical requests by up to 2x for seconds at a time; the
    # minimum over many short requests finds the quiet moments between
    # them.  Slow phases that last minutes are gauged by the reference
    # step, timed in the same quiet moments, and scaled out.
    typical_busy = sum(len(v) * min(v) for v in rec.latency.values())
    fastest = rec.work / typical_busy if typical_busy else 0.0
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_per_s": fastest * gauge.factor(),
        "peak_rss_mb": peak_rss_mb(),
    }
    lines = [
        f"{wl.throughput_label} = {rec.work / rec.busy if rec.busy else 0.0:.6g} 1/s "
        f"over all requests (work={rec.work}, busy={rec.busy:.3f}s)",
        f"fastest_per_s = {fastest:.6g} 1/s at the fastest latency of each population",
        f"reference_step_ms = {1e3 * min(gauge.times):.4g} ms fastest of {len(gauge.times)} "
        f"{wl.reference_step} (scale {gauge.factor():.4g} to a "
        f"{1e3 * calibrate.REFERENCE_STEP_S:g} ms reference host)",
    ]
    by_kind: dict[str, list[float]] = {}
    for population, values in rec.latency.items():
        by_kind.setdefault(population.split("#")[0], []).extend(values)
    for kind, values in by_kind.items():
        lines += percentile_lines(KIND_LABELS.get(kind, f"{kind}_request_ms"), values, 1e3, "ms")
    lines.append(f"setup_s samples = {[round(t, 4) for t in setup]}")
    return metrics, rec, lines


def measure_traced(wl) -> tuple[dict, object, list[str]]:
    """Fixed requests untraced and traced; per-layer metrics from the trace."""
    import layers
    from screened_mc import exp_harness
    from tracer import Tracer, duration
    from workloads import Recorder

    traced_only_ids, paired_ids = wl.trace_plan()
    trace_jobs = 1  # worker-side counters would be lost in child processes
    rec = Recorder()
    warm = Recorder()
    wl.warmup(warm)
    rec.merge(warm)

    extra = {}
    if wl.uses_workers:
        # one span per _run_batches call, the kernel's scope at jobs=1 too;
        # at jobs > 1 it includes the worker pool's start-up
        batches = Tracer()
        batches.span(exp_harness, "_run_batches", "exp_harness.run_batches")
        par = Recorder(batches)
        cpu0, t0 = children_cpu_s(), time.perf_counter()
        try:
            for i in paired_ids:
                wl.request(par, i, wl.jobs)
        finally:
            batches.uninstall()
        wall = time.perf_counter() - t0
        cpu = children_cpu_s() - cpu0
        kernel_s = sum(map(duration, batches.named("exp_harness.run_batches")))
        extra["kernel_trials_per_s_jobs2"] = par.work / kernel_s if kernel_s else 0.0
        extra["worker_cpu_s"] = cpu
        extra["worker_utilization"] = cpu / (wall * wl.jobs)
        rec.merge(par)

    tracer = Tracer()
    plain = Recorder()
    traced = Recorder(tracer)
    traced_only = Recorder(tracer)

    def run_traced(into, i):
        layers.install(tracer)
        try:
            wl.request(into, i, trace_jobs)
        finally:
            tracer.uninstall()

    for i in traced_only_ids:
        run_traced(traced_only, i)
    # untraced and traced twins alternate, so a drift in host speed
    # reaches both sides of the overhead comparison alike
    for i in paired_ids:
        wl.request(plain, i, trace_jobs)
        run_traced(traced, i)
    for r in (plain, traced, traced_only):
        rec.merge(r)
    wl.gates(rec)

    if plain.work and traced.work and plain.busy:
        ratio = (traced.busy / traced.work) / (plain.busy / plain.work)
        extra["tracing_overhead_pct"] = 100.0 * (ratio - 1.0)
    else:  # every request failed; the failures are reported
        extra["tracing_overhead_pct"] = 0.0
    metrics = layers.layer_metrics(tracer, extra)

    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace_{wl.name}_{wl.seed}.jsonl")
    tracer.dump(trace_path)
    lines = [f"trace written to {os.path.relpath(trace_path, ROOT)} ({len(tracer.spans)} spans)"]
    return metrics, rec, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny request sizes (smoke test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "screened_mc", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    jobs = min(2, len(os.sched_getaffinity(0)))
    scratch = os.path.join(OUT, f"scratch_{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, jobs, scratch, small=args.small)
        if args.trace:
            import layers

            metrics, rec, lines = measure_traced(wl)
            units = layers.PER_LAYER
        else:
            metrics, rec, lines = measure(wl, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("context " + json.dumps(run_context(args.seed, jobs), sort_keys=True))
    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"failed_fraction = {len(rec.failures)}/{rec.attempted}")
    for failure in rec.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
