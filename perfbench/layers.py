"""Where the tracer hooks into each layer, and the per-layer metrics.

``install`` puts wrappers on the call-site attributes the package uses.
``layer_metrics`` reduces the recorded spans and counters to the named
per-layer numbers; a layer the workload does not drive reports 0.
"""

from __future__ import annotations

import math
import os
import statistics

from screened_mc import (
    bound_engine,
    cli,
    dist_models,
    exp_harness,
    rate_functions,
    sanov_oracle,
    screen_core,
    streams,
)

from tracer import Tracer, duration

# name -> unit, in the order they are reported
PER_LAYER = {
    "streams.fill_calls": "count",
    "streams.fill_us_per_trial": "us",
    "dist_models.transform_ns_per_sample": "ns",
    "dist_models.observable_ns_per_sample": "ns",
    "dist_models.logmgf_calls": "count",
    "dist_models.logmgf_us_per_call": "us",
    "dist_models.logmgf_busy_s": "s",
    "screen_core.trajectory_us_per_step": "us",
    "screen_core.busy_s": "s",
    "exp_harness.kernel_trials_per_s_jobs1": "1/s",
    "exp_harness.kernel_trials_per_s_jobs2": "1/s",
    "exp_harness.batches": "count",
    "exp_harness.worker_cpu_s": "s",
    "exp_harness.worker_utilization": "ratio",
    "exp_harness.compute_bounds_ms": "ms",
    "exp_harness.emit_ms": "ms",
    "exp_harness.bytes_written": "bytes",
    "bound_engine.report_ms": "ms",
    "bound_engine.zero_event_ms": "ms",
    "bound_engine.prop11_ms": "ms",
    "bound_engine.margin_calls": "count",
    "bound_engine.zero_event_ratio": "ratio",
    "rate_functions.rate_ms": "ms",
    "rate_functions.rate_heavy_ms": "ms",
    "rate_functions.logmgf_per_rate": "count",
    "rate_functions.logmgf_per_rate_heavy": "count",
    "rate_functions.inf_ratio": "ratio",
    "sanov_oracle.instance_ms": "ms",
    "sanov_oracle.fenchel_ms": "ms",
    "sanov_oracle.lp_ms": "ms",
    "sanov_oracle.slsqp_ms": "ms",
    "sanov_oracle.slsqp_nit": "count",
    "sanov_oracle.primal_won_ratio": "ratio",
    "cli.command_overhead_ms": "ms",
    "bench.tracing_overhead_pct": "%",
}

_OBSERVABLE_FORMS = (
    dist_models.Power,
    dist_models.Identity,
    dist_models.Standardized,
    dist_models.AbsCentered,
    dist_models.SignOf,
    dist_models.Table,
)

# library calls the CLI makes; cli.command_overhead_ms is what is left
_CLI_LIBRARY_CALLS = {
    "parse_config": "exp_harness.parse_config",
    "build_model": "exp_harness.build_model",
    "build_pair": "exp_harness.build_pair",
    "normalize_observables": "bound_engine.normalize_observables",
    "zero_event_check": "bound_engine.zero_event_check",
    "bound_thm31_ii": "bound_engine.bound_thm31_ii",
    "bound_thm31_iii": "bound_engine.bound_thm31_iii",
    "prop11_report": "bound_engine.prop11_report",
    "rate_lambda_star": "rate_functions.rate_lambda_star",
    "rate_plus_star_detail": "rate_functions.rate_plus_star_detail",
    "delta_exponent": "rate_functions.delta_exponent",
    "run_trajectory": "screen_core.run_trajectory",
    "emit_trajectory_csv": "exp_harness.emit",
    "emit_report": "exp_harness.emit",
}


def _bytes_of_output(args, kwargs, out):
    path = args[1]
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def _rate_attrs(args, kwargs, out):
    return {"finite": bool(args[0].is_finite), "inf": math.isinf(out[0])}


_DESCRIBE = {
    "bound_engine.bound_thm31_ii": lambda a, k, out: {"zero_event": bool(out.zero_event)},
    "rate_functions.rate_plus_star_detail": _rate_attrs,
    "screen_core.run_trajectory": lambda a, k, out: {"steps": int(a[2].n)},
    "exp_harness.emit": _bytes_of_output,
}


def install(tracer: Tracer) -> None:
    span, count = tracer.span, tracer.count

    # request roots the benchmark calls through module attributes
    span(cli, "main", "cli.main")
    span(exp_harness, "run_validation", "exp_harness.run_validation")
    span(exp_harness, "run_heavy_tail_slope", "exp_harness.run_heavy_tail_slope")
    span(sanov_oracle, "sanov_rate", "sanov_oracle.sanov_rate",
         lambda a, k, out: {"primal_won": out.primal_entropy < out.dual_entropy})

    # calls the CLI makes into the library
    for attr, name in _CLI_LIBRARY_CALLS.items():
        span(cli, attr, name, _DESCRIBE.get(name), kernel=(attr == "run_trajectory"))

    # harness internals
    span(exp_harness, "compute_bounds", "exp_harness.compute_bounds")
    span(exp_harness, "_batch_counts", "exp_harness.kernel",
         lambda a, k, out: {"trials": a[0][8] - a[0][7]}, kernel=True)
    span(exp_harness, "_slope_batch", "exp_harness.kernel",
         lambda a, k, out: {"trials": a[0][6] - a[0][5]}, kernel=True)
    for attr in ("normalize_observables", "bound_thm31_ii", "bound_thm31_iii"):
        name = "bound_engine." + attr
        span(exp_harness, attr, name, _DESCRIBE.get(name))
    span(screen_core, "sample", "dist_models.sample")

    # bound engine: the certificate inside bound_thm31_ii, and the margin oracle
    span(bound_engine, "zero_event_check", "bound_engine.zero_event_check")
    count(bound_engine, "margin", "bound_engine.margin")

    # rate engine: every route into the screened rate
    for module in (rate_functions, sanov_oracle):
        span(module, "rate_plus_star_detail", "rate_functions.rate_plus_star_detail", _rate_attrs)
    span(rate_functions, "rate_lambda_star", "rate_functions.rate_lambda_star")

    # entropy oracle solvers
    span(sanov_oracle, "linprog", "sanov_oracle.linprog")
    span(sanov_oracle, "minimize", "sanov_oracle.minimize",
         lambda a, k, out: {"nit": int(getattr(out, "nit", 0))})

    # per-trial and per-quadrature calls: counters only
    count(streams.SubstreamSampler, "uniforms", "streams.fill")
    count(streams.RandomStream, "uniform", "streams.fill")
    for module in (exp_harness, dist_models):
        count(module, "transform_uniforms", "dist_models.transform",
              items=lambda a, out: out.size)
    for form in _OBSERVABLE_FORMS:
        count(form, "__call__", "dist_models.observable", kernel_only=True)
    for module in (rate_functions, dist_models):
        count(module, "log_mgf_signed", "dist_models.logmgf")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_time(tr: Tracer, span: dict) -> float:
    return duration(span) - sum(duration(c) for c in tr.children(span))


def _child_time(tr: Tracer, span: dict, name: str) -> float:
    return sum(duration(c) for c in tr.children(span) if c["name"] == name)


def layer_metrics(tr: Tracer, untraced: dict) -> dict:
    """Per-layer numbers from one traced segment.

    ``untraced`` carries what the untraced segments of the same run
    measured: the parallel kernel rate, worker CPU and utilization, and
    the tracing overhead.
    """
    c = tr.counters
    m: dict[str, float] = {}

    m["streams.fill_calls"] = c["streams.fill.calls"]
    m["streams.fill_us_per_trial"] = 1e6 * _ratio(c["streams.fill.s"], c["streams.fill.calls"])

    samples = c["dist_models.transform.items"]
    m["dist_models.transform_ns_per_sample"] = 1e9 * _ratio(c["dist_models.transform.s"], samples)
    m["dist_models.observable_ns_per_sample"] = 1e9 * _ratio(c["dist_models.observable.s"], samples)
    m["dist_models.logmgf_calls"] = c["dist_models.logmgf.calls"]
    m["dist_models.logmgf_us_per_call"] = 1e6 * _ratio(
        c["dist_models.logmgf.s"], c["dist_models.logmgf.calls"]
    )
    m["dist_models.logmgf_busy_s"] = c["dist_models.logmgf.s"]

    traj = tr.named("screen_core.run_trajectory")
    steps = sum(s["attrs"]["steps"] for s in traj)
    m["screen_core.trajectory_us_per_step"] = 1e6 * _ratio(sum(map(duration, traj)), steps)
    m["screen_core.busy_s"] = sum(_self_time(tr, s) for s in traj)

    kernel = tr.named("exp_harness.kernel")
    m["exp_harness.kernel_trials_per_s_jobs1"] = _ratio(
        sum(s["attrs"]["trials"] for s in kernel), sum(map(duration, kernel))
    )
    m["exp_harness.kernel_trials_per_s_jobs2"] = untraced.get("kernel_trials_per_s_jobs2", 0.0)
    m["exp_harness.batches"] = len(kernel)
    m["exp_harness.worker_cpu_s"] = untraced.get("worker_cpu_s", 0.0)
    m["exp_harness.worker_utilization"] = untraced.get("worker_utilization", 0.0)
    m["exp_harness.compute_bounds_ms"] = 1e3 * _median(
        map(duration, tr.named("exp_harness.compute_bounds"))
    )
    emits = tr.named("exp_harness.emit")
    m["exp_harness.emit_ms"] = 1e3 * _median(map(duration, emits))
    m["exp_harness.bytes_written"] = sum(s["attrs"]["bytes"] for s in emits)

    reports = tr.named("bound_engine.bound_thm31_ii")
    m["bound_engine.report_ms"] = 1e3 * _median(map(duration, reports))
    m["bound_engine.zero_event_ms"] = 1e3 * _median(
        map(duration, tr.named("bound_engine.zero_event_check"))
    )
    m["bound_engine.prop11_ms"] = 1e3 * _median(
        map(duration, tr.named("bound_engine.prop11_report"))
    )
    m["bound_engine.margin_calls"] = _median(
        s["counts"].get("bound_engine.margin.calls", 0.0) for s in reports
    )
    m["bound_engine.zero_event_ratio"] = _ratio(
        sum(s["attrs"]["zero_event"] for s in reports), len(reports)
    )

    rates = tr.named("rate_functions.rate_plus_star_detail")
    for suffix, finite in (("", True), ("_heavy", False)):
        chosen = [s for s in rates if s["attrs"]["finite"] == finite]
        m[f"rate_functions.rate{suffix}_ms"] = 1e3 * _median(map(duration, chosen))
        m[f"rate_functions.logmgf_per_rate{suffix}"] = _median(
            s["counts"].get("dist_models.logmgf.calls", 0.0) for s in chosen
        )
    m["rate_functions.inf_ratio"] = _ratio(sum(s["attrs"]["inf"] for s in rates), len(rates))

    inst = tr.named("sanov_oracle.sanov_rate")
    m["sanov_oracle.instance_ms"] = 1e3 * _median(map(duration, inst))
    for key, child in (
        ("fenchel_ms", "rate_functions.rate_plus_star_detail"),
        ("lp_ms", "sanov_oracle.linprog"),
        ("slsqp_ms", "sanov_oracle.minimize"),
    ):
        m[f"sanov_oracle.{key}"] = 1e3 * _median(_child_time(tr, s, child) for s in inst)
    m["sanov_oracle.slsqp_nit"] = _median(
        s["attrs"]["nit"] for s in tr.named("sanov_oracle.minimize")
    )
    m["sanov_oracle.primal_won_ratio"] = _ratio(
        sum(s["attrs"]["primal_won"] for s in inst), len(inst)
    )

    m["cli.command_overhead_ms"] = 1e3 * _median(
        _self_time(tr, s) for s in tr.named("cli.main")
    )
    m["bench.tracing_overhead_pct"] = untraced["tracing_overhead_pct"]
    return {name: float(m[name]) for name in PER_LAYER}
