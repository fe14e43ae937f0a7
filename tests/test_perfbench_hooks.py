"""The benchmark's tracer patches package attributes by name.

Installing and removing its hooks here makes a rename that would break
``perfbench/run.py --trace`` fail the ordinary test run at once.
"""

import json
import pathlib

import screened_mc as sm
from screened_mc import cli, dist_models, exp_harness, rate_functions

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    originals = (rate_functions.log_mgf_signed, dist_models.log_mgf_signed)
    tracer = Tracer()
    try:
        layers.install(tracer)
        model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
        pair = sm.tabulated_pair(model, [-1.0, 1.0], [-1.0, 1.0])
        sm.rate_plus_star(model, pair, 0.2, 0.3)
    finally:
        tracer.uninstall()
    assert (rate_functions.log_mgf_signed, dist_models.log_mgf_signed) == originals
    (span,) = tracer.named("rate_functions.rate_plus_star_detail")
    assert span["counts"]["dist_models.logmgf.calls"] > 0


def test_benchmark_wraps_the_batch_runner_at_two_jobs(monkeypatch):
    # the traced jobs=2 pass of ``perfbench/run.py`` times _run_batches by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    original = exp_harness._run_batches
    cfg = exp_harness.parse_config({
        "model": {"kind": "pareto_like"},
        "observables": {"preset": "heavy_tail"},
        "screen": {"epsilon": 0.5, "u": 0.025, "n": 50},
        "trials": 2 * exp_harness.BATCH_SIZE,
        "seed": 4242,
    })
    batches = Tracer()
    batches.span(exp_harness, "_run_batches", "exp_harness.run_batches")
    try:
        report = sm.run_validation(cfg, jobs=2)
    finally:
        batches.uninstall()
    assert exp_harness._run_batches is original
    assert len(batches.named("exp_harness.run_batches")) == 1
    assert report.to_document() == sm.run_validation(cfg, jobs=1).to_document()


def traced(monkeypatch, run):
    """The tracer of ``perfbench/run.py --trace`` after ``run()`` under its hooks."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer


def kernel_trials(tracer) -> int:
    return sum(s["attrs"]["trials"] for s in tracer.named("exp_harness.kernel"))


def test_traced_spans_count_every_trial_and_step(monkeypatch, tmp_path):
    # the per-layer numbers read lo and hi from the kernel tasks by position,
    # and the horizon from run_trajectory's screen config
    heavy = ({"kind": "pareto_like"}, {"preset": "heavy_tail"})
    doc = {
        "model": heavy[0],
        "observables": heavy[1],
        "screen": {"epsilon": 0.5, "u": 0.025, "n": 20},
        "trials": 2 * exp_harness.BATCH_SIZE + 100,  # two full batches and a remainder
        "seed": 7,
    }
    cfg = exp_harness.parse_config(doc)
    tracer = traced(monkeypatch, lambda: exp_harness.run_validation(cfg, jobs=1))
    assert len(tracer.named("exp_harness.kernel")) == 3
    assert kernel_trials(tracer) == cfg.trials

    trials = exp_harness.BATCH_SIZE + 100
    slope = lambda: exp_harness.run_heavy_tail_slope(*heavy, 0.5, [10, 20, 40], trials, 3, jobs=1)
    assert kernel_trials(traced(monkeypatch, slope)) == 3 * trials

    path = tmp_path / "simulate.json"
    outputs = [{"kind": "trajectory_csv", "path": "t.csv"}]
    path.write_text(json.dumps({**doc, "screen": {**doc["screen"], "n": 50}, "trials": 3,
                                "outputs": outputs}))
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path), "--jobs", "1"]
    tracer = traced(monkeypatch, lambda: cli.main(argv))
    steps = [s["attrs"]["steps"] for s in tracer.named("screen_core.run_trajectory")]
    assert steps == [50, 50, 50]
