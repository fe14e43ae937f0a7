"""The benchmark's tracer patches package attributes by name.

Installing and removing its hooks here makes a rename that would break
``perfbench/run.py --trace`` fail the ordinary test run at once.
"""

import pathlib

import screened_mc as sm
from screened_mc import dist_models, exp_harness, rate_functions

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
