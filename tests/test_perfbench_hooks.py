"""The benchmark's tracer patches package attributes by name.

Installing and removing its hooks here makes a rename that would break
``perfbench/run.py --trace`` fail the ordinary test run at once.
"""

import pathlib

import screened_mc as sm
from screened_mc import dist_models, rate_functions

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
