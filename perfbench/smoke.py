"""Smoke test of the benchmark itself, at tiny request sizes.

    python3 -m pytest -q perfbench/smoke.py

The file name keeps it out of the package's default test collection.
It checks that every workload prints every named metric, in both modes,
and that every correctness gate is wired in: each gate is made to fail
by sabotaging the package output it checks, and the failure must be
counted.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from screened_mc import cli, exp_harness, sanov_oracle  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported(workload, trace):
    import layers

    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = layers.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_no_result_without_package_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("step", ["batch_step", "mixed_step"])
def test_host_gauge_times_reference_steps(step, jobs):
    import calibrate

    gauge = calibrate.HostGauge(getattr(calibrate, step), jobs)
    try:
        gauge.after_request(0.0)
        assert len(gauge.times) == 1
        gauge.after_request(1.0)  # about 5% of a second: several steps
        assert len(gauge.times) > 2
        assert gauge.factor() == min(gauge.times) / calibrate.REFERENCE_STEP_S > 0
    finally:
        gauge.close()


def _drive(name: str, tmp_path, requests: range, jobs: int = 2) -> workloads.Recorder:
    wl = workloads.WORKLOADS[name](5, jobs, str(tmp_path), small=True)
    rec = workloads.Recorder()
    for i in requests:
        wl.request(rec, i, wl.jobs)
    wl.gates(rec)
    return rec


def _failed(rec: workloads.Recorder, label: str, text: str = "") -> bool:
    return any(f.startswith(label) and text in f for f in rec.failures)


def test_clean_runs_pass(tmp_path):
    for name, requests in (("mc-validate", range(1)), ("mc-slope", range(1)),
                           ("exponents", range(-4, 8)), ("simulate", range(1))):
        assert _drive(name, tmp_path, requests).failures == []


def test_gate_jobs1_equals_jobs2(tmp_path, monkeypatch):
    real = exp_harness._run_batches

    def skewed(worker, args, jobs):
        results = real(worker, args, jobs)
        return [(r[0] + (jobs > 1),) + tuple(r[1:]) for r in results]

    monkeypatch.setattr(exp_harness, "_run_batches", skewed)
    assert _failed(_drive("mc-validate", tmp_path, range(0)), "jobs1_equals_jobs2")


def test_gate_reference_counts(tmp_path, monkeypatch):
    real = exp_harness.transform_uniforms
    monkeypatch.setattr(exp_harness, "transform_uniforms", lambda m, p: real(m, p) * 1.5)
    assert _failed(_drive("mc-validate", tmp_path, range(0)), "reference_counts")


def test_gate_validation_soundness(tmp_path, monkeypatch):
    monkeypatch.setattr(exp_harness.ValidationReport, "all_sound", property(lambda self: False))
    assert _failed(_drive("mc-validate", tmp_path, range(1)), "validate", "certified bound failed")


def test_gate_slope_counts_fall(tmp_path, monkeypatch):
    # jobs=1 runs the patched batch in-process; a pool could not pickle it
    monkeypatch.setattr(exp_harness, "_slope_batch", lambda args: 7)
    rec = _drive("mc-slope", tmp_path, range(2), jobs=1)
    assert _failed(rec, "slope_counts", "counts do not fall")


def test_gate_certified_exponent_below_rate(tmp_path, monkeypatch):
    real = cli.bound_thm31_ii

    def inflated(*args):
        rep = real(*args)
        return dataclasses.replace(rep, exponent=rep.exponent * 10.0 + 1.0)

    monkeypatch.setattr(cli, "bound_thm31_ii", inflated)
    assert _failed(_drive("exponents", tmp_path, range(0, 2)), "rates", "exceeds lambda_plus")


def test_gate_sanov_agreement(tmp_path, monkeypatch):
    real = sanov_oracle.sanov_rate
    monkeypatch.setattr(
        sanov_oracle, "sanov_rate", lambda *a: dataclasses.replace(real(*a), gap=1.0)
    )
    assert _failed(_drive("exponents", tmp_path, range(2, 3)), "entropy", "gap")


def test_gate_prop11_bands(tmp_path, monkeypatch):
    real = cli.prop11_report
    monkeypatch.setattr(
        cli, "prop11_report",
        lambda *a: dataclasses.replace(real(*a), constant_iii_optimized=0.004),
    )
    # request 3 is round 0's heavy-tail grid bound at (0.5, 0.025), where u = eps/20
    assert _failed(_drive("exponents", tmp_path, range(3, 4)), "bound", "prop11 constant_iii_optimized")


def test_gate_simulate_final_step(tmp_path, monkeypatch):
    real = cli.run_trajectory

    def shifted(*args):
        records = real(*args)
        last = records[-1]
        return records[:-1] + [dataclasses.replace(last, s_hat=last.s_hat + 1e-3)]

    monkeypatch.setattr(cli, "run_trajectory", shifted)
    assert _failed(_drive("simulate", tmp_path, range(1)), "simulate", "final step")
