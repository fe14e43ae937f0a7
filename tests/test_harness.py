import json
import math
import os

import numpy as np
import pytest

import screened_mc as sm
from screened_mc.exp_harness import (
    BATCH_SIZE,
    build_model,
    build_pair,
    canonicalize,
    default_jobs,
    parse_config,
)


def heavy_tail_config(**overrides):
    doc = {
        "model": {"kind": "pareto_like"},
        "observables": {"preset": "heavy_tail"},
        "screen": {"epsilon": 0.5, "u": 0.025, "n": 50, "sidedness": "two_sided"},
        "trials": 20_000,
        "seed": 4242,
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_parse_config_round_trip():
    cfg = parse_config(heavy_tail_config(outputs=[{"kind": "report", "path": "r.json"}]))
    assert cfg.screen.epsilon == 0.5
    assert cfg.screen.sidedness == "two_sided"
    assert cfg.trials == 20_000
    assert cfg.outputs[0].kind == "report"


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(sm.ConfigError, match="extra"):
        parse_config(heavy_tail_config(extra=1))
    bad = heavy_tail_config()
    bad["screen"] = {"epsilon": 0.5, "u": 0.025, "n": 50, "tolerance": 1}
    with pytest.raises(sm.ConfigError, match="tolerance"):
        parse_config(bad)
    bad = heavy_tail_config()
    bad["model"] = {"kind": "pareto_like", "shape": 2}
    with pytest.raises(sm.ConfigError, match="shape"):
        parse_config(bad)
    bad = heavy_tail_config()
    bad["observables"] = {"preset": "heavy_tail", "beta": 0.5}
    with pytest.raises(sm.ConfigError, match="beta"):
        parse_config(bad)


def test_parse_config_rejects_duplicate_paths_and_bad_kinds():
    with pytest.raises(sm.ConfigError, match="distinct"):
        parse_config(
            heavy_tail_config(
                outputs=[
                    {"kind": "report", "path": "same.json"},
                    {"kind": "rates_table", "path": "same.json"},
                ]
            )
        )
    with pytest.raises(sm.ConfigError, match="kind"):
        parse_config(heavy_tail_config(outputs=[{"kind": "plot", "path": "x.png"}]))
    with pytest.raises(sm.ConfigError):
        parse_config(heavy_tail_config(trials=0))


def test_build_pair_from_forms():
    model = build_model({"kind": "finite_support", "atoms": [1.0, 2.0], "probs": [0.5, 0.5]})
    pair = build_pair(
        model,
        {"f": {"form": "table", "values": [-1.0, 1.0]}, "u": {"form": "identity"}},
    )
    assert pair.mu == 0.0
    assert pair.nu == 1.5
    sign_model = build_model(
        {"kind": "sign_product", "magnitude_atoms": [1.0, 2.0], "magnitude_probs": [0.5, 0.5]}
    )
    sign_pair = build_pair(sign_model, {"f": {"form": "abs_centered"}, "u": {"form": "sign"}})
    assert sign_pair.gamma == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# validation runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_validation():
    cfg = parse_config(heavy_tail_config())
    return cfg, sm.run_validation(cfg, jobs=1)


def test_validation_counts_and_inclusion(small_validation):
    _, rep = small_validation
    assert rep.screened_error_count <= rep.unscreened_error_count
    assert 0 <= rep.screened_count <= rep.trials
    assert rep.event_inclusion


def test_validation_bounds_pass(small_validation):
    _, rep = small_validation
    assert rep.all_sound
    methods = {e.report.method for e in rep.bounds}
    assert "chernoff_rate" in methods


def test_validation_document_is_canonical(small_validation):
    _, rep = small_validation
    doc = canonicalize(rep.to_document())
    text = json.dumps(doc, sort_keys=True)
    assert "screened_error_rate" in text
    assert doc["runtime"]["stream_contract"] == 2  # counter-addressed trial streams
    # round-trips through JSON unchanged
    assert json.loads(text) == doc


def test_validation_jobs_invariance(tmp_path):
    cfg = parse_config(heavy_tail_config(trials=12_288))
    rep1 = sm.run_validation(cfg, jobs=1)
    rep2 = sm.run_validation(cfg, jobs=2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    sm.emit_report(rep1.to_document(), str(p1))
    sm.emit_report(rep2.to_document(), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_validation_seed_sensitivity():
    cfg_a = parse_config(heavy_tail_config(trials=5000, seed=1))
    cfg_b = parse_config(heavy_tail_config(trials=5000, seed=2))
    rep_a = sm.run_validation(cfg_a, jobs=1)
    rep_b = sm.run_validation(cfg_b, jobs=1)
    counts_a = (rep_a.screened_count, rep_a.screened_error_count, rep_a.unscreened_error_count)
    counts_b = (rep_b.screened_count, rep_b.screened_error_count, rep_b.unscreened_error_count)
    assert counts_a != counts_b


def test_wilson_interval_degenerate_trials():
    lo, hi = sm.wilson_interval(0, 1)
    assert lo == 0.0 and hi < 1.0
    lo1, hi1 = sm.wilson_interval(1, 1)
    assert hi1 == 1.0 and lo1 > 0.0
    lo2, hi2 = sm.wilson_interval(50, 100)
    assert lo2 < 0.5 < hi2


# ---------------------------------------------------------------------------
# heavy-tail slope
# ---------------------------------------------------------------------------


def test_fit_log_slope_exact_power_law():
    n_list = [25, 50, 100]
    rates = [float(n) ** (-7.0 / 3.0) for n in n_list]
    assert sm.fit_log_slope(n_list, rates) == pytest.approx(-7.0 / 3.0, abs=1e-12)


def test_fit_log_slope_constant():
    assert sm.fit_log_slope([25, 50, 100], [0.3, 0.3, 0.3]) == pytest.approx(0.0, abs=1e-14)


def test_fit_log_slope_input_errors():
    with pytest.raises(sm.InputError):
        sm.fit_log_slope([10], [0.1])
    with pytest.raises(sm.InputError):
        sm.fit_log_slope([10, 20], [0.1, 0.0])


def test_run_heavy_tail_slope_smoke():
    res = sm.run_heavy_tail_slope(
        {"kind": "pareto_like"}, {"preset": "heavy_tail"}, 0.5, [25, 50, 100], 40_000, 999, jobs=2
    )
    assert res.slope < -1.0
    assert all(c > 0 for c in res.counts)
    assert res.to_dict()["rates"][0] > res.to_dict()["rates"][-1]


def test_run_heavy_tail_slope_insufficient_trials():
    with pytest.raises(sm.InsufficientTrialsError, match="increase trials"):
        sm.run_heavy_tail_slope(
            {"kind": "pareto_like"}, {"preset": "heavy_tail"}, 5.0, [25, 50, 100], 200, 1, jobs=1
        )
    with pytest.raises(sm.InputError):
        sm.run_heavy_tail_slope(
            {"kind": "pareto_like"}, {"preset": "heavy_tail"}, 0.5, [25, 50], 100, 1
        )


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def test_emit_trajectory_csv_layout(tmp_path):
    model, pair = sm.heavy_tail_pair()
    cfg = sm.ScreenConfig(epsilon=0.2, u=0.005, n=2)
    recs = sm.run_trajectory(model, pair, cfg, sm.RandomStream(1).substream(0))
    path = tmp_path / "t.csv"
    sm.emit_trajectory_csv(recs, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == "k,s_hat,t_hat,screened"
    k, s, t, scr = lines[1].split(",")
    assert k == "1" and scr in ("0", "1")
    assert float(s) == recs[0].s_hat  # 17 significant digits round-trip exactly


def test_emit_trajectory_csv_rerun_byte_identical(tmp_path):
    model, pair = sm.heavy_tail_pair()
    cfg = sm.ScreenConfig(epsilon=0.2, u=0.005, n=500)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sm.emit_trajectory_csv(
        sm.run_trajectory(model, pair, cfg, sm.RandomStream(6).substream(0)), str(a)
    )
    sm.emit_trajectory_csv(
        sm.run_trajectory(model, pair, cfg, sm.RandomStream(6).substream(0)), str(b)
    )
    assert a.read_bytes() == b.read_bytes()


def test_emitted_trajectory_screen_predicate_recomputable(tmp_path):
    model, pair = sm.heavy_tail_pair()
    cfg = sm.ScreenConfig(epsilon=0.2, u=0.005, n=5000)
    recs = sm.run_trajectory(model, pair, cfg, sm.RandomStream(2026).substream(0))
    path = tmp_path / "heavy_tail.csv"
    sm.emit_trajectory_csv(recs, str(path))
    mismatches = 0
    for line in path.read_text().splitlines()[1:]:
        _, _, t_hat, screened = line.split(",")
        mismatches += int((abs(float(t_hat) - 5.0 / 3.0) < 0.005) != bool(int(screened)))
    assert mismatches == 0


def test_emit_report_handles_infinities(tmp_path):
    path = tmp_path / "r.json"
    sm.emit_report({"a": math.inf, "b": [1.0, -math.inf], "c": {"d": 2}}, str(path))
    doc = json.loads(path.read_text())
    assert doc["a"] == "inf"
    assert doc["b"][1] == "-inf"


def test_emit_report_rejects_unserializable(tmp_path):
    with pytest.raises(sm.InputError):
        sm.emit_report({"a": object()}, str(tmp_path / "x.json"))


def test_batch_size_is_fixed():
    # worker counts must never change the batch decomposition
    assert BATCH_SIZE == 8192


def test_default_jobs_counts_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert default_jobs() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert default_jobs() == 64
