import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import screened_mc as sm
from screened_mc import exp_harness
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
# worker pool
# ---------------------------------------------------------------------------


def _worker_pid(_):
    return os.getpid()


def _die(_):
    os._exit(1)


def _counts(rep):
    return rep.screened_count, rep.screened_error_count, rep.unscreened_error_count


@pytest.fixture
def fresh_pool():
    exp_harness._shutdown_pool()
    yield
    exp_harness._shutdown_pool()


def test_worker_pool_persists_across_calls(fresh_pool):
    first = exp_harness._run_batches(_worker_pid, range(4), 2)
    second = exp_harness._run_batches(_worker_pid, range(4), 2)
    assert os.getpid() not in first
    assert len(set(first) | set(second)) <= 2  # the same two workers served both calls


def test_counts_survive_jobs_changes(fresh_pool):
    cfg = parse_config(heavy_tail_config(trials=3 * BATCH_SIZE))
    expected = _counts(sm.run_validation(cfg, jobs=2))
    pool = exp_harness._POOL
    assert _counts(sm.run_validation(cfg, jobs=1)) == expected
    assert exp_harness._POOL is pool  # jobs=1 runs in-process, leaving the pool
    assert _counts(sm.run_validation(cfg, jobs=3)) == expected
    assert exp_harness._POOL[1] == 3
    assert _counts(sm.run_validation(cfg, jobs=2)) == expected
    assert exp_harness._POOL[2] is not pool[2]  # rebuilt after the jobs=3 pool


def test_dead_worker_is_named_and_the_next_call_starts_afresh(fresh_pool):
    before = set(exp_harness._run_batches(_worker_pid, range(2), 2))
    with pytest.raises(BrokenProcessPool):
        exp_harness._run_batches(_die, range(2), 2)
    assert exp_harness._POOL is None
    cfg = parse_config(heavy_tail_config(trials=2 * BATCH_SIZE))
    assert _counts(sm.run_validation(cfg, jobs=2)) == _counts(sm.run_validation(cfg, jobs=1))
    assert not set(exp_harness._run_batches(_worker_pid, range(2), 2)) & before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_pool(fresh_pool):
    cfg = parse_config(heavy_tail_config(trials=BATCH_SIZE + 100))
    expected = _counts(sm.run_validation(cfg, jobs=2))
    pool = exp_harness._POOL[2]
    pid = os.fork()
    if pid == 0:  # the child reports through its exit code only
        code = 1
        try:
            ok = _counts(sm.run_validation(cfg, jobs=2)) == expected
            own = exp_harness._POOL[:2] == (os.getpid(), 2) and exp_harness._POOL[2] is not pool
            code = 0 if ok and own else 3
        finally:
            exp_harness._shutdown_pool()
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung")
    assert os.waitstatus_to_exitcode(done[1]) == 0
    assert _counts(sm.run_validation(cfg, jobs=2)) == expected
    assert exp_harness._POOL[2] is pool  # the parent's pool is untouched


def test_threads_changing_jobs_share_the_pool_safely(fresh_pool):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as threads:
            calls = [
                threads.submit(exp_harness._run_batches, _worker_pid, range(4), 2 + i % 2)
                for i in range(24)
            ]
            results = [call.result(timeout=60) for call in calls]
    finally:
        sys.setswitchinterval(interval)
    assert all(len(pids) == 4 and os.getpid() not in pids for pids in results)


def test_validate_process_exits_promptly_and_leaves_no_worker(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(heavy_tail_config(trials=2 * BATCH_SIZE)))
    script = (
        "import multiprocessing, sys\n"
        "from screened_mc.cli import main\n"
        f"code = main(['validate', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}, "
        "'--jobs', '2'])\n"
        "print('workers', *[p.pid for p in multiprocessing.active_children()])\n"
        "sys.exit(code)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "stdout.txt"
    with open(out, "w") as fh:  # a file, not a pipe, which a stray worker would hold open
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, stdout=fh, stderr=subprocess.STDOUT,
            timeout=30,
        )
    text = out.read_text()
    assert proc.returncode == 0, text
    workers = [int(p) for p in text.splitlines()[-1].split()[1:]]
    assert len(workers) == 2  # the pool was alive when the command returned
    deadline = time.monotonic() + 5.0
    try:
        for pid in workers:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _alive(pid), f"worker {pid} outlived its interpreter"
    finally:
        for pid in filter(_alive, workers):
            os.kill(pid, 9)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


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
    args = ({"kind": "pareto_like"}, {"preset": "heavy_tail"}, 0.5, [25, 50, 100], 40_000, 999)
    res = sm.run_heavy_tail_slope(*args, jobs=2)
    assert res.slope < -1.0
    assert all(c > 0 for c in res.counts)
    assert res.to_dict()["rates"][0] > res.to_dict()["rates"][-1]
    assert sm.run_heavy_tail_slope(*args, jobs=1) == res  # counts do not depend on jobs


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
