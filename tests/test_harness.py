import collections
import copy
import dataclasses
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("epsilon", 0.0, "screen.epsilon must be > 0, got 0.0"),
        ("u", -0.5, "screen.u must be > 0, got -0.5"),
        ("n", 0, "screen.n must be >= 1"),
    ],
)
def test_screen_range_errors_name_their_field(field, value, message):
    doc = heavy_tail_config()
    doc["screen"] = dict(doc["screen"], **{field: value})
    with pytest.raises(sm.ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(doc)


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
    # an explicit center is the center, on a sign_product model as on any finite one
    centered = {"f": {"form": "abs_centered", "center": 5.0}, "u": {"form": "sign"}}
    assert build_pair(sign_model, centered).mu == pytest.approx(-3.5, abs=1e-15)


@pytest.mark.parametrize(
    "mags, probs",
    [
        ([1.0, 2.0], [0.5, 0.5]),
        # the magnitude law's center mprobs . mags gives another mu and gamma here
        ([4.682, 4.098, 0.113], [0.665, 0.021, 0.314]),
    ],
)
def test_counterexample_pair_is_the_config_pair(mags, probs):
    model, pair = sm.counterexample_pair(mags, probs)
    spec = {"kind": "sign_product", "magnitude_atoms": mags, "magnitude_probs": probs}
    config_model = build_model(spec)
    config_pair = build_pair(config_model, {"f": {"form": "abs_centered"}, "u": {"form": "sign"}})
    assert np.array_equal(model.atoms, config_model.atoms)
    assert np.array_equal(model.probs, config_model.probs)
    for name in (f.name for f in dataclasses.fields(pair)):
        assert getattr(pair, name) == getattr(config_pair, name), name


def test_power_of_a_negative_atom_is_a_config_error():
    # sqrt(-1) is NaN: the pair is refused by name, with no RuntimeWarning on the way
    model = build_model({"kind": "finite_support", "atoms": [-1.0, 2.0], "probs": [0.5, 0.5]})
    obs = {"f": {"form": "power", "exponent": 0.5}, "u": {"form": "identity"}}
    with pytest.raises(sm.ConfigError, match="observables.f must be finite"):
        build_pair(model, obs)


@pytest.mark.parametrize(
    "model_spec, obs_spec",
    [
        ({"kind": "nope"}, {"preset": "heavy_tail"}),
        ({"kind": "finite_support", "atoms": "ab", "probs": [0.5, 0.5]}, {"preset": "heavy_tail"}),
        ({"kind": "pareto_like"}, {"f": {"form": ["power"]}, "u": {"form": "identity"}}),
    ],
)
def test_library_callers_get_the_config_checks(model_spec, obs_spec):
    with pytest.raises(sm.ConfigError) as parsed:
        parse_config(heavy_tail_config(model=model_spec, observables=obs_spec))
    same = re.escape(str(parsed.value))
    with pytest.raises(sm.ConfigError, match=same):
        exp_harness.run_heavy_tail_slope(model_spec, obs_spec, 0.5, [25, 50, 100], 100, 1)
    with pytest.raises(sm.ConfigError, match=same):
        build_pair(build_model(model_spec), obs_spec)


# the README config, and the mutations of its sections: any field set to a
# JSON value or dropped, real keys and one unknown key per section
_README = {
    "model": {"kind": "pareto_like"},
    "observables": {"preset": "heavy_tail"},
    "screen": {"epsilon": 0.5, "u": 0.025, "n": 200, "sidedness": "two_sided"},
    "trials": 1000000,
    "seed": 20240808,
    "outputs": [{"kind": "report", "path": "report.json"}],
}
_SECTION_KEYS = {
    (): [*_README, "extra"],
    ("model",): ["kind", "atoms", "probs", "magnitude_atoms", "magnitude_probs", "extra"],
    ("observables",): ["preset", "f", "u", "extra"],
    ("observables", "f"): ["form", "exponent", "values", "center", "extra"],
    ("screen",): [*_README["screen"], "extra"],
    ("outputs",): [None],  # a list: a mutation appends or drops its last entry
    ("outputs", 0): ["kind", "path", "extra"],
}
_FIELDS = [(path, key) for path, keys in _SECTION_KEYS.items() for key in keys]
_TAGS = ["pareto_like", "finite_support", "sign_product", "heavy_tail", "power", "identity",
         "table", "abs_centered", "sign", "report", "trajectory_csv", "one_sided"]
_SCALAR = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(_TAGS)
)
_KEY = st.sampled_from(sorted({k for _, k in _FIELDS if k})) | st.text(max_size=4)
_JSON = _SCALAR | st.lists(_SCALAR, max_size=3) | st.dictionaries(_KEY, _SCALAR, max_size=3)
_DROP = object()
_MUTATION = st.tuples(st.sampled_from(_FIELDS), _JSON | st.just(_DROP))


def _mutate(doc, path, key, value):
    """Set ``key`` to ``value`` (drop it for ``_DROP``) in the section at ``path``, if any."""
    section = doc
    for step in path:
        try:
            section = section[step]
        except (KeyError, IndexError, TypeError):
            return  # an earlier mutation removed or replaced the section
    if isinstance(section, dict) and value is _DROP:
        section.pop(key, None)
    elif isinstance(section, dict):
        section[key] = value
    elif isinstance(section, list) and value is _DROP:
        del section[-1:]
    elif isinstance(section, list):
        section.append(value)


@settings(max_examples=300, deadline=None)
@given(st.lists(_MUTATION, min_size=1, max_size=3))
@example([((("model",), "kind"), ["pareto_like"])])  # an unhashable tag
def test_parse_config_parses_or_raises_config_error(mutations):
    doc = copy.deepcopy(_README)
    for (path, key), value in mutations:
        _mutate(doc, path, key, value)
    try:
        cfg = parse_config(doc)
    except sm.ConfigError:
        return
    assert isinstance(cfg, exp_harness.ExperimentConfig)


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


def test_an_unconverged_chernoff_rate_skips_its_entry_not_the_run(monkeypatch):
    # the rate engine's Newton ascent can stall just below the event's edge
    # (finite_instance(101, 6)); the thm31 entries already skip on any named error
    def stalled(*args):
        raise sm.NumericError("Newton ascent stalled at (0.5, -0.5)")

    monkeypatch.setattr(exp_harness, "rate_plus_star", stalled)
    rep = sm.run_validation(parse_config(heavy_tail_config(trials=1000)), jobs=1)
    (chernoff,) = [e for e in rep.bounds if e.report.method == "chernoff_rate"]
    assert chernoff.skipped and chernoff.bound_value == 1.0
    assert chernoff.skip_reason == "Newton ascent stalled at (0.5, -0.5)"
    assert any(not e.skipped for e in rep.bounds if e.report.method == "thm31_ii")
    assert rep.all_sound


@pytest.mark.parametrize(
    "where, error, reason",
    [
        (
            "normalize_observables",
            sm.DegenerateScreenError("U is constant"),
            "normalization unavailable: U is constant",
        ),
        ("bound_thm31_ii", sm.NumericError("search stalled"), "search stalled"),
    ],
    ids=["normalization", "search"],
)
def test_a_skipped_thm31_entry_names_its_own_cause(monkeypatch, where, error, reason):
    # only a failed normalization is labelled as one; an error past it keeps its text
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(exp_harness, where, failing)
    cfg = heavy_tail_config(trials=1000)
    model = exp_harness.build_model(cfg["model"])
    pair = exp_harness.build_pair(model, cfg["observables"])
    eps, u, n = (cfg["screen"][key] for key in ("epsilon", "u", "n"))
    entries = exp_harness.compute_bounds(model, pair, cfg["observables"], eps, u, n)
    (skipped,) = [e for e in entries if e.report.method == "thm31_ii" and e.skipped]
    assert skipped.skip_reason == reason


def test_validation_document_is_canonical(small_validation):
    _, rep = small_validation
    doc = canonicalize(rep.to_document())
    text = json.dumps(doc, sort_keys=True)
    assert "screened_error_rate" in text
    assert doc["runtime"]["stream_contract"] == 3  # PCG64 trial streams reached by advance
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


def _worker_parent(_):
    return os.getppid()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_pool_workers_are_forked_from_the_caller(fresh_pool):
    assert exp_harness.POOL_START_METHOD == "fork"
    assert set(exp_harness._run_batches(_worker_parent, range(2), 2)) == {os.getpid()}


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="needs the forkserver start method",
)
def test_forkserver_workers_give_the_same_report(fresh_pool, monkeypatch, tmp_path):
    # the start method is chosen in one place; under forkserver each worker
    # imports the package afresh and must still give the in-process bytes
    monkeypatch.setattr(exp_harness, "POOL_START_METHOD", "forkserver")
    cfg = parse_config(heavy_tail_config(trials=2 * BATCH_SIZE + 100))
    reports = []
    for jobs in (1, 2, 3):
        sm.emit_report(sm.run_validation(cfg, jobs=jobs).to_document(), str(tmp_path / "r.json"))
        reports.append((tmp_path / "r.json").read_bytes())
        if jobs > 1:  # the workers are not the caller's children
            assert os.getpid() not in exp_harness._run_batches(_worker_parent, range(2), jobs)
    assert reports[1] == reports[0] and reports[2] == reports[0]


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


# the pool's start methods on this platform, among those the harness is tested under
START_METHODS = [m for m in ("fork", "forkserver") if m in multiprocessing.get_all_start_methods()]


def test_validate_process_exits_promptly_and_leaves_no_worker(tmp_path):
    doc = heavy_tail_config(trials=2 * BATCH_SIZE)
    for method in START_METHODS:
        _exits_promptly_and_leaves_no_worker(tmp_path / method, "validate", doc, method)


def test_simulate_process_exits_promptly_and_leaves_no_worker(tmp_path):
    doc = heavy_tail_config(trials=4, outputs=[{"kind": "trajectory_csv", "path": "traj.csv"}])
    for method in START_METHODS:
        _exits_promptly_and_leaves_no_worker(tmp_path / method, "simulate", doc, method)
        assert len(list((tmp_path / method).glob("traj_*.csv"))) == 4


def _exits_promptly_and_leaves_no_worker(tmp_path, command, doc, start_method):
    tmp_path.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    script = (
        "import multiprocessing, sys\n"
        "from screened_mc import exp_harness\n"
        "from screened_mc.cli import main\n"
        f"exp_harness.POOL_START_METHOD = {start_method!r}\n"
        f"code = main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}, "
        "'--jobs', '2'])\n"
        "print('workers', *[p.pid for p in multiprocessing.active_children()])\n"
        "sys.exit(code)\n"
    )
    out = tmp_path / "stdout.txt"
    with open(out, "w") as fh:  # a file, not a pipe, which a stray worker would hold open
        proc = subprocess.run(
            [sys.executable, "-c", script], env=_child_env(), stdout=fh,
            stderr=subprocess.STDOUT, timeout=30,
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


def test_killed_validate_process_leaves_no_worker(tmp_path):
    doc = heavy_tail_config(trials=20_000_000)  # minutes of work at jobs=2
    for method in START_METHODS:
        _killed_run_leaves_no_worker(tmp_path / method, doc, method)


def _killed_run_leaves_no_worker(tmp_path, doc, start_method):
    """SIGKILL a ``validate --jobs 2`` mid-run: its workers, which it never shut
    down, must exit by themselves (and a forkserver with them)."""
    tmp_path.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    script = (
        "import multiprocessing, multiprocessing.forkserver, threading, time\n"
        "from screened_mc import exp_harness\n"
        "from screened_mc.cli import main\n"
        f"exp_harness.POOL_START_METHOD = {start_method!r}\n"
        "def report():\n"
        "    while len(multiprocessing.active_children()) < 2:\n"
        "        time.sleep(0.02)\n"
        "    server = multiprocessing.forkserver._forkserver._forkserver_pid\n"
        "    pids = [p.pid for p in multiprocessing.active_children()] + [server or 0]\n"
        "    print('workers', *pids, flush=True)\n"
        "threading.Thread(target=report, daemon=True).start()\n"
        f"main(['validate', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}, "
        "'--jobs', '2'])\n"
    )
    out = tmp_path / "stdout.txt"
    pids = []
    with open(out, "w") as fh:  # a file, not a pipe, which a stray worker would hold open
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=_child_env(), stdout=fh,
            stderr=subprocess.STDOUT,
        )
    try:
        deadline = time.monotonic() + 30.0
        while not out.read_text().endswith("\n") and proc.poll() is None:
            assert time.monotonic() < deadline, "no pool started"
            time.sleep(0.05)
        text = out.read_text()
        assert proc.poll() is None, text  # still running when it is killed
        pids = [int(p) for p in text.splitlines()[-1].split()[1:] if p != "0"]
        assert len(pids) == (3 if start_method == "forkserver" else 2), text
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        for pid in pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _alive(pid), f"process {pid} outlived its killed creator"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        for pid in filter(_alive, pids):
            os.kill(pid, 9)


def _child_env():
    """This environment, with this checkout's package first on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sm.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # an exited process that its new parent has not yet reaped is a zombie
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
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


@pytest.mark.parametrize(
    "n_list, trials, field",
    [
        ([25.7, 50, 100], 100, "n_list[0]"),  # not truncated to 25
        ([True, 50, 100], 100, "n_list[0]"),  # not n = 1
        ([0, 50, 100], 100, "n_list[0]"),
        ([25, 50, 100], 2.5, "trials"),
        ([25, 50, 100], -5, "trials"),
    ],
)
def test_run_heavy_tail_slope_checks_its_integers_as_the_config_does(n_list, trials, field):
    with pytest.raises(sm.ConfigError, match=re.escape(field)):
        sm.run_heavy_tail_slope(
            {"kind": "pareto_like"}, {"preset": "heavy_tail"}, 0.5, n_list, trials, 1, jobs=1
        )


def test_a_run_builds_its_model_pair_and_ceiling_once(monkeypatch):
    calls = collections.Counter()

    def counted(name):
        real = getattr(exp_harness, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for name in ("build_model", "build_pair", "_certified_ceiling"):
        monkeypatch.setattr(exp_harness, name, counted(name))
    trials = 3 * BATCH_SIZE + 5
    sm.run_validation(parse_config(heavy_tail_config(trials=trials)), jobs=1)
    assert calls == {"build_model": 1, "build_pair": 1, "_certified_ceiling": 1}
    calls.clear()
    sm.run_heavy_tail_slope(
        {"kind": "pareto_like"}, {"preset": "heavy_tail"}, 0.5, [10, 20, 40], trials, 3, jobs=1
    )
    # one ceiling per horizon
    assert calls == {"build_model": 1, "build_pair": 1, "_certified_ceiling": 3}


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def test_emit_trajectory_csv_layout(tmp_path):
    model, pair = sm.heavy_tail_pair()
    cfg = sm.ScreenConfig(epsilon=0.2, u=0.005, n=2)
    traj = sm.run_trajectory(pair, sm.sample(model, sm.RandomStream(1).substream(0), cfg.n), cfg)
    path = tmp_path / "t.csv"
    sm.emit_trajectory_csv(traj, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == "k,s_hat,t_hat,screened"
    k, s, t, scr = lines[1].split(",")
    assert k == "1" and scr in ("0", "1")
    assert float(s) == traj.s_hat[0]  # 17 significant digits round-trip exactly


def _reference_csv(trajectory) -> str:
    """The per-row f-string emitter that emit_trajectory_csv replaces."""
    lines = ["k,s_hat,t_hat,screened"]
    rows = zip(trajectory.s_hat, trajectory.t_hat, trajectory.screened, strict=True)
    for k, (s_hat, t_hat, screened) in enumerate(rows, 1):
        lines.append(f"{k},{s_hat:.17g},{t_hat:.17g},{int(screened)}")
    return "\n".join(lines) + "\n"


def test_emit_trajectory_csv_matches_reference_emitter(tmp_path):
    model, pair = sm.heavy_tail_pair()
    cfg = sm.ScreenConfig(epsilon=0.2, u=0.005, n=1000)
    heavy = sm.run_trajectory(pair, sm.sample(model, sm.RandomStream(6).substream(0), cfg.n), cfg)
    model, pair = sm.counterexample_pair([0.5, 1.0, 3.0], [0.5, 0.3, 0.2])
    signed = sm.run_trajectory(pair, sm.sample(model, sm.RandomStream(6).substream(1), cfg.n), cfg)
    edge = sm.Trajectory(
        s_hat=(-0.0, 0.0, -2.5, -sys.float_info.max, 0.1, math.inf, math.nan, sys.float_info.max),
        t_hat=(0.0, -0.0, -5e-324, 1e-300, -1.0 / 3.0, -math.inf, 123456789.0, 5e-324),
        screened=(False, True, True, False, True, False, True, False),
    )
    first = sm.Trajectory(heavy.s_hat[:1], heavy.t_hat[:1], heavy.screened[:1])
    empty = sm.Trajectory((), (), ())
    assert min(signed.s_hat) < 0.0 and min(signed.t_hat) < 0.0
    for i, trajectory in enumerate([heavy, signed, edge, first, empty]):
        path = tmp_path / f"t{i}.csv"
        sm.emit_trajectory_csv(trajectory, str(path))
        assert path.read_bytes() == _reference_csv(trajectory).encode()


def test_emit_trajectory_csv_rerun_byte_identical(tmp_path):
    model, pair = sm.heavy_tail_pair()
    cfg = sm.ScreenConfig(epsilon=0.2, u=0.005, n=500)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        x = sm.sample(model, sm.RandomStream(6).substream(0), cfg.n)
        sm.emit_trajectory_csv(sm.run_trajectory(pair, x, cfg), str(path))
    assert a.read_bytes() == b.read_bytes()


def test_write_file_rewrites_longer_and_shorter_files_exactly(tmp_path):
    path = tmp_path / "out.bin"
    for data in (b"x" * 5000, b"short", b"", b"y" * 300, b"z" * 70_000):
        exp_harness._write_file(str(path), data)
        assert path.read_bytes() == data
    exp_harness.emit_report({"a": 1}, str(path))  # the report emitter shares the path
    assert path.read_bytes() == b'{\n  "a": 1\n}\n'


def test_write_file_makes_missing_directories_and_writes_through_symlinks(tmp_path):
    nested = tmp_path / "a" / "b" / "t.csv"
    exp_harness._write_file(str(nested), b"new")
    assert nested.read_bytes() == b"new"
    target = tmp_path / "target.csv"
    target.write_bytes(b"an older and longer content")
    link = tmp_path / "link.csv"
    try:
        link.symlink_to(target)
    except (OSError, NotImplementedError):
        pytest.skip("the file system makes no symlinks")
    exp_harness._write_file(str(link), b"rewritten")
    assert link.is_symlink() and target.read_bytes() == b"rewritten"


def test_write_file_to_a_non_regular_file(tmp_path):
    # the null device is not a regular file, so nothing truncates it
    exp_harness._write_file(os.devnull, b"discarded")
    traj = sm.Trajectory((0.25, 0.5), (1.0, 2.0), (True, False))
    sm.emit_trajectory_csv(traj, os.devnull)


def test_write_file_onto_a_directory_raises_input_error(tmp_path):
    with pytest.raises(sm.InputError, match="cannot write output file"):
        exp_harness._write_file(str(tmp_path), b"data")
    (tmp_path / "blocker").write_text("a regular file, not a directory")
    with pytest.raises(sm.InputError, match="cannot write output file"):
        exp_harness._write_file(str(tmp_path / "blocker" / "t.csv"), b"data")


def test_emitted_trajectory_screen_predicate_recomputable(tmp_path):
    model, pair = sm.heavy_tail_pair()
    cfg = sm.ScreenConfig(epsilon=0.2, u=0.005, n=5000)
    traj = sm.run_trajectory(pair, sm.sample(model, sm.RandomStream(2026).substream(0), cfg.n), cfg)
    path = tmp_path / "heavy_tail.csv"
    sm.emit_trajectory_csv(traj, str(path))
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
