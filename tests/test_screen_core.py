import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import screened_mc as sm
from screened_mc.exp_harness import _trajectory_csv
from screened_mc.screen_core import SIDEDNESS, screened_mask

from reference import StreamState, control_variate_estimate, screen_decision, update_stream


def test_update_stream_single_and_double():
    s1 = update_stream(StreamState(), 3.0, 5.0)
    assert (s1.k, s1.s_hat, s1.t_hat) == (1, 3.0, 5.0)
    s2 = update_stream(s1, 1.0, 1.0)
    assert (s2.k, s2.s_hat, s2.t_hat) == (2, 2.0, 3.0)


def test_running_mean_matches_batch_recomputation():
    rng = np.random.default_rng(42)
    f = (1.0 - rng.random(10_000)) ** -0.3  # heavy-tailed magnitudes
    u = (1.0 - rng.random(10_000)) ** -0.4
    state = StreamState()
    for fv, uv in zip(f, u):
        state = update_stream(state, float(fv), float(uv))
    assert state.s_hat == pytest.approx(float(np.mean(f)), rel=1e-12)
    assert state.t_hat == pytest.approx(float(np.mean(u)), rel=1e-12)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-1e6, max_value=1e6),
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=150, deadline=None)
def test_running_mean_property(pairs):
    state = StreamState()
    for fv, uv in pairs:
        state = update_stream(state, fv, uv)
    f = np.array([p[0] for p in pairs])
    scale = 1.0 + abs(float(np.mean(f)))
    assert abs(state.s_hat - float(np.mean(f))) <= 1e-9 * scale
    assert state.k == len(pairs)


def test_screen_decision_arithmetic():
    nu, u = 5.0 / 3.0, 0.005
    near = StreamState(k=10, s_hat=0.0, t_hat=1.668)
    far = StreamState(k=10, s_hat=0.0, t_hat=1.675)
    assert screen_decision(near, nu, u, "two_sided") is True
    assert screen_decision(far, nu, u, "two_sided") is False


def test_screen_decision_strict_boundary():
    nu, u = 1.0, 0.25
    boundary = StreamState(k=3, s_hat=0.0, t_hat=nu + u)
    assert screen_decision(boundary, nu, u, "two_sided") is False
    assert screen_decision(boundary, nu, u, "one_sided") is False


def test_screen_decision_empty_stream():
    with pytest.raises(sm.InputError):
        screen_decision(StreamState(), 0.0, 1.0)


def test_one_sided_allows_low_side():
    low = StreamState(k=2, s_hat=0.0, t_hat=-100.0)
    assert screen_decision(low, 0.0, 0.1, "one_sided") is True
    assert screen_decision(low, 0.0, 0.1, "two_sided") is False


def test_control_variate_identity_and_centering():
    assert control_variate_estimate([1.0, 3.0], [9.0, 9.0], 0.0, 0.0) == 2.0
    got = control_variate_estimate([1.0, 1.0, 1.0], [2.0, 4.0, 6.0], 1.0, 4.0)
    assert got == 1.0
    with pytest.raises(sm.InputError):
        control_variate_estimate([], [], 0.5, 0.0)
    with pytest.raises(sm.InputError):
        control_variate_estimate([1.0], [1.0, 2.0], 0.5, 0.0)


def test_control_variate_reduces_variance_at_optimal_beta():
    model, pair = sm.heavy_tail_pair()
    xs = sm.sample(model, sm.RandomStream(2718).substream(0), 100_000)
    f = xs**0.75
    u = xs
    beta_star = (20.0 / 21.0) / (20.0 / 9.0)  # Cov / Var(U) = 3/7
    assert beta_star == pytest.approx(3.0 / 7.0, rel=1e-12)
    corrected = f - beta_star * (u - pair.nu)
    assert float(np.var(corrected)) < float(np.var(f))


def test_control_variate_is_unbiased():
    model, pair = sm.heavy_tail_pair()
    n, trials = 100, 10_000
    root = sm.RandomStream(1009)
    ests = np.empty(trials)
    for t in range(trials):
        xs = sm.sample(model, root.substream(t), n)
        ests[t] = control_variate_estimate(xs**0.75, xs, 3.0 / 7.0, pair.nu)
    se = ests.std(ddof=1) / math.sqrt(trials)
    assert abs(ests.mean() - pair.mu) <= 4.0 * se


def test_run_trajectory_single_step():
    model, pair = sm.heavy_tail_pair()
    cfg = sm.ScreenConfig(epsilon=0.1, u=0.5, n=1)
    x = sm.sample(model, sm.RandomStream(55).substream(0), 1)
    traj = sm.run_trajectory(pair, x, cfg)
    assert len(traj.s_hat) == len(traj.t_hat) == len(traj.screened) == 1
    assert traj.s_hat[0] == pytest.approx(float(x[0] ** 0.75), rel=1e-15)


def test_trajectory_columns_are_read_only_arrays():
    model, pair = sm.heavy_tail_pair()
    cfg = sm.ScreenConfig(epsilon=0.2, u=0.005, n=50)
    traj = sm.run_trajectory(pair, sm.sample(model, sm.RandomStream(8).substream(0), cfg.n), cfg)
    for column, dtype in ((traj.s_hat, np.float64), (traj.t_hat, np.float64), (traj.screened, np.bool_)):
        assert isinstance(column, np.ndarray) and column.dtype == dtype and column.shape == (50,)
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = column[1]
    # built from tuples: the same columns, and the same CSV bytes
    rebuilt = sm.Trajectory(tuple(traj.s_hat.tolist()), tuple(traj.t_hat.tolist()),
                            tuple(traj.screened.tolist()))
    for name in ("s_hat", "t_hat", "screened"):
        assert getattr(rebuilt, name).tobytes() == getattr(traj, name).tobytes()
        assert not getattr(rebuilt, name).flags.writeable
    assert _trajectory_csv(rebuilt) == _trajectory_csv(traj)


def test_trajectory_views_the_callers_arrays_without_locking_them():
    s = np.array([0.5, 0.25])
    traj = sm.Trajectory(s, s, np.array([True, False]))
    assert s.flags.writeable and not traj.s_hat.flags.writeable
    assert np.shares_memory(traj.s_hat, s)


def test_trajectory_columns_must_have_equal_lengths():
    # a one-flag column would otherwise broadcast over every row of the CSV
    with pytest.raises(sm.InputError, match="equal lengths"):
        sm.Trajectory((0.5, 0.25, 0.125), (1.0, 2.0, 3.0), (True,))
    with pytest.raises(sm.InputError, match="equal lengths"):
        sm.Trajectory((0.5, 0.25), (1.0,), (True, False))


def test_trajectory_equality_and_hash_are_by_identity():
    # array columns have no single truth value, so the dataclass compares nothing
    a = sm.Trajectory((0.5, 0.25), (1.0, 2.0), (True, False))
    b = sm.Trajectory(a.s_hat, a.t_hat, a.screened)
    assert a == a and a != b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def _reference_trajectory(model, pair, config, stream):
    """The per-step loop run_trajectory replaces: update_stream + screen_decision.

    Returns one (k, s_hat, t_hat, screened) tuple per step.
    """
    xs = sm.sample(model, stream, config.n)
    f_vals = np.asarray(pair.f(xs), dtype=float)
    u_vals = np.asarray(pair.u(xs), dtype=float)
    state = StreamState()
    rows = []
    for k in range(config.n):
        state = update_stream(state, float(f_vals[k]), float(u_vals[k]))
        screened = screen_decision(state, pair.nu, config.u, config.sidedness)
        rows.append((state.k, state.s_hat, state.t_hat, screened))
    return rows


def _finite_table_pair():
    model = sm.finite_support([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
    return model, sm.tabulated_pair(model, [-1.0, 0.0, 0.0, 1.0], [-1.0, -1.0, 1.0, 1.0])


def _sign_product_pair():
    return sm.counterexample_pair([0.5, 1.0, 3.0], [0.5, 0.3, 0.2])


@pytest.mark.parametrize("sidedness", SIDEDNESS)
@pytest.mark.parametrize(
    "build, n, u",
    [
        (sm.heavy_tail_pair, 1, 0.5),
        (sm.heavy_tail_pair, 2, 0.5),
        (sm.heavy_tail_pair, 7, 0.05),
        (sm.heavy_tail_pair, 1000, 0.025),
        (_finite_table_pair, 500, 0.05),
        (_sign_product_pair, 500, 0.05),
    ],
)
def test_run_trajectory_equals_reference_loop(build, n, u, sidedness):
    model, pair = build()
    cfg = sm.ScreenConfig(epsilon=0.1, u=u, n=n, sidedness=sidedness)
    for t in range(3):
        x = sm.sample(model, sm.RandomStream(31).substream(t), n)
        got = sm.run_trajectory(pair, x, cfg)
        want = _reference_trajectory(model, pair, cfg, sm.RandomStream(31).substream(t))
        assert [r[0] for r in want] == list(range(1, n + 1))  # step k is index k - 1
        # exact: the same IEEE operations in the same order; hex tells -0.0 from 0.0
        assert [x.hex() for x in got.s_hat] == [r[1].hex() for r in want]
        assert [x.hex() for x in got.t_hat] == [r[2].hex() for r in want]
        assert list(got.screened) == [r[3] for r in want]


def test_column_predicate_is_strict_at_a_tie():
    # U = [0, 1] at probabilities 1/2: nu = 0.5, so u = 0.5 puts |t_hat_1 - nu| at u exactly
    model = sm.finite_support([0.0, 1.0], [0.5, 0.5])
    pair = sm.tabulated_pair(model, [0.0, 1.0], [0.0, 1.0])
    assert pair.nu == 0.5
    for sidedness in SIDEDNESS:
        cfg = sm.ScreenConfig(epsilon=0.1, u=0.5, n=20, sidedness=sidedness)
        starts = set()
        for t in range(16):
            x = sm.sample(model, sm.RandomStream(3).substream(t), cfg.n)
            traj = sm.run_trajectory(pair, x, cfg)
            starts.add(traj.t_hat[0])
            if traj.t_hat[0] == 1.0 or sidedness == "two_sided":  # a tie on the screened side
                assert not traj.screened[0]
            for k, (s, m, flag) in enumerate(zip(traj.s_hat, traj.t_hat, traj.screened), 1):
                state = StreamState(k=k, s_hat=s, t_hat=m)
                assert flag == screen_decision(state, pair.nu, cfg.u, sidedness)
        assert starts == {0.0, 1.0}  # both ties were reached


def test_trajectory_screened_set_is_consistent():
    model, pair = sm.heavy_tail_pair()
    cfg = sm.ScreenConfig(epsilon=0.2, u=0.005, n=2000)
    traj = sm.run_trajectory(pair, sm.sample(model, sm.RandomStream(99).substream(0), cfg.n), cfg)
    for k, (s, t, flag) in enumerate(zip(traj.s_hat, traj.t_hat, traj.screened), 1):
        state = StreamState(k=k, s_hat=s, t_hat=t)
        assert flag == screen_decision(state, pair.nu, cfg.u, cfg.sidedness)


def test_trajectory_screened_times_are_strict_subset_with_late_mass():
    model, pair = sm.heavy_tail_pair()
    cfg = sm.ScreenConfig(epsilon=0.2, u=0.005, n=5000)
    traj = sm.run_trajectory(pair, sm.sample(model, sm.RandomStream(2026).substream(0), cfg.n), cfg)
    screened = [k for k, flag in enumerate(traj.screened, 1) if flag]
    assert 0 < len(screened) < cfg.n
    assert sum(k > cfg.n // 2 for k in screened) > 0


def test_final_means_permutation_invariant():
    rng = np.random.default_rng(7)
    f = (1.0 - rng.random(500)) ** -0.3
    u = (1.0 - rng.random(500)) ** -0.4
    state = StreamState()
    for fv, uv in zip(f, u):
        state = update_stream(state, float(fv), float(uv))
    perm = rng.permutation(500)
    state_p = StreamState()
    for fv, uv in zip(f[perm], u[perm]):
        state_p = update_stream(state_p, float(fv), float(uv))
    assert state_p.s_hat == pytest.approx(state.s_hat, rel=1e-12)
    assert state_p.t_hat == pytest.approx(state.t_hat, rel=1e-12)


def test_event_inclusion_per_trial():
    model, pair = sm.heavy_tail_pair()
    cfg = sm.ScreenConfig(epsilon=0.3, u=0.05, n=50)
    screened_err = unscreened_err = 0
    for t in range(500):
        x = sm.sample(model, sm.RandomStream(8).substream(t), cfg.n)
        traj = sm.run_trajectory(pair, x, cfg)
        err = traj.s_hat[-1] - pair.mu > cfg.epsilon
        unscreened_err += err
        screened_err += err and traj.screened[-1]
        assert not (err and traj.screened[-1]) or err  # the screened error implies the error
    assert screened_err <= unscreened_err


def test_screen_config_validation():
    with pytest.raises(sm.ConfigError):
        sm.ScreenConfig(epsilon=0.0, u=0.1, n=10)
    with pytest.raises(sm.ConfigError):
        sm.ScreenConfig(epsilon=0.1, u=-1.0, n=10)
    with pytest.raises(sm.ConfigError):
        sm.ScreenConfig(epsilon=0.1, u=0.1, n=0)
    with pytest.raises(sm.ConfigError):
        sm.ScreenConfig(epsilon=0.1, u=0.1, n=10, sidedness="diagonal")


def test_screened_mask_rejects_an_unknown_sidedness():
    # the same error as screen_decision, not a silent one-sided screen
    t_dev = np.array([-0.5, 0.0, 0.5])
    assert screened_mask(t_dev, 0.25, "two_sided").tolist() == [False, True, False]
    assert screened_mask(t_dev, 0.25, "one_sided").tolist() == [True, True, False]
    for wrong in ("two-sided", "both", ""):
        with pytest.raises(sm.ConfigError, match="sidedness must be one of"):
            screened_mask(t_dev, 0.25, wrong)
        with pytest.raises(sm.ConfigError, match="sidedness must be one of"):
            screen_decision(StreamState(1, 0.0, 0.0), 0.0, 0.25, wrong)
