import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult, linprog

import screened_mc as sm
from screened_mc import sanov_oracle
from screened_mc.exp_harness import build_model, build_pair, parse_config
from screened_mc.sanov_oracle import _feasibility, _project_constrained_simplex, _project_simplex

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def four_atom():
    model = sm.finite_support([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
    pair = sm.tabulated_pair(
        model, [-1.0, 0.0, 0.0, 1.0], [-1.0, -1.0, 1.0, 1.0]
    )
    return model, pair


# ---------------------------------------------------------------------------
# relative entropy
# ---------------------------------------------------------------------------


def test_relative_entropy_basics():
    assert sm.relative_entropy([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert sm.relative_entropy([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0))
    assert sm.relative_entropy([0.5, 0.5], [1.0, 0.0]) == math.inf
    with pytest.raises(sm.InputError):
        sm.relative_entropy([0.5, 0.5], [1.0])


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_relative_entropy_nonnegative(m, seed):
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(m))
    p = rng.dirichlet(np.ones(m))
    p = np.maximum(p, 1e-9)
    p /= p.sum()
    assert sm.relative_entropy(q, p) >= -1e-12


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_simplex_projection_known_points():
    assert np.allclose(_project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
    assert np.allclose(_project_simplex(np.array([0.6, 0.6])), [0.5, 0.5])
    z = _project_simplex(np.array([-1.0, 0.2, 0.4]))
    assert z.min() >= 0.0 and z.sum() == pytest.approx(1.0)


def test_constrained_projection_feasible_and_optimal():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = 6
        v = rng.normal(size=m)
        a = rng.normal(size=m)
        b = float(rng.uniform(0.0, 0.3))
        z = _project_constrained_simplex(v, [(a, b)])
        assert z.sum() == pytest.approx(1.0, abs=1e-9)
        assert float(a @ z) <= b + 1e-9
        assert z.min() >= -1e-10
        # optimality: no feasible random perturbation is closer to v
        for _ in range(50):
            d = rng.normal(size=m) * 1e-3
            cand = z + d - d.mean()  # stay on the affine hull
            if cand.min() < 0 or float(a @ cand) > b:
                continue
            assert np.sum((z - v) ** 2) <= np.sum((cand - v) ** 2) + 1e-12


def truncation(x_max):
    """The heavy-tail truncation of the trend test: p, f, u, mu, nu."""
    grid = np.geomspace(1.0, x_max, 24)
    probs = np.maximum(np.diff(np.concatenate([[0.0], 1.0 - grid**-2.5])), 1e-12)
    probs = probs / probs.sum()
    f = grid**0.75
    return probs, f, grid, float(probs @ f), float(probs @ grid)


@pytest.mark.parametrize("x_max", [10.0, 100.0, 1000.0])
def test_constrained_projection_on_thin_wedges(x_max):
    # the moment sets of the heavy-tail truncations are thin wedges, where
    # a fixed number of coordinate-bisection sweeps left the projection
    # outside the set; the least-distance solve lands inside, and no
    # feasible point along the set's edges is closer
    p, f, u, mu, nu = truncation(x_max)
    halfspaces = [(u, nu + 0.05), (-f, -(mu + 0.03))]
    z = _project_constrained_simplex(p, halfspaces)
    assert z.min() >= 0.0
    assert z.sum() == pytest.approx(1.0, abs=1e-12)
    for a, b in halfspaces:
        assert float(a @ z) <= b + 1e-12 * (1.0 + abs(b))
    dist = np.sum((z - p) ** 2)
    for i in range(len(p)):
        for j in range(len(p)):
            for t in (1e-9, 1e-6):
                cand = z.copy()
                cand[i] += t
                cand[j] -= t
                if cand[j] < 0 or any(float(a @ cand) > b for a, b in halfspaces):
                    continue
                assert dist <= np.sum((cand - p) ** 2) + 1e-15


def test_constrained_projection_floor_and_empty_set():
    p, f, u, mu, nu = truncation(100.0)
    halfspaces = [(u, nu + 0.05), (-f, -(mu + 0.03))]
    floor = 1e-2 * p
    z = _project_constrained_simplex(p, halfspaces, floor)
    assert np.all(z >= floor)
    for a, b in halfspaces:
        assert float(a @ z) <= b + 1e-12 * (1.0 + abs(b))
    # F cannot exceed its largest atom, with or without a floor
    assert _project_constrained_simplex(p, [(-f, -(f.max() + 1.0))]) is None
    assert _project_constrained_simplex(p, halfspaces, 0.5 * p + 0.1) is None


# ---------------------------------------------------------------------------
# feasibility: vertex enumeration against the LP it replaced
# ---------------------------------------------------------------------------


def _feasibility_lp(f, halfspaces, f_target):
    """Reference: the feasibility decision from HiGHS, as it was made."""
    m = len(f)
    res = linprog(
        -f,
        A_ub=np.array([a for a, _ in halfspaces]) if halfspaces else None,
        b_ub=np.array([b for _, b in halfspaces]) if halfspaces else None,
        A_eq=np.ones((1, m)),
        b_eq=np.array([1.0]),
        bounds=[(0.0, None)] * m,
        method="highs",
    )
    if res.status != 0:
        return False, False
    scale = 1.0 + abs(f_target)
    if -res.fun < f_target - sanov_oracle._FEAS_TOL * scale:
        return False, False
    return True, -res.fun <= f_target + sanov_oracle._FEAS_TOL * scale


def _screen(u_vals, nu, u, sidedness):
    if not math.isfinite(u):
        return []
    halfspaces = [(u_vals, nu + u)]
    if sidedness == "two_sided":
        halfspaces.append((-u_vals, -(nu - u)))
    return halfspaces


def test_feasibility_matches_the_lp_on_random_instances(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import finite_instance

    decisions = set()
    for seed in range(1, 31):
        for k in range(8):
            cfg = parse_config(finite_instance(seed, k))
            model = build_model(cfg.model)
            pair = build_pair(model, cfg.observables)
            f, u_vals = pair.f(model.atoms), pair.u(model.atoms)
            for u, sidedness in (
                (cfg.screen.u, "one_sided"), (cfg.screen.u, "two_sided"), (math.inf, "one_sided")
            ):
                halfspaces = _screen(u_vals, pair.nu, u, sidedness)
                target = pair.mu + cfg.screen.epsilon
                got = _feasibility(f, halfspaces, target)
                assert got == _feasibility_lp(f, halfspaces, target), (seed, k, sidedness, u)
                decisions.add(got)
    assert decisions == {(True, False), (False, False)}  # some two-sided screens are empty


@pytest.mark.parametrize(
    "f, u_vals, halfspaces, target, want",
    [
        # every atom outside the screen: the set is empty
        ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.5], 0.0, (False, False)),
        # no screen: the best atom reaches the target only with equality
        ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [], 2.0, (True, True)),
        # the best law mixes two atoms half and half on the boundary
        ([1.0, 0.0], [1.0, -1.0], [0.0], 0.5, (True, True)),
        ([1.0, 0.0], [1.0, -1.0], [0.0], 0.5 + 1e-6, (False, False)),
        ([1.0, 0.0], [1.0, -1.0], [0.0], 0.4, (True, False)),
        # an atom on the boundary itself (the best law mixes the other two),
        # and a screen constant over the support
        ([3.0, 1.0, 0.0], [2.0, 1.0, 0.0], [1.0], 1.5, (True, True)),
        ([3.0, 1.0, 0.0], [2.0, 1.0, 0.0], [1.0], 1.0, (True, False)),
        ([3.0, 1.0], [1.0, 1.0], [1.0], 3.0, (True, True)),
        ([3.0, 1.0], [1.0, 1.0], [0.5], -5.0, (False, False)),
        # the slab 0.9 <= u <= 1.1 peaks on its lower side (mass 0.3 on u = 3);
        # its one-sided half keeps the atom u = 0
        ([0.0, 2.0, 4.0], [3.0, 1.0, 0.0], [1.1, -0.9], 2.8, (True, True)),
        ([0.0, 2.0, 4.0], [3.0, 1.0, 0.0], [1.1, -0.9], 3.0, (False, False)),
        ([0.0, 2.0, 4.0], [3.0, 1.0, 0.0], [1.1], 3.0, (True, False)),
        ([0.0, 2.0, 4.0], [3.0, 1.0, 0.0], [1.1], 4.0, (True, True)),
    ],
)
def test_feasibility_on_constructed_sets(f, u_vals, halfspaces, target, want):
    f, u_vals = np.asarray(f), np.asarray(u_vals)
    signs = [1.0, -1.0]  # a second bound is the lower side of a slab
    hs = [(s * u_vals, b) for s, b in zip(signs, halfspaces)]
    assert _feasibility(f, hs, target) == want
    assert _feasibility_lp(f, hs, target) == want


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def test_sanov_inactive_constraints_give_p():
    model, pair = four_atom()
    res = sm.sanov_rate(model, pair, -0.5, 10.0)
    assert res.feasible
    assert res.entropy == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.q_star, model.probs, atol=1e-8)


def test_sanov_infeasible_two_point():
    model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
    pair = sm.tabulated_pair(model, [-1.0, 1.0], [-1.0, 1.0])
    res = sm.sanov_rate(model, pair, 0.2, 0.1)
    assert not res.feasible
    assert res.entropy == math.inf
    assert res.fenchel_value == math.inf


def test_sanov_matches_fenchel_on_four_atom():
    model, pair = four_atom()
    res = sm.sanov_rate(model, pair, 0.1, 0.05)
    assert res.feasible
    assert res.gap <= 1e-4
    assert abs(res.primal_entropy - res.dual_entropy) <= 1e-6
    # the minimizer satisfies the moment constraints
    f = np.asarray(pair.f(model.atoms))
    uv = np.asarray(pair.u(model.atoms))
    assert float(f @ res.q_star) >= pair.mu + 0.1 - 1e-8
    assert float(uv @ res.q_star) <= pair.nu + 0.05 + 1e-8
    assert res.q_star.sum() == pytest.approx(1.0, abs=1e-10)


def test_sanov_reports_primal_convergence(monkeypatch):
    model, pair = four_atom()
    res = sm.sanov_rate(model, pair, 0.1, 0.05)
    assert res.primal_converged is True
    assert res.to_dict()["primal_converged"] is True

    def failed_minimize(fun, x0, **kwargs):
        return OptimizeResult(x=x0, success=False, status=9, nit=800, message="iteration limit")

    monkeypatch.setattr(sanov_oracle, "minimize", failed_minimize)
    res = sm.sanov_rate(model, pair, 0.1, 0.05)
    assert res.primal_converged is False
    assert res.to_dict()["primal_converged"] is False


def test_sanov_two_sided_constraint():
    model, pair = four_atom()
    one = sm.sanov_rate(model, pair, 0.1, 0.05, sidedness="one_sided")
    two = sm.sanov_rate(model, pair, 0.1, 0.05, sidedness="two_sided")
    # the two-sided set is smaller, so its entropy can only be larger
    assert two.entropy >= one.entropy - 1e-10


def test_sanov_support_cap():
    atoms = np.arange(65, dtype=float)
    probs = np.ones(65) / 65.0
    model = sm.finite_support(atoms, probs)
    pair = sm.tabulated_pair(model, atoms, atoms)
    with pytest.raises(sm.CapabilityError):
        sm.sanov_rate(model, pair, 0.1, 0.1)
    model_p, pair_p = sm.heavy_tail_pair()
    with pytest.raises(sm.CapabilityError):
        sm.sanov_rate(model_p, pair_p, 0.1, 0.1)


def test_duality_suite_agreement():
    suite = sm.duality_suite(count=25, seed=77)
    assert len(suite) == 25
    for res in suite:
        assert res.feasible
        assert res.gap <= 1e-4
        assert abs(res.primal_entropy - res.dual_entropy) <= 1e-6


def test_sanov_bound_validates_against_simulation():
    # the entropy is a certified per-sample exponent: the screened error
    # frequency at horizon n can exceed e^{-n H} only by sampling noise
    model, pair = four_atom()
    eps, u_thr, n, trials = 0.1, 0.05, 200, 100_000
    res = sm.sanov_rate(model, pair, eps, u_thr)
    bound = math.exp(-n * res.entropy)
    hits = 0
    from screened_mc.streams import SubstreamSampler
    from screened_mc.dist_models import transform_uniforms

    sampler = SubstreamSampler(12345)
    rows = 1000  # trials per sampler call, one per row
    for start in range(0, trials, rows):
        x = transform_uniforms(model, sampler.uniforms(start, n, out=np.empty((rows, n))))
        s_hat = pair.f(x).sum(axis=1) / n
        t_hat = pair.u(x).sum(axis=1) / n
        hits += int(np.sum((s_hat - pair.mu > eps) & (t_hat - pair.nu < u_thr)))
    p_hat = hits / trials
    se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    assert p_hat <= bound + 3.0 * se


def test_heavy_tail_truncation_trend():
    # finite truncations of the heavy-tailed law: the plain excess-mean
    # rate sinks toward zero as the support grows, while the screened
    # rate stays bounded away from zero
    plain = []
    screened = []
    for x_max in (10.0, 100.0, 1000.0):
        grid = np.geomspace(1.0, x_max, 24)
        cdf = 1.0 - grid**-2.5
        probs = np.diff(np.concatenate([[0.0], cdf]))
        probs = np.maximum(probs, 1e-12)
        probs = probs / probs.sum()
        model = sm.finite_support(grid, probs)
        pair = sm.tabulated_pair(model, grid**0.75, grid)
        eps = 0.03
        plain.append(sm.sanov_rate(model, pair, eps, math.inf).entropy)
        screened.append(sm.sanov_rate(model, pair, eps, 0.05).entropy)
    # the unconstrained rate sinks toward zero with the support size
    assert plain[0] > plain[1] > plain[2]
    # ... while the screened rate stays pinned near its positive limit
    assert all(math.isfinite(s) for s in screened)
    assert min(screened) > 0.8 * max(screened)
    assert min(screened) > 1e-3
    # so screening's relative advantage grows without bound
    ratios = [s / p for s, p in zip(screened, plain)]
    assert ratios[0] < ratios[1] < ratios[2]


def test_tilted_dual_stays_in_the_moment_set():
    # the x_max = 100 truncation of the trend test, with a tilt slightly
    # short of the optimum: the projection repair must not hand back a law
    # outside {f.q >= mu + eps, u.q <= nu + u}
    grid = np.geomspace(1.0, 100.0, 24)
    probs = np.maximum(np.diff(np.concatenate([[0.0], 1.0 - grid**-2.5])), 1e-12)
    model = sm.finite_support(grid, probs / probs.sum())
    pair = sm.tabulated_pair(model, grid**0.75, grid)
    eps, u = 0.03, 0.05
    _, (t1, t2) = sm.rate_plus_star_detail(model, pair, eps, u, "lambda_plus")
    f, u_vals = grid**0.75, grid
    q, h = sanov_oracle._tilted_dual(
        model.probs, f, u_vals, (t1 * (1.0 - 1e-6), t2), [(u_vals, pair.nu + u)], pair.mu + eps
    )
    if q is None:
        assert h == math.inf
    else:
        assert f @ q >= pair.mu + eps - 1e-12
        assert u_vals @ q <= pair.nu + u + 1e-12
        assert h == sm.relative_entropy(q, model.probs)
