import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog, minimize, nnls

import screened_mc as sm
from screened_mc import sanov_oracle
from screened_mc.errors import NumericError
from screened_mc.exp_harness import build_model, build_pair, parse_config
from screened_mc.sanov_oracle import _classify, _vertices

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
# projections: the start point of the SLSQP reference below
# ---------------------------------------------------------------------------


def _project_constrained_simplex(
    v: np.ndarray, halfspaces: list[tuple[np.ndarray, float]]
) -> np.ndarray | None:
    """Euclidean projection onto {q >= 0, sum q = 1} intersect half-spaces.

    An exact least-distance program (Lawson and Hanson, ch. 23): with
    x = q - v, minimize |x| subject to G x >= h (rows q >= 0, sum q = 1
    as two opposite rows, each half-space as a unit row), whose dual is one
    active-set NNLS on [G^T; h^T].  Coordinate bisection over the
    multipliers left thin-wedge sets unconverged after any fixed number of
    sweeps.  None when the set is empty, or misses a constraint by 1e-9.
    """
    m = len(v)
    ones = np.full(m, 1.0 / math.sqrt(m))
    mass_gap = (1.0 - float(v.sum())) / math.sqrt(m)
    rows = [np.eye(m), ones, -ones]
    rhs = [-v, [mass_gap, -mass_gap]]
    for a, b in halfspaces:
        norm = float(np.linalg.norm(a))
        if norm == 0.0:
            continue  # holds everywhere, or nowhere (checked below)
        rows.append(-a / norm)
        rhs.append([(float(a @ v) - b) / norm])
    g = np.vstack(rows)
    h = np.concatenate(rhs)
    target = np.zeros(m + 1)
    target[m] = 1.0
    try:
        w, _ = nnls(np.vstack([g.T, h]), target)
    except RuntimeError as exc:
        raise NumericError(f"constrained simplex projection: {exc}") from exc
    scale = float(h @ w) - 1.0
    if not scale < 0.0:
        return None
    q = np.maximum(v - (g.T @ w) / scale, 0.0)
    if abs(float(q.sum()) - 1.0) > 1e-9 or any(
        float(a @ q) > b + 1e-9 * (1.0 + abs(b)) for a, b in halfspaces
    ):
        return None
    return q


def test_simplex_projection_known_points():
    # with no half-space and no floor: the plain projection onto the simplex
    assert np.allclose(_project_constrained_simplex(np.array([2.0, 0.0]), []), [1.0, 0.0])
    assert np.allclose(_project_constrained_simplex(np.array([0.6, 0.6]), []), [0.5, 0.5])
    z = _project_constrained_simplex(np.array([-1.0, 0.2, 0.4]), [])
    assert z.min() >= 0.0 and z.sum() == pytest.approx(1.0)
    assert np.allclose(z, [0.0, 0.4, 0.6])


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


def test_constrained_projection_halfspaces_and_empty_set():
    p, f, u, mu, nu = truncation(100.0)
    halfspaces = [(u, nu + 0.05), (-f, -(mu + 0.03))]
    z = _project_constrained_simplex(p, halfspaces)
    assert np.all(z >= 0.0) and z.sum() == pytest.approx(1.0, abs=1e-12)
    for a, b in halfspaces:
        assert float(a @ z) <= b + 1e-12 * (1.0 + abs(b))
    # F cannot exceed its largest atom
    assert _project_constrained_simplex(p, [(-f, -(f.max() + 1.0))]) is None


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
                got = _classify(_vertices(f, halfspaces), target)
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
    assert _classify(_vertices(f, hs), target) == want
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

    # one Newton step from the start cannot certify the gap
    monkeypatch.setattr(sanov_oracle, "_NEWTON_CAP", 1)
    res = sm.sanov_rate(model, pair, 0.1, 0.05)
    assert res.primal_converged is False
    assert res.to_dict()["primal_converged"] is False


@pytest.mark.parametrize("u", [0.0, -0.05, math.nan])
def test_sanov_requires_a_positive_screen(u):
    # p lies strictly inside every screen with u > 0, which the primal's start needs
    model, pair = four_atom()
    with pytest.raises(sm.InputError, match="u > 0"):
        sm.sanov_rate(model, pair, 0.1, u)


# ---------------------------------------------------------------------------
# the primal Newton run against SLSQP
# ---------------------------------------------------------------------------


def _slsqp_primal(p, halfspaces, f, f_floor):
    """Reference: the SLSQP primal the Newton run replaced, as it was run.

    SLSQP from the Euclidean projection of p onto the feasible laws that
    keep 1% of every atom's mass (the plain projection where there are
    none); returns (q, entropy).
    """
    all_hs = halfspaces + [(-f, -f_floor)]
    # q = floor + s y with y on the simplex, s = 1 - sum(floor): the floored
    # projection is the plain one in y, scaled back
    floor = 1e-2 * p
    s = 1.0 - float(floor.sum())
    y = _project_constrained_simplex((p - floor) / s, [(a, (b - a @ floor) / s) for a, b in all_hs])
    q0 = None if y is None else floor + s * y
    if q0 is None:
        q0 = _project_constrained_simplex(p, all_hs)
    q0 = q0 / q0.sum()

    def objective(q):
        safe = np.maximum(q, 1e-300)
        mask = q > 0.0
        return float(np.sum(q[mask] * np.log(safe[mask] / p[mask]))), np.log(safe / p) + 1.0

    neg_a = -np.array([a for a, _ in all_hs])
    res = minimize(
        objective, q0, jac=True, method="SLSQP", bounds=[(0.0, 1.0)] * len(p),
        constraints=[
            {"type": "eq", "fun": lambda q: q.sum() - 1.0, "jac": lambda q: np.ones_like(q)},
            {"type": "ineq", "fun": lambda q: np.array([b - float(a @ q) for a, b in all_hs]),
             "jac": lambda q: neg_a},
        ],
        options={"maxiter": 800, "ftol": 1e-14},
    )
    best = (q0, sm.relative_entropy(q0, p))
    q = np.maximum(res.x, 0.0)
    q = q / q.sum()
    if all(float(a @ q) <= b + 1e-9 * (1.0 + abs(b)) for a, b in all_hs):
        best = min(best, (q, sm.relative_entropy(q, p)), key=lambda c: c[1])
    return best


def test_primal_newton_certifies_every_finite_instance(monkeypatch):
    # every feasible one- and two-sided request of the benchmark's finite
    # instances, seeds 1-30: the run certifies its gap, stays inside every
    # row, meets the dual route and the Fenchel rate, and never reads
    # above SLSQP (which, where it read lower, left the moment set)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import finite_instance

    seen = {"one_sided": 0, "two_sided": 0}
    for seed in range(1, 31):
        for k in range(8):
            cfg = parse_config(finite_instance(seed, k))
            model = build_model(cfg.model)
            pair = build_pair(model, cfg.observables)
            p, f, u_vals = model.probs, pair.f(model.atoms), pair.u(model.atoms)
            f_floor = pair.mu + cfg.screen.epsilon
            for sidedness in seen:
                halfspaces = _screen(u_vals, pair.nu, cfg.screen.u, sidedness)
                vertices = _vertices(f, halfspaces)
                feasible, degenerate = sanov_oracle._classify(vertices, f_floor)
                if not feasible:
                    continue
                seen[sidedness] += 1
                where = (seed, k, sidedness)
                q, h, converged = sanov_oracle._primal_descent(
                    p, halfspaces, f, f_floor, vertices, degenerate
                )
                assert converged, where
                assert h == sm.relative_entropy(q, p)
                rows = halfspaces + [(-f, -f_floor)]
                assert max(float(a @ q) - b for a, b in rows) <= 1e-12, where
                assert abs(q.sum() - 1.0) <= 1e-12, where
                assert h <= _slsqp_primal(p, halfspaces, f, f_floor)[1] + 1e-11, where
                res = sm.sanov_rate(model, pair, cfg.screen.epsilon, cfg.screen.u, sidedness)
                assert res.primal_entropy == h and res.primal_converged
                assert abs(h - res.dual_entropy) <= 1e-12 * (1.0 + h), where
                assert res.gap <= 1e-12 * (1.0 + h), where
    assert seen == {"one_sided": 240, "two_sided": 229}


def test_primal_newton_on_a_point_mass_face():
    # no screen: only atom 2 reaches the target, so Q is its point mass
    model = sm.finite_support([0.0, 1.0, 2.0], [0.5, 0.3, 0.2])
    pair = sm.tabulated_pair(model, [0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    res = sm.sanov_rate(model, pair, 2.0 - pair.mu, math.inf)
    assert res.feasible and res.degenerate and res.primal_converged
    assert res.primal_entropy == pytest.approx(-math.log(0.2), rel=1e-15)


@pytest.mark.parametrize("sidedness", ["one_sided", "two_sided"])
def test_primal_newton_on_a_two_atom_boundary_face(sidedness):
    # the screen u.q <= 0 lets mean F reach 1/2 only at (1/2, 1/2, 0), the
    # mixture of atoms 0 and 1 on the boundary; atom 2 reaches only 1/3
    model = sm.finite_support([0.0, 1.0, 2.0], [0.2, 0.5, 0.3])
    pair = sm.tabulated_pair(model, [1.0, 0.0, 0.0], [1.0, -1.0, -0.5])
    res = sm.sanov_rate(model, pair, 0.5 - pair.mu, -pair.nu, sidedness)
    assert res.feasible and res.degenerate and res.primal_converged
    exact = 0.5 * math.log(2.5)
    assert res.primal_entropy == pytest.approx(exact, rel=1e-15)
    # the reported entropy is the certified primal's, not a dual reading below the minimum
    assert res.entropy >= exact - 1e-14 * (1.0 + exact)


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
    # short of the optimum: the tilted law either lies in
    # {f.q >= mu + eps, u.q <= nu + u} or gives no dual point at all
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
    # at the optimum itself the tilted law lies inside both rows
    q, h = sanov_oracle._tilted_dual(
        model.probs, f, u_vals, (t1, t2), [(u_vals, pair.nu + u)], pair.mu + eps
    )
    assert q is not None
    assert f @ q >= pair.mu + eps - 1e-12
    assert u_vals @ q <= pair.nu + u + 1e-12
    assert h == sm.relative_entropy(q, model.probs)


def test_sanov_rate_rejects_an_unknown_sidedness(monkeypatch):
    # a misspelt side used to solve the one-sided set without a word
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import finite_instance

    cfg = parse_config(finite_instance(11, 6))
    model = build_model(cfg.model)
    pair = build_pair(model, cfg.observables)
    eps, u = cfg.screen.epsilon, cfg.screen.u
    one = sm.sanov_rate(model, pair, eps, u, "one_sided").entropy
    two = sm.sanov_rate(model, pair, eps, u, "two_sided").entropy
    assert one == pytest.approx(0.6959655778938211, rel=1e-12)
    assert two == pytest.approx(0.8801549069826822, rel=1e-12)
    for wrong in ("two-sided", "both", ""):
        with pytest.raises(sm.ConfigError, match="sidedness must be one of"):
            sm.sanov_rate(model, pair, eps, u, wrong)
