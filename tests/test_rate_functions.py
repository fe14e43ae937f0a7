import math

import numpy as np
import pytest
from scipy import integrate

import screened_mc as sm
from screened_mc import rate_functions


def two_point():
    model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
    pair = sm.tabulated_pair(model, [-1.0, 1.0], [-1.0, 1.0])
    return model, pair


def four_atom_correlated():
    r2 = math.sqrt(2.0)
    model = sm.finite_support([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
    pair = sm.tabulated_pair(model, [-r2, 0.0, 0.0, r2], [-1.0, -1.0, 1.0, 1.0])
    return model, pair


# ---------------------------------------------------------------------------
# the shared maximizer
# ---------------------------------------------------------------------------


def _objective_1d(value, grad, hess):
    """(value, derivatives) oracles of a 1-d objective given in closed form."""

    def derivatives(t):
        x = float(t[0])
        return value(x), np.array([grad(x)]), np.array([[hess(x)]])

    return lambda t: value(float(t[0])), derivatives


def test_legendre_sup_gaussian_rate():
    eps = 0.7
    value, derivatives = _objective_1d(
        lambda t: t * eps - t**2 / 2.0, lambda t: eps - t, lambda t: -1.0
    )
    value, arg = sm.legendre_sup(value, derivatives, dim=1)
    assert value == pytest.approx(eps**2 / 2.0, rel=1e-9)
    assert float(arg[0]) == pytest.approx(eps, abs=1e-5)


def test_legendre_sup_constant_zero():
    # zero curvature: the singular-Hessian (flat direction) path
    value, derivatives = _objective_1d(lambda t: 0.0, lambda t: 0.0, lambda t: 0.0)
    value, _ = sm.legendre_sup(value, derivatives, dim=1)
    assert value == 0.0


def test_legendre_sup_binary_rate():
    value, derivatives = _objective_1d(
        lambda t: t * 0.5 - math.log(math.cosh(t)),
        lambda t: 0.5 - math.tanh(t),
        lambda t: -(1.0 - math.tanh(t) ** 2),
    )
    value, _ = sm.legendre_sup(value, derivatives, dim=1)
    assert value == pytest.approx(sm.binary_kl(0.75, 0.5), rel=1e-9)


def test_legendre_sup_nan_objective_raises():
    value, derivatives = _objective_1d(lambda t: math.nan, lambda t: math.nan, lambda t: math.nan)
    with pytest.raises(sm.NumericError):
        sm.legendre_sup(value, derivatives, dim=1)


def test_legendre_sup_iteration_cap_raises(monkeypatch):
    # the two-point rate at eps = 1 is log 2, reached only as theta -> inf;
    # Newton then advances about 1/2 per step, so two steps cannot finish
    value, derivatives = _objective_1d(
        lambda t: t - math.log(math.cosh(t)),
        lambda t: 1.0 - math.tanh(t),
        lambda t: -(1.0 - math.tanh(t) ** 2),
    )
    assert sm.legendre_sup(value, derivatives, dim=1)[0] == pytest.approx(math.log(2.0), rel=1e-12)
    monkeypatch.setattr(rate_functions, "NEWTON_MAX_ITER", 2)
    with pytest.raises(sm.NumericError, match="did not converge"):
        sm.legendre_sup(value, derivatives, dim=1)


def _newton_step_eigh(theta, grad, curvature):
    """Reference: the Newton step with eigh on every free block, as it was."""
    free = np.ones(theta.size, dtype=bool)
    while True:
        step = np.zeros_like(theta)
        if free.any():
            w, vecs = np.linalg.eigh(curvature[np.ix_(free, free)])
            flat = w <= rate_functions._FLAT_CURVATURE * max(float(w.max()), 0.0)
            step[free] = vecs @ ((vecs.T @ grad[free]) / np.where(flat, 1.0, w))
        blocked = np.flatnonzero(free & (theta == 0.0) & (step < 0.0))
        if blocked.size == 0:
            return step
        free[blocked[np.argmin(grad[blocked])]] = False


def _newton_step_cases():
    rng = np.random.default_rng(5)
    thetas = [np.zeros(2), np.array([0.0, 0.7]), np.array([1.3, 0.0]), np.array([0.4, 2.0])]
    for _ in range(200):
        atoms = rng.normal(size=(int(rng.integers(1, 6)), 2))
        w = rng.dirichlet(np.ones(len(atoms)))
        centred = atoms - w @ atoms
        covs = [centred.T @ (centred * w[:, None])]  # PSD, singular on one or two atoms
        covs.append(covs[0][0, 0] * np.ones((2, 2)))  # F = U: rank one
        for cov in covs:
            grad = rng.normal(size=2)
            for theta in thetas:
                yield theta, grad, cov
            # 1-d: the top-left entry, with a flat and a curved direction
            for c in (cov[0, 0], 0.0, 1e-300):
                for t in (0.0, 0.5):
                    yield np.array([t]), grad[:1], np.array([[c]])
    # both step coordinates point out; holding the one the gradient pulls out frees the other
    yield np.zeros(2), np.array([0.1, -1.0]), np.array([[1.0, -0.9], [-0.9, 1.0]])


def test_newton_step_matches_the_eigh_reference():
    for theta, grad, cov in _newton_step_cases():
        got = rate_functions._newton_step(theta, grad, cov)
        want = _newton_step_eigh(theta, grad, cov)
        assert got.tobytes() == want.tobytes(), (theta, grad, cov)


# ---------------------------------------------------------------------------
# plain Chernoff rate
# ---------------------------------------------------------------------------


def test_lambda_star_two_point():
    model, pair = two_point()
    assert sm.rate_lambda_star(model, pair, 0.5) == pytest.approx(
        sm.binary_kl(0.75, 0.5), rel=1e-8
    )
    assert sm.rate_lambda_star(model, pair, 0.0) == 0.0
    # at eps = 1 the supremum log 2 is reached only as theta -> inf
    assert sm.rate_lambda_star(model, pair, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)


def test_lambda_star_heavy_tail_is_zero():
    model, pair = sm.heavy_tail_pair()
    assert sm.rate_lambda_star(model, pair, 0.5) == 0.0


# ---------------------------------------------------------------------------
# screened rates
# ---------------------------------------------------------------------------


def test_lambda_plus_inactive_constraint_matches_lambda_star():
    model, pair = two_point()
    lam_star = sm.rate_lambda_star(model, pair, 0.2)
    # u > eps keeps the event feasible; u >= spread makes it inactive
    assert sm.rate_plus_star(model, pair, 0.2, 0.3) == pytest.approx(lam_star, rel=1e-8)
    assert sm.rate_plus_star(model, pair, 0.2, 5.0) == pytest.approx(lam_star, rel=1e-8)


def test_lambda_plus_infeasible_certified_infinite():
    model, pair = two_point()
    assert sm.rate_plus_star(model, pair, 0.2, 0.1) == math.inf


def test_independent_factorization():
    model, pair = sm.counterexample_pair([1.0, 2.0], [0.5, 0.5])
    for eps in (0.05, 0.15, 0.25):
        lam_star = sm.rate_lambda_star(model, pair, eps)
        lam_plus = sm.rate_plus_star(model, pair, eps, 0.05)
        assert lam_plus == pytest.approx(lam_star, abs=1e-9)


def test_heavy_tail_pair_rate_positive_finite_in_feasible_window():
    model, pair = sm.heavy_tail_pair()
    # the event is feasible only while epsilon < (nu + u)^{3/4} - mu
    value = sm.rate_plus_star(model, pair, 0.03, 0.005)
    assert 0.0 < value < math.inf
    norm = sm.normalize_observables(pair, var_f_bound=4.0, mu_lower=1.0)
    eps_n, u_n = norm.map_thresholds(0.03, 0.005)
    rep = sm.bound_thm31_ii(norm, eps_n, u_n)
    assert rep.exponent <= value + 1e-9


def _heavy_tail_log_mgf_by_quad(t1, t2):
    """log E[exp(t1 X^(3/4) - t2 X)] for the density 5/(2 x^(7/2)) on [1, inf)."""
    peak = max(1.0, (0.75 * t1 / t2) ** 4)
    h_max = t1 * peak**0.75 - t2 * peak

    def integrand(x):
        return 2.5 * x**-3.5 * math.exp(t1 * x**0.75 - t2 * x - h_max)

    pieces = [(1.0, peak), (peak, 4.0 * peak + 10.0), (4.0 * peak + 10.0, math.inf)]
    total = sum(
        integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for lo, hi in pieces
        if hi > lo
    )
    return h_max + math.log(total)


@pytest.mark.parametrize("eps, u, floor", [(0.03, 0.005, 0.1882723), (0.02, 0.002, 0.0463703)])
def test_heavy_tail_rate_meets_kkt(monkeypatch, eps, u, floor):
    model, pair = sm.heavy_tail_pair()
    quadratures = []

    def counted(fn):
        def wrapper(*args):
            quadratures.append(fn.__name__)
            return fn(*args)

        return wrapper

    tilted_moments = rate_functions.tilted_moments
    for name in ("log_mgf_signed", "tilted_moments"):
        monkeypatch.setattr(rate_functions, name, counted(getattr(rate_functions, name)))
    value, (t1, t2) = sm.rate_plus_star_detail(model, pair, eps, u)
    assert floor <= value < math.inf
    assert len(quadratures) <= 200
    # KKT at an interior maximizer: the tilted mean hits the thresholds
    lam, mean, _ = tilted_moments(model, pair, t1, -t2)
    assert mean[0] == pytest.approx(pair.mu + eps, rel=1e-9)
    assert mean[1] == pytest.approx(pair.nu + u, rel=1e-9)
    assert lam == pytest.approx(_heavy_tail_log_mgf_by_quad(t1, t2), abs=1e-10)
    assert value == pytest.approx(t1 * (pair.mu + eps) - t2 * (pair.nu + u) - lam, abs=1e-12)


def test_heavy_tail_pair_rate_infinite_beyond_concavity_threshold():
    # averaging cannot raise the mean of x^{3/4} above the 3/4 power of
    # the mean of x, so the screened error event is empty at the
    # worked example's thresholds and the rate is +inf
    model, pair = sm.heavy_tail_pair()
    threshold = (5.0 / 3.0 + 0.005) ** 0.75 - 10.0 / 7.0
    assert threshold == pytest.approx(0.0416, abs=1e-3)
    assert sm.rate_plus_star(model, pair, 0.1, 0.005) == math.inf
    assert sm.rate_plus_star(model, pair, 0.1, 0.005) > 0.0


def test_variant_capability_errors():
    model, pair = sm.heavy_tail_pair()
    with pytest.raises(sm.CapabilityError, match="sum_margin"):
        sm.rate_plus_star(model, pair, 0.05, 0.01, "gamma_plus")
    with pytest.raises(sm.CapabilityError):
        sm.rate_plus_star(model, pair, 0.05, 0.01, "no_such_variant")


def test_rate_monotonicity_on_grids():
    model, pair = four_atom_correlated()
    eps_grid = (0.02, 0.05, 0.1, 0.2)
    vals = [sm.rate_plus_star(model, pair, e, 0.05) for e in eps_grid]
    assert all(a <= b + 1e-10 for a, b in zip(vals, vals[1:]))
    u_grid = (0.01, 0.05, 0.2, 1.0)
    vals_u = [sm.rate_plus_star(model, pair, 0.1, u) for u in u_grid]
    assert all(a >= b - 1e-10 for a, b in zip(vals_u, vals_u[1:]))
    assert all(v >= 0.0 for v in vals + vals_u)


# ---------------------------------------------------------------------------
# two-sided combination
# ---------------------------------------------------------------------------


def test_two_sided_symmetric_model():
    model, pair = sm.counterexample_pair([1.0, 2.0], [0.5, 0.5])
    lam_plus = sm.rate_plus_star(model, pair, 0.1, 0.05, "lambda_plus")
    lam_minus = sm.rate_plus_star(model, pair, 0.1, 0.05, "lambda_minus")
    assert lam_minus == pytest.approx(lam_plus, rel=1e-8)
    got = sm.two_sided_bound(model, pair, 0.1, 0.05, 100)
    assert got == pytest.approx(2.0 * math.exp(-100 * lam_plus), rel=1e-7)


def test_two_sided_vacuous_at_n_zero():
    model, pair = two_point()
    assert sm.two_sided_bound(model, pair, 0.5, 2.0, 0) == 2.0


def test_two_sided_two_point_large_u():
    model, pair = two_point()
    rate = sm.binary_kl(0.75, 0.5)
    got = sm.two_sided_bound(model, pair, 0.5, 2.0, 50)
    assert got == pytest.approx(2.0 * math.exp(-50 * rate), rel=1e-6)


# ---------------------------------------------------------------------------
# the exponent gap
# ---------------------------------------------------------------------------


def test_delta_zero_at_independence_grid():
    model, pair = sm.counterexample_pair([1.0, 2.0], [0.5, 0.5])
    grid = [(e, u) for e in (0.05, 0.1, 0.15, 0.2, 0.25) for u in (0.02, 0.1)]
    assert len(grid) == 10
    for eps, u in grid:
        point = sm.delta_exponent(model, pair, eps, u)
        assert abs(point.delta) <= 1e-6


def test_delta_positive_with_correlation():
    model, pair = four_atom_correlated()
    g = pair.gamma
    assert g == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)
    for eps in (0.02, 0.05, 0.1):
        point = sm.delta_exponent(model, pair, eps, abs(g) * eps / 4.0)
        assert point.delta >= g * g * eps * eps / 8.0


def test_delta_vanishes_for_large_u():
    model, pair = four_atom_correlated()
    point = sm.delta_exponent(model, pair, 0.1, 50.0)
    assert point.delta == 0.0
    assert point.lambda_plus_star == pytest.approx(point.lambda_star, abs=1e-9)


def test_delta_requires_light_tails(monkeypatch):
    def no_solve(*args):
        raise AssertionError("the light-tail check must come before any solve")

    monkeypatch.setattr(rate_functions, "legendre_sup", no_solve)
    model, pair = sm.heavy_tail_pair()
    with pytest.raises(sm.CapabilityError, match="light-tail construct"):
        sm.delta_exponent(model, pair, 0.1, 0.05)


def test_rate_point_contents():
    model, pair = four_atom_correlated()
    point = sm.delta_exponent(model, pair, 0.1, 0.05)
    assert point.epsilon == 0.1 and point.u == 0.05
    assert point.delta >= 0.0
    assert point.lambda_plus_star >= point.lambda_star - 1e-10
    assert point.theta_star is not None and len(point.theta_star) == 2
    doc = point.to_dict()
    assert set(doc) == {
        "epsilon", "u", "lambda_star", "lambda_plus_star",
        "gamma_plus_star", "delta", "theta_star",
    }
