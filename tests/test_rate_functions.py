import math
import pathlib

import numpy as np
import pytest
from scipy import integrate

import screened_mc as sm
from screened_mc import dist_models, rate_functions
from screened_mc.exp_harness import build_model, build_pair, compute_bounds, parse_config

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


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


def test_legendre_sup_solves_in_one_or_two_dimensions():
    value, derivatives = _objective_1d(lambda t: 0.0, lambda t: 0.0, lambda t: 0.0)
    with pytest.raises(sm.InputError, match="1 or 2 dimensions, not 3"):
        sm.legendre_sup(value, derivatives, dim=3)


def test_legendre_sup_nan_objective_raises():
    value, derivatives = _objective_1d(lambda t: math.nan, lambda t: math.nan, lambda t: math.nan)
    with pytest.raises(sm.NumericError):
        sm.legendre_sup(value, derivatives, dim=1)


@pytest.mark.parametrize(
    "oracles, message",
    [
        # a gradient that never falls: the polished step stalls on its second pass
        (
            (lambda t: 0.0, lambda t: 1e-6, lambda t: -1e6),
            "Newton ascent stalled at (1e-12,) (grad=(1e-06,))",
        ),
        ((lambda t: math.nan,) * 3, "objective or its derivatives not finite at (0.0,)"),
    ],
    ids=["stalled", "not_finite"],
)
def test_legendre_sup_failures_print_plain_floats(oracles, message):
    value, derivatives = _objective_1d(*oracles)
    with pytest.raises(sm.NumericError) as info:
        sm.legendre_sup(value, derivatives, dim=1)
    assert str(info.value) == message


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


# ---------------------------------------------------------------------------
# the numpy ascent, kept as the reference for the plain-float one
# ---------------------------------------------------------------------------


def _newton_step_numpy(theta, grad, curvature):
    """Reference: the Newton step on arrays, eigh on a 2x2 free block."""
    free = list(range(theta.size))
    while True:
        step = np.zeros_like(theta)
        if len(free) == 1:
            (i,) = free
            c = float(curvature[i, i])
            step[i] = grad[i] / c if c > 0.0 else grad[i]
        elif free:
            sub = curvature if len(free) == theta.size else curvature[np.ix_(free, free)]
            w, vecs = np.linalg.eigh(sub)
            flat = w <= rate_functions._FLAT_CURVATURE * max(float(w.max()), 0.0)
            step[free] = vecs @ ((vecs.T @ grad[free]) / np.where(flat, 1.0, w))
        blocked = [i for i in free if theta[i] == 0.0 and step[i] < 0.0]
        if not blocked:
            return step
        free.remove(min(blocked, key=grad.__getitem__))


def _plain(v):
    return tuple(map(float, v))


def _line_search_numpy(value, theta, v, step, slope, floor, last=False):
    """Reference: the Armijo search of ``legendre_sup`` on arrays."""
    out = np.flatnonzero(step < 0.0)
    cut = theta[out] / -step[out]
    limit = float(cut.min(initial=math.inf))

    def trial(alpha):
        point = np.maximum(theta + alpha * step, 0.0)
        point[out[cut <= alpha]] = 0.0
        fv = value(point)
        if math.isnan(fv):
            raise sm.NumericError(f"objective evaluated to NaN at {_plain(point)}")
        return fv, point

    alpha = min(1.0, limit)
    fv, point = trial(alpha)
    if last or fv >= v + 0.75 * alpha * slope:
        while not last and alpha < limit and float(point.max()) <= rate_functions.THETA_MAX_CERTIFY:
            alpha = min(2.0 * alpha, limit)
            longer = trial(alpha)
            if longer[0] <= fv:
                break
            fv, point = longer
        return (point if fv > -math.inf else None), fv
    reached = fv
    while fv < v + rate_functions._ARMIJO * alpha * slope:
        alpha *= 0.5
        if alpha * slope <= floor:
            return None, reached
        fv, point = trial(alpha)
        reached = max(reached, fv)
    return point, fv


def _legendre_sup_numpy(value, derivatives, dim):
    """Reference: ``legendre_sup`` on numpy arrays, rule for rule."""
    rf = rate_functions
    theta, polished, last_kkt = np.zeros(dim), False, math.inf
    for _ in range(rf.NEWTON_MAX_ITER):
        v, grad, hess = derivatives(theta)
        if not (np.isfinite(v) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            raise sm.NumericError(f"objective or its derivatives not finite at {_plain(theta)}")
        step = _newton_step_numpy(theta, grad, -hess)
        decrement, scale = float(grad @ step), 1.0 + abs(v)
        point, floor = None, rf._RESOLUTION * scale
        if decrement > floor:
            point, reached = _line_search_numpy(value, theta, v, step, decrement, floor)
            held = (theta == 0.0) & (step == 0.0) & (grad < 0.0)
            if point is None and reached == -math.inf and held.any():
                step[held] = decrement / (2.0 * held.sum() * -grad[held])
                decrement *= 0.5
                point, _ = _line_search_numpy(value, theta, v, step, decrement, floor)
                reached = -math.inf
            if point is None and reached == -math.inf:
                return v, theta
            if point is None and decrement > rf._DECREMENT_NOISE * scale:
                raise sm.NumericError(f"no Newton ascent from {_plain(theta)} ({decrement=:.3g})")
        if point is None:
            pg = np.where(theta > 0.0, grad, np.maximum(grad, 0.0))
            kkt = float(np.abs(pg).max()) * (1.0 + float(theta.max()))
            if polished and kkt <= rf._KKT_TOL * scale:
                return v, theta
            if kkt >= last_kkt:
                raise sm.NumericError(f"Newton ascent stalled at {_plain(theta)} (grad={_plain(grad)})")
            point, _ = _line_search_numpy(value, theta, v, step, decrement, floor, last=True)
            if point is None:
                raise sm.NumericError(f"a converged Newton step leaves the domain at {_plain(theta)}")
            polished, last_kkt = True, kkt
        else:
            polished, last_kkt = False, math.inf
        if float(point.max()) > rf.THETA_MAX_CERTIFY:
            return math.inf, point
        theta = point
    raise sm.NumericError(f"Newton ascent did not converge in {rf.NEWTON_MAX_ITER} iterations")


def _tilt_sup_numpy(model, pair, signs, c):
    """Reference: ``_tilt_sup`` on arrays, through the same module-level oracles."""
    dim = len(c)
    s, c = np.asarray(signs[:dim], dtype=float), np.asarray(c, dtype=float)
    ss = np.outer(s, s)

    def coefficients(theta):
        return float(s[0] * theta[0]), float(s[1] * theta[1]) if dim == 2 else 0.0

    def value(theta):
        lam = rate_functions.log_mgf_signed(model, pair, *coefficients(theta))
        return -math.inf if math.isinf(lam) else float(theta @ c) - lam

    def derivatives(theta):
        lam, mean, cov = rate_functions.tilted_moments(model, pair, *coefficients(theta))
        return float(theta @ c) - lam, c - s * mean[:dim], -cov[:dim, :dim] * ss

    return _legendre_sup_numpy(value, derivatives, dim)


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
    # the same held (zero) coordinates; bit for bit where at most one coordinate
    # is free (g/c on both sides), and within 1e-12 of the largest component where
    # the Jacobi rotation stands in for eigh on a free 2x2 block
    cases = 0
    for theta, grad, cov in _newton_step_cases():
        got = rate_functions._newton_step(tuple(theta.tolist()), tuple(grad.tolist()), cov.tolist())
        want = _newton_step_numpy(theta, grad, cov)
        assert [x == 0.0 for x in got] == [x == 0.0 for x in want], (theta, grad, cov)
        if theta.size == 1 or 0.0 in want:
            assert np.array(got).tobytes() == want.tobytes(), (theta, grad, cov)
        else:
            assert np.abs(np.array(got) - want).max() <= 1e-12 * np.abs(want).max(), (theta, grad, cov)
        cases += 1
    assert cases == 4001


def _counted_oracles(monkeypatch):
    """Count the ascent's oracle calls, made through ``rate_functions`` by name."""
    calls = []
    for name in ("log_mgf_signed", "tilted_moments"):
        def counted(*args, _real=getattr(rate_functions, name)):
            calls.append(None)
            return _real(*args)

        monkeypatch.setattr(rate_functions, name, counted)
    return calls


def _solve(tilt_sup, calls, model, pair, signs, c):
    """(outcome, value, theta, oracle calls) of one supremum."""
    start = len(calls)
    try:
        value, theta = tilt_sup(model, pair, signs, c)
    except sm.ScreenedMcError as exc:
        return type(exc).__name__, None, None, len(calls) - start
    return ("inf" if value == math.inf else "finite"), value, theta, len(calls) - start


def _assert_matches_the_numpy_ascent(calls, model, pair, signs, c, where):
    got = _solve(rate_functions._tilt_sup, calls, model, pair, signs, c)
    want = _solve(_tilt_sup_numpy, calls, model, pair, signs, c)
    assert (got[0], got[3]) == (want[0], want[3]), where
    if want[0] == "finite":
        assert abs(got[1] - want[1]) <= 1e-12 * (1.0 + abs(want[1])), where
    if want[0] in ("finite", "inf"):
        assert got[2].dtype == np.float64
        assert np.abs(got[2] - want[2]).max() <= 1e-9 * (1.0 + np.abs(want[2]).max()), where
    return want[0]


def test_ascent_matches_the_numpy_reference_on_finite_instances(monkeypatch):
    # lambda*, lambda+ and gamma+ on 240 random finite instances: the same outcome
    # and oracle calls, values within 1e-12 (1 + |v|), tilts within 1e-9 (1 + |theta|)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import finite_instance

    calls, outcomes = _counted_oracles(monkeypatch), []
    for seed in range(1, 31):
        for k in range(1, 9):
            cfg = parse_config(finite_instance(seed, k))
            model = build_model(cfg.model)
            pair = build_pair(model, cfg.observables)
            eps, u = cfg.screen.epsilon, cfg.screen.u
            for signs, c in (
                ((1.0,), (pair.mu + eps,)),
                ((1.0, -1.0), (pair.mu + eps, -pair.nu - u)),
                ((1.0, 1.0), (pair.mu + eps, pair.nu - u)),
            ):
                where = (seed, k, signs)
                outcomes.append(_assert_matches_the_numpy_ascent(calls, model, pair, signs, c, where))
    assert len(outcomes) == 720


@pytest.mark.parametrize("eps, u", [(0.03, 0.005), (0.02, 0.002)])
def test_ascent_matches_the_numpy_reference_on_the_heavy_tail(monkeypatch, eps, u):
    model, pair = sm.heavy_tail_pair()
    calls = _counted_oracles(monkeypatch)
    c = (pair.mu + eps, -pair.nu - u)
    assert _assert_matches_the_numpy_ascent(calls, model, pair, (1.0, -1.0), c, (eps, u)) == "finite"


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


def test_lambda_star_at_max_f_stays_finite():
    # the closed event {mean F >= 2} holds the law on the top atom: log 1/p(2) = log 4
    model = sm.finite_support([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    pair = sm.tabulated_pair(model, [0.0, 1.0, 2.0], [1.0, -1.0, 0.5])
    assert pair.mu == 1.0
    assert sm.rate_lambda_star(model, pair, 1.0) == pytest.approx(math.log(4.0), rel=1e-12)
    assert rate_functions._lambda_star_detail(model, pair, 1.0 + 1e-9) == (math.inf, math.inf)


def test_an_empty_f_side_is_certified_at_beta_zero_whoever_asks(monkeypatch):
    # finite_instance(2001, 6) just past max F: the margin grid's least beta,
    # 2^-30, leaves lambda+'s gap positive, and with no plain rate handed in
    # its ascent ran to theta = 2^60 through 79 log-MGF evaluations; the
    # margin table at beta = 0, max F exactly, certifies the plain rate and
    # every screened variant with s_f = +1 alike
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from test_cli import _instance_doc_just_past_max_f
    from workloads import finite_instance

    for s in range(1, 60):
        for k in range(1, 9):
            cfg = parse_config(finite_instance(s, k))
            model = build_model(cfg.model)
            pair = build_pair(model, cfg.observables)
            assert pair.margin(0.0) == pair.f(model.atoms).max(), (s, k)
    cfg = parse_config(_instance_doc_just_past_max_f())
    model = build_model(cfg.model)
    pair = build_pair(model, cfg.observables)
    eps, u = cfg.screen.epsilon, cfg.screen.u
    assert pair.margin(0.0) < pair.mu + eps
    calls = []
    evaluate = dist_models._log_mgf_eval
    monkeypatch.setattr(dist_models, "_log_mgf_eval", lambda *args: calls.append(args) or evaluate(*args))
    inf = math.inf
    assert rate_functions._lambda_star_detail(model, pair, eps) == (inf, inf)
    for variant in ("lambda_plus", "gamma_plus"):
        assert rate_functions.rate_plus_star_detail(model, pair, eps, u, variant) == (inf, (inf, inf))
    entry = compute_bounds(model, pair, cfg.observables, eps, u, cfg.screen.n)[-1]
    assert (entry.report.method, entry.report.exponent) == ("chernoff_rate", inf)
    assert calls == []


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
    with pytest.raises(sm.CapabilityError, match=r"sign pattern \(1, 1\)"):
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


# ---------------------------------------------------------------------------
# the slack screen, decided at the plain tilt
# ---------------------------------------------------------------------------


def _pinned_finite_cases(monkeypatch):
    """(name, model, pair, epsilon, u) of every pinned finite config, criterion 7's
    two pairs, and finite_instance seeds 1-30 x 1-8."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from test_cli import _REPORT_CONFIGS, _VALIDATE_CONFIGS
    from workloads import finite_instance

    docs = {**_REPORT_CONFIGS, **_VALIDATE_CONFIGS}
    docs = {name: doc for name, doc in docs.items() if doc["model"]["kind"] == "finite_support"}
    docs.update({f"instance({s}, {k})": finite_instance(s, k) for s in range(1, 31) for k in range(1, 9)})
    for name, doc in docs.items():
        cfg = parse_config(doc)
        model = build_model(cfg.model)
        yield name, model, build_pair(model, cfg.observables), cfg.screen.epsilon, cfg.screen.u
    model, pair = sm.counterexample_pair([1.0, 2.0], [0.5, 0.5])
    for eps in (0.05, 0.1, 0.15, 0.2, 0.25):
        for u in (0.02, 0.1):
            yield f"independent({eps}, {u})", model, pair, eps, u
    model, pair = four_atom_correlated()
    for eps in (0.02, 0.05, 0.1):
        yield f"correlated({eps})", model, pair, eps, abs(pair.gamma) * eps / 4.0


def test_slack_screen_at_the_plain_tilt_matches_the_2d_ascent(monkeypatch):
    # the reference is the 2-d ascent from theta = 0, run with no plain rate
    solve = rate_functions.legendre_sup
    paths = []  # the theta2 of every point where the running ascent took derivatives

    def traced(value, derivatives, dim=2):
        path = []
        paths.append(path)

        def seen(theta):
            path.append(theta[-1] if dim == 2 else 0.0)
            return derivatives(theta)

        return solve(value, seen, dim)

    monkeypatch.setattr(rate_functions, "legendre_sup", traced)
    fired = kept = 0
    for name, model, pair, eps, u in _pinned_finite_cases(monkeypatch):
        plain = rate_functions._lambda_star_detail(model, pair, eps)
        reference = {}
        for variant in ("lambda_plus", "gamma_plus"):
            paths.clear()
            want, want_theta = sm.rate_plus_star_detail(model, pair, eps, u, variant)
            reference[variant] = want
            path = paths[0] if paths else None
            paths.clear()
            got, got_theta = sm.rate_plus_star_detail(model, pair, eps, u, variant, plain)
            if path is None or paths:  # the certificate decided +inf, or the screen binds
                assert (got, got_theta) == (want, want_theta), (name, variant)
                continue
            fired += 1
            assert want_theta[1] == 0.0 and got_theta == (plain[1], 0.0), (name, variant)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (name, variant)
            if not any(path):
                kept += 1
                assert got == want and got_theta == want_theta, (name, variant)
        # two-sided sanov_rate hands lambda_plus's optimum to gamma_plus
        result = sm.sanov_rate(model, pair, eps, u, "two_sided")
        best = max(reference.values())
        assert result.fenchel_value == pytest.approx(best, rel=1e-14, abs=0.0), name
    assert fired > 240 and kept > 0.9 * fired


def test_slack_screen_shortcut_never_fires_on_the_heavy_tail(monkeypatch):
    calls = []
    solve = rate_functions.legendre_sup

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(rate_functions, "legendre_sup", counted)
    pareto = dist_models.pareto_like()
    power = dist_models.pair_from_callables(pareto, dist_models.Power(0.5), dist_models.Identity())
    for model, pair in (sm.heavy_tail_pair(), (pareto, power)):
        plain = rate_functions._lambda_star_detail(model, pair, 0.03)
        assert plain[0] == 0.0  # F has no positive exponential moment
        want = sm.rate_plus_star_detail(model, pair, 0.03, 0.005)
        calls.clear()
        assert sm.rate_plus_star_detail(model, pair, 0.03, 0.005, "lambda_plus", plain) == want
        assert len(calls) == 1
