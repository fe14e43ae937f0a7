import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import screened_mc as sm
from screened_mc import bound_engine
from screened_mc._optim import grid_min
from screened_mc.bound_engine import (
    REFERENCE_ALPHA_III,
    REFERENCE_ALPHA_IV,
    thm31_ii_exponent_at,
)

SQRT5 = math.sqrt(5.0)


@pytest.fixture(scope="module")
def normalized_heavy_tail():
    model, pair = sm.heavy_tail_pair()
    return model, sm.normalize_observables(pair, var_f_bound=4.0, mu_lower=1.0)


def _finite_normalized_pair():
    model = sm.finite_support([1.0, 2.0, 3.0], [0.25, 0.5, 0.25])
    return sm.normalize_observables(sm.tabulated_pair(model, [2.0, -1.0, 3.0], [1.0, 4.0, 6.0]))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalized_heavy_tail_callables(normalized_heavy_tail):
    _, norm = normalized_heavy_tail
    assert float(norm.u(1.0)) == pytest.approx(3.0 / (2.0 * SQRT5) - SQRT5 / 2.0, rel=1e-14)
    assert float(norm.f(1.0)) == pytest.approx((1.0 - 10.0 / 7.0) / 2.0, rel=1e-14)
    assert norm.f_scale == 2.0
    assert norm.u_scale == pytest.approx(2.0 * SQRT5 / 3.0, rel=1e-15)
    assert norm.gamma == pytest.approx(SQRT5 / 7.0, rel=1e-13)


def test_variance_bound_route_gives_scale_two():
    # second moment of F is at most the second moment of U (5), so the
    # centered variance bound is 4 and the scale 2 suffices
    model, pair = sm.heavy_tail_pair()
    assert pair.var_u + pair.nu**2 == pytest.approx(5.0, rel=1e-12)
    norm = sm.normalize_observables(pair, var_f_bound=4.0, mu_lower=1.0)
    assert norm.f_scale == pytest.approx(math.sqrt(4.0))
    assert norm.var_f <= 1.0


def test_already_normalized_is_identity():
    model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
    pair = sm.tabulated_pair(model, [-1.0, 1.0], [-1.0, 1.0])
    norm = sm.normalize_observables(pair)
    assert norm.normalized
    assert norm.f is pair.f and norm.u is pair.u
    again = sm.normalize_observables(norm)
    assert again is norm


def test_degenerate_screen_rejected():
    model = sm.finite_support([1.0, 2.0], [0.5, 0.5])
    pair = sm.tabulated_pair(model, [0.0, 1.0], [3.0, 3.0])
    with pytest.raises(sm.DegenerateScreenError):
        sm.normalize_observables(pair)


def test_normalize_finite_pair_margins_exact():
    model = sm.finite_support([1.0, 2.0, 3.0], [0.25, 0.5, 0.25])
    pair = sm.tabulated_pair(model, [2.0, -1.0, 3.0], [1.0, 4.0, 6.0])
    norm = sm.normalize_observables(pair)
    f_n = np.asarray(norm.f(model.atoms))
    u_n = np.asarray(norm.u(model.atoms))
    for beta in (0.1, 0.7, 2.0, 9.0):
        assert sm.margin(norm, beta) == pytest.approx(float((f_n - beta * u_n).max()), rel=1e-12)


# ---------------------------------------------------------------------------
# margin oracle
# ---------------------------------------------------------------------------


def test_margin_closed_form_values(normalized_heavy_tail):
    _, norm = normalized_heavy_tail
    assert sm.margin(norm, SQRT5 / 4.0) == pytest.approx(0.25, rel=1e-12)
    assert sm.margin(norm, 10.0) == pytest.approx(2.0 * SQRT5, rel=1e-12)
    interior = 5.0 * SQRT5 / 512.0 / 0.1**3 + (SQRT5 * 0.1 - 1.0) / 2.0
    assert interior == pytest.approx(21.4484, abs=1e-3)
    assert sm.margin(norm, 0.1) == pytest.approx(interior, rel=1e-12)
    with pytest.raises(sm.DomainError):
        sm.margin(norm, 0.0)
    with pytest.raises(sm.DomainError):
        sm.margin(norm, -1.0)


def test_margin_matches_brute_force_maximization(normalized_heavy_tail):
    _, norm = normalized_heavy_tail
    x = np.geomspace(1.0, 1e8, 4_000_001)
    for beta in (0.05, 0.2, SQRT5 / 4.0, 1.0, 10.0):
        brute = float((norm.f(x) - beta * norm.u(x)).max())
        # the oracle replaces the unknown mean by its lower bound, so it
        # sits above the true supremum by at most (mu - 1)/2
        assert sm.margin(norm, beta) >= brute - 1e-9
        assert sm.margin(norm, beta) <= brute + (10.0 / 7.0 - 1.0) / 2.0 + 1e-9


def test_margin_on_arrays_matches_scalar_calls(normalized_heavy_tail):
    # the normalized margins are TransformedMargin over the raw oracles
    _, norm = normalized_heavy_tail
    finite = _finite_normalized_pair()
    betas = np.concatenate([np.geomspace(1e-4, 20.0, 2001), [SQRT5 / 4.0]])
    for oracle in (norm.margin, norm.sum_lower_margin, finite.margin, finite.sum_lower_margin):
        assert isinstance(oracle, bound_engine.TransformedMargin)
        got = oracle(betas)
        assert np.array_equal(got, np.array([oracle(b) for b in betas.tolist()]))
    assert np.array_equal(sm.margin(norm, betas), norm.margin(betas))


def test_margin_rejects_arrays_with_a_nonpositive_beta(normalized_heavy_tail):
    _, norm = normalized_heavy_tail
    for bad in ([0.1, 0.0], [0.1, -1.0], [0.1, math.nan]):
        with pytest.raises(sm.DomainError):
            sm.margin(norm, np.array(bad))
    with pytest.raises(sm.DomainError):
        sm.margin(norm, math.nan)


def test_margin_interior_maximizer_location():
    # d/dx [x^{3/4}/2 - 3 beta x / (2 sqrt5)] = 0 at x* = (sqrt5/(4 beta))^4
    beta = 0.1
    x_star = (SQRT5 / (4.0 * beta)) ** 4
    assert x_star == pytest.approx(976.5625, rel=1e-12)


# ---------------------------------------------------------------------------
# zero event
# ---------------------------------------------------------------------------


def test_zero_event_for_identical_observables():
    model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
    pair = sm.tabulated_pair(model, [-1.0, 1.0], [-1.0, 1.0])
    assert sm.zero_event_check(pair, 1.0, 0.5) is True


@pytest.mark.parametrize("epsilon, u", [(math.inf, 0.5), (1.0, math.inf), (math.nan, 0.5), (1.0, math.nan)])
def test_zero_event_check_rejects_non_finite_thresholds(epsilon, u):
    model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
    pair = sm.tabulated_pair(model, [-1.0, 1.0], [-1.0, 1.0])
    with pytest.raises(sm.DomainError):
        sm.zero_event_check(pair, epsilon, u)


def test_zero_event_false_for_heavy_tail_pair_at_small_epsilon(normalized_heavy_tail):
    _, norm = normalized_heavy_tail
    # the margin never drops below 1/4, so epsilon = 0.1 cannot certify
    assert sm.zero_event_check(norm, 0.1, 0.005) is False
    assert sm.zero_event_check(norm, 0.1, 0.2) is False


def test_zero_event_fires_at_large_epsilon(normalized_heavy_tail):
    # at the raw thresholds (0.5, 0.025) the screened error event is
    # impossible even under the conservative margin
    _, norm = normalized_heavy_tail
    eps_n, u_n = norm.map_thresholds(0.5, 0.025)
    assert sm.zero_event_check(norm, eps_n, u_n) is True


# ---------------------------------------------------------------------------
# helper inequalities
# ---------------------------------------------------------------------------


def test_bennett_trivial_and_symmetric():
    assert sm.bennett_log_mgf_bound(0.0, 1.0, 2.0) == 0.0
    got = sm.bennett_log_mgf_bound(1.0, 1.0, 1.0)
    assert got == pytest.approx(math.log(math.cosh(1.0)), rel=1e-12)
    with pytest.raises(sm.DomainError):
        sm.bennett_log_mgf_bound(1.0, 0.0, 1.0)
    with pytest.raises(sm.DomainError):
        sm.bennett_log_mgf_bound(1.0, 1.0, -1.0)


@pytest.mark.parametrize(
    "values,probs",
    [
        ([-1.0, 1.0], [0.5, 0.5]),
        ([-0.25, 1.0], [0.8, 0.2]),
        ([-2.0, -1.0, 0.5, 3.0], [0.3, 0.3, 0.2, 0.2]),
        ([-0.1, -0.05, 2.0], [0.5, 0.45, 0.05]),
    ],
)
def test_bennett_dominates_exact_log_mgf(values, probs):
    y = np.asarray(values) - float(np.asarray(probs) @ np.asarray(values))
    p = np.asarray(probs)
    m = float(y.max())
    sigma2 = float(p @ y**2)
    for theta in np.linspace(0.0, 10.0, 200):
        exact = math.log(float(p @ np.exp(theta * y)))
        assert sm.bennett_log_mgf_bound(theta, m, sigma2) >= exact - 1e-12


def test_binary_kl_values_and_boundary():
    assert sm.binary_kl(0.5, 0.5) == 0.0
    direct = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert sm.binary_kl(0.75, 0.5) == pytest.approx(direct, rel=1e-14)
    assert direct == pytest.approx(0.130812, abs=1e-6)
    assert sm.binary_kl(0.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-14)
    assert sm.binary_kl(1.0, 0.25) == pytest.approx(math.log(4.0), rel=1e-14)
    with pytest.raises(sm.DomainError):
        sm.binary_kl(0.5, 0.0)
    with pytest.raises(sm.DomainError):
        sm.binary_kl(-0.1, 0.5)


def test_kl_dominates_pinsker_on_grid():
    ys = np.linspace(0.005, 0.995, 100)
    zs = np.linspace(0.005, 0.995, 100)
    for y in ys:
        for z in zs:
            assert sm.binary_kl(float(y), float(z)) >= sm.pinsker_lower(float(y), float(z)) - 1e-12


@given(
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
@settings(max_examples=300, deadline=None)
def test_kl_pinsker_property(y, z):
    assert sm.binary_kl(y, z) >= sm.pinsker_lower(y, z) - 1e-12


# ---------------------------------------------------------------------------
# the explicit bounds
# ---------------------------------------------------------------------------


def test_thm31_ii_reference_alpha_values(normalized_heavy_tail):
    _, norm = normalized_heavy_tail
    eps, u = 0.2, 0.01  # raw thresholds with u = eps/20
    eps_n, u_n = norm.map_thresholds(eps, u)
    worst = sm.with_gamma(norm, -1.0)
    got = thm31_ii_exponent_at(worst, eps_n, u_n, REFERENCE_ALPHA_III) / eps**2
    assert got == pytest.approx(0.005054, abs=1e-5)
    got_iv = thm31_ii_exponent_at(norm, eps_n, u_n, REFERENCE_ALPHA_IV) / eps**2
    assert got_iv == pytest.approx(0.036642, abs=1e-5)


def _thm31_ii_by_scalar_loop(pair, epsilon, u):
    """The alpha grid evaluated one scalar call at a time (the reference)."""

    def neg_exponent(alpha):
        return -thm31_ii_exponent_at(pair, epsilon, u, alpha)

    alphas = np.arange(1e-4, 1.0, 1e-4)
    a_star, neg = grid_min(neg_exponent, alphas, [neg_exponent(float(a)) for a in alphas])
    return -neg, a_star


def test_thm31_ii_array_grid_matches_scalar_loop(normalized_heavy_tail):
    _, norm = normalized_heavy_tail
    cases = [(pair, *norm.map_thresholds(eps, u))
             for pair in (norm, sm.with_gamma(norm, -1.0))
             for eps, u in ((0.2, 0.005), (0.05, 0.001))]
    cases.append((_finite_normalized_pair(), 0.5, 0.1))
    for pair, eps_n, u_n in cases:
        rep = sm.bound_thm31_ii(pair, eps_n, u_n)
        assert rep.method == "thm31_ii" and 0.0 < rep.exponent < math.inf
        assert (rep.exponent, rep.alpha_star) == _thm31_ii_by_scalar_loop(pair, eps_n, u_n)


def test_thm31_ii_exponent_at_on_arrays(normalized_heavy_tail):
    # F = U: m(beta) = |1 - beta| is 0 at beta = 1, i.e. at alpha = 0.5
    model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
    same = sm.tabulated_pair(model, [-1.0, 1.0], [-1.0, 1.0])
    alphas = np.array([0.25, 0.5, 0.75])
    got = thm31_ii_exponent_at(same, 1.0, 0.5, alphas)
    scalars = [thm31_ii_exponent_at(same, 1.0, 0.5, a) for a in alphas.tolist()]
    assert all(type(v) is float for v in scalars) and scalars[1] == math.inf
    assert np.array_equal(got, np.array(scalars))
    with pytest.raises(sm.DomainError):
        thm31_ii_exponent_at(same, 1.0, 0.5, np.array([0.5, 1.0]))
    # a surrogate gamma far above 1 drives the Bennett denominator negative
    _, norm = normalized_heavy_tail
    bogus = sm.with_gamma(norm, 50.0)
    with pytest.raises(sm.NumericError):
        thm31_ii_exponent_at(bogus, 0.1, 0.1, 0.5)
    with pytest.raises(sm.NumericError):
        thm31_ii_exponent_at(bogus, 0.1, 0.1, np.array([0.001, 0.5]))


def test_thm31_ii_takes_one_margin_call_per_grid(normalized_heavy_tail, monkeypatch):
    _, norm = normalized_heavy_tail
    eps_n, u_n = norm.map_thresholds(0.2, 0.005)
    calls = []

    def counted(pair, beta):
        calls.append(isinstance(beta, np.ndarray))
        return sm.margin(pair, beta)

    monkeypatch.setattr(bound_engine, "margin", counted)
    rep = bound_engine.bound_thm31_ii(norm, eps_n, u_n)
    assert rep.method == "thm31_ii"
    # one array call for the certificate's beta grid, one for the alpha grid;
    # only the two golden refinements call with floats
    assert calls.count(True) == 2
    assert 0 < calls.count(False) < 200


def test_thm31_ii_zero_event_precedence():
    model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
    pair = sm.tabulated_pair(model, [-1.0, 1.0], [-1.0, 1.0])
    rep = sm.bound_thm31_ii(pair, 1.0, 0.4)
    assert rep.zero_event and rep.method == "zero_event"
    assert rep.exponent == math.inf
    assert rep.bound_at(10) == 0.0


def test_thm31_ii_requires_normalized_pair():
    model, pair = sm.heavy_tail_pair()
    with pytest.raises(sm.PreconditionError):
        sm.bound_thm31_ii(pair, 0.1, 0.01)


def test_thm31_ii_monotonicity(normalized_heavy_tail):
    _, norm = normalized_heavy_tail
    # nonincreasing in u
    exps_u = [sm.bound_thm31_ii(norm, 0.05, u).exponent for u in (0.002, 0.004, 0.008, 0.016)]
    assert all(a >= b - 1e-12 for a, b in zip(exps_u, exps_u[1:]))
    # nondecreasing in epsilon
    exps_e = [sm.bound_thm31_ii(norm, e, 0.004).exponent for e in (0.02, 0.04, 0.08)]
    assert all(a <= b + 1e-12 for a, b in zip(exps_e, exps_e[1:]))


def test_thm31_iii_closed_form_and_u_invariance(normalized_heavy_tail):
    _, norm = normalized_heavy_tail
    rep = sm.bound_thm31_iii(norm, 1.0, 1.0 / 20.0)
    assert rep.exponent == pytest.approx(10.0 / 19881.0, rel=1e-12)
    # u never enters the formula
    assert sm.bound_thm31_iii(norm, 1.0, 1.0 / 20.0).exponent == rep.exponent
    assert rep.alpha_star == 0.5


def test_thm31_iii_below_thm31_ii_exact_gamma(normalized_heavy_tail):
    _, norm = normalized_heavy_tail
    for eps_raw in (0.1, 0.2):
        u_raw = eps_raw / 20.0
        eps_n, u_n = norm.map_thresholds(eps_raw, u_raw)
        rep2 = sm.bound_thm31_ii(norm, eps_n, u_n)
        rep3 = sm.bound_thm31_iii(norm, eps_n, u_n / eps_n)
        assert rep3.exponent <= rep2.exponent + 1e-9


def test_thm31_ii_below_true_rate_on_finite_instances():
    rng = np.random.default_rng(314)
    checked = 0
    while checked < 8:
        m = int(rng.integers(3, 8))
        atoms = np.sort(rng.uniform(-2, 2, size=m))
        probs = rng.dirichlet(np.ones(m))
        probs = np.maximum(probs, 1e-3)
        probs /= probs.sum()
        model = sm.finite_support(atoms, probs)
        f_raw = rng.normal(size=m)
        u_raw = rng.normal(size=m)
        pair = sm.tabulated_pair(model, f_raw, u_raw)
        if pair.var_u < 1e-6 or pair.var_f < 1e-6:
            continue
        norm = sm.normalize_observables(pair)
        eps = 0.3 * (float(np.asarray(norm.f(model.atoms)).max()))
        if eps <= 0:
            continue
        u_thr = 0.2
        rep = sm.bound_thm31_ii(norm, eps, u_thr)
        rate = sm.rate_plus_star(model, norm, eps, u_thr, "lambda_plus")
        if math.isinf(rep.exponent):
            assert math.isinf(rate)
        else:
            assert rep.exponent <= rate + 1e-9 * (1.0 + abs(rate))
        checked += 1


def test_bound_report_bound_at():
    rep = sm.BoundReport(method="thm31_ii", exponent=0.05)
    assert rep.bound_at(100) == pytest.approx(math.exp(-5.0), rel=1e-15)


# ---------------------------------------------------------------------------
# worked-example reproduction
# ---------------------------------------------------------------------------


def test_prop11_constants_and_alphas():
    rep = sm.prop11_report(0.2, 0.005, 5000)
    assert 0.005 <= rep.constant_iii_optimized <= 0.006
    assert rep.constant_iv_optimized >= 0.0366
    assert rep.value_iii_at_reference_alpha == pytest.approx(0.005054, abs=1e-5)
    assert rep.value_iv_at_reference_alpha == pytest.approx(0.036642, abs=1e-5)
    assert rep.alpha_iii == pytest.approx(0.0548, abs=2e-3)


@pytest.mark.parametrize(
    "objective",
    [bound_engine._restricted_objective_worst, bound_engine._restricted_objective_cov],
)
def test_restricted_maximum_in_blocks_matches_the_whole_grid(objective):
    # reference: the whole grid as one numpy expression
    alphas = np.arange(3.0 / 80.0, 1.0, 1e-5)
    a_ref, neg = grid_min(lambda a: -objective(a), alphas, -objective(alphas))
    assert bound_engine._maximize_restricted(objective) == (a_ref, -neg)


def test_prop11_quoted_bounds():
    assert sm.prop11_report(0.2, 0.005, 5000).bound_iii == pytest.approx(0.368, abs=1e-3)
    assert sm.prop11_report(0.2, 0.005, 10_000).bound_iii == pytest.approx(0.136, abs=1e-3)
    assert sm.prop11_report(0.2, 0.005, 15_000).bound_iii == pytest.approx(0.0498, abs=1e-3)
    assert sm.prop11_report(0.1, 0.005, 5000).bound_iv == pytest.approx(0.1596, abs=1e-3)
    assert sm.prop11_report(0.1, 0.005, 10_000).bound_iv == pytest.approx(0.025, abs=1e-3)


def test_prop11_precondition():
    with pytest.raises(sm.PreconditionError, match="epsilon/20"):
        sm.prop11_report(0.2, 0.05, 5000)
    with pytest.raises(sm.PreconditionError):
        sm.prop11_report(0.2, 0.0, 5000)


def test_restricted_constants_match_reference_alpha_evaluations(normalized_heavy_tail):
    # the optimized restricted constants must dominate the hand-picked
    # alpha evaluations they were read off from
    rep = sm.prop11_report(0.4, 0.02, 100)
    assert rep.constant_iii_optimized >= rep.value_iii_at_reference_alpha
    assert rep.constant_iv_optimized >= rep.value_iv_at_reference_alpha
