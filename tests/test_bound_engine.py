import dataclasses
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import screened_mc as sm
from screened_mc import bound_engine
from screened_mc._optim import grid_min
from screened_mc.bound_engine import REFERENCE_ALPHA_III, REFERENCE_ALPHA_IV, AlphaGrid
from screened_mc.dist_models import FiniteMargin, Identity, ParetoMargin, Power
from screened_mc.exp_harness import build_model, build_pair, parse_config, thm31_reports

from reference import alpha_grid_pieces_by_walk, thm31_ii_exponent_at

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


def test_bounds_rescale_a_pair_whose_moments_are_already_normalized():
    # the shortcut for normalized moments took neither bound into account
    model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
    pair = sm.tabulated_pair(model, [-1.0, 1.0], [-1.0, 1.0])
    norm = sm.normalize_observables(pair, var_f_bound=4.0, mu_lower=-0.5)
    assert (norm.f_scale, norm.u_scale) == (2.0, 1.0)
    # sup[(F + 0.5)/2 - 0.5 U] over the two atoms
    assert sm.margin(norm, 0.5) == 0.25
    assert sm.normalize_observables(norm, var_f_bound=4.0, mu_lower=-0.5) is norm


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
        assert sorted(norm.margins) == sorted(pair.margins) and len(norm.margins) == 4
        for (s_f, s_u), oracle in norm.margins.items():
            brute = float((s_f * f_n + beta * s_u * u_n).max())
            assert oracle(beta) == pytest.approx(brute, rel=1e-12)
    # under mu_lower a +F pattern centres there, a -F pattern at the mean
    low = sm.normalize_observables(pair, mu_lower=pair.mu - 0.5)
    shift = 0.5 / low.f_scale
    for beta in (0.1, 0.7, 2.0, 9.0):
        for (s_f, s_u), oracle in low.margins.items():
            brute = float((s_f * f_n + beta * s_u * u_n).max()) + (shift if s_f > 0 else 0.0)
            assert oracle(beta) == pytest.approx(brute, rel=1e-12)


def test_normalize_rejects_a_margin_oracle_of_another_kind():
    model = sm.finite_support([1.0, 2.0], [0.5, 0.5])
    pair = sm.tabulated_pair(model, [0.0, 1.0], [1.0, 3.0])
    pair = dataclasses.replace(pair, margins={**pair.margins, (1, -1): lambda beta: 0.0})
    with pytest.raises(sm.CapabilityError, match="margin oracle of type function"):
        sm.normalize_observables(pair)


def _flagged(**fields):
    """The normalized heavy tail with some of its statistics replaced."""
    _, pair = sm.heavy_tail_pair()
    return dataclasses.replace(sm.normalize_observables(pair, var_f_bound=4.0, mu_lower=1.0), **fields)


def _with_other_grid():
    norm = _flagged()
    eps_n, u_n = norm.map_thresholds(0.2, 0.005)
    other = _finite_normalized_pair()
    return bound_engine.thm31_ii_search(norm, eps_n, u_n, AlphaGrid(other, eps_n, u_n))


# each guard names its own cause; none of these runs in a command
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: sm.normalize_observables(_flagged(normalized=False), var_f_bound=0.0),
         sm.DomainError, "variance bound for F must be strictly positive"),
        (lambda: sm.bound_thm31_iii(_flagged(), 0.1, 0.0), sm.DomainError, "K must be > 0"),
        (lambda: sm.bound_thm31_iii(_flagged(), 0.1, -1.0), sm.DomainError, "K must be > 0"),
        (_with_other_grid, sm.PreconditionError, "evaluated for another margin or thresholds"),
        (lambda: sm.margin(_flagged(margins={}), 0.5),
         sm.CapabilityError, r"declares no margin oracle for F - beta\*U"),
        (lambda: sm.bound_thm31_iii(_flagged(var_u=2.0), 0.1, 1.0),
         sm.PreconditionError, r"must have Var\(U\) = 1 exactly"),
        (lambda: sm.bound_thm31_ii(_flagged(var_f=1.5), 0.1, 0.005),
         sm.PreconditionError, r"must have Var\(F\) <= 1"),
    ],
    ids=["var_f_bound", "k_zero", "k_negative", "other_grid", "no_margin", "var_u", "var_f"],
)
def test_library_guards_name_their_cause(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
    f_n, u_n = norm.f(x), norm.u(x)
    for beta in (0.05, 0.2, SQRT5 / 4.0, 1.0, 10.0):
        brute = float((f_n - beta * u_n).max())
        # the oracle replaces the unknown mean by its lower bound, so it
        # sits above the true supremum by at most (mu - 1)/2
        assert sm.margin(norm, beta) >= brute - 1e-9
        assert sm.margin(norm, beta) <= brute + (10.0 / 7.0 - 1.0) / 2.0 + 1e-9
        # a lower bound on the mean would lift the infimum's oracle by as much,
        # above the true infimum (at x = 1 here); a -F pattern centers at the mean itself
        lower = -norm.margins[(-1, -1)](beta)  # inf[F + beta U]
        assert lower == pytest.approx(float((f_n + beta * u_n).min()), rel=1e-12)
        # -x^0.75 + beta x grows without bound; the heavy tail declares no (1, 1)
        assert norm.margins[(-1, 1)](beta) == math.inf and (1, 1) not in norm.margins


def test_margin_on_arrays_matches_scalar_calls(normalized_heavy_tail):
    # the normalized margins are oracles of the raw ones' own kinds
    _, norm = normalized_heavy_tail
    finite = _finite_normalized_pair()
    betas = np.concatenate([np.geomspace(1e-4, 20.0, 2001), [SQRT5 / 4.0]])
    oracles = [*norm.margins.values(), *finite.margins.values()]
    kinds = [ParetoMargin] * 3 + [FiniteMargin] * 4
    assert len(oracles) == len(kinds)
    for oracle, kind in zip(oracles, kinds):
        assert type(oracle) is kind
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
    with pytest.raises(sm.DomainError, match="stated for theta >= 0"):
        sm.bennett_log_mgf_bound(-0.5, 1.0, 1.0)


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
    for y, z in ((0.5, 0.0), (0.5, 1.0), (-0.1, 0.5), (1.1, 0.5), (0.5, math.nan)):
        with pytest.raises(sm.DomainError, match="requires y in"):
            sm.pinsker_lower(y, z)


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


_ALPHAS = np.arange(1e-4, 1.0, 1e-4)


def _thm31_ii_by_scalar_loop(pair, epsilon, u, array=False):
    """The alpha grid evaluated one scalar call at a time, refined by golden
    section (the reference); ``array`` evaluates the grid in one array call,
    which gives the same bits."""

    def neg_exponent(alpha):
        return -thm31_ii_exponent_at(pair, epsilon, u, alpha)

    if array:
        values = -thm31_ii_exponent_at(pair, epsilon, u, _ALPHAS)
    else:
        values = [neg_exponent(float(a)) for a in _ALPHAS]
    a_star, neg = grid_min(neg_exponent, _ALPHAS, values)
    return -neg, a_star


def test_thm31_ii_array_grid_matches_scalar_loop(normalized_heavy_tail):
    # the heavy tail's grid search is the reference, bit for bit; a finite
    # table's closed form is at least as high, but for rounding
    _, norm = normalized_heavy_tail
    cases = [(pair, *norm.map_thresholds(eps, u))
             for pair in (norm, sm.with_gamma(norm, -1.0))
             for eps, u in ((0.2, 0.005), (0.05, 0.001))]
    cases.append((_finite_normalized_pair(), 0.5, 0.1))
    for pair, eps_n, u_n in cases:
        rep = sm.bound_thm31_ii(pair, eps_n, u_n)
        assert rep.method == "thm31_ii" and 0.0 < rep.exponent < math.inf
        reference = _thm31_ii_by_scalar_loop(pair, eps_n, u_n)
        assert reference == _thm31_ii_by_scalar_loop(pair, eps_n, u_n, array=True)
        if isinstance(pair.margin, FiniteMargin):
            assert rep.exponent >= (1.0 - 1e-13) * reference[0]
        else:
            assert (rep.exponent, rep.alpha_star) == reference


def test_heavy_tail_split_search_matches_the_full_grid(normalized_heavy_tail, monkeypatch):
    # the grid runs on the slice where the margin takes its peak branch, as
    # __call__ decides it on the full grid, widened by one point; the straight
    # branch takes the closed form; on the benchmark's grid and on 200 seeded
    # (eps, u) every optimum lies on the curve and keeps the full grid's bits
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import HEAVY_BOUND_GRID

    _, norm = normalized_heavy_tail
    (k, up), index = norm.margin.straight[1], np.arange(len(_ALPHAS))
    assert up
    rng = np.random.default_rng(2028)
    eps = rng.uniform(0.01, 1.0, 200)
    seeded = list(zip(eps.tolist(), (eps * rng.uniform(0.001, 0.5, 200)).tolist()))
    opened = []
    for eps, u in [*HEAVY_BOUND_GRID, *seeded]:
        eps_n, u_n = norm.map_thresholds(eps, u)
        if bound_engine.zero_event_check(norm, eps_n, u_n):
            continue
        opened.append((eps, u))
        grid = AlphaGrid(norm, eps_n, u_n)
        on_peak = k / (_ALPHAS * eps_n / u_n) > 1.0
        count = int(on_peak.sum())
        assert np.array_equal(on_peak, index < count) and 0 < count < len(_ALPHAS)
        assert np.array_equal(grid.pieces[1], _ALPHAS[: count + 1])
        assert grid.pieces[0][3:] == (_ALPHAS[count], _ALPHAS[-1])
        for pair in (norm, sm.with_gamma(norm, -1.0)):
            rep = bound_engine.thm31_ii_search(pair, eps_n, u_n, grid)
            reference = _thm31_ii_by_scalar_loop(pair, eps_n, u_n, array=True)
            assert (rep.exponent, rep.alpha_star) == reference, (eps, u, pair.gamma)
    assert len(set(opened) - set(seeded)) == 5 and len(opened) - 5 >= 100


def test_thm31_ii_grid_drops_the_margins_infinite_half_line():
    # F = U = x^0.5: sup[F - beta U] = +inf for raw beta < 1, where the objective
    # is 0; the grid keeps the rest, widened by one point, and the full grid's bits
    pair = sm.normalize_observables(sm.pair_from_callables(sm.pareto_like(), Power(0.5), Power(0.5)))
    assert pair.margin.infinite == (1.0 / pair.f_scale, -1.0 / pair.u_scale)
    assert pair.gamma == 1.0  # capped at the Cauchy-Schwarz limit: rounding gives 1 + 2e-16
    for eps in (0.05, 0.2, 1.0):
        eps_n, u_n = pair.map_thresholds(eps, 0.99 * eps)
        assert not bound_engine.zero_event_check(pair, eps_n, u_n)
        grid = AlphaGrid(pair, eps_n, u_n)
        lines, curved = grid.pieces
        assert lines is None and curved[-1] == _ALPHAS[-1] and 1 < len(curved) < len(_ALPHAS)
        infinite = pair.margin(_ALPHAS * eps_n / u_n) == math.inf
        assert np.array_equal(infinite, _ALPHAS < curved[1]) and infinite[-len(curved)]
        for other in (sm.with_gamma(pair, -1.0), sm.with_gamma(pair, 0.5), pair):
            rep = bound_engine.thm31_ii_search(other, eps_n, u_n, grid)
            reference = _thm31_ii_by_scalar_loop(other, eps_n, u_n, array=True)
            assert (rep.exponent, rep.alpha_star) == reference and rep.exponent > 0.0
    # at u = eps nothing is left: the exponent is 0 and no alpha is reported
    eps_n, u_n = pair.map_thresholds(0.2, 0.2)
    assert AlphaGrid(pair, eps_n, u_n).pieces == (None, None)
    rep = bound_engine.thm31_ii_search(pair, eps_n, u_n)
    assert (rep.exponent, rep.alpha_star) == (0.0, None)
    assert _thm31_ii_by_scalar_loop(pair, eps_n, u_n, array=True)[0] == 0.0


def test_thm31_ii_straight_branch_wins_below_the_grid():
    # F = x^-1, U = x^-2 on pareto_like, as a config builds it: the margin
    # takes its peak branch above an edge in beta and is straight below it;
    # at gamma = -1 the optimum lies on the straight part, below the grid
    doc = {
        "model": {"kind": "pareto_like"},
        "observables": {
            "f": {"form": "power", "exponent": -1.0},
            "u": {"form": "power", "exponent": -2.0},
        },
        "screen": {"epsilon": 0.02, "u": 0.01, "n": 200},
        "trials": 1,
        "seed": 1,
    }
    cfg = parse_config(doc)
    pair = sm.normalize_observables(build_pair(build_model(cfg.model), cfg.observables))
    eps_n, u_n = pair.map_thresholds(0.02, 0.01)
    assert not bound_engine.zero_event_check(pair, eps_n, u_n)
    (_, up), (lines, curved) = pair.margin.straight[1], AlphaGrid(pair, eps_n, u_n).pieces
    assert not up and lines[3] == 2.0**-40  # the straight part lies below the edge
    assert curved[-1] == _ALPHAS[-1] and len(curved) < len(_ALPHAS)
    worst = sm.with_gamma(pair, -1.0)
    rep = sm.bound_thm31_ii(worst, eps_n, u_n)
    reference = _thm31_ii_by_scalar_loop(worst, eps_n, u_n, array=True)
    assert rep.exponent > reference[0] and rep.alpha_star < _ALPHAS[0]
    assert rep.exponent == thm31_ii_exponent_at(worst, eps_n, u_n, rep.alpha_star)
    # at the pair's own gamma the optimum lies on the curve: the full grid's bits
    rep = sm.bound_thm31_ii(pair, eps_n, u_n)
    assert (rep.exponent, rep.alpha_star) == _thm31_ii_by_scalar_loop(pair, eps_n, u_n, array=True)
    # F = x^-1, U = x: no peak branch, so the margin is one line and no grid runs
    line = sm.pair_from_callables(sm.pareto_like(), Power(-1.0), Identity())
    line = sm.normalize_observables(line)
    eps_n, u_n = line.map_thresholds(0.1, 0.01)
    assert AlphaGrid(line, eps_n, u_n).pieces[1] is None
    rep = sm.bound_thm31_ii(line, eps_n, u_n)
    assert rep.method == "thm31_ii" and rep.alpha_star == 2.0**-40
    assert rep.exponent >= _thm31_ii_by_scalar_loop(line, eps_n, u_n, array=True)[0]


def test_alpha_grid_pieces_match_the_walk_from_the_edge(normalized_heavy_tail):
    # the branch test marks the grid where the walk from the edge in beta
    # stops: the same slice and span, bit for bit, over eps and u across
    # twelve decades, on the heavy tail and on raw and normalized power
    # pairs whose margin has a peak branch below its edge or above it, an
    # infinite half-line (slope q < 0), +inf everywhere (q = 0), or one line;
    # q > 0 takes an oracle of its own, as no power pair gives it
    raw = [sm.pair_from_callables(sm.pareto_like(), Power(a), Power(b))
           for a, b in ((0.5, 1.0), (0.25, 1.1), (-1.0, -2.0), (0.5, 0.5), (1.0, 0.5), (-1.0, 1.0))]
    pairs = [normalized_heavy_tail[1], *raw, *map(sm.normalize_observables, raw[:4])]
    rising = dataclasses.replace(raw[3], margins={(1, -1): ParetoMargin((-1.0, 0.5, 0.0), (1.0, 0.5, 0.0))})
    assert rising.margin.infinite == (-1.0, 1.0)
    rng = np.random.default_rng(34)
    kinds = set()
    for pair in [*pairs, rising]:
        for eps, u in 10.0 ** rng.uniform(-6.0, 6.0, size=(40, 2)):
            lines, curved = AlphaGrid(pair, eps, u).pieces
            walked = alpha_grid_pieces_by_walk(pair, eps, u)
            assert lines == walked[0] and (curved is walked[1] or np.array_equal(curved, walked[1]))
            kinds.add((lines is None, curved is None, None if curved is None else len(curved) < len(_ALPHAS)))
    assert len(kinds) == 6  # lines or not, by a whole slice, a partial one or none: all arise


def _finite_normalized_cases(monkeypatch):
    """(name, normalized pair, eps_n, u_n) of every finite event that the
    zero-event certificate leaves open, on the pinned finite configs and on
    finite_instance seeds 1-30 x indices 1-8, at the pair's gamma and at -1."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    from test_cli import _VALIDATE_CONFIGS
    from workloads import finite_instance

    docs = {name: doc for name, doc in _VALIDATE_CONFIGS.items() if doc["model"]["kind"] == "finite_support"}
    docs.update({f"instance({s}, {k})": finite_instance(s, k) for s in range(1, 31) for k in range(1, 9)})
    for name, doc in docs.items():
        cfg = parse_config(doc)
        model = build_model(cfg.model)
        try:
            norm = sm.normalize_observables(build_pair(model, cfg.observables))
        except sm.DegenerateScreenError:  # a constant U: no normalized pair, no bound
            continue
        eps_n, u_n = norm.map_thresholds(cfg.screen.epsilon, cfg.screen.u)
        if not bound_engine.zero_event_check(norm, eps_n, u_n):
            yield name, norm, eps_n, u_n
            yield f"{name}, gamma=-1", sm.with_gamma(norm, -1.0), eps_n, u_n


def test_thm31_ii_closed_form_is_tight_and_sound_on_finite_tables(monkeypatch):
    # neither the grid-plus-golden reference nor the objective below the grid,
    # at alpha = 1e-8 and 1e-12, beats the closed form by more than 1e-13
    # (relative); an optimum at the span's upper end keeps its bits; the
    # exponent is the objective at the reported alpha, so it is a valid bound
    top, ends, below = _ALPHAS[-1], 0, 0
    cases = list(_finite_normalized_cases(monkeypatch))
    assert len(cases) > 400
    # F = U = +-1 (gamma = 1): m(beta) = 1 - beta up to beta = 1, at alpha =
    # 1/1.00005, just past the span; the objective grows all the way there
    model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
    cases.append(("F = U", sm.tabulated_pair(model, [-1.0, 1.0], [-1.0, 1.0]), 1.0, 1.0 / 1.00005))
    for name, pair, eps_n, u_n in cases:
        rep = bound_engine.thm31_ii_search(pair, eps_n, u_n)
        exponent, alpha = _thm31_ii_by_scalar_loop(pair, eps_n, u_n, array=True)
        tiny = max(thm31_ii_exponent_at(pair, eps_n, u_n, a) for a in (1e-8, 1e-12))
        assert rep.exponent >= (1.0 - 1e-13) * max(exponent, tiny), name
        assert 0.0 < rep.alpha_star <= top, name
        assert rep.exponent == thm31_ii_exponent_at(pair, eps_n, u_n, rep.alpha_star), name
        below += rep.alpha_star < _ALPHAS[0]
        if alpha == top:
            ends += 1
            assert (rep.exponent, rep.alpha_star) == (exponent, alpha), name
    assert ends > 0 and below > 400


def test_thm31_ii_closed_form_on_an_empty_event_and_a_bogus_gamma():
    # F = U = +-1: m(beta) = |1 - beta| is 0 at alpha = u/eps, inside the span
    model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
    same = sm.tabulated_pair(model, [-1.0, 1.0], [-1.0, 1.0])
    rep = bound_engine.thm31_ii_search(same, 1.0, 0.4)
    assert rep.exponent == math.inf and rep.alpha_star == 0.4
    # a surrogate gamma far above 1 drives the Bennett denominator negative
    bogus = sm.with_gamma(_finite_normalized_pair(), 50.0)
    with pytest.raises(sm.NumericError):
        sm.bound_thm31_ii(bogus, 0.5, 0.1)


def test_zero_event_check_rejects_a_gap_of_1e_10_at_an_envelope_vertex():
    # an exactly normalized table (mean 0, Var U = 1, Var F = 9/32) whose
    # zero-event gap m(beta) - (eps - beta u) is convex and piecewise linear,
    # with its minimum at the envelope's one break: about +1e-10, not <= 0
    model = sm.finite_support([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
    pair = sm.tabulated_pair(model, [-0.5, -0.5, 0.25, 0.75], [-1.0, -1.0, 1.0, 1.0])
    assert pair.normalized is False and pair.var_u == 1.0 and pair.mu == 0.0
    norm = sm.normalize_observables(pair)
    assert norm.margin is pair.margin
    u = 0.25
    eps = 0.28125 - 1e-10
    atoms, breaks = pair.margin.envelope
    assert atoms == (3, 0) and breaks == (0.625,)
    vertex = Fraction(breaks[0])
    exact_gap = max(
        Fraction(f) + vertex * Fraction(x) for f, x in zip(pair.margin.f_values, pair.margin.u_values)
    ) - (Fraction(eps) - vertex * Fraction(u))
    assert 0.5e-10 < exact_gap < 2e-10
    assert bound_engine.zero_event_check(norm, eps, u) is False
    assert sm.bound_thm31_ii(norm, eps, u).method == "thm31_ii"
    _, reports = thm31_reports(pair, {"f": {"form": "table"}, "u": {"form": "table"}}, eps, u)
    assert reports["thm31_ii"].method == "thm31_ii" and not reports["thm31_ii"].zero_event


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


def test_an_infinite_margin_gives_exponent_zero():
    # F = U = x on pareto_like: normalized, F - beta U = (1 - beta) U is
    # unbounded above for beta < 1 and bounded for beta > 1
    model = sm.pareto_like()
    norm = sm.normalize_observables(sm.pair_from_callables(model, Identity(), Identity()))
    assert norm.margin(0.5) == math.inf and math.isfinite(norm.margin(2.0))
    alphas = np.array([0.1, 0.25, 0.75, 0.9])
    got = thm31_ii_exponent_at(norm, 1.0, 0.5, alphas)
    scalars = [thm31_ii_exponent_at(norm, 1.0, 0.5, a) for a in alphas.tolist()]
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(got, np.array(scalars))
    assert scalars[:2] == [0.0, 0.0] and scalars[-1] > 0.0  # beta = 2 alpha
    # no alpha has a finite margin: nothing is certified
    pair = sm.normalize_observables(sm.pair_from_callables(model, Power(0.9), Power(0.5)))
    eps_n, u_n = pair.map_thresholds(0.2, 0.01)
    for rep in (sm.bound_thm31_ii(pair, eps_n, u_n), sm.bound_thm31_iii(pair, eps_n, u_n / eps_n)):
        assert rep.exponent == 0.0 and not rep.zero_event and rep.bound_at(10**6) == 1.0


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
    # the grid settles the failed certificate, so only the alpha search's
    # golden refinement calls with floats
    assert calls.count(True) == 2
    assert 0 < calls.count(False) < 100


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


def test_zero_event_grid_stays_inside_the_doubles(normalized_heavy_tail):
    # eps/u past the largest double searches below it; eps/u below 5e-315
    # leaves no grid of positive doubles, and names itself
    _, norm = normalized_heavy_tail
    assert sm.zero_event_check(norm, 1e308, 1e-300)
    with pytest.raises(sm.DomainError, match="too small for a zero-event grid"):
        sm.zero_event_check(norm, 1e-300, 1e20)


def test_thm31_iii_past_the_double_range_of_k():
    # past K = 9e307, 1/(2K) is 0, where the margin is undefined: the least
    # positive beta stands for a larger K, still valid for every u <= K eps
    norm = _finite_normalized_pair()
    exponent = sm.bound_thm31_iii(norm, 0.1, 1e300).exponent
    assert 0.0 < exponent < math.inf
    for K in (1e308, math.inf):
        assert sm.bound_thm31_iii(norm, 0.1, K).exponent == exponent
    # below K = 4e-155, (1 + 1/(2K))^2 is past the doubles, and the exponent 0
    assert sm.bound_thm31_iii(norm, 0.1, 1e-300).exponent == 0.0


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
def test_restricted_maximum_in_closed_form_matches_the_whole_grid(objective):
    # reference: the whole grid of step 1e-5 as one numpy expression, refined by
    # golden section; the closed form's alpha is within 7.9e-10 of it, and its
    # constant within 6.9e-16 (relative), the rounding of a flat top
    alphas = np.arange(3.0 / 80.0, 1.0, 1e-5)
    a_ref, neg = grid_min(lambda a: -objective(a), alphas, -objective(alphas))
    worst, cov = bound_engine._optimized_constants()
    alpha, constant = worst if objective is bound_engine._restricted_objective_worst else cov
    assert alpha == pytest.approx(a_ref, rel=0.0, abs=1e-9)
    assert constant == pytest.approx(-neg, rel=1e-15, abs=0.0) and constant == objective(alpha)


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
