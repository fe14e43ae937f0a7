import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import screened_mc as sm
from screened_mc.dist_models import (
    AbsCentered,
    Identity,
    Power,
    Table,
    log_mgf_signed,
    tilted_moments,
    transform_uniforms,
)

from reference import exact_moments


def test_pareto_quantile_endpoints():
    low, median = transform_uniforms(sm.pareto_like(), np.array([0.0, 0.5]))
    assert low == 1.0
    # solve 1 - x^{-5/2} = 1/2 analytically
    assert median == pytest.approx(2.0**0.4, rel=1e-15)


def test_pareto_sample_mean_matches_known_mean():
    model, pair = sm.heavy_tail_pair()
    xs = sm.sample(model, sm.RandomStream(123).substream(0), 10**6)
    tol = 3.0 * math.sqrt((20.0 / 9.0) / 10**6)
    assert abs(xs.mean() - 5.0 / 3.0) <= tol


def test_pareto_empirical_cdf_sup_distance():
    model = sm.pareto_like()
    xs = np.sort(sm.sample(model, sm.RandomStream(5).substream(0), 10**6))
    n = len(xs)
    cdf = 1.0 - xs**-2.5
    upper = np.abs(np.arange(1, n + 1) / n - cdf).max()
    lower = np.abs(np.arange(0, n) / n - cdf).max()
    assert max(upper, lower) <= 0.002


def test_sampling_is_bit_reproducible():
    model = sm.pareto_like()
    a = sm.sample(model, sm.RandomStream(77).substream(3), 1000)
    b = sm.sample(model, sm.RandomStream(77).substream(3), 1000)
    c = sm.sample(model, sm.RandomStream(77).substream(4), 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_finite_support_sampling_frequencies():
    model = sm.finite_support([1.0, 2.0, 5.0], [0.2, 0.3, 0.5])
    xs = sm.sample(model, sm.RandomStream(9).substream(0), 200_000)
    freq = {v: float(np.mean(xs == v)) for v in (1.0, 2.0, 5.0)}
    assert freq[1.0] == pytest.approx(0.2, abs=0.01)
    assert freq[2.0] == pytest.approx(0.3, abs=0.01)
    assert freq[5.0] == pytest.approx(0.5, abs=0.01)


def test_invalid_pmf_rejected():
    with pytest.raises(sm.ConfigError):
        sm.finite_support([1.0, 2.0], [0.6, 0.6])
    with pytest.raises(sm.ConfigError):
        sm.finite_support([1.0, 2.0], [1.0, 0.0])
    with pytest.raises(sm.ConfigError):
        sm.sign_product([0.0, 1.0], [0.5, 0.5])


def test_heavy_tail_pair_exact_moments():
    model, pair = sm.heavy_tail_pair()
    mu, nu, var_f, var_u, gamma = exact_moments(model, pair)
    assert mu == pytest.approx(10.0 / 7.0, rel=1e-12)
    assert nu == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert var_u == pytest.approx(20.0 / 9.0, rel=1e-12)
    assert gamma == pytest.approx(20.0 / 21.0, rel=1e-12)
    assert var_f == pytest.approx(45.0 / 98.0, rel=1e-12)
    # the declared statistics carry the same values
    assert (pair.mu, pair.nu) == (mu, nu)


def test_two_point_moments():
    model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
    pair = sm.tabulated_pair(model, [-1.0, 1.0], [-1.0, 1.0])
    mu, nu, var_f, var_u, gamma = exact_moments(model, pair)
    assert (mu, nu) == (0.0, 0.0)
    assert var_f == var_u == 1.0
    assert gamma == 1.0


def test_pareto_moments_do_not_cancel_near_a_large_shift():
    # F = x - 1e8 has the spread of x: Var F = Var X = 20/9 and Cov(F, X) = 20/9
    model = sm.pareto_like()
    pair = sm.pair_from_callables(model, AbsCentered(1e8), Identity())
    assert pair.mu == pytest.approx(5.0 / 3.0 - 1e8, rel=1e-15)
    assert pair.var_f == pytest.approx(20.0 / 9.0, rel=1e-15)
    assert pair.gamma == pytest.approx(20.0 / 9.0, rel=1e-15)
    # F = x + 1e8 against U = x**0.5, with E[X**a] = 5/(5 - 2a): this pair used to
    # fail its Cauchy-Schwarz check, its Var F having cancelled to 0
    pair = sm.pair_from_callables(model, AbsCentered(-1e8), Power(0.5))
    assert pair.var_f == pytest.approx(20.0 / 9.0, rel=1e-15)
    assert pair.var_u == pytest.approx(5.0 / 3.0 - 25.0 / 16.0, rel=1e-14)
    assert pair.gamma == pytest.approx(2.5 - 5.0 / 3.0 * 5.0 / 4.0, rel=1e-14)
    assert pair.gamma**2 <= pair.var_f * pair.var_u


def test_finite_moments_do_not_cancel_near_a_large_offset():
    # F = 1e8 + {0, 1} against U = {0, 1} at p = (0.3, 0.7): Var F = Var U = Cov = 0.21;
    # E[F^2] - (E F)^2 read Var F = -2.0 here
    model = sm.finite_support([0.0, 1.0], [0.3, 0.7])
    pair = sm.tabulated_pair(model, [1e8, 1e8 + 1.0], [0.0, 1.0])
    for moments in ((pair.var_f, pair.var_u, pair.gamma), exact_moments(model, pair)[2:]):
        assert moments == pytest.approx((0.21, 0.21, 0.21), rel=1e-14)


def test_divergent_moment_is_named():
    model = sm.pareto_like()
    with pytest.raises(sm.DivergenceError, match="E\\[F\\^2\\]"):
        sm.pair_from_callables(model, Power(1.3), Identity())


def test_log_mgf_trivial_and_divergent():
    model, pair = sm.heavy_tail_pair()
    assert log_mgf_signed(model, pair, 0.0, 0.0) == 0.0
    assert log_mgf_signed(model, pair, 0.1, 0.0) == math.inf


def test_log_mgf_two_point_closed_form():
    model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
    pair = sm.tabulated_pair(model, [-1.0, 1.0], [0.0, 0.0])
    got = log_mgf_signed(model, pair, 1.0, 0.0)
    assert got == pytest.approx(math.log(math.cosh(1.0)), rel=1e-12)
    assert log_mgf_signed(model, pair, 0.0, -5.0) == 0.0


@pytest.mark.parametrize("theta", [(0.3, 0.5), (1.0, 1.0), (0.0, 2.0), (1.5, 0.7)])
def test_log_mgf_quadrature_vs_monte_carlo(theta):
    model, pair = sm.heavy_tail_pair()
    t1, t2 = theta
    xs = sm.sample(model, sm.RandomStream(31).substream(0), 10**6)
    vals = np.exp(t1 * xs**0.75 - t2 * xs)
    est = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    got = log_mgf_signed(model, pair, t1, -t2)
    assert abs(got - math.log(est)) <= 3.0 * se / est


@pytest.mark.parametrize(
    "a,b",
    [((0.2, 0.3), (1.0, 1.5)), ((0.0, 0.5), (2.0, 0.5)), ((0.5, 2.0), (1.5, 4.0))],
)
def test_log_mgf_midpoint_convexity_pareto(a, b):
    model, pair = sm.heavy_tail_pair()
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    fa = log_mgf_signed(model, pair, a[0], -a[1])
    fb = log_mgf_signed(model, pair, b[0], -b[1])
    fm = log_mgf_signed(model, pair, mid[0], -mid[1])
    assert fm <= (fa + fb) / 2 + 1e-9


def test_log_mgf_midpoint_convexity_finite():
    model = sm.finite_support([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
    pair = sm.tabulated_pair(model, [0.4, -1.0, 2.0], [1.0, 0.0, -1.0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.uniform(0, 3, size=2)
        b = rng.uniform(0, 3, size=2)
        mid = (a + b) / 2
        fa = log_mgf_signed(model, pair, a[0], -a[1])
        fb = log_mgf_signed(model, pair, b[0], -b[1])
        fm = log_mgf_signed(model, pair, mid[0], -mid[1])
        assert fm <= (fa + fb) / 2 + 1e-9


def test_log_mgf_zero_at_origin_every_kind():
    cases = [
        sm.heavy_tail_pair(),
        (
            sm.finite_support([1.0, 4.0], [0.5, 0.5]),
            sm.tabulated_pair(sm.finite_support([1.0, 4.0], [0.5, 0.5]), [1.0, -1.0], [0.0, 2.0]),
        ),
        sm.counterexample_pair([1.0, 2.0], [0.5, 0.5]),
    ]
    for model, pair in cases:
        assert log_mgf_signed(model, pair, 0.0, 0.0) == 0.0


def test_sign_product_expands_to_signed_atoms():
    model, pair = sm.counterexample_pair([1.0, 2.0], [0.25, 0.75])
    assert sorted(model.atoms.tolist()) == [-2.0, -1.0, 1.0, 2.0]
    xs = sm.sample(model, sm.RandomStream(3).substream(1), 100_000)
    assert abs(np.mean(np.sign(xs))) < 0.02
    # F(X) = |X| - E|X| and U(X) = sign(X) are uncorrelated
    assert pair.gamma == pytest.approx(0.0, abs=1e-15)


def test_gamma_invariant_enforced_for_exact_flag():
    model = sm.finite_support([-1.0, 1.0], [0.5, 0.5])
    with pytest.raises(sm.ConfigError):
        sm.ObservablePair(
            f=lambda x: x, u=lambda x: x, mu=0.0, nu=0.0,
            var_f=1.0, var_u=1.0, gamma=1.5, gamma_flag="exact",
        )
    # bound-flagged surrogates are exempt from the Cauchy-Schwarz check
    sm.ObservablePair(
        f=lambda x: x, u=lambda x: x, mu=0.0, nu=0.0,
        var_f=1.0, var_u=1.0, gamma=-1.5, gamma_flag="upper_bound",
    )
    del model


def test_substream_sampler_bit_compatible():
    from screened_mc.streams import SubstreamSampler

    sampler = SubstreamSampler(31415)
    block = sampler.uniforms(0, 64, out=np.empty((6, 64)))  # trials 0..5, one per row
    for t in (0, 1, 5, 123456):
        direct = sm.RandomStream(31415).substream(t).uniform(64)
        assert np.array_equal(sampler.uniforms(t, 64), direct)
        if t < len(block):
            assert np.array_equal(block[t], direct)


@given(st.lists(st.floats(min_value=1e-6, max_value=1 - 1e-6), min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_transform_uniforms_stays_on_support(ps):
    model = sm.pareto_like()
    xs = transform_uniforms(model, np.array(ps))
    assert np.all(xs >= 1.0)


def test_log_mgf_signed_divergence_rules():
    model, pair = sm.heavy_tail_pair()
    assert log_mgf_signed(model, pair, 0.5, 0.1) == math.inf  # e^{bU} with b>0
    assert log_mgf_signed(model, pair, -1.0, 0.0) < 0.0  # bounded above by 0
    assert log_mgf_signed(model, pair, -0.5, -0.5) < 0.0


def test_log_mgf_diverges_where_a_bounded_u_leaves_f_unbounded():
    # F = x^0.75 grows, U = x^-0.5 is bounded: aF + bU is unbounded above for
    # a > 0 at any b, so the log-MGF is +inf with no quadrature and no warning
    model = sm.pareto_like()
    pair = sm.pair_from_callables(model, Power(0.75), Power(-0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((1.0, 1.0), (0.5, 0.1)):
            assert log_mgf_signed(model, pair, a, b) == math.inf
            with pytest.raises(sm.DivergenceError):
                tilted_moments(model, pair, a, b)
        # bounded above, it is finite: -x^0.75 + x^-0.5 <= 0
        assert log_mgf_signed(model, pair, -1.0, 1.0) < 0.0


# ---------------------------------------------------------------------------
# the pareto_like margin oracle: sup[s_f F + beta s_u U] with F, U = alpha x**e + delta
# ---------------------------------------------------------------------------

# (F, U) coefficient triples, one per sign and exponent case
_POWER_CASES = {
    "a<b": ((1.0, 0.75, 0.0), (1.0, 1.0, 0.0)),  # the preset: an interior peak
    "a=b": ((1.0, 1.0, 0.0), (1.0, 1.0, -0.5)),  # (1 - beta) x: +inf below beta = 1
    "a>b": ((1.0, 0.9, 0.0), (1.0, 0.5, 0.0)),  # U does not dominate F: +inf
    "negative_alpha": ((-2.0, 0.5, 1.0), (1.0, 0.25, 0.0)),
    "negative_exponent_f": ((1.0, -0.5, 0.0), (1.0, 1.0, 0.0)),
    "negative_exponent_u": ((1.0, 0.5, 0.0), (1.0, -0.5, 0.3)),  # F + beta U dips inside
    "both_negative": ((-1.0, -2.0, 0.0), (-1.0, -1.0, 0.0)),  # a peak at x* = 2/beta
    "sign_over_reciprocal": ((1.0, 0.0, 0.0), (1.0, -1.0, 0.0)),  # sup only in the limit
    "reciprocal_over_sign": ((-1.0, -1.0, 0.0), (1.0, 0.0, 0.0)),
    "abs_centered_over_sign": ((1.0, 1.0, -1.7), (1.0, 0.0, 0.0)),
}
_PATTERNS = [(1, -1), (1, 1), (-1, 1), (-1, -1)]  # (s_f, s_u)
_XS = np.geomspace(1.0, 1e15, 400_001)


def _signed(coefficients, sign):
    alpha, exponent, delta = coefficients
    return (sign * alpha, exponent, sign * delta)


def _pareto_margin(cf, cu, pattern):
    """The ParetoMargin of sup[s_f F + beta s_u U], the signs folded into the forms."""
    from screened_mc.dist_models import ParetoMargin

    return ParetoMargin(_signed(cf, pattern[0]), _signed(cu, pattern[1]))


def _power_values(coefficients, x):
    alpha, exponent, delta = coefficients
    return alpha * x**exponent + delta


@pytest.mark.parametrize("case", sorted(_POWER_CASES))
def test_pareto_margin_matches_a_dense_reference(case):
    cf, cu = _POWER_CASES[case]
    fx, ux = _power_values(cf, _XS), _power_values(cu, _XS)
    seen_infinite = False  # the reference grows without bound somewhere
    for s_f, s_u in _PATTERNS:
        oracle = _pareto_margin(cf, cu, (s_f, s_u))
        for beta in np.geomspace(1e-2, 1e2, 25).tolist():
            g = s_f * fx + beta * (s_u * ux)  # the oracle is sup g
            ref = float(g.max())
            got = oracle(beta)
            if got == math.inf:
                # the reference grows without bound: still rising at 1e15, and huge
                seen_infinite = True
                assert int(np.argmax(g)) == len(_XS) - 1 and g[-1] > g[-1000] and ref > 1e5
                continue
            scale = 1.0 + abs(ref)
            assert got >= ref - 1e-12 * scale, (case, s_f, s_u, beta)
            assert got <= ref + 1e-7 * scale, (case, s_f, s_u, beta)
    # every case has a positive power in some sign pattern but these three
    bounded = ("both_negative", "sign_over_reciprocal", "reciprocal_over_sign")
    assert seen_infinite == (case not in bounded)


def test_pareto_margin_peaks_in_closed_form():
    from screened_mc.dist_models import ParetoMargin

    # -x**-2 + beta/x peaks at x* = 2/beta with beta**2/4, inside x >= 1 for beta < 2
    oracle = _pareto_margin(*_POWER_CASES["both_negative"], (1, -1))
    for beta in (0.01, 0.5, 1.9):
        assert oracle(beta) == pytest.approx(beta * beta / 4.0, rel=1e-14)
    assert oracle(3.0) == -1.0 + 3.0
    # x**0.5 - beta x peaks at x* = 1/(4 beta**2) with 1/(4 beta)
    oracle = ParetoMargin((1.0, 0.5, 0.0), (-1.0, 1.0, 0.0))
    assert oracle(1e-3) == pytest.approx(250.0, rel=1e-14)


def test_preset_margins_are_bit_for_bit_the_old_closed_forms():
    # the closed forms the preset used before its oracle was the general one
    def old_margin(b):
        return 0.25 * (3.0 / (4.0 * b)) ** 3 if b <= 0.75 else 1.0 - b

    def old_margin_array(b):
        return np.where(b <= 0.75, 0.25 * np.float_power(3.0 / (4.0 * b), 3), 1.0 - b)

    _, pair = sm.heavy_tail_pair()
    edge = [np.nextafter(0.75, 0.0), 0.75, np.nextafter(0.75, 1.0)]
    betas = np.concatenate([np.geomspace(1e-9, 1e9, 100_001), np.linspace(0.7, 0.8, 10_001), edge])
    assert np.any(betas == 0.75)
    lower = pair.margins[(-1, -1)]  # inf[F + beta U] = -sup[-F - beta U]
    assert np.array_equal(pair.margin(betas), old_margin_array(betas))
    assert np.array_equal(-lower(betas), 1.0 + betas)
    for b in betas.tolist():
        assert pair.margin(b) == old_margin(b) and -lower(b) == 1.0 + b


def test_non_power_observable_on_pareto_is_a_capability_error():
    table = Table((1.0, 2.0), (0.0, 1.0))
    with pytest.raises(sm.CapabilityError, match="^Table.* is not alpha"):
        sm.pair_from_callables(sm.pareto_like(), Power(0.5), table)
    with pytest.raises(sm.CapabilityError, match="^<function.* is not alpha"):
        sm.pair_from_callables(sm.pareto_like(), lambda x: np.log(x), Identity())


def test_abs_centered_and_sign_on_pareto_are_power_forms():
    from screened_mc.dist_models import AbsCentered, SignOf, canonical_power

    assert canonical_power(AbsCentered(1.5)) == (1.0, 1.0, -1.5)
    assert canonical_power(SignOf()) == (1.0, 0.0, 0.0)
    pair = sm.pair_from_callables(sm.pareto_like(), AbsCentered(1.5), Power(0.5))
    assert pair.mu == pytest.approx(5.0 / 3.0 - 1.5, rel=1e-14)
    assert pair.var_f == pytest.approx(20.0 / 9.0, rel=1e-14)
    assert pair.gamma == pytest.approx(5.0 / 2.0 - 5.0 / 3.0 * 5.0 / 4.0, rel=1e-14)
    sign = sm.pair_from_callables(sm.pareto_like(), Power(0.5), SignOf())
    assert (sign.nu, sign.var_u) == (1.0, 0.0)
    # U = 1 is bounded above: E e^U = e
    assert log_mgf_signed(sm.pareto_like(), sign, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_log_mgf_is_infinite_where_the_margin_is():
    model = sm.pareto_like()
    pair = sm.pair_from_callables(model, Power(0.9), Power(0.5))
    assert np.all(pair.margin(np.geomspace(1e-3, 1e3, 7)) == math.inf)
    assert log_mgf_signed(model, pair, 0.3, -5.0) == math.inf
    with pytest.raises(sm.DivergenceError):
        tilted_moments(model, pair, 0.3, -5.0)
    _, preset = sm.heavy_tail_pair()
    assert math.isfinite(log_mgf_signed(model, preset, 0.3, -5.0))


def test_log_mgf_with_b_positive_is_finite_where_f_outgrows_u():
    from scipy.integrate import quad

    model = sm.pareto_like()
    # -x + x**0.5 / 2 is bounded above: inf[x - 2 x**0.5] is finite
    pair = sm.pair_from_callables(model, Identity(), Power(0.5))
    reference, _ = quad(lambda x: 2.5 * x**-3.5 * math.exp(0.5 * math.sqrt(x) - x), 1.0, math.inf)
    got = log_mgf_signed(model, pair, -1.0, 0.5)
    assert got == pytest.approx(math.log(reference), rel=1e-12)
    assert got == pytest.approx(-0.850766, abs=1e-6)
    lam, mean, _ = tilted_moments(model, pair, -1.0, 0.5)
    assert lam == got and np.all(np.isfinite(mean))
    # the pair now declares inf[F - beta U], so the gamma_minus rate reaches these tilts
    assert sm.rate_plus_star(model, pair, 0.3, 0.1, "gamma_minus") > 0.0
    # -x**0.5 + x / 2 grows without bound: inf[x**0.5 - 2 x] = -sup[-x**0.5 + 2 x] = -inf
    swapped = sm.pair_from_callables(model, Power(0.5), Identity())
    assert swapped.margins[(-1, 1)](2.0) == math.inf
    assert log_mgf_signed(model, swapped, -1.0, 0.5) == math.inf


# ---------------------------------------------------------------------------
# margin oracles on arrays: exactly their scalar calls, element by element
# ---------------------------------------------------------------------------


def _assert_array_matches_scalar_calls(oracle, betas):
    got = oracle(betas)
    scalars = [oracle(b) for b in betas.ravel().tolist()]
    assert all(type(v) is float for v in scalars)
    assert isinstance(got, np.ndarray) and got.shape == betas.shape
    assert np.array_equal(got.ravel(), np.array(scalars))


def test_pareto_margins_on_arrays_match_scalar_calls():
    _, pair = sm.heavy_tail_pair()
    edge = [np.nextafter(0.75, 0.0), 0.75, np.nextafter(0.75, 1.0)]
    betas = np.concatenate([np.geomspace(1e-6, 0.75, 20_001), edge, np.geomspace(0.75, 50.0, 999)])
    assert np.any(betas < 0.75) and np.any(betas == 0.75) and np.any(betas > 0.75)
    assert len(pair.margins) == 3  # no (1, 1): sup[F + beta U] is +inf
    for oracle in pair.margins.values():
        _assert_array_matches_scalar_calls(oracle, betas)
        _assert_array_matches_scalar_calls(oracle, betas[:1000].reshape(20, 50))
    wide = np.geomspace(1e-4, 1e4, 2001)
    for cf, cu in _POWER_CASES.values():
        for pattern in _PATTERNS:
            oracle = _pareto_margin(cf, cu, pattern)
            _assert_array_matches_scalar_calls(oracle, wide)
            _assert_array_matches_scalar_calls(oracle, wide[:2000].reshape(40, 50))
    # a peak beyond the doubles is +inf on both paths, with no warning
    steep = _pareto_margin((1.0, 0.99, 0.0), (1.0, 1.0, 0.0), (1, -1))
    _assert_array_matches_scalar_calls(steep, np.array([1e-9, 1e-3, 0.5]))
    assert steep(1e-9) == math.inf


def test_finite_margins_on_arrays_match_scalar_calls():
    rng = np.random.default_rng(11)
    fv, uv = tuple(rng.normal(size=7)), tuple(rng.normal(size=7))
    betas = np.geomspace(1e-4, 1e4, 301)
    for oracle in _finite_margins(fv, uv):
        _assert_array_matches_scalar_calls(oracle, betas)
        _assert_array_matches_scalar_calls(oracle, betas[:300].reshape(3, 100))


def test_finite_margin_scalar_calls_match_the_array_expression():
    # reference: the array expression the scalar path replaced
    rng = np.random.default_rng(23)
    for m in (1, 2, 5, 17, 64):
        model = sm.finite_support(np.arange(m, dtype=float), np.full(m, 1.0 / m))
        f, u = rng.normal(size=m) * 3.0, rng.normal(size=m)
        pair = sm.tabulated_pair(model, f, u)
        assert sorted(pair.margins) == sorted(_PATTERNS) and pair.margin is pair.margins[(1, -1)]
        for (s_f, s_u), oracle in pair.margins.items():
            for beta in np.concatenate([rng.uniform(0.0, 5.0, 40), np.geomspace(1e-9, 1e9, 40)]):
                want = float(np.max(s_f * f + float(beta) * (s_u * u)))
                for b in (float(beta), beta):  # a float and an np.float64
                    got = oracle(b)
                    assert type(got) is float and got == want


def test_non_finite_model_and_table_entries_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(sm.ConfigError):
            sm.finite_support([1.0, bad], [0.5, 0.5])
        with pytest.raises(sm.ConfigError):
            sm.finite_support([1.0, 2.0], [0.5, bad])
        with pytest.raises(sm.ConfigError):
            sm.sign_product([1.0, bad], [0.5, 0.5])
        model = sm.finite_support([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(sm.InputError):
            sm.tabulated_pair(model, [0.0, bad], [0.0, 1.0])
        with pytest.raises(sm.InputError):
            sm.tabulated_pair(model, [0.0, 1.0], [bad, 1.0])


def test_finite_log_mgf_evaluates_each_table_once_per_pair(monkeypatch):
    calls = []
    lookup = Table.__call__

    def counted(self, x):
        calls.append(self)
        return lookup(self, x)

    monkeypatch.setattr(Table, "__call__", counted)
    model = sm.finite_support([-1.0, 0.0, 2.0], [0.2, 0.5, 0.3])
    tables = [([1.0, 0.0, -1.0], [0.5, 1.0, 0.0]), ([0.0, 2.0, 1.0], [1.0, -1.0, 0.5])]
    pairs = [sm.tabulated_pair(model, f, u) for f, u in tables]
    # pair 0, then pair 1, then back: each switch must see the new pair's values
    for k in (0, 1, 0):
        f, u = (np.asarray(v) for v in tables[k])
        for a, b in ((0.3, -0.2), (0.0, 0.0), (-1.0, 0.7)):
            terms = np.log(model.probs) + a * f + b * u
            lam_ref = float(np.logaddexp.reduce(terms))
            w = np.exp(terms - lam_ref)
            lam, mean, _ = tilted_moments(model, pairs[k], a, b)
            assert log_mgf_signed(model, pairs[k], a, b) == pytest.approx(lam_ref, abs=1e-14)
            assert lam == pytest.approx(lam_ref, abs=1e-14)
            np.testing.assert_allclose(mean, [w @ f, w @ u], rtol=1e-12)
    assert len(calls) == 2 * 3  # F and U once per switch of pair


def test_heavy_tail_moments_reduce_the_values_the_log_mgf_summed(monkeypatch):
    from screened_mc import dist_models

    calls = []

    def spied(call):
        return lambda self, x: calls.append(self) or call(self, x)

    for form in (Power, Identity):
        monkeypatch.setattr(form, "__call__", spied(form.__call__))
    model, pair = sm.heavy_tail_pair()
    monkeypatch.setattr(dist_models, "_LAST_LOG_MGF", (None, None, None, None))
    lam = log_mgf_signed(model, pair, 0.5, -1.0)
    # a fresh tilt: F and U once per 512-node block the panel walk used
    blocks = -(-len(dist_models._log_mgf_nodes(model, pair, 0.5, -1.0)[2]) // 512)
    assert blocks >= 1 and calls == [pair.f, pair.u] * blocks
    # the derivatives at the tilt just evaluated call no form
    calls.clear()
    got, mean, cov = tilted_moments(model, pair, 0.5, -1.0)
    assert calls == [] and got == lam
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))


def _envelope_values(oracle, betas):
    """The supremum from the envelope alone: each beta evaluates only its winning line."""
    atoms, breaks = oracle.envelope
    idx = np.asarray(atoms, dtype=int)[np.searchsorted(np.asarray(breaks), betas, side="right")]
    f, u = np.asarray(oracle.f_values)[idx], np.asarray(oracle.u_values)[idx]
    return f + betas * u


def _finite_margins(f_values, u_values):
    """The FiniteMargin of each sign pattern, (1, -1) first."""
    from screened_mc.dist_models import FiniteMargin

    return [
        FiniteMargin(tuple(s_f * float(x) for x in f_values), tuple(s_u * float(x) for x in u_values))
        for s_f, s_u in _PATTERNS
    ]


def _envelope_tables(monkeypatch):
    """(name, f, u) of every pinned finite config and finite_instance seeds 1-10 x 1-8."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    from test_cli import _VALIDATE_CONFIGS
    from workloads import finite_instance

    docs = {name: doc for name, doc in _VALIDATE_CONFIGS.items() if doc["model"]["kind"] == "finite_support"}
    docs.update({f"instance({s}, {k})": finite_instance(s, k) for s in range(1, 11) for k in range(1, 9)})
    for name, doc in docs.items():
        obs = doc["observables"]
        yield name, obs["f"]["values"], obs["u"]["values"]


# degenerate tables: (f, u, the margin's envelope as (atoms, breaks))
_DEGENERATE_TABLES = {
    "equal u values": ([0.3, -1.2, 2.0, 0.5], [1.0, 1.0, 1.0, -0.5], ((2, 3), (1.0,))),
    "repeated atoms": ([1.0, 1.0, -0.5, 1.0], [0.5, 0.5, -2.0, 0.5], ((0, 2), (0.6,))),
    # f = u: every line f(1 - beta) passes through (1, 0); the middle one only touches
    "three lines through one point": ([-1.0, 0.5, 2.0], [-1.0, 0.5, 2.0], ((2, 0), (1.0,))),
    "one line winning everywhere": ([0.1, 0.7, -0.3], [0.4, 0.4, 0.4], ((1,), ())),
    "one atom": ([0.25], [-3.0], ((0,), ())),
}


def test_finite_margin_envelope_of_degenerate_tables():
    for name, (f, u, margin_envelope) in _DEGENERATE_TABLES.items():
        assert _finite_margins(f, u)[0].envelope == margin_envelope, name


def test_finite_margin_envelope_gives_the_same_bits(monkeypatch):
    # 10^4 seeded betas per table, on every sign pattern: the winning line
    # found by the breaks computes the very bits of the full max
    tables = list(_envelope_tables(monkeypatch))
    tables += [(name, f, u) for name, (f, u, _) in _DEGENERATE_TABLES.items()]
    rng = np.random.default_rng(18)
    for name, f, u in tables:
        betas = np.exp(rng.uniform(math.log(1e-4), math.log(1e4), 10**4))
        for oracle in _finite_margins(f, u):
            want, got = oracle(betas), _envelope_values(oracle, betas)
            assert np.array_equal(want.view(np.uint64), got.view(np.uint64)), (name, oracle)
            for beta in betas[:200].tolist():  # the scalar path, which the searches call
                assert oracle(beta) == _envelope_values(oracle, np.array([beta]))[0]
