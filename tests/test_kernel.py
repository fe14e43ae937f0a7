"""The block kernel against a per-trial counter-addressed loop.

Every count and every uniform must be bit-identical: the block kernel
only changes how many trials one numpy call handles, never which
uniforms a trial sees or how its means are summed.  The reference draws
each trial alone: through ``RandomStream(seed).substream(t)`` in
namespace 0, and through a one-row ``SubstreamSampler(seed, h)`` call in
namespace h > 0.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from screened_mc import exp_harness
from screened_mc.dist_models import canonical_power, sample, transform_uniforms
from screened_mc.errors import ConfigError, InputError
from screened_mc.exp_harness import (
    BLOCK_SAMPLES,
    CEILING_RHO,
    _batch_counts,
    _certified_ceiling,
    _sample_blocks,
    _slope_batch,
    _trial_deviations,
    build_model,
    build_pair,
    parse_config,
    run_validation,
)
from screened_mc.screen_core import ScreenConfig, run_trajectory
from screened_mc.streams import RandomStream, SubstreamSampler

HEAVY = ({"kind": "pareto_like"}, {"preset": "heavy_tail"})
TABLE = (
    {"kind": "finite_support", "atoms": [1.0, 2.0, 3.0, 4.0], "probs": [0.1, 0.2, 0.3, 0.4]},
    {
        "f": {"form": "table", "values": [-1.5, 0.0, 0.5, 1.0]},
        "u": {"form": "table", "values": [-1.0, -1.0, 1.0, 1.0]},
    },
)
SIGN = (
    {"kind": "sign_product", "magnitude_atoms": [0.5, 1.0, 3.0], "magnitude_probs": [0.5, 0.3, 0.2]},
    {"f": {"form": "abs_centered"}, "u": {"form": "sign"}},
)
# U = x^0.5 does not dominate F = x^0.9: every margin is +inf
POWERS = (
    {"kind": "pareto_like"},
    {"f": {"form": "power", "exponent": 0.9}, "u": {"form": "power", "exponent": 0.5}},
)
NEGATIVE = (
    {"kind": "finite_support", "atoms": [1.0, 2.0, 3.0, 4.0], "probs": [0.4, 0.3, 0.2, 0.1]},
    {
        "f": {"form": "table", "values": [-4.0, -3.0, -1.0, -0.5]},
        "u": {"form": "table", "values": [-3.0, -2.5, -1.0, -2.0]},
    },
)
# values near 1e8 that cancel in the means: F = x - 1e8 against U = x, and
# F = x^0.5 against U = x - 1e8
SHIFTED_F = (
    {"kind": "pareto_like"},
    {"f": {"form": "abs_centered", "center": 1e8}, "u": {"form": "identity"}},
)
SHIFTED_U = (
    {"kind": "pareto_like"},
    {"f": {"form": "power", "exponent": 0.5}, "u": {"form": "abs_centered", "center": 1e8}},
)
# a table of the same kind: without its slack, the ceiling would certify rows that err
SHIFTED_TABLE = (
    {"kind": "finite_support", "atoms": [0.0, 1.0, 2.0], "probs": [2 / 12, 5 / 12, 5 / 12]},
    {
        "f": {"form": "table", "values": [99999998.0, 99999996.0, 99999998.0]},
        "u": {"form": "table", "values": [-100000000.5, -100000002.0, -100000001.0]},
    },
)


def trial_span(n):
    """A [lo, hi) range that starts and ends off a block edge, over several blocks when n allows."""
    lo = 3
    return lo, lo + min(2 * max(1, BLOCK_SAMPLES // n) + 5, 600)


def trial_uniforms(seed, namespace, t, n):
    """Trial t's uniforms, drawn alone."""
    if namespace == 0:
        return RandomStream(seed).substream(t).uniform(n)
    return SubstreamSampler(seed, namespace).uniforms(t, n)


def built(model_spec, obs_spec, epsilon, n):
    """The model, the pair and the certified ceiling that a run builds once."""
    model = build_model(model_spec)
    pair = build_pair(model, obs_spec)
    return model, pair, _certified_ceiling(pair, epsilon, n)


def batch_args(model_spec, obs_spec, epsilon, u, n, sidedness, seed, lo, hi, namespace):
    """The ``_batch_counts`` task of a run of these specs for trials ``[lo, hi)``."""
    model, pair, ceiling = built(model_spec, obs_spec, epsilon, n)
    return (model, pair, epsilon, u, n, sidedness, seed, lo, hi, namespace, ceiling)


def reference_means(model_spec, obs_spec, n, seed, lo, hi, namespace):
    """The per-trial loop: one trial's uniforms, transform, F and U at a time."""
    model = build_model(model_spec)
    pair = build_pair(model, obs_spec)
    for t in range(lo, hi):
        p = trial_uniforms(seed, namespace, t, n)
        x = transform_uniforms(model, p)
        yield float(pair.f(x).sum()) / n, float(pair.u(x).sum()) / n, pair


def reference_counts(model_spec, obs_spec, epsilon, u, n, sidedness, seed, lo, hi, namespace):
    screened = screened_err = unscreened_err = 0
    for s_hat, t_hat, pair in reference_means(model_spec, obs_spec, n, seed, lo, hi, namespace):
        err = s_hat - pair.mu > epsilon
        dev = t_hat - pair.nu
        sc = abs(dev) < u if sidedness == "two_sided" else dev < u
        screened += sc
        unscreened_err += err
        screened_err += err and sc
    return screened, screened_err, unscreened_err


# thresholds chosen so that every count below is nonzero: a differential
# test over all-zero counts would show nothing.  CASES_SEED is the first
# seed from 99 up at which every row's counts are nonzero in namespaces 0
# and 2 under both sidednesses
CASES_SEED = 107
CASES = [
    # (model, observables, epsilon, u, n)
    (*HEAVY, 0.2, 1.0, 1),
    (*HEAVY, 0.1, 0.3, 7),
    (*HEAVY, 0.03, 0.15, 200),
    (*HEAVY, 0.02, 0.1, 1000),
    (*TABLE, 0.1, 0.05, 30),
    (*SIGN, 0.05, 0.1, 40),
    # the margin certifies rows out of the error event (most, on the heavy
    # tail) and F runs on the rest; the table's F and U values are all negative
    (*HEAVY, 0.5, 2.0, 25),
    (*HEAVY, 0.15, 0.5, 200),
    (*NEGATIVE, 0.3, 0.3, 10),
    # no finite margin: F runs on every row
    (*POWERS, 0.3, 0.3, 10),
    # the margin certifies rows whose means cancel to a few digits of 1e8
    (*SHIFTED_F, 0.1, 0.3, 50),
    (*SHIFTED_U, 0.03, 0.3, 200),
]


@pytest.mark.parametrize("sidedness", ["two_sided", "one_sided"])
@pytest.mark.parametrize("model_spec, obs_spec, epsilon, u, n", CASES)
def test_block_kernel_matches_per_trial_loop(model_spec, obs_spec, epsilon, u, n, sidedness):
    lo, hi = trial_span(n)
    for namespace in (0, 2):
        args = (model_spec, obs_spec, epsilon, u, n, sidedness, CASES_SEED, lo, hi, namespace)
        expected = reference_counts(*args)
        assert min(expected) > 0
        assert _batch_counts(batch_args(*args)) == expected
        # the slope runner counts the plain (unscreened) error event
        model, pair, ceiling = built(model_spec, obs_spec, epsilon, n)
        task = (model, pair, epsilon, n, CASES_SEED, lo, hi, namespace, ceiling)
        assert _slope_batch(task) == expected[2]


@pytest.mark.parametrize("model_spec, obs_spec, n", [c[:2] + c[4:] for c in CASES])
def test_block_means_are_bit_identical(model_spec, obs_spec, n):
    lo, hi = trial_span(n)
    model = build_model(model_spec)
    s_dev, t_dev = _trial_deviations(model, build_pair(model, obs_spec), n, 7, lo, hi, 2, -math.inf)
    ref = [
        (s_hat - pair.mu, t_hat - pair.nu)
        for s_hat, t_hat, pair in reference_means(model_spec, obs_spec, n, 7, lo, hi, 2)
    ]
    assert s_dev.tolist() == [r[0] for r in ref]
    assert t_dev.tolist() == [r[1] for r in ref]


def bits(trajectory):
    """A trajectory's columns, the floats by their hex so that -0.0 is not 0.0."""
    return (
        [v.hex() for v in trajectory.s_hat],
        [v.hex() for v in trajectory.t_hat],
        list(trajectory.screened),
    )


@pytest.mark.parametrize("model_spec, obs_spec", [HEAVY, TABLE], ids=["heavy", "table"])
@pytest.mark.parametrize("n", [200, BLOCK_SAMPLES + 3])  # 81 rows a block, and one
def test_block_rows_run_the_trajectory_of_the_per_trial_draw(model_spec, obs_spec, n):
    # simulate's path: run_trajectory on each row of each block of _sample_blocks
    lo, hi = trial_span(n)
    model = build_model(model_spec)
    pair = build_pair(model, obs_spec)
    cfg = ScreenConfig(epsilon=0.5, u=0.025, n=n)
    trials = []
    for start, x in _sample_blocks(model, n, 2024, lo, hi):
        for t, row in enumerate(x, start):
            alone = sample(model, RandomStream(2024).substream(t), n)
            assert bits(run_trajectory(pair, row, cfg)) == bits(run_trajectory(pair, alone, cfg))
            trials.append(t)
    assert trials == list(range(lo, hi))


def f_share(monkeypatch, args):
    """``_batch_counts`` on the task of ``args``, and the share of its samples that reach F's form."""
    task = batch_args(*args)
    f_form = task[1].f
    form = type(f_form)
    call = form.__call__
    seen = []

    def counted(self, x):
        if self == f_form:
            seen.append(np.size(x))
        return call(self, x)

    monkeypatch.setattr(form, "__call__", counted)
    counts = _batch_counts(task)
    monkeypatch.undo()
    n, lo, hi = args[4], args[7], args[8]
    return counts, sum(seen) / ((hi - lo) * n)


# the share of samples F runs on, for the last four CASES rows
@pytest.mark.parametrize(
    "case, low, high",
    [
        (CASES[6], 0.0, 0.05),
        (CASES[7], 0.0, 0.1),
        (CASES[8], 0.5, 0.95),
        (CASES[9], 1.0, 1.0),
    ],
)
def test_f_runs_only_where_the_error_is_reachable(monkeypatch, case, low, high):
    model_spec, obs_spec, epsilon, u, n = case
    lo, hi = trial_span(n)
    args = (model_spec, obs_spec, epsilon, u, n, "two_sided", 99, lo, hi, 0)
    counts, share = f_share(monkeypatch, args)
    assert counts == reference_counts(*args)
    assert low <= share <= high
    pair = build_pair(build_model(model_spec), obs_spec)
    assert (_certified_ceiling(pair, epsilon, n) == -math.inf) == (share == 1.0)


def test_readme_config_runs_f_on_under_one_percent_of_samples(monkeypatch):
    # the README config's validate batch: 8,192 trials at n = 200
    args = (*HEAVY, 0.5, 0.025, 200, "two_sided", 31, 0, 8192, 0)
    counts, share = f_share(monkeypatch, args)
    assert counts == reference_counts(*args)
    assert 0.0 < share < 0.01


@st.composite
def finite_tables(draw):
    m = draw(st.integers(1, 5))
    weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    values = st.lists(st.floats(-100.0, 100.0), min_size=m, max_size=m)
    model = {
        "kind": "finite_support",
        "atoms": [float(a) for a in range(m)],
        "probs": (np.array(weights) / sum(weights)).tolist(),
    }
    f, u = draw(values), draw(values)
    return model, {"f": {"form": "table", "values": f}, "u": {"form": "table", "values": u}}


@settings(max_examples=60, deadline=None)
@given(
    table=finite_tables(),
    epsilon=st.floats(1e-3, 50.0),
    u=st.floats(1e-3, 50.0),
    n=st.integers(1, 40),
    sidedness=st.sampled_from(["two_sided", "one_sided"]),
    seed=st.integers(0, 2**64 - 1),
)
def test_kernel_matches_per_trial_loop_on_random_tables(table, epsilon, u, n, sidedness, seed):
    args = (*table, epsilon, u, n, sidedness, seed, 5, 5 + 40, 0)
    assert _batch_counts(batch_args(*args)) == reference_counts(*args)


def search_result(monkeypatch, pair, epsilon, n):
    """``_certified_ceiling(pair, epsilon, n)`` and the beta its search chose."""
    grid_min, chosen = exp_harness.grid_min, []

    def recorded(*args, **kwargs):
        chosen.append(grid_min(*args, **kwargs))
        return chosen[-1]

    monkeypatch.setattr(exp_harness, "grid_min", recorded)
    ceiling = _certified_ceiling(pair, epsilon, n)
    monkeypatch.undo()
    return ceiling, chosen[0][0]


@pytest.mark.parametrize(
    "model_spec, obs_spec, epsilon, n, band_errs",
    [
        (*SHIFTED_F, 0.05, 200, False),
        (*SHIFTED_U, 0.05, 200, False),
        # just below the deviation of a row of 99999998.0s, 0.8333333283662796
        (*SHIFTED_TABLE, 0.8333333283662793, 3, True),
    ],
)
def test_rows_inside_the_slack_take_the_exact_path(
    monkeypatch, model_spec, obs_spec, epsilon, n, band_errs
):
    # the band [ceiling, T(beta)) holds the rows that only the slack sends to
    # F; on the table some of them err, so a ceiling without the slack would
    # drop them from the count
    pair = build_pair(build_model(model_spec), obs_spec)
    ceiling, beta = search_result(monkeypatch, pair, epsilon, n)
    t_beta = (pair.mu + epsilon - pair.margin(beta)) / beta
    s_dev, t_dev = _trial_deviations(build_model(model_spec), pair, n, 31, 0, 8192, 0, ceiling)
    s_hat, t_hat = np.array(
        [(s, t) for s, t, _ in reference_means(model_spec, obs_spec, n, 31, 0, 8192, 0)]
    ).T
    band = (ceiling <= t_hat) & (t_hat < t_beta)
    err = s_hat - pair.mu > epsilon
    assert band.any()
    if band_errs:
        assert (band & err).any()
    certified = s_dev == -math.inf
    assert certified.tolist() == (t_hat < ceiling).tolist()
    assert not (certified & err).any()
    assert s_dev[~certified].tolist() == (s_hat[~certified] - pair.mu).tolist()
    assert t_dev.tolist() == (t_hat - pair.nu).tolist()


@pytest.mark.parametrize("epsilon", [0.8, 0.8333333283662793])
def test_the_ceiling_search_does_not_lose_to_rounding_noise(epsilon):
    # near 1e8 the unslackened T(beta) peaks in rounding noise at beta near
    # 1e-12, where the slack is about 1e8/beta; searching T - tau/beta itself
    # certifies rows at both epsilons, and none that errs
    model_spec, obs_spec = SHIFTED_TABLE
    pair = build_pair(build_model(model_spec), obs_spec)
    ceiling = _certified_ceiling(pair, epsilon, 3)
    f, u = (np.array(obs_spec[k]["values"]) for k in ("f", "u"))
    rows = [list(r) for r in itertools.product(range(3), repeat=3)]
    certified = [r for r in rows if u[r].sum() / 3 < ceiling]
    assert len(certified) >= 1
    assert all(f[r].sum() / 3 - pair.mu <= epsilon for r in certified)


@st.composite
def shifted_tables(draw):
    """Tables of values near a large offset, so that row sums, moments and margins round."""
    m = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    offsets = st.sampled_from([0.0, 3.0, 1e8, -1e8, 1e12, -1e12, 2.0**52, 1e15])
    digits = st.lists(
        st.one_of(st.floats(-4.0, 4.0), st.integers(-32, 32).map(lambda k: k / 8)),
        min_size=m,
        max_size=m,
    )
    f = [draw(offsets) + d for d in draw(digits)]
    u = [draw(offsets) + d for d in draw(digits)]
    model = {
        "kind": "finite_support",
        "atoms": [float(a) for a in range(m)],
        "probs": (np.array(weights) / sum(weights)).tolist(),
    }
    return model, {"f": {"form": "table", "values": f}, "u": {"form": "table", "values": u}}


@settings(max_examples=100, deadline=None)
@given(
    table=shifted_tables(),
    n=st.integers(1, 6),
    row=st.integers(0, 1000),
    ulps=st.integers(-3, 3),
    seed=st.integers(0, 2**64 - 1),
)
# a ceiling with a quarter of the row sums' slack, and none for the margin,
# certifies this table's atom 0 at an epsilon one ulp below its deviation
@example(
    table=(
        {"kind": "finite_support", "atoms": [0.0, 1.0], "probs": [0.25, 0.75]},
        {
            "f": {"form": "table", "values": [2.1773627585206574, -0.22397712380768198]},
            "u": {"form": "table", "values": [5.7140760390417835, 6.5]},
        },
    ),
    n=1,
    row=0,
    ulps=-1,
    seed=5,
)
def test_ceiling_certifies_no_row_that_errs_on_shifted_tables(table, n, row, ulps, seed):
    model_spec, obs_spec = table
    try:
        pair = build_pair(build_model(model_spec), obs_spec)
    except ConfigError:  # moments that cancel to a variance of 0 fail the gamma check
        reject()
    f, u = (np.array(obs_spec[k]["values"]) for k in "fu")
    # every row of n atoms, in every order, summed as the kernel sums a block
    rows = np.array(list(itertools.product(range(len(f)), repeat=n)))
    s_hat, t_hat = f[rows].sum(axis=1) / n, u[rows].sum(axis=1) / n
    # epsilon a few ulps from a row's deviation, where rounding decides the event
    above = np.flatnonzero(s_hat - pair.mu > 0)
    if not len(above):
        reject()
    epsilon = float(s_hat[above[row % len(above)]] - pair.mu)
    for _ in range(abs(ulps)):
        epsilon = math.nextafter(epsilon, math.copysign(math.inf, ulps))
    err = s_hat - pair.mu > epsilon
    assert not (err & (t_hat < _certified_ceiling(pair, epsilon, n))).any()
    args = (*table, epsilon, 1.0, n, "two_sided", seed, 5, 45, 0)
    assert _batch_counts(batch_args(*args)) == reference_counts(*args)


def exact_margins(model, pair, beta):
    """M = sup[F - beta U] and S = inf[F + beta U] over the support, in rational arithmetic.

    On pareto_like the extremum is at x = 1 or at the stationary point, where
    x^(b-a) = r; the pairs tested here have integral powers of r there.
    """
    beta = Fraction(beta)
    if model.is_finite:
        values = list(zip(map(Fraction, pair.f(model.atoms)), map(Fraction, pair.u(model.atoms))))
        return max(f - beta * u for f, u in values), min(f + beta * u for f, u in values)
    (af, a, df), (au, b, du) = ([Fraction(v) for v in canonical_power(g)] for g in (pair.f, pair.u))

    def extremum(sign, pick):
        powers = [(1, 1)]  # (x^a, x^b) at x = 1
        r = -af * a / (sign * beta * au * b) if a != b else 0
        if r > 0 and (r > 1) == (b > a):
            k = 1 / (b - a)
            assert (a * k).denominator == (b * k).denominator == 1
            powers.append((r ** int(a * k), r ** int(b * k)))
        return pick(af * xa + df + sign * beta * (au * xb + du) for xa, xb in powers)

    return extremum(-1, max), extremum(+1, min)


@pytest.mark.parametrize(
    "model_spec, obs_spec, epsilon",
    [
        (*HEAVY, 0.5),
        (*HEAVY, 0.03),
        (*TABLE, 0.1),
        (*NEGATIVE, 0.3),
        (*SIGN, 0.05),
        (*SHIFTED_F, 0.05),
        (*SHIFTED_U, 0.05),
        (*SHIFTED_TABLE, 0.8333333283662793),
    ],
)
def test_margin_oracles_are_within_rho_sigma_of_the_exact_extremum(
    monkeypatch, model_spec, obs_spec, epsilon
):
    # assumption (b) of the ceiling's slack, at the beta its search chose and
    # at every grid point where the margin is finite
    model = build_model(model_spec)
    pair = build_pair(model, obs_spec)
    ceiling, chosen = search_result(monkeypatch, pair, epsilon, 200)
    assert ceiling > -math.inf
    grid = np.geomspace(2.0**-40, 2.0**40, 161)
    for beta in [chosen, *grid[np.isfinite(pair.margin(grid))].tolist()]:
        m, s = pair.margin(beta), pair.sum_lower_margin(beta)
        t = (pair.mu + epsilon - m) / beta
        sigma = abs(pair.mu) + abs(epsilon) + abs(m) + abs(s) + beta * abs(t)
        exact_m, exact_s = exact_margins(model, pair, beta)
        assert abs(Fraction(m) - exact_m) <= CEILING_RHO * sigma
        assert abs(Fraction(s) - exact_s) <= CEILING_RHO * sigma
        if not model.is_finite:  # no point of the support beats the exact extremum
            x = np.geomspace(1.0, 1e12, 400)
            assert (pair.f(x) - beta * pair.u(x)).max() <= exact_m + CEILING_RHO * sigma
            assert (pair.f(x) + beta * pair.u(x)).min() >= exact_s - CEILING_RHO * sigma


def test_an_atom_on_the_ceiling_that_errs_is_counted():
    # F = U on {0, 1}: at beta = 1 the margin is 0 and T(1) = mu + eps.  For
    # epsilon one ulp below 1 - mu, mu + eps rounds up to 1, which puts the
    # atom 1 on T(1), and the one-sample row of that atom errs
    model_spec = {"kind": "finite_support", "atoms": [0.0, 1.0], "probs": [0.3, 0.7]}
    table = {"form": "table", "values": [0.0, 1.0]}
    obs_spec = {"f": table, "u": table}
    pair = build_pair(build_model(model_spec), obs_spec)
    epsilon = math.nextafter(1.0 - pair.mu, 0.0)
    assert pair.mu + epsilon == 1.0 and 1.0 - pair.mu > epsilon
    assert _certified_ceiling(pair, epsilon, 1) < 1.0
    for n in (1, 2):
        args = (model_spec, obs_spec, epsilon, 0.5, n, "two_sided", 7, 0, 200, 0)
        expected = reference_counts(*args)
        assert expected[2] > 0
        assert _batch_counts(batch_args(*args)) == expected


def test_sampler_fills_rows_bit_identically():
    sampler = SubstreamSampler(2024)
    # out of order, revisiting a trial, and changing the count between calls
    for t, count in [(5, 200), (0, 200), (123456, 7), (5, 200), (5, 1)]:
        row = np.empty(count)
        assert sampler.uniforms(t, count, out=row) is row
        assert np.array_equal(row, RandomStream(2024).substream(t).uniform(count))
    # a block is its rows drawn one at a time, at any width
    for count in (1, 7, 8, 50):
        block = np.empty((4, count))
        assert sampler.uniforms(9, count, out=block) is block
        for i, row in enumerate(block):
            assert np.array_equal(row, sampler.uniforms(9 + i, count))
            assert np.array_equal(row, RandomStream(2024).substream(9 + i).uniform(count))
    # namespaces are separate keys
    assert not np.array_equal(SubstreamSampler(2024, 1).uniforms(5, 8), sampler.uniforms(5, 8))
    with pytest.raises(InputError):
        sampler.uniforms(9, 49, out=np.empty(50))


def pcg64(seed, namespace):
    """The generator a sampler keyed by (seed, namespace) reads, from its start."""
    seq = np.random.SeedSequence(seed, spawn_key=(namespace,))
    return np.random.Generator(np.random.PCG64(seq))


@pytest.mark.parametrize("namespace, n", [(0, 8), (3, 5), (3, 1)])
def test_trials_own_consecutive_counter_blocks(namespace, n):
    # the layout itself: trial t's row is outputs [t*n, (t+1)*n) of one
    # generator read from its start
    flat = pcg64(2024, namespace).random(6 * n).reshape(6, n)
    sampler = SubstreamSampler(2024, namespace)
    assert np.array_equal(sampler.uniforms(0, n, out=np.empty((6, n))), flat)
    assert np.array_equal(sampler.uniforms(2, n, out=np.empty((4, n))), flat[2:])
    for t in range(6):
        assert np.array_equal(sampler.uniforms(t, n), flat[t])


@pytest.mark.parametrize(
    "a, b",
    [
        ((5, 1), (2**32 + 5, 0)),  # SeedSequence([seed, namespace]) gives these one stream
        ((0, 1), (2**32, 0)),
        ((0, 0), (0, 2**32)),
        ((2**32, 0), (0, 1)),
        ((1, 0), (0, 1)),
    ],
)
def test_distinct_keys_give_distinct_rows(a, b):
    rows = [SubstreamSampler(*key).uniforms(0, 8) for key in (a, b)]
    assert not np.array_equal(*rows)


def test_slope_horizons_share_no_row(monkeypatch):
    # the slope runner draws horizon i from namespace i; at the t*n layout
    # one key's widths would overlap, so each horizon needs its own key
    drawn = {}

    class Recording(SubstreamSampler):
        def __init__(self, seed, namespace=0):
            super().__init__(seed, namespace)
            self.key = (seed, namespace)

        def uniforms(self, start, count, out=None):
            row = super().uniforms(start, count, out)
            drawn.setdefault((self.key, count), []).append(row.copy())
            return row

    monkeypatch.setattr(exp_harness, "SubstreamSampler", Recording)
    exp_harness.run_heavy_tail_slope(*HEAVY, 0.05, [25, 50, 100], 300, 17)
    assert sorted(drawn) == [((17, 0), 25), ((17, 1), 50), ((17, 2), 100)]
    values = [np.concatenate([b.ravel() for b in blocks]) for blocks in drawn.values()]
    assert [len(v) for v in values] == [300 * 25, 300 * 50, 300 * 100]
    for v, w in itertools.combinations(values, 2):
        assert not np.intersect1d(v, w).size


@pytest.mark.parametrize("n", [1, 7, 30, 200])
def test_counts_do_not_depend_on_block_or_batch_size(monkeypatch, n):
    doc = {
        "model": HEAVY[0],
        "observables": HEAVY[1],
        "screen": {"epsilon": 0.1, "u": 0.3, "n": n},
        "trials": 3000,
        "seed": 5,
    }
    cfg = parse_config(doc)

    def counts():
        rep = run_validation(cfg)
        return rep.screened_count, rep.screened_error_count, rep.unscreened_error_count

    expected = counts()
    assert min(expected) > 0
    for block, batch in [(1, 1000), (n + 3, 999), (12 * n + 1, 64), (1 << 20, 8192)]:
        monkeypatch.setattr(exp_harness, "BLOCK_SAMPLES", block)
        monkeypatch.setattr(exp_harness, "BATCH_SIZE", batch)
        assert counts() == expected


def test_counter_overflow_is_an_input_error():
    sampler = SubstreamSampler(1)
    # at width 8 the last trial inside the 2^128 period is 2^125 - 1: its
    # row is the period's last 8 outputs, and trial 0's row follows them
    last = (1 << 125) - 1
    gen = pcg64(1, 0)
    gen.bit_generator.advance(last * 8)
    wrapped = np.concatenate([sampler.uniforms(last, 8), sampler.uniforms(0, 8)])
    assert np.array_equal(gen.random(16), wrapped)
    with pytest.raises(InputError, match="period"):
        sampler.uniforms(last + 1, 8)
    with pytest.raises(InputError, match="period"):
        sampler.uniforms(last - 1, 8, out=np.empty((3, 8)))
    sampler.uniforms(last - 1, 8, out=np.empty((2, 8)))
    with pytest.raises(InputError, match="period"):
        sampler.uniforms((1 << 128) // 5, 5)
    with pytest.raises(InputError):
        sampler.uniforms(-1, 8)


def test_second_draw_from_a_trial_stream_is_an_input_error():
    stream = RandomStream(3).substream(4)
    stream.uniform(10)
    with pytest.raises(InputError):
        stream.uniform(10)


@pytest.mark.parametrize("seed", [-1, 1 << 64, 2.0, True])
def test_seed_outside_a_key_word_is_an_input_error(seed):
    with pytest.raises(InputError):
        SubstreamSampler(seed)
    with pytest.raises(InputError):
        RandomStream(seed)
