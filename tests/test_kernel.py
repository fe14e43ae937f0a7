"""The block kernel against a per-trial counter-addressed loop.

Every count and every uniform must be bit-identical: the block kernel
only changes how many trials one numpy call handles, never which
uniforms a trial sees or how its means are summed.  The reference draws
each trial alone: through ``RandomStream(seed).substream(t)`` in
namespace 0, and through a one-row ``SubstreamSampler(seed, h)`` call in
namespace h > 0.
"""

import numpy as np
import pytest

from screened_mc import exp_harness
from screened_mc.dist_models import transform_uniforms
from screened_mc.errors import InputError
from screened_mc.exp_harness import (
    BLOCK_SAMPLES,
    _batch_counts,
    _slope_batch,
    _trial_deviations,
    build_model,
    build_pair,
    parse_config,
    run_validation,
)
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


def trial_span(n):
    """A [lo, hi) range that starts and ends off a block edge, over several blocks when n allows."""
    lo = 3
    return lo, lo + min(2 * max(1, BLOCK_SAMPLES // n) + 5, 600)


def trial_uniforms(seed, namespace, t, n):
    """Trial t's uniforms, drawn alone."""
    if namespace == 0:
        return RandomStream(seed).substream(t).uniform(n)
    return SubstreamSampler(seed, namespace).uniforms(t, n)


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
# test over all-zero counts would show nothing; n = 1, 7 and 30 take the
# first n of a trial's 4*ceil(n/4) uniforms
CASES = [
    # (model, observables, epsilon, u, n)
    (*HEAVY, 0.2, 1.0, 1),
    (*HEAVY, 0.1, 0.3, 7),
    (*HEAVY, 0.03, 0.15, 200),
    (*HEAVY, 0.02, 0.1, 1000),
    (*TABLE, 0.1, 0.05, 30),
    (*SIGN, 0.05, 0.1, 40),
]


@pytest.mark.parametrize("sidedness", ["two_sided", "one_sided"])
@pytest.mark.parametrize("model_spec, obs_spec, epsilon, u, n", CASES)
def test_block_kernel_matches_per_trial_loop(model_spec, obs_spec, epsilon, u, n, sidedness):
    lo, hi = trial_span(n)
    for namespace in (0, 2):
        args = (model_spec, obs_spec, epsilon, u, n, sidedness, 99, lo, hi, namespace)
        expected = reference_counts(*args)
        assert min(expected) > 0
        assert _batch_counts(args) == expected
        # the slope runner counts the plain (unscreened) error event
        assert _slope_batch((model_spec, obs_spec, epsilon, n, 99, lo, hi, namespace)) == expected[2]


@pytest.mark.parametrize("model_spec, obs_spec, n", [c[:2] + c[4:] for c in CASES])
def test_block_means_are_bit_identical(model_spec, obs_spec, n):
    lo, hi = trial_span(n)
    s_dev, t_dev = _trial_deviations(model_spec, obs_spec, n, 7, lo, hi, 2)
    ref = [
        (s_hat - pair.mu, t_hat - pair.nu)
        for s_hat, t_hat, pair in reference_means(model_spec, obs_spec, n, 7, lo, hi, 2)
    ]
    assert s_dev.tolist() == [r[0] for r in ref]
    assert t_dev.tolist() == [r[1] for r in ref]


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
    # a trial's row is the first count of its 4*ceil(count/4) uniforms
    assert np.array_equal(sampler.uniforms(3, 5), sampler.uniforms(3, 8)[:5])
    # namespaces are separate keys
    assert not np.array_equal(SubstreamSampler(2024, 1).uniforms(5, 8), sampler.uniforms(5, 8))
    with pytest.raises(InputError):
        sampler.uniforms(9, 49, out=np.empty(50))


@pytest.mark.parametrize("namespace, n", [(0, 8), (3, 5), (3, 1)])
def test_trials_own_consecutive_counter_blocks(namespace, n):
    # the layout itself, against one generator read from counter zero
    w = -(-n // 4) * 4
    key = np.array([2024, namespace], dtype=np.uint64)
    flat = np.random.Generator(np.random.Philox(key=key)).random(6 * w).reshape(6, w)[:, :n]
    sampler = SubstreamSampler(2024, namespace)
    assert np.array_equal(sampler.uniforms(0, n, out=np.empty((6, n))), flat)
    assert np.array_equal(sampler.uniforms(2, n, out=np.empty((4, n))), flat[2:])


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
    # at width 8 a trial spans 2 counter blocks; trial 2^63 - 1 would
    # need Philox counter 2^64, one past a 64-bit word
    last = (1 << 63) - 2
    sampler.uniforms(last, 8)
    with pytest.raises(InputError, match="overflow"):
        sampler.uniforms(last + 1, 8)
    with pytest.raises(InputError, match="overflow"):
        sampler.uniforms(last - 1, 5, out=np.empty((3, 5)))
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
