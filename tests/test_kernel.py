"""The block kernel against the per-trial loop it replaced.

Every count and every uniform must be bit-identical: the block kernel
only changes how many trials one numpy call handles, never which
uniforms a trial sees or how its means are summed.
"""

import numpy as np
import pytest

from screened_mc.dist_models import transform_uniforms
from screened_mc.errors import InputError
from screened_mc.exp_harness import (
    BLOCK_SAMPLES,
    SLOPE_INDEX_STRIDE,
    _batch_counts,
    _slope_batch,
    _trial_deviations,
    build_model,
    build_pair,
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


def reference_means(model_spec, obs_spec, n, seed, lo, hi, offset):
    """The per-trial loop: one trial's uniforms, transform, F and U at a time."""
    model = build_model(model_spec)
    pair = build_pair(model, obs_spec)
    for t in range(lo, hi):
        p = RandomStream(seed).substream(offset + t).uniform(n)
        x = transform_uniforms(model, p)
        yield float(pair.f(x).sum()) / n, float(pair.u(x).sum()) / n, pair


def reference_counts(model_spec, obs_spec, epsilon, u, n, sidedness, seed, lo, hi, offset):
    screened = screened_err = unscreened_err = 0
    for s_hat, t_hat, pair in reference_means(model_spec, obs_spec, n, seed, lo, hi, offset):
        err = s_hat - pair.mu > epsilon
        dev = t_hat - pair.nu
        sc = abs(dev) < u if sidedness == "two_sided" else dev < u
        screened += sc
        unscreened_err += err
        screened_err += err and sc
    return screened, screened_err, unscreened_err


# thresholds chosen so that every count below is nonzero: a differential
# test over all-zero counts would show nothing
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
    for offset in (0, 2 * SLOPE_INDEX_STRIDE):
        args = (model_spec, obs_spec, epsilon, u, n, sidedness, 99, lo, hi, offset)
        expected = reference_counts(*args)
        assert min(expected) > 0
        assert _batch_counts(args) == expected
        # the slope runner counts the plain (unscreened) error event
        assert _slope_batch((model_spec, obs_spec, epsilon, n, 99, lo, hi, offset)) == expected[2]


@pytest.mark.parametrize("model_spec, obs_spec, n", [c[:2] + c[4:] for c in CASES])
def test_block_means_are_bit_identical(model_spec, obs_spec, n):
    lo, hi = trial_span(n)
    offset = 2 * SLOPE_INDEX_STRIDE
    s_dev, t_dev = _trial_deviations(model_spec, obs_spec, n, 7, lo, hi, offset)
    ref = [
        (s_hat - pair.mu, t_hat - pair.nu)
        for s_hat, t_hat, pair in reference_means(model_spec, obs_spec, n, 7, lo, hi, offset)
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
    # a row of a caller's block, and the allocating call, agree too
    block = np.empty((2, 50))
    sampler.uniforms(9, 50, out=block[1])
    assert np.array_equal(block[1], sampler.uniforms(9, 50))
    assert np.array_equal(block[1], RandomStream(2024).substream(9).uniform(50))
    with pytest.raises(InputError):
        sampler.uniforms(9, 49, out=block[1])
