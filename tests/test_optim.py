import math

import numpy as np
import pytest

from screened_mc._optim import golden_min, grid_min, min_convex_gap
from screened_mc.bound_engine import _restricted_objective_worst
from screened_mc.rate_functions import _event_is_empty


def _recording(fn):
    calls = []

    def wrapped(x):
        value = fn(x)
        calls.append((x, value))
        return value

    return wrapped, calls


def test_golden_min_known_minimum():
    x, fx = golden_min(lambda t: (t - 0.3) ** 2 + 2.0, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert fx == pytest.approx(2.0, abs=1e-15)


def test_golden_min_maximizes_by_negation():
    x, neg = golden_min(lambda t: -math.sin(t), 0.0, 3.0)
    assert x == pytest.approx(math.pi / 2.0, abs=1e-7)
    assert -neg == pytest.approx(1.0, abs=1e-15)


def test_golden_min_never_returns_worse_than_an_evaluated_point():
    # a rippled bowl: not unimodal, so the last midpoint may lose
    fn, calls = _recording(lambda t: (t - 0.3) ** 2 + 1e-3 * math.sin(1e3 * t))
    x, fx = golden_min(fn, 0.0, 1.0)
    assert fx == min(v for _, v in calls)
    assert (x, fx) in calls


def test_golden_min_stops_at_the_iteration_cap():
    # the bracket shrinks toward 0, where doubles never run out
    fn, calls = _recording(lambda t: t * t)
    golden_min(fn, 0.0, 1.0, tol=0.0)
    assert len(calls) == 200 + 3  # two starting points, one per step, the midpoint


def test_grid_min_brackets_in_log_space():
    grid = np.geomspace(1e-3, 1e3, 13)
    fn, calls = _recording(lambda x: (math.log(x) - math.log(37.0)) ** 2)
    values = [fn(float(x)) for x in grid]
    del calls[:]
    x, fx = grid_min(fn, grid, values, log=True)
    assert x == pytest.approx(37.0, rel=1e-7)
    assert fx <= min(values)
    j = int(np.argmin(values))
    assert all(grid[j - 1] <= t <= grid[j + 1] for t, _ in calls)


def test_grid_min_never_loses_to_the_grid():
    # the only low point is a grid point the refinement cannot hit again
    grid = np.linspace(0.0, 1.0, 11)
    fn = lambda x: 0.0 if x == grid[5] else 1.0  # noqa: E731
    x, fx = grid_min(fn, grid, [fn(x) for x in grid])
    assert (x, fx) == (0.5, 0.0)


def test_grid_min_negation_picks_the_argmax_index():
    alphas = np.arange(3.0 / 80.0, 1.0, 1e-5)
    vals = _restricted_objective_worst(alphas)
    x, neg = grid_min(lambda a: -_restricted_objective_worst(a), alphas, -vals)
    j = int(np.argmax(vals))
    assert alphas[j - 1] <= x <= alphas[j + 1]
    assert -neg >= vals[j]


def test_min_convex_gap_zero_gap_separates_the_two_certificates():
    # two atoms (1, -1) and (-1, 1): every law has mean G1 + mean G2 = 0
    def sup_oracle(beta):
        return np.maximum(1.0 - beta, -1.0 + beta)

    # (0.5, -0.5) is a reachable pair of means: the gap touches 0 at beta = 1
    assert min_convex_gap(sup_oracle, 0.5, -0.5, 2.0 ** np.arange(-30, 31)) == 0.0
    assert _event_is_empty(sup_oracle, 0.5, -0.5) is False
    # (0.5, 0.6) is not reachable: a negative gap certifies it
    assert min_convex_gap(sup_oracle, 0.5, 0.6, 2.0 ** np.arange(-30, 31)) < 0.0
    assert _event_is_empty(sup_oracle, 0.5, 0.6) is True


def test_min_convex_gap_evaluates_its_grid_in_one_call():
    fn, calls = _recording(lambda beta: np.maximum(1.0 - beta, -1.0 + beta))
    min_convex_gap(fn, 0.5, 0.6, 2.0 ** np.arange(-30, 31))
    grids = [x for x, _ in calls if isinstance(x, np.ndarray)]
    assert len(grids) == 1 and grids[0].shape == (61,)
    assert all(type(x) is float for x, _ in calls[1:])
