"""Streaming screened estimator.

The screened estimator keeps the running mean of F(X_i) but only
*accepts* it at times k when the running mean of U(X_i) lies strictly
within u of its known mean: a boundary hit counts as not screened and not
an error, matching the open error event the bounds are stated for.
``run_trajectory`` runs the stable one-pass recurrence m <- m + (v - m)/k
on the doubles of one trial's samples (heavy tails make large magnitudes)
and returns a ``Trajectory``: read-only columns of the running means of F
and U and of ``screened_mask``, the predicate elementwise, as the harness
kernel counts it.  They are bit-identical to ``tests/reference.py``'s steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist_models import ObservablePair
from .errors import ConfigError, InputError

# unused here: perfbench/layers.py traces this name as a screen_core attribute
from .dist_models import sample

SIDEDNESS = ("two_sided", "one_sided")


@dataclass(frozen=True)
class ScreenConfig:
    """Experiment parameters: error margin, screening threshold, horizon."""

    epsilon: float
    u: float
    n: int
    sidedness: str = "two_sided"

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ConfigError("epsilon must be > 0")
        if not self.u > 0.0:
            raise ConfigError("u must be > 0")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.sidedness not in SIDEDNESS:
            raise ConfigError(f"sidedness must be one of {SIDEDNESS}")


@dataclass(frozen=True, eq=False)  # array columns: equality and hash by identity
class Trajectory:
    """One trajectory as equal-length columns; step k = 1..n is index k - 1."""

    s_hat: np.ndarray  # running means of F values, float64
    t_hat: np.ndarray  # running means of U values, float64
    screened: np.ndarray  # the strict screening predicate at each step, bool

    def __post_init__(self):  # any sequence becomes a read-only array view
        for name, dtype in (("s_hat", np.float64), ("t_hat", np.float64), ("screened", np.bool_)):
            column = np.asarray(getattr(self, name), dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if not len(self.s_hat) == len(self.t_hat) == len(self.screened):
            raise InputError("trajectory columns must have equal lengths")


def screened_mask(t_dev, u: float, sidedness: str) -> np.ndarray:
    """The strict screening predicate, elementwise on deviations t_hat - nu of mean U."""
    if sidedness == "two_sided":
        return np.abs(t_dev) < u
    if sidedness == "one_sided":
        return t_dev < u
    raise ConfigError(f"sidedness must be one of {SIDEDNESS}")


def run_trajectory(pair: ObservablePair, x: np.ndarray, config: ScreenConfig) -> Trajectory:
    """The trajectory of one trial's samples ``x``, ``config.n`` of them, as
    columns over the steps k = 1..n.

    The final step decides the trial's events: the screened error event
    is {s_hat - mu > epsilon and screened} at k = n.  Guarantees attach
    to the fixed horizon only; intermediate screened times are
    diagnostics.
    """
    f_vals = np.asarray(pair.f(x), dtype=float).tolist()
    u_vals = np.asarray(pair.u(x), dtype=float).tolist()
    s_hat = t_hat = 0.0
    s_col: list[float] = []
    t_col: list[float] = []
    s_append, t_append = s_col.append, t_col.append
    for k, f_value, u_value in zip(range(1, config.n + 1), f_vals, u_vals, strict=True):
        # m <- m + (v - m)/k, as the stepwise reference in tests/reference.py steps it
        s_hat += (f_value - s_hat) / k
        t_hat += (u_value - t_hat) / k
        s_append(s_hat)
        t_append(t_hat)
    t_arr = np.array(t_col)
    screened = screened_mask(t_arr - float(pair.nu), config.u, config.sidedness)
    return Trajectory(np.array(s_col), t_arr, screened)
