"""Streaming screened estimator and control-variate comparison.

The screened estimator keeps the running mean of F(X_i) but only
*accepts* it at times k when the running mean of U(X_i) lies within u of
its known mean.  All comparisons are strict: a boundary hit counts as
not screened and not an error, matching the open error event the bounds
are stated for.  Running means use the stable one-pass recurrence
m <- m + (v - m)/k on doubles, because heavy-tailed samples produce
large magnitudes.  ``update_stream`` and ``screen_decision`` state the
recurrence and the predicate one step at a time; ``screened_mask``
applies the predicate elementwise, for the harness kernel's counts too.
``run_trajectory`` is a function of one trial's samples X_1..X_n: it
performs the same IEEE operations, on plain floats in one loop, and
returns a ``Trajectory``: three read-only numpy columns, the running
means of F and U and the screening flag, with step k at index k - 1.
The columns, and the CSVs written from them with no conversion, are
bit-identical to stepping the reference functions (tests pin both).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist_models import ObservablePair
from .errors import ConfigError, EmptyStreamError, InputError

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


@dataclass(frozen=True)
class StreamState:
    k: int = 0
    s_hat: float = 0.0  # running mean of F values
    t_hat: float = 0.0  # running mean of U values


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


def update_stream(state: StreamState, f_value: float, u_value: float) -> StreamState:
    """Consume one sample; means update by m <- m + (v - m)/k."""
    k = state.k + 1
    return StreamState(
        k=k,
        s_hat=state.s_hat + (f_value - state.s_hat) / k,
        t_hat=state.t_hat + (u_value - state.t_hat) / k,
    )


def screen_decision(
    state: StreamState, nu: float, u: float, sidedness: str = "two_sided"
) -> bool:
    """Strict screening predicate at the current step."""
    if state.k < 1:
        raise EmptyStreamError("screen decision requested on an empty stream")
    if sidedness == "two_sided":
        return abs(state.t_hat - nu) < u
    if sidedness == "one_sided":
        return state.t_hat - nu < u
    raise ConfigError(f"sidedness must be one of {SIDEDNESS}")


def screened_mask(t_dev, u: float, sidedness: str) -> np.ndarray:
    """``screen_decision`` elementwise, on deviations t_hat - nu of the running mean of U."""
    if sidedness == "two_sided":
        return np.abs(t_dev) < u
    if sidedness == "one_sided":
        return t_dev < u
    raise ConfigError(f"sidedness must be one of {SIDEDNESS}")


def control_variate_estimate(f_values, u_values, beta: float, nu: float) -> float:
    """Mean of F(X_i) - beta * (U(X_i) - nu); beta = 0 is the plain mean."""
    f = np.asarray(f_values, dtype=float)
    u = np.asarray(u_values, dtype=float)
    if f.size == 0:
        raise InputError("control variate estimate needs at least one sample")
    if f.shape != u.shape:
        raise InputError("f_values and u_values must have equal length")
    return float(np.mean(f - beta * (u - nu)))


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
        # update_stream, inlined
        s_hat += (f_value - s_hat) / k
        t_hat += (u_value - t_hat) / k
        s_append(s_hat)
        t_append(t_hat)
    t_arr = np.array(t_col)
    screened = screened_mask(t_arr - float(pair.nu), config.u, config.sidedness)
    return Trajectory(np.array(s_col), t_arr, screened)
