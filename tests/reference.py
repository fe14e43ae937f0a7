"""Reference paths that the package's fast paths are tested against.

None of these runs in a command.  Each states one computation plainly,
and a test compares the production path that replaces it:

- ``StreamState``, ``update_stream`` and ``screen_decision``: the
  screened estimator one step at a time, which ``run_trajectory``
  inlines and ``screened_mask`` applies elementwise;
- ``control_variate_estimate``: the comparison estimator;
- ``exact_moments``: the pair's statistics from the model itself, which
  the pair constructors store;
- ``thm31_ii_exponent_at``: thm31(ii)'s objective at given alphas, which
  ``thm31_ii_search`` maximizes in closed form or on its grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from screened_mc.bound_engine import _require_normalized, _thm31_ii_objective, margin
from screened_mc.dist_models import (
    DistributionModel,
    ObservablePair,
    _finite_moments,
    _pareto_moments,
    canonical_power,
)
from screened_mc.errors import ConfigError, DomainError, InputError
from screened_mc.screen_core import SIDEDNESS


@dataclass(frozen=True)
class StreamState:
    k: int = 0
    s_hat: float = 0.0  # running mean of F values
    t_hat: float = 0.0  # running mean of U values


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
        raise InputError("screen decision requested on an empty stream")
    if sidedness == "two_sided":
        return abs(state.t_hat - nu) < u
    if sidedness == "one_sided":
        return state.t_hat - nu < u
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


def exact_moments(
    model: DistributionModel, pair: ObservablePair
) -> tuple[float, float, float, float, float]:
    """(mu, nu, var_F, var_U, gamma) computed from the model itself."""
    if model.is_finite:
        f = np.asarray(pair.f(model.atoms), dtype=float)
        u = np.asarray(pair.u(model.atoms), dtype=float)
        return _finite_moments(model.probs, f, u)
    return _pareto_moments(canonical_power(pair.f), canonical_power(pair.u))


def thm31_ii_exponent_at(pair: ObservablePair, epsilon: float, u: float, alpha):
    """The covariance-aware objective at alpha in (0, 1), or at an array of them.

    Where m <= 0 the averaged variable is nonpositive, the event is
    already empty, and the objective is +inf.  Where m = +inf it is 0,
    its limit as m grows.
    """
    _require_normalized(pair)
    inside = (0.0 < alpha) & (alpha < 1.0)
    if not (inside.all() if isinstance(alpha, np.ndarray) else inside):
        raise DomainError("alpha must lie in (0, 1)")
    beta = alpha * epsilon / u
    return _thm31_ii_objective(pair.gamma, epsilon, alpha, beta, margin(pair, beta))
