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
  ``thm31_ii_search`` maximizes in closed form or on its grid;
- ``alpha_grid_pieces_by_walk``: ``AlphaGrid.pieces`` found by walking
  from the edge in beta to the first grid point past it, where the
  production path marks the whole grid with the margin's branch test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from screened_mc.bound_engine import (
    _ALPHA_HI,
    _ALPHA_MIN,
    _ALPHA_STEP,
    _require_normalized,
    _thm31_ii_objective,
    margin,
)
from screened_mc.dist_models import (
    DistributionModel,
    FiniteMargin,
    ObservablePair,
    ParetoMargin,
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


def alpha_grid_pieces_by_walk(pair: ObservablePair, epsilon: float, u: float):
    """``AlphaGrid(pair, epsilon, u).pieces`` by a walk along the grid.

    Each branch test of ``ParetoMargin.__call__`` changes value once along
    the grid, so the walk starts at the alpha of the beta where it flips
    and steps to the first grid point where it holds, testing each point
    on floats as ``__call__`` does; the three signs of the infinite part's
    slope q and the two directions of the peak branch are separate cases.
    """
    oracle = pair.margin
    straight = oracle.straight if isinstance(oracle, (FiniteMargin, ParetoMargin)) else None
    alphas = np.arange(_ALPHA_STEP, 1.0, _ALPHA_STEP)

    def beta(j):  # the oracle's beta at grid point j, as ``values`` takes it
        return float(alphas[j]) * epsilon / u

    def first(test, edge):
        """The first grid index where ``test`` (False, then True) holds: from
        the alpha of the beta ``edge``, then checked exactly on its neighbours."""
        n, t = len(alphas), int(np.searchsorted(alphas, edge * u / epsilon))
        while t > 0 and test(t - 1):
            t -= 1
        while t < n and not test(t):
            t += 1
        return t

    if straight is None:
        infinite = oracle.infinite if isinstance(oracle, ParetoMargin) else None
        if infinite is None:
            return None, alphas
        p, q = infinite  # the margin is +inf where p + beta q > 0: a half-line
        if q == 0.0:
            return None, (None if p > 0.0 else alphas)
        t = first(lambda j: (p + beta(j) * q > 0.0) == (q > 0.0), -p / q)
        if q > 0.0:  # finite below the edge
            return None, (alphas[: t + 1] if t else None)
        return None, (alphas[max(t - 1, 0) :] if t < len(alphas) else None)
    table, (k, up) = straight[0], straight[1] or (None, None)
    atoms, breaks = table.envelope
    lines = ([table.f_values[i] for i in atoms], [table.u_values[i] for i in atoms], breaks)
    if k is None:
        return (*lines, _ALPHA_MIN, _ALPHA_HI), None

    def past(j):  # grid point j lies above the peak branch's edge, by __call__'s test
        r = k / beta(j)
        return (r > 1.0 if up else r < 1.0) != up

    n, t = len(alphas), first(past, k)
    if up:  # the peak branch below the edge, the straight pieces above it
        curved = alphas[: t + 1] if t else None
        span = (float(alphas[t]), _ALPHA_HI) if t < n else None
    else:
        curved = alphas[max(t - 1, 0) :] if t < n else None
        span = (_ALPHA_MIN, float(alphas[t - 1])) if t else None
    return span and (*lines, *span), curved
