"""Scalar search: a caller-evaluated grid refined by golden section.

Every scalar search in the package starts from a grid the caller
evaluates, whose best point ``grid_min`` brackets by its two neighbours
and refines by ``golden_min``: the thm31(ii) alpha where the heavy
tail's margin curves, the beta of either emptiness certificate
(``min_convex_gap``) and the beta of the Monte Carlo kernel's certified
ceiling.  On a straight piece of the margin (a finite table's envelope,
the heavy tail's straight branch, the worked example's line) the
thm31(ii) alpha is taken in closed form instead
(``bound_engine.thm31_ii_search``).  Maximization negates the objective,
which is exact in floating point.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITERS = 200
_TOL = 1e-14


def golden_min(fn: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """(x, fn(x)) minimizing a unimodal ``fn`` on [lo, hi].

    Stops once the bracket [a, b] has b - a <= _TOL * (1 + |b|).
    Returns the midpoint of the final bracket unless one of the two
    interior points already evaluated is lower.
    """
    a, b = lo, hi
    c, d = b - _PHI * (b - a), a + _PHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_MAX_ITERS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _PHI * (b - a)
            fd = fn(d)
        if b - a <= _TOL * (1.0 + abs(b)):
            break
    x = 0.5 * (a + b)
    fx = fn(x)
    for cand, val in ((c, fc), (d, fd)):
        if val < fx:
            x, fx = cand, val
    return x, fx


def grid_min(
    fn: Callable[[float], float],
    grid: Sequence[float],
    values: Sequence[float],
    log: bool = False,
) -> tuple[float, float]:
    """Refine the smallest of ``values`` (= fn on ``grid``) by golden section.

    The search runs between the grid neighbours of the best point, in
    log space when ``log`` is set (the grid must then be positive).  The
    best grid point is returned instead when the refinement ends above
    it, so the result never loses to the grid.
    """
    j = int(np.argmin(values))
    lo = float(grid[max(j - 1, 0)])
    hi = float(grid[min(j + 1, len(grid) - 1)])
    if log:
        t, best = golden_min(lambda s: fn(math.exp(s)), math.log(lo), math.log(hi))
        x = math.exp(t)
    else:
        x, best = golden_min(fn, lo, hi)
    if best > values[j]:
        return float(grid[j]), float(values[j])
    return x, float(best)


_DECIDED = 2.0**-30  # a convexity bound above this share of the terms' size is positive


def _secant_floor(beta: list, gap: list, j: int) -> float:
    """Lower bound on a convex gap over [beta[j-1], beta[j+1]] from its grid values.

    A convex function lies above every secant line outside the secant's
    own chord.  Each grid interval of the bracket takes the larger of the
    minima of the two secants that reach it, through the two grid points
    on either side; at a grid end only the inward one exists.
    """
    last, floor = len(beta) - 1, math.inf
    for i in range(max(j - 1, 0), min(j, last - 1) + 1):  # the interval [beta[i], beta[i+1]]
        lo, hi = beta[i], beta[i + 1]
        bounds = []
        if i >= 1:  # the chord on its left, extended right to hi
            slope = (gap[i] - gap[i - 1]) / (beta[i] - beta[i - 1])
            bounds.append(min(gap[i], gap[i] + slope * (hi - lo)))
        if i + 2 <= last:  # the chord on its right, extended left to lo
            slope = (gap[i + 2] - gap[i + 1]) / (beta[i + 2] - beta[i + 1])
            bounds.append(min(gap[i + 1], gap[i + 1] - slope * (hi - lo)))
        floor = min(floor, max(bounds, default=-math.inf))
    return floor


def min_convex_gap(
    sup_oracle: Callable, c1: float, c2: float, grid: np.ndarray
) -> float:
    """Minimum over beta > 0 of sup[G1 + beta G2] - (c1 + beta c2), or a
    positive lower bound on it where the grid alone shows it is positive.

    ``sup_oracle(beta)`` bounds sup[G1 + beta G2] from above, for a float
    beta and elementwise for an array; the grid takes one call.  The gap is
    convex in beta (a sup of affine maps minus an affine map), so the
    refined minimum of a positive log-spaced grid is its global minimum
    over the grid's span.  A negative value certifies that no law puts
    mean G1 >= c1 and mean G2 >= c2 at once.

    Callers read only the sign, and the grid settles it in most calls: a
    negative grid value is returned as it is, and where the secant bound
    of ``_secant_floor`` on the refinement's bracket exceeds 2^-30 of the
    terms' size there (|sup| + |c1| + |beta c2| at the five grid points
    around the best one), far above the rounding of any evaluation, that
    bound is returned.  Otherwise, and where those values are not all
    finite, the golden refinement runs.
    """

    def gap(beta):
        return sup_oracle(beta) - (c1 + beta * c2)

    with np.errstate(over="ignore"):  # a gap past the double range is +-inf, of its sign
        sup = sup_oracle(grid)
        values = sup - (c1 + grid * c2)
    j = int(np.argmin(values))
    if values[j] < 0.0:
        return float(values[j])
    near = slice(max(j - 2, 0), j + 3)
    beta, near_gap, near_sup = grid[near].tolist(), values[near].tolist(), sup[near].tolist()
    if all(map(math.isfinite, near_gap)):
        size = max(abs(s) + abs(c1) + abs(b * c2) for s, b in zip(near_sup, beta))
        floor = _secant_floor(beta, near_gap, j - near.start)
        if floor > _DECIDED * size:
            return floor
    _, best = grid_min(gap, grid, values, log=True)
    return best
