"""Scalar search: a caller-evaluated grid refined by golden section.

Every scalar search in the package (the thm31(ii) alpha, the worked
example's alpha, a certifying beta, a margin's x, a tilt along one line)
ends in ``golden_min``.  All but the line search start from a grid the
caller evaluates, whose best point ``grid_min`` brackets by its two
neighbours.  Maximization negates the objective, which is exact in
floating point.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITERS = 200


def golden_min(
    fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-14
) -> tuple[float, float]:
    """(x, fn(x)) minimizing a unimodal ``fn`` on [lo, hi].

    Stops once the bracket [a, b] has b - a <= tol * (1 + |b|).
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
        if b - a <= tol * (1.0 + abs(b)):
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


def min_convex_gap(
    sup_oracle: Callable, c1: float, c2: float, grid: np.ndarray
) -> float:
    """Minimum over beta > 0 of sup[G1 + beta G2] - (c1 + beta c2).

    ``sup_oracle(beta)`` bounds sup[G1 + beta G2] from above, for a float
    beta and elementwise for an array; the grid takes one call.  The gap is
    convex in beta (a sup of affine maps minus an affine map), so the
    refined minimum of a positive log-spaced grid is its global minimum
    over the grid's span.  A negative value certifies that no law puts
    mean G1 >= c1 and mean G2 >= c2 at once.
    """

    def gap(beta):
        return sup_oracle(beta) - (c1 + beta * c2)

    _, best = grid_min(gap, grid, gap(grid), log=True)
    return best
