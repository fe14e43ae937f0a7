"""Numeric Fenchel-Legendre rate functions for screened estimation.

All exponents are suprema of (linear tilt reward) - (joint log-MGF) over
nonnegative tilt parameters.  Four sign variants cover the one-sided
screened events and their left-tail mirrors:

=============  =====================  ==========================================
variant        sign pattern (F, U)    exponent
=============  =====================  ==========================================
lambda_plus    (+F, -U)               sup th1*(mu+eps) - th2*(nu+u) - log-MGF
gamma_plus     (+F, +U)               sup th1*(mu+eps) + th2*(nu-u) - log-MGF
lambda_minus   (-F, -U)               sup th1*(eps-mu) - th2*(nu+u) - log-MGF
gamma_minus    (-F, +U)               sup th1*(eps-mu) + th2*(nu-u) - log-MGF
=============  =====================  ==========================================

Each variant needs its own domination assumption (a finite margin in the
matching direction); missing margins raise CapabilityError rather than
silently returning junk.

The exponent gap delta(eps, u) = max(lambda_plus, gamma_plus) - plain
Chernoff rate quantifies how much screening improves the error exponent
in the light-tailed case; it vanishes exactly when F(X) and U(X) are
uncorrelated in the independent-factor sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._optim import golden_min, min_convex_gap
from .dist_models import DistributionModel, ObservablePair, log_mgf_signed
from .errors import CapabilityError, NumericError

THETA_MAX_CERTIFY = 2.0**60
DELTA_CLAMP_TOL = 1e-6

_VARIANTS = {
    "lambda_plus": (+1.0, -1.0),
    "gamma_plus": (+1.0, +1.0),
    "lambda_minus": (-1.0, -1.0),
    "gamma_minus": (-1.0, +1.0),
}


@dataclass(frozen=True)
class RatePoint:
    """Rates at one (epsilon, u): plain, screened variants, and their gap."""

    epsilon: float
    u: float
    lambda_star: float
    lambda_plus_star: float
    gamma_plus_star: float
    delta: float
    theta_star: tuple[float, float] | None

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "u": self.u,
            "lambda_star": self.lambda_star,
            "lambda_plus_star": self.lambda_plus_star,
            "gamma_plus_star": self.gamma_plus_star,
            "delta": self.delta,
            "theta_star": list(self.theta_star) if self.theta_star else None,
        }


# ---------------------------------------------------------------------------
# the shared concave maximizer
# ---------------------------------------------------------------------------


def _coordinate_grid(theta_max: float) -> np.ndarray:
    ks = np.arange(-16, max(4, int(math.ceil(math.log2(theta_max)))) + 1)
    pts = 2.0**ks
    pts = pts[pts <= theta_max]
    return np.concatenate([[0.0], pts])


def _line_max(
    fn: Callable[[float], float],
    x0: float,
    f0: float,
    hi_cap: float,
    rel_tol: float,
) -> tuple[float, float]:
    """Maximize a concave slice by bracket expansion then golden section.

    The bracket grows geometrically from the current point until the
    value stops improving on both sides (or hits 0 / the box ceiling);
    concavity of the slice makes the bracketed maximum global.
    """
    h = max(abs(x0), 1e-3)
    lo = max(0.0, x0 - h)
    hi = min(hi_cap, x0 + h)
    f_lo, f_hi = fn(lo), fn(hi)
    for _ in range(80):
        grew = False
        if f_hi >= max(f0, f_lo) and hi < hi_cap:
            hi = min(hi_cap, hi + 2.0 * (hi - x0))
            f_hi = fn(hi)
            grew = True
        if f_lo >= max(f0, f_hi) and lo > 0.0:
            lo = max(0.0, lo - 2.0 * (x0 - lo))
            f_lo = fn(lo)
            grew = True
        if not grew:
            break
    x, neg = golden_min(lambda t: -fn(t), lo, hi, rel_tol)
    fx = -neg
    for cand, val in ((x0, f0), (lo, f_lo), (hi, f_hi)):
        if val > fx:
            x, fx = cand, val
    return x, fx


def _check_value(value: float, point) -> float:
    if math.isnan(value):
        raise NumericError(f"objective evaluated to NaN at {point}")
    return value


def legendre_sup(
    objective: Callable[[np.ndarray], float], dim: int = 2
) -> tuple[float, np.ndarray]:
    """Supremum of a concave objective over the nonnegative orthant.

    Multi-start log-spaced grid, then coordinate-wise golden-section
    ascent; the box ceiling doubles until the maximizer is interior and
    the objective stops improving along the ray through it.  If it still
    improves at a ceiling of 2^60 the supremum is certified unbounded
    and +inf is returned (an empty screened event).  -inf objective
    values mark hard infeasibility (a diverging log-MGF) and are simply
    never selected.
    """
    theta_max = 8.0
    while True:
        value, arg = _grid_ascend(objective, dim, theta_max)
        if math.isinf(value) and value > 0:
            return value, arg
        at_boundary = bool(np.any(arg > 0.45 * theta_max))
        if not at_boundary and np.any(arg > 0):
            # coordinate ascent can stall mid-box on a ray along which the
            # objective is unbounded; a probe up the ray exposes that
            probe = _check_value(objective(2.0 * arg), tuple(2.0 * arg))
            at_boundary = probe > value + 1e-9 * abs(value) + 1e-12
        if not at_boundary:
            return value, arg
        if theta_max >= THETA_MAX_CERTIFY:
            return math.inf, arg
        theta_max *= 4.0


def _grid_ascend(
    objective: Callable[[np.ndarray], float], dim: int, theta_max: float
) -> tuple[float, np.ndarray]:
    pts = _coordinate_grid(theta_max)
    best_val = -math.inf
    best = np.zeros(dim)
    if dim == 1:
        for t in pts:
            v = _check_value(objective(np.array([t])), (t,))
            if v > best_val:
                best_val, best = v, np.array([t])
    else:
        for t1 in pts:
            for t2 in pts:
                point = np.array([t1, t2])
                v = _check_value(objective(point), (t1, t2))
                if v > best_val:
                    best_val, best = v, point

    current = best.copy()
    value = best_val
    # coarse sweeps position the point cheaply; tight sweeps finish it
    for rel_tol, max_sweeps in ((1e-5, 30), (1e-12, 60)):
        for _ in range(max_sweeps):
            sweep_start = current.copy()
            improved = value
            for i in range(dim):
                def slice_fn(t: float, i=i) -> float:
                    p = current.copy()
                    p[i] = t
                    return _check_value(objective(p), tuple(p))

                t_i, v_i = _line_max(slice_fn, current[i], value, theta_max, rel_tol)
                if v_i > value:
                    value = v_i
                    current[i] = t_i
            # accelerate along the sweep displacement: coordinate moves
            # alone zigzag hopelessly on the narrow ridges these
            # objectives develop when the tilt coordinates are nearly
            # collinear
            direction = current - sweep_start
            if dim > 1 and float(np.max(np.abs(direction))) > 0.0:
                s_max = math.inf
                for i in range(dim):
                    if direction[i] > 0:
                        s_max = min(s_max, (theta_max - sweep_start[i]) / direction[i])
                    elif direction[i] < 0:
                        s_max = min(s_max, sweep_start[i] / -direction[i])

                def ray_fn(s: float) -> float:
                    p = np.maximum(sweep_start + s * direction, 0.0)
                    return _check_value(objective(p), tuple(p))

                if s_max > 1.0:
                    s_i, v_i = _line_max(ray_fn, 1.0, value, s_max, rel_tol)
                    if v_i > value:
                        value = v_i
                        current = np.maximum(sweep_start + s_i * direction, 0.0)
            if value - improved <= 1e-13 * (1.0 + abs(value)):
                break
    return value, current


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def rate_lambda_star(
    model: DistributionModel, pair: ObservablePair, epsilon: float
) -> float:
    """Chernoff rate of the plain estimator's mean excess event.

    sup over theta >= 0 of theta*(mu + epsilon) - log E[e^{theta F(X)}];
    zero when F(X) has no finite positive exponential moment (the plain
    error then decays only polynomially) and at epsilon = 0.
    """
    return _lambda_star_detail(model, pair, epsilon)[0]


def _lambda_star_detail(
    model: DistributionModel, pair: ObservablePair, epsilon: float
) -> tuple[float, float]:
    """``rate_lambda_star`` together with its maximizing tilt theta."""

    def objective(theta: np.ndarray) -> float:
        t = float(theta[0])
        lam = log_mgf_signed(model, pair, t, 0.0)
        if math.isinf(lam):
            return -math.inf
        return t * (pair.mu + epsilon) - lam

    value, arg = legendre_sup(objective, dim=1)
    return max(value, 0.0), float(arg[0])


def _variant_sup_oracle(pair: ObservablePair, variant: str):
    """(name, callable giving an upper bound on sup[s_f F + beta s_u U])."""
    if variant == "lambda_plus":
        return "margin", (None if pair.margin is None else pair.margin)
    if variant == "gamma_plus":
        return "sum_margin", (None if pair.sum_margin is None else pair.sum_margin)
    if variant == "lambda_minus":
        oracle = pair.sum_lower_margin
        return "sum_lower_margin", (None if oracle is None else lambda b: -oracle(b))
    oracle = pair.lower_margin
    return "lower_margin", (None if oracle is None else lambda b: -oracle(b))


def _require_margin(pair: ObservablePair, variant: str):
    name, oracle = _variant_sup_oracle(pair, variant)
    if oracle is None:
        raise CapabilityError(
            f"variant {variant} needs the {name} domination oracle, "
            "which this pair does not declare"
        )
    return oracle


def _event_is_empty(sup_oracle, c1: float, c2: float) -> bool:
    """True when some beta > 0 certifies sup[G1 + beta G2] < c1 + beta c2.

    The certified inequality makes the closed event
    {mean G1 >= c1, mean G2 >= c2} impossible, hence the rate is +inf.
    The convex gap of ``_optim.min_convex_gap`` is searched over
    beta in [2^-30, 2^30].  Unlike the zero-event certificate a zero gap
    does not suffice: the event is closed, so a law with
    mean G1 + beta mean G2 = sup[G1 + beta G2] may still lie in it.
    """
    return min_convex_gap(sup_oracle, c1, c2, 2.0 ** np.arange(-30, 31)) < 0.0


def rate_plus_star(
    model: DistributionModel,
    pair: ObservablePair,
    epsilon: float,
    u: float,
    variant: str = "lambda_plus",
) -> float:
    """Screened-event rate for one sign variant.

    +inf certifies an empty event: either a margin certificate shows the
    moment constraints are jointly impossible, or the tilt supremum
    grows without bound.
    """
    value, _ = rate_plus_star_detail(model, pair, epsilon, u, variant)
    return value


def rate_plus_star_detail(
    model: DistributionModel,
    pair: ObservablePair,
    epsilon: float,
    u: float,
    variant: str = "lambda_plus",
) -> tuple[float, tuple[float, float]]:
    """The rate together with its maximizing tilt (theta1, theta2)."""
    if variant not in _VARIANTS:
        raise CapabilityError(f"unknown variant {variant!r}")
    sup_oracle = _require_margin(pair, variant)
    s_f, s_u = _VARIANTS[variant]
    c1 = s_f * pair.mu + epsilon
    c2 = s_u * pair.nu - u
    if _event_is_empty(sup_oracle, c1, c2):
        return math.inf, (math.inf, math.inf)

    def objective(theta: np.ndarray) -> float:
        t1, t2 = float(theta[0]), float(theta[1])
        lam = log_mgf_signed(model, pair, s_f * t1, s_u * t2)
        if math.isinf(lam):
            return -math.inf
        return t1 * c1 + t2 * c2 - lam

    value, arg = legendre_sup(objective, dim=2)
    return max(value, 0.0), (float(arg[0]), float(arg[1]))


def two_sided_bound(
    model: DistributionModel,
    pair: ObservablePair,
    epsilon: float,
    u: float,
    n: int,
) -> float:
    """exp(-n*lambda_plus) + exp(-n*lambda_minus) for the two-sided event.

    At n = 0 the bound is the vacuous value 2.
    """
    if n == 0:
        return 2.0
    lam_plus = rate_plus_star(model, pair, epsilon, u, "lambda_plus")
    lam_minus = rate_plus_star(model, pair, epsilon, u, "lambda_minus")

    def term(rate: float) -> float:
        return 0.0 if math.isinf(rate) else math.exp(-n * rate)

    return term(lam_plus) + term(lam_minus)


def delta_exponent(
    model: DistributionModel, pair: ObservablePair, epsilon: float, u: float
) -> RatePoint:
    """Gap between the best screened exponent and the plain Chernoff rate.

    Defined only for light-tailed models (both observables need finite
    exponential moments).  The gap is clamped to 0 when within solver
    tolerance, since both suprema come from the same optimizer and a
    zero gap is exact at independence.
    """
    if not model.finite_exponential_moments:
        raise CapabilityError(
            "the exponent gap is a light-tail construct; this model is heavy-tailed"
        )
    lam_star = rate_lambda_star(model, pair, epsilon)
    lam_plus, arg_plus = rate_plus_star_detail(model, pair, epsilon, u, "lambda_plus")
    gam_plus, arg_gam = rate_plus_star_detail(model, pair, epsilon, u, "gamma_plus")
    best = max(lam_plus, gam_plus)
    raw = best - lam_star
    delta = 0.0 if abs(raw) <= DELTA_CLAMP_TOL else raw
    if delta < 0.0 and raw < -DELTA_CLAMP_TOL:
        raise NumericError(
            f"negative exponent gap {raw}: screened rate below the plain rate"
        )
    theta = arg_plus if lam_plus >= gam_plus else arg_gam
    return RatePoint(
        epsilon=epsilon,
        u=u,
        lambda_star=lam_star,
        lambda_plus_star=lam_plus,
        gamma_plus_star=gam_plus,
        delta=delta,
        theta_star=theta if math.isfinite(best) else None,
    )
