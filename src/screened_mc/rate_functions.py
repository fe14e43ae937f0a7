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

Every supremum is one damped Newton ascent (``legendre_sup``) on the
tilted mean and covariance of (F, U), the gradient and Hessian of the
log-MGF, from ``dist_models.tilted_moments``; ``log_mgf_signed`` is the
value oracle of its line search.  A margin certificate decides +inf
first; an ascent still improving beyond THETA_MAX_CERTIFY = 2^60
certifies +inf as well.

The exponent gap delta(eps, u) = max(lambda_plus, gamma_plus) - plain
Chernoff rate quantifies how much screening improves the error exponent
in the light-tailed case; it vanishes exactly when F(X) and U(X) are
uncorrelated in the independent-factor sense.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from ._optim import min_convex_gap
from .dist_models import DistributionModel, ObservablePair, log_mgf_signed, tilted_moments
from .errors import CapabilityError, NumericError

THETA_MAX_CERTIFY = 2.0**60
DELTA_CLAMP_TOL = 1e-6
NEWTON_MAX_ITER = 100
_ARMIJO = 1e-4  # fraction of the predicted ascent a step must realize
_RESOLUTION = 1e-15  # relative gain below which the value oracle sees nothing
_DECREMENT_NOISE = 1e-9  # a failed search below this decrement is rounding
_KKT_TOL = 1e-8  # projected gradient times (1 + |theta|), relative to 1 + |value|
_FLAT_CURVATURE = 1e-13  # eigenvalues below this fraction of the largest count as 0

# variant -> (sign of F, sign of U, the margin oracle bounding its extremum)
_VARIANTS = {
    "lambda_plus": (+1.0, -1.0, "margin"),
    "gamma_plus": (+1.0, +1.0, "sum_margin"),
    "lambda_minus": (-1.0, -1.0, "sum_lower_margin"),
    "gamma_minus": (-1.0, +1.0, "lower_margin"),
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
        return {**asdict(self), "theta_star": list(self.theta_star) if self.theta_star else None}


# ---------------------------------------------------------------------------
# the shared concave maximizer
# ---------------------------------------------------------------------------


def _newton_step(theta: np.ndarray, grad: np.ndarray, curvature: np.ndarray) -> np.ndarray:
    """Newton ascent step, holding at 0 the coordinates it would push below.

    ``curvature`` (minus the Hessian) is a tilted covariance: positive
    semidefinite, and singular where some combination of F and U is
    constant or the tilted law sits on one atom.  On its flat
    eigenvectors the objective is linear and the step is the gradient's
    component.  Blocked coordinates are held one at a time, the one the
    gradient pulls outward hardest first.  One free coordinate takes g/c,
    or g where c is flat (c <= 0): what eigh gives on a 1x1 matrix.
    """
    free = list(range(theta.size))
    while True:
        step = np.zeros_like(theta)
        if len(free) == 1:
            (i,) = free
            c = float(curvature[i, i])
            step[i] = grad[i] / c if c > 0.0 else grad[i]
        elif free:
            sub = curvature if len(free) == theta.size else curvature[np.ix_(free, free)]
            w, vecs = np.linalg.eigh(sub)
            flat = w <= _FLAT_CURVATURE * max(float(w.max()), 0.0)
            step[free] = vecs @ ((vecs.T @ grad[free]) / np.where(flat, 1.0, w))
        blocked = [i for i in free if theta[i] == 0.0 and step[i] < 0.0]
        if not blocked:
            return step
        free.remove(min(blocked, key=grad.__getitem__))


def _line_search(value, theta, v, step, slope, floor, last=False):
    """Armijo search along ``step``, cut where it leaves the orthant.

    Halves from the full (or cut) step while the predicted gain stays
    above ``floor``; a first step gaining 3/4 of its linear prediction
    (the model overstates the curvature) doubles while the value rises.
    ``last`` takes the first step as it is.  Returns the point (None if
    none is accepted) and the best value seen.
    """
    out = np.flatnonzero(step < 0.0)
    cut = theta[out] / -step[out]
    limit = float(cut.min(initial=math.inf))

    def trial(alpha: float) -> tuple[float, np.ndarray]:
        point = np.maximum(theta + alpha * step, 0.0)
        point[out[cut <= alpha]] = 0.0  # what the step zeroes lands on 0 exactly
        fv = value(point)
        if math.isnan(fv):
            raise NumericError(f"objective evaluated to NaN at {tuple(point)}")
        return fv, point

    alpha = min(1.0, limit)
    fv, point = trial(alpha)
    if last or fv >= v + 0.75 * alpha * slope:
        while not last and alpha < limit and float(point.max()) <= THETA_MAX_CERTIFY:
            alpha = min(2.0 * alpha, limit)
            longer = trial(alpha)
            if longer[0] <= fv:
                break
            fv, point = longer
        return (point if fv > -math.inf else None), fv
    reached = fv
    while fv < v + _ARMIJO * alpha * slope:
        alpha *= 0.5
        if alpha * slope <= floor:
            return None, reached
        fv, point = trial(alpha)
        reached = max(reached, fv)
    return point, fv


def legendre_sup(
    value: Callable[[np.ndarray], float],
    derivatives: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
    dim: int = 2,
) -> tuple[float, np.ndarray]:
    """Supremum of a concave objective over the nonnegative orthant.

    ``value(theta)`` is the objective, -inf outside its domain;
    ``derivatives(theta)`` gives the value, gradient and Hessian at a
    point of the domain.  Damped Newton from theta = 0.  Once the
    decrement grad . step is below the value oracle's resolution,
    1e-15 (1 + |value|), full Newton steps go on while the KKT residual
    (projected gradient times 1 + |theta|) falls.  The point is returned
    once the residual is below 1e-8 (1 + |value|); a residual that stops
    falling raises NumericError.

    A search that finds no point of the domain gives the coordinates it
    holds at 0 the largest push into the interior that keeps half the
    ascent rate (on the heavy tail theta2 = 0 < theta1 is outside the
    domain).  With nothing held, or when the pushed search resolves no
    gain either, the point is a maximum on the domain's edge to within
    the value oracle's resolution (theta = 0 for a law with no positive
    exponential moment).  Other failed searches raise NumericError,
    unless the decrement is below 1e-9 (1 + |value|), and so does
    running NEWTON_MAX_ITER iterations.  An improving iterate beyond
    THETA_MAX_CERTIFY certifies +inf.
    """
    theta, polished, last_kkt = np.zeros(dim), False, math.inf
    for _ in range(NEWTON_MAX_ITER):
        v, grad, hess = derivatives(theta)
        if not (np.isfinite(v) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            raise NumericError(f"objective or its derivatives not finite at {tuple(theta)}")
        step = _newton_step(theta, grad, -hess)
        decrement, scale = float(grad @ step), 1.0 + abs(v)
        point, floor = None, _RESOLUTION * scale
        if decrement > floor:
            point, reached = _line_search(value, theta, v, step, decrement, floor)
            held = (theta == 0.0) & (step == 0.0) & (grad < 0.0)
            if point is None and reached == -math.inf and held.any():
                # the face held at 0 is outside the domain: push into the interior
                step[held] = decrement / (2.0 * held.sum() * -grad[held])
                decrement *= 0.5
                point, _ = _line_search(value, theta, v, step, decrement, floor)
                reached = -math.inf
            if point is None and reached == -math.inf:
                return v, theta
            if point is None and decrement > _DECREMENT_NOISE * scale:
                raise NumericError(f"no Newton ascent from {tuple(theta)} ({decrement=:.3g})")
        if point is None:
            # the value oracle no longer resolves the gain: full steps while the KKT residual falls
            pg = np.where(theta > 0.0, grad, np.maximum(grad, 0.0))
            kkt = float(np.abs(pg).max()) * (1.0 + float(theta.max()))
            if polished and kkt <= _KKT_TOL * scale:
                return v, theta
            if kkt >= last_kkt:
                raise NumericError(f"Newton ascent stalled at {tuple(theta)} ({grad=})")
            point, _ = _line_search(value, theta, v, step, decrement, floor, last=True)
            if point is None:
                raise NumericError(f"a converged Newton step leaves the domain at {tuple(theta)}")
            polished, last_kkt = True, kkt
        else:
            polished, last_kkt = False, math.inf
        if float(point.max()) > THETA_MAX_CERTIFY:
            return math.inf, point
        theta = point
    raise NumericError(f"Newton ascent did not converge in {NEWTON_MAX_ITER} iterations")


def _tilt_sup(
    model: DistributionModel, pair: ObservablePair, signs, c
) -> tuple[float, np.ndarray]:
    """sup over theta >= 0 of theta . c - log E[exp(sum_i signs_i theta_i G_i)].

    G = (F, U), cut to the first len(c) coordinates.
    """
    dim = len(c)
    s, c = np.asarray(signs[:dim], dtype=float), np.asarray(c, dtype=float)

    def coefficients(theta: np.ndarray) -> tuple[float, float]:
        return float(s[0] * theta[0]), float(s[1] * theta[1]) if dim == 2 else 0.0

    def value(theta: np.ndarray) -> float:
        lam = log_mgf_signed(model, pair, *coefficients(theta))
        return -math.inf if math.isinf(lam) else float(theta @ c) - lam

    def derivatives(theta: np.ndarray):
        lam, mean, cov = tilted_moments(model, pair, *coefficients(theta))
        return float(theta @ c) - lam, c - s * mean[:dim], -cov[:dim, :dim] * np.outer(s, s)

    return legendre_sup(value, derivatives, dim)


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
    value, arg = _tilt_sup(model, pair, (1.0,), (pair.mu + epsilon,))
    return max(value, 0.0), float(arg[0])


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
    s_f, s_u, name = _VARIANTS[variant]
    oracle = getattr(pair, name)
    if oracle is None:
        raise CapabilityError(
            f"variant {variant} needs the {name} domination oracle, "
            "which this pair does not declare"
        )
    # a lower margin bounds an infimum; negated, it bounds sup[s_f F + beta s_u U]
    sup_oracle = (lambda b: -oracle(b)) if "lower" in name else oracle
    c1 = s_f * pair.mu + epsilon
    c2 = s_u * pair.nu - u
    if _event_is_empty(sup_oracle, c1, c2):
        return math.inf, (math.inf, math.inf)

    value, arg = _tilt_sup(model, pair, (s_f, s_u), (c1, c2))
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
    return math.exp(-n * lam_plus) + math.exp(-n * lam_minus)  # exp(-inf) = 0


def delta_exponent(
    model: DistributionModel, pair: ObservablePair, epsilon: float, u: float
) -> RatePoint:
    """Gap between the best screened exponent and the plain Chernoff rate.

    Defined only for light-tailed models (both observables need finite
    exponential moments).  The gap is clamped to 0 when within solver
    tolerance, since both suprema come from the same optimizer and a
    zero gap is exact at independence.
    """
    _require_light_tail(model)
    lam_star = rate_lambda_star(model, pair, epsilon)
    lam_plus, arg_plus = rate_plus_star_detail(model, pair, epsilon, u, "lambda_plus")
    return _delta_point(model, pair, epsilon, u, lam_star, lam_plus, arg_plus)


def _require_light_tail(model: DistributionModel) -> None:
    if not model.is_finite:
        raise CapabilityError(
            "the exponent gap is a light-tail construct; this model is heavy-tailed"
        )


def _delta_point(model, pair, epsilon, u, lam_star, lam_plus, arg_plus) -> RatePoint:
    """``delta_exponent`` from lambda_star and (lambda_plus, theta) already solved."""
    _require_light_tail(model)
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
