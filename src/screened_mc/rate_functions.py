"""Numeric Fenchel-Legendre rate functions for screened estimation.

All exponents are suprema of (linear tilt reward) - (joint log-MGF) over
nonnegative tilt parameters.  Four sign variants cover the one-sided
screened events and their left-tail mirrors:

=============  ==================  ==========================================
variant        (s_f, s_u)          exponent
=============  ==================  ==========================================
lambda_plus    (+1, -1)            sup th1*(mu+eps) - th2*(nu+u) - log-MGF
gamma_plus     (+1, +1)            sup th1*(mu+eps) + th2*(nu-u) - log-MGF
lambda_minus   (-1, -1)            sup th1*(eps-mu) - th2*(nu+u) - log-MGF
gamma_minus    (-1, +1)            sup th1*(eps-mu) + th2*(nu-u) - log-MGF
=============  ==================  ==========================================

Each variant needs its own domination assumption: the pair's margin
``margins[(s_f, s_u)]``, a bound on sup[s_f F + beta s_u U].  A pattern
the pair does not declare raises CapabilityError rather than silently
returning junk.

A supremum is one damped Newton ascent (``legendre_sup``) on the tilted
mean and covariance of (F, U), the log-MGF's gradient and Hessian, from
``dist_models.tilted_moments``; ``log_mgf_signed``, from the same values
of F and U, is the value oracle of its line search.  A certificate decides
+inf first (a margin; max F < mu + eps for the plain rate on a finite
model); an ascent still improving beyond THETA_MAX_CERTIFY = 2^60
certifies +inf as well.  On a finite model a screened variant handed the
plain rate takes no ascent where the screen is slack at the plain tilt
(``rate_plus_star_detail``): one ascent serves all three rates.

The exponent gap delta(eps, u) = max(lambda_plus, gamma_plus) - plain
Chernoff rate quantifies how much screening improves the error exponent
in the light-tailed case; it vanishes exactly when F(X) and U(X) are
uncorrelated in the way independent factors are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._optim import min_convex_gap
from .dist_models import DistributionModel, ObservablePair, log_mgf_signed, tilted_moments
from .errors import CapabilityError, InputError, NumericError

THETA_MAX_CERTIFY = 2.0**60
_CERTIFY_BETAS = 2.0 ** np.arange(-30, 31)  # the emptiness certificate's beta grid
DELTA_CLAMP_TOL = 1e-6
NEWTON_MAX_ITER = 100
_ARMIJO = 1e-4  # fraction of the predicted ascent a step must realize
_RESOLUTION = 1e-15  # relative gain below which the value oracle sees nothing
_DECREMENT_NOISE = 1e-9  # a failed search below this decrement is rounding
_KKT_TOL = 1e-8  # projected gradient times (1 + |theta|), relative to 1 + |value|
_FLAT_CURVATURE = 1e-13  # eigenvalues below this fraction of the largest count as 0

# variant -> its sign pattern (s_f, s_u), the key of its margin
_VARIANTS = {
    "lambda_plus": (+1, -1),
    "gamma_plus": (+1, +1),
    "lambda_minus": (-1, -1),
    "gamma_minus": (-1, +1),
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
        return {**vars(self), "theta_star": list(self.theta_star) if self.theta_star else None}


# ---------------------------------------------------------------------------
# the shared concave maximizer
# ---------------------------------------------------------------------------


def _newton_step(theta, grad, curvature) -> list[float]:
    """Newton ascent step, holding at 0 the coordinates it would push below.

    ``curvature`` (minus the Hessian) is a tilted covariance: positive
    semidefinite, and singular where some combination of F and U is
    constant or the tilted law sits on one atom.  On its flat
    eigenvectors the objective is linear and the step is the gradient's
    component.  Blocked coordinates are held one at a time, the one the
    gradient pulls outward hardest first.  One free coordinate takes g/c,
    or g where c is flat (c <= 0).  A free 2x2 block takes its eigenpairs
    from one Jacobi rotation (Golub & Van Loan, sec. 8.5.2).
    """
    free = list(range(len(theta)))
    while True:
        step = [0.0] * len(theta)
        if len(free) == 1:
            (i,) = free
            c = curvature[i][i]
            step[i] = grad[i] / c if c > 0.0 else grad[i]
        elif free:
            (a, b), (_, d) = curvature
            cos, sin = 1.0, 0.0
            if b != 0.0:  # J^T C J = diag(a, d) for J = [[cos, sin], [-sin, cos]]
                tau = (d - a) / (2.0 * b)
                r = math.hypot(1.0, tau)
                t = 1.0 / (tau + r) if tau >= 0.0 else -1.0 / (r - tau)
                cos = 1.0 / math.sqrt(1.0 + t * t)
                sin, a, d = t * cos, a - t * b, d + t * b
            flat = _FLAT_CURVATURE * max(a, d, 0.0)
            p = (cos * grad[0] - sin * grad[1]) / (a if a > flat else 1.0)
            q = (sin * grad[0] + cos * grad[1]) / (d if d > flat else 1.0)
            step = [cos * p + sin * q, cos * q - sin * p]
        blocked = [i for i in free if theta[i] == 0.0 and step[i] < 0.0]
        if not blocked:
            return step
        free.remove(min(blocked, key=grad.__getitem__))


def _dot(x, y) -> float:
    """x . y, summed left to right from +0.0 (so a sum of zeros is +0.0)."""
    total = 0.0
    for a, b in zip(x, y):
        total += a * b
    return total


def _line_search(value, theta, v, step, slope, floor, last=False):
    """Armijo search along ``step``, cut where it leaves the orthant.

    Halves from the full (or cut) step while the predicted gain stays
    above ``floor``; a first step gaining 3/4 of its linear prediction
    (the model overstates the curvature) doubles while the value rises.
    ``last`` takes the first step as it is.  Returns the point (None if
    none is accepted) and the best value seen.
    """
    cut = [t / -s if s < 0.0 else math.inf for t, s in zip(theta, step)]
    limit = min(cut)

    def trial(alpha: float) -> tuple[float, tuple[float, ...]]:
        point = tuple(  # what the step zeroes lands on 0 exactly
            0.0 if k <= alpha else max(t + alpha * s, 0.0) for t, s, k in zip(theta, step, cut)
        )
        fv = value(point)
        if math.isnan(fv):
            raise NumericError(f"objective evaluated to NaN at {point}")
        return fv, point

    alpha = min(1.0, limit)
    fv, point = trial(alpha)
    if last or fv >= v + 0.75 * alpha * slope:
        while not last and alpha < limit and max(point) <= THETA_MAX_CERTIFY:
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
    value: Callable[[tuple[float, ...]], float],
    derivatives: Callable[[tuple[float, ...]], tuple[float, Sequence, Sequence]],
    dim: int = 2,
) -> tuple[float, np.ndarray]:
    """Supremum of a concave objective over the nonnegative orthant, dim 1 or 2.

    ``value(theta)`` is the objective, -inf outside its domain;
    ``derivatives(theta)`` gives the value, gradient and Hessian (any
    sequences) at a point of the domain; both get theta as a tuple of
    floats.  Damped Newton on plain floats from theta = 0.  Once the
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
    if dim not in (1, 2):
        raise InputError(f"legendre_sup solves in 1 or 2 dimensions, not {dim}")
    theta, polished, last_kkt = (0.0,) * dim, False, math.inf
    for _ in range(NEWTON_MAX_ITER):
        v, grad, hess = derivatives(theta)
        v, grad = float(v), tuple(map(float, grad))
        curvature = [[-float(h) for h in row] for row in hess]
        if not all(map(math.isfinite, (v, *grad, *[h for row in curvature for h in row]))):
            raise NumericError(f"objective or its derivatives not finite at {theta}")
        step = _newton_step(theta, grad, curvature)
        decrement, scale = _dot(grad, step), 1.0 + abs(v)
        point, floor = None, _RESOLUTION * scale
        if decrement > floor:
            point, reached = _line_search(value, theta, v, step, decrement, floor)
            held = [i for i in range(dim) if theta[i] == 0.0 and step[i] == 0.0 and grad[i] < 0.0]
            if point is None and reached == -math.inf and held:
                # the face held at 0 is outside the domain: push into the interior
                for i in held:
                    step[i] = decrement / (2.0 * len(held) * -grad[i])
                decrement *= 0.5
                point, _ = _line_search(value, theta, v, step, decrement, floor)
                reached = -math.inf
            if point is None and reached == -math.inf:
                break
            if point is None and decrement > _DECREMENT_NOISE * scale:
                raise NumericError(f"no Newton ascent from {theta} ({decrement=:.3g})")
        if point is None:
            # the value oracle no longer resolves the gain: full steps while the KKT residual falls
            pg = [abs(g if t > 0.0 else max(g, 0.0)) for t, g in zip(theta, grad)]
            kkt = max(pg) * (1.0 + max(theta))
            if polished and kkt <= _KKT_TOL * scale:
                break
            if kkt >= last_kkt:
                raise NumericError(f"Newton ascent stalled at {theta} (grad={grad})")
            point, _ = _line_search(value, theta, v, step, decrement, floor, last=True)
            if point is None:
                raise NumericError(f"a converged Newton step leaves the domain at {theta}")
            polished, last_kkt = True, kkt
        else:
            polished, last_kkt = False, math.inf
        if max(point) > THETA_MAX_CERTIFY:
            v, theta = math.inf, point
            break
        theta = point
    else:
        raise NumericError(f"Newton ascent did not converge in {NEWTON_MAX_ITER} iterations")
    return v, np.array(theta)


def _tilt_sup(
    model: DistributionModel, pair: ObservablePair, signs, c
) -> tuple[float, np.ndarray]:
    """sup over theta >= 0 of theta . c - log E[exp(sum_i signs_i theta_i G_i)].

    G = (F, U), cut to the first len(c) coordinates.
    """
    dim = len(c)
    s, c = tuple(map(float, signs[:dim])), tuple(map(float, c))

    def coefficients(theta: tuple[float, ...]) -> tuple[float, float]:
        return s[0] * theta[0], s[1] * theta[1] if dim == 2 else 0.0

    def value(theta: tuple[float, ...]) -> float:
        lam = log_mgf_signed(model, pair, *coefficients(theta))
        return -math.inf if math.isinf(lam) else _dot(theta, c) - lam

    def derivatives(theta: tuple[float, ...]):
        lam, mean, cov = tilted_moments(model, pair, *coefficients(theta))
        mean, cov = mean.tolist(), cov.tolist()
        grad = [c[i] - s[i] * mean[i] for i in range(dim)]
        hess = [[-cov[i][j] * (s[i] * s[j]) for j in range(dim)] for i in range(dim)]
        return _dot(theta, c) - lam, grad, hess

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
    """``rate_lambda_star`` together with its maximizing tilt theta.

    On a finite model max F < mu + epsilon certifies (+inf, +inf) with no
    ascent; at equality the closed event holds the law on F's top atoms.
    A pareto_like F bounded above keeps the THETA_MAX_CERTIFY backstop.
    """
    if model.is_finite and pair.f(model.atoms).max() < pair.mu + epsilon:
        return math.inf, math.inf
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
    return min_convex_gap(sup_oracle, c1, c2, _CERTIFY_BETAS) < 0.0


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
    return rate_plus_star_detail(model, pair, epsilon, u, variant)[0]


def rate_plus_star_detail(
    model: DistributionModel,
    pair: ObservablePair,
    epsilon: float,
    u: float,
    variant: str = "lambda_plus",
    plain: tuple[float, float] | None = None,
) -> tuple[float, tuple[float, float]]:
    """The rate together with its maximizing tilt (theta1, theta2).

    The margin certificate decides +inf first.  ``plain`` = (lambda*,
    theta1*), the plain Chernoff rate and tilt at the same epsilon (from
    ``_lambda_star_detail``), serves lambda_plus and gamma_plus: s_f = +1,
    so c1 = mu + eps is the plain problem's c and their event lies in the
    plain one, empty where lambda* = +inf.  On a finite model, when the
    plain tilt's law already meets the screen, d/dtheta2 = c2 - s_u E[U]
    <= 0 at (theta1*, 0), the point is a KKT point of the concave problem
    on the orthant, hence its maximum, and (lambda*, (theta1*, 0)) is
    returned with no 2-d ascent (Csiszar 1975: the screen does not bind).
    On the heavy tail the log-MGF is +inf for theta1 > 0 at theta2 = 0,
    so that test is not made there.  The other variants ignore ``plain``.
    """
    if variant not in _VARIANTS:
        raise CapabilityError(f"unknown variant {variant!r}")
    s_f, s_u = pattern = _VARIANTS[variant]
    if pattern not in pair.margins:
        raise CapabilityError(
            f"variant {variant} needs a margin for the sign pattern {pattern}, "
            "which this pair does not declare"
        )
    c1 = s_f * pair.mu + epsilon
    c2 = s_u * pair.nu - u
    inside_plain = plain is not None and s_f > 0.0
    if inside_plain and plain[0] == math.inf or _event_is_empty(pair.margins[pattern], c1, c2):
        return math.inf, (math.inf, math.inf)
    if inside_plain and model.is_finite:
        lam_star, theta1 = plain
        _, mean, _ = tilted_moments(model, pair, theta1, 0.0)
        if c2 - s_u * float(mean[1]) <= 0.0:
            return lam_star, (theta1, 0.0)

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
    exponential moments) and a finite plain rate: CapabilityError
    otherwise.  The plain rate is solved once and handed to
    both screened variants: where the screen is slack at the plain tilt
    the variant is that rate, and the gap 0, with no 2-d ascent.  The
    gap is clamped to 0 when within solver tolerance, since all suprema
    come from the same optimizer and a zero gap is exact at independence.
    """
    _require_light_tail(model)
    plain = _lambda_star_detail(model, pair, epsilon)
    lam_plus, arg_plus = rate_plus_star_detail(model, pair, epsilon, u, "lambda_plus", plain)
    return _delta_point(model, pair, epsilon, u, plain, lam_plus, arg_plus)


def _require_light_tail(model: DistributionModel) -> None:
    if not model.is_finite:
        raise CapabilityError(
            "the exponent gap is a light-tail construct; this model is heavy-tailed"
        )


def _delta_point(model, pair, epsilon, u, plain, lam_plus, arg_plus) -> RatePoint:
    """``delta_exponent`` from (lambda_star, theta1) and (lambda_plus, theta) already solved."""
    _require_light_tail(model)
    lam_star = plain[0]
    if lam_star == math.inf:  # best - lam_star would be inf - inf
        raise CapabilityError(
            "the exponent gap is undefined where the plain rate is +inf: "
            "the plain error event, and every screened one in it, is empty"
        )
    gam_plus, arg_gam = rate_plus_star_detail(model, pair, epsilon, u, "gamma_plus", plain)
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
