"""Explicit exponential bounds for the screened error event.

For a normalized pair (E F = E U = 0, Var U = 1, Var F <= 1) with margin
m(beta) = ess-sup bound on F - beta*U, the screened error probability
Pr{S_n > n*eps, |T_n| < n*u} admits:

``zero event``
    If some beta > 0 has m(beta) <= eps - beta*u, the event is empty.

``thm31_ii`` (covariance-aware)
    exponent I = 2 * sup_{a in (0,1)}
        [ m(a*eps/u) * (1-a) / (m^2 + 1 + (a*eps/u)^2 - 2*a*gamma*eps/u) ]^2 * eps^2,
    so the bound is exp(-n*I).  Derived by restricting the Chernoff
    supremum to one ray, bounding the tilted log-MGF with Bennett's
    lemma, and extracting a quadratic via binary relative entropy and a
    Pinsker-type inequality; the helper inequalities are exposed below
    and tested independently.

``thm31_iii`` (covariance-free)
    exponent I = (1/2) * [ M / (M^2 + (1 + 1/(2K))^2) ]^2 * eps^2 with
    M = m(1/(2K)), valid for every 0 < u <= K*eps.

Exponents are stored per sample (I, not n*I), so one report serves any
horizon through ``bound_at(n)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from ._optim import grid_min, min_convex_gap
from .dist_models import ObservablePair, Standardized
from .errors import (
    CapabilityError,
    DegenerateScreenError,
    DomainError,
    NumericError,
    PreconditionError,
)

SQRT5 = math.sqrt(5.0)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """A computed exponent; the probability bound at horizon n is e^{-nI}."""

    method: str  # zero_event | thm31_ii | thm31_iii | chernoff_rate
    exponent: float
    alpha_star: float | None = None
    zero_event: bool = False
    note: str = ""

    def bound_at(self, n: int) -> float:
        if self.zero_event or math.isinf(self.exponent):
            return 0.0
        return math.exp(-n * self.exponent)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformedMargin:
    """Margin of the normalized pair from the raw-pair margin.

    sup[(F - mu)/c - beta (U - nu)/s] =
        (sup[F - (beta c / s) U] - mu)/c + beta nu / s,
    and replacing mu by any lower bound keeps it an upper bound.  With
    ``u_sign`` = -1 the same map takes the raw inf[F + b U] to
    inf[(F - mu)/c + beta (U - nu)/s].  Elementwise, so an array of beta
    maps to an array.
    """

    raw: Callable
    f_scale: float
    u_scale: float
    nu: float
    mu_used: float
    u_sign: float = 1.0

    def __call__(self, beta):
        b = beta * self.f_scale / self.u_scale
        shift = self.u_sign * beta * self.nu / self.u_scale
        return (self.raw(b) - self.mu_used) / self.f_scale + shift


def _is_normalized(pair: ObservablePair, tol: float = 1e-9) -> bool:
    return (
        abs(pair.mu) <= tol
        and abs(pair.nu) <= tol
        and abs(pair.var_u - 1.0) <= tol
        and pair.var_f <= 1.0 + tol
    )


def normalize_observables(
    pair: ObservablePair,
    *,
    var_f_bound: float | None = None,
    c1: float | None = None,
    c2: float | None = None,
    mu_lower: float | None = None,
) -> ObservablePair:
    """Affine-rescale a raw pair to E U = 0, Var U = 1, E F = 0, Var F <= 1.

    The F scale comes from ``var_f_bound`` if given, else from the
    pointwise domination |F| <= c1*U + c2 via
    E[F^2] <= c1^2 E[U^2] + 2 c1 c2 E[U] + c2^2, else from the exact
    variance.  ``mu_lower`` is the center the *margin oracle* may use
    when the true mean is treated as unknown; the returned callables
    always center at the exact mean (the simulator knows the model).

    Raw (epsilon, u) thresholds map through ``pair.map_thresholds``.
    """
    if pair.normalized or _is_normalized(pair):
        if pair.normalized:
            return pair
        return replace(pair, normalized=True, f_scale=1.0, u_scale=1.0)
    if pair.var_u <= 0.0:
        raise DegenerateScreenError("Var(U) = 0: the screening observable is constant")

    u_scale = math.sqrt(pair.var_u)
    if var_f_bound is None and c1 is not None and c2 is not None:
        # E (c1 U + c2)^2 dominates E F^2, hence Var F
        var_f_bound = (
            c1**2 * (pair.var_u + pair.nu**2) + 2.0 * c1 * c2 * pair.nu + c2**2
        )
    if var_f_bound is None:
        var_f_bound = pair.var_f
    if not var_f_bound > 0.0:
        raise DomainError("variance bound for F must be strictly positive")
    f_scale = math.sqrt(var_f_bound)
    mu_used = pair.mu if mu_lower is None else mu_lower

    def wrap(raw: Callable | None, u_sign: float) -> TransformedMargin | None:
        if raw is None:
            return None
        return TransformedMargin(raw, f_scale, u_scale, pair.nu, mu_used, u_sign)

    return ObservablePair(
        f=Standardized(pair.f, pair.mu, f_scale),
        u=Standardized(pair.u, pair.nu, u_scale),
        mu=0.0,
        nu=0.0,
        var_f=pair.var_f / var_f_bound,
        var_u=1.0,
        gamma=pair.gamma / (f_scale * u_scale),
        gamma_flag=pair.gamma_flag,
        margin=wrap(pair.margin, 1.0),
        sum_lower_margin=wrap(pair.sum_lower_margin, -1.0),
        f_unbounded_above=pair.f_unbounded_above,
        u_unbounded_above=pair.u_unbounded_above,
        normalized=True,
        f_scale=f_scale,
        u_scale=u_scale,
    )


# ---------------------------------------------------------------------------
# margin and the zero-event certificate
# ---------------------------------------------------------------------------


def margin(pair: ObservablePair, beta):
    """Upper bound on ess sup[F(X) - beta*U(X)] at beta > 0 (float or array)."""
    if not (np.all(beta > 0.0) if isinstance(beta, np.ndarray) else beta > 0.0):
        raise DomainError("margin is defined for beta > 0")
    if pair.margin is None:
        raise CapabilityError("this pair declares no margin oracle for F - beta*U")
    return pair.margin(beta)


def zero_event_check(pair: ObservablePair, epsilon: float, u: float) -> bool:
    """True iff some beta in (0, eps/u) certifies m(beta) <= eps - beta*u.

    A certificate makes the screened error event literally empty, so the
    probability is exactly zero.  The gap m(beta) - (eps - beta*u) is the
    convex gap of ``_optim.min_convex_gap`` with G2 = -U, c1 = eps and
    c2 = -u, minimized over a log grid on (0, eps/u).  A zero gap already
    certifies: the event is open (mean F > eps and mean U < u strictly),
    so on it mean F - beta mean U > eps - beta*u >= m(beta), which no
    sample can reach.
    """
    if not (0.0 < epsilon < math.inf and 0.0 < u < math.inf):
        raise DomainError("zero_event_check requires finite epsilon > 0 and u > 0")
    hi = epsilon / u
    grid = np.geomspace(hi * 1e-9, hi * (1.0 - 1e-12), 256)
    return min_convex_gap(lambda beta: margin(pair, beta), epsilon, -u, grid) <= 0.0


# ---------------------------------------------------------------------------
# proof-level helper inequalities
# ---------------------------------------------------------------------------


def bennett_log_mgf_bound(theta: float, m: float, sigma2: float) -> float:
    """Upper bound on log E[e^{theta Y}] for zero-mean Y <= m, Var Y <= sigma2.

    log[ m^2/(m^2+s^2) * e^{-theta s^2 / m} + s^2/(m^2+s^2) * e^{theta m} ],
    evaluated in log-sum-exp form; equality holds for the two-point law
    on {-s^2/m, m}.
    """
    if m <= 0.0 or sigma2 <= 0.0:
        raise DomainError("bennett bound requires m > 0 and sigma2 > 0")
    if theta < 0.0:
        raise DomainError("bennett bound is stated for theta >= 0")
    if theta == 0.0:
        return 0.0  # the two mixture weights sum to one exactly
    denom = m * m + sigma2
    a = math.log(m * m / denom) - theta * sigma2 / m
    b = math.log(sigma2 / denom) + theta * m
    return float(np.logaddexp(a, b))


def binary_kl(y: float, z: float) -> float:
    """Relative entropy between Bernoulli(y) and Bernoulli(z).

    z must be interior; y may sit on the boundary under the convention
    0 log 0 = 0.
    """
    if not (0.0 < z < 1.0):
        raise DomainError("binary_kl requires z in (0, 1)")
    if not (0.0 <= y <= 1.0):
        raise DomainError("binary_kl requires y in [0, 1]")
    first = 0.0 if y == 0.0 else y * math.log(y / z)
    second = 0.0 if y == 1.0 else (1.0 - y) * math.log((1.0 - y) / (1.0 - z))
    return first + second


def pinsker_lower(y: float, z: float) -> float:
    """Quadratic lower bound 2 (y - z)^2 <= binary_kl(y, z)."""
    if not (0.0 < z < 1.0) or not (0.0 <= y <= 1.0):
        raise DomainError("pinsker_lower requires y in [0,1], z in (0,1)")
    return 2.0 * (y - z) ** 2


# ---------------------------------------------------------------------------
# the computable bounds
# ---------------------------------------------------------------------------


def _require_normalized(pair: ObservablePair) -> None:
    if not (pair.normalized or _is_normalized(pair)):
        raise PreconditionError(
            "this bound requires a normalized pair (E F = E U = 0, Var U = 1)"
        )
    if abs(pair.var_u - 1.0) > 1e-9:
        raise PreconditionError("normalized pairs must have Var(U) = 1 exactly")
    if pair.var_f > 1.0 + 1e-9:
        raise PreconditionError("normalized pairs must have Var(F) <= 1")


def thm31_ii_exponent_at(pair: ObservablePair, epsilon: float, u: float, alpha):
    """The covariance-aware objective at alpha in (0, 1), or at an array of them.

    Where m <= 0 the averaged variable is nonpositive, the event is
    already empty, and the objective is +inf.
    """
    _require_normalized(pair)
    grid = isinstance(alpha, np.ndarray)
    inside = (0.0 < alpha) & (alpha < 1.0)
    if not (inside.all() if grid else inside):
        raise DomainError("alpha must lie in (0, 1)")
    beta = alpha * epsilon / u
    m = margin(pair, beta)
    empty = m <= 0.0
    if not grid and empty:
        return math.inf
    sigma2 = 1.0 + beta * beta - 2.0 * beta * pair.gamma
    denom = np.where(empty, 1.0, m * m + sigma2) if grid else m * m + sigma2
    low = denom <= 0.0
    if low.any() if grid else low:
        at = alpha[low][0] if grid else alpha
        raise NumericError(f"nonpositive Bennett denominator at alpha={at}: check gamma")
    ratio = m * (1.0 - alpha) / denom
    value = 2.0 * ratio * ratio * epsilon * epsilon
    return np.where(empty, math.inf, value) if grid else value


def bound_thm31_ii(pair: ObservablePair, epsilon: float, u: float) -> BoundReport:
    """Covariance-aware exponent, optimized over the free parameter.

    Dense grid (step 1e-4, evaluated in one array call) plus
    golden-section refinement around the best grid point; the zero-event
    certificate takes precedence.
    """
    _require_normalized(pair)
    if zero_event_check(pair, epsilon, u):
        return BoundReport(method="zero_event", exponent=math.inf, zero_event=True)

    def neg_exponent(alpha):
        return -thm31_ii_exponent_at(pair, epsilon, u, alpha)

    alphas = np.arange(1e-4, 1.0, 1e-4)
    a_star, neg = grid_min(neg_exponent, alphas, neg_exponent(alphas))
    return BoundReport(method="thm31_ii", exponent=-neg, alpha_star=a_star)


def bound_thm31_iii(pair: ObservablePair, epsilon: float, K: float) -> BoundReport:
    """Covariance-free exponent, valid for every 0 < u <= K*epsilon."""
    _require_normalized(pair)
    if K <= 0.0:
        raise DomainError("K must be > 0")
    m_big = margin(pair, 1.0 / (2.0 * K))
    denom = m_big * m_big + (1.0 + 1.0 / (2.0 * K)) ** 2
    exponent = 0.5 * (m_big / denom) ** 2 * epsilon * epsilon
    return BoundReport(method="thm31_iii", exponent=float(exponent), alpha_star=0.5)


# ---------------------------------------------------------------------------
# reproduction of the worked example's constants
# ---------------------------------------------------------------------------


def _restricted_objective_worst(alpha: float | np.ndarray) -> float | np.ndarray:
    """Exponent/eps^2 with the linear margin branch and worst-case gamma = -1."""
    num = 20.0 * alpha * (1.0 - alpha) / 3.0
    den = (20.0 * alpha / 3.0) ** 2 + (1.0 + 20.0 * SQRT5 * alpha / 3.0) ** 2
    return 0.5 * (num / den) ** 2


def _restricted_objective_cov(alpha: float | np.ndarray) -> float | np.ndarray:
    """Exponent/eps^2 with the linear margin branch and gamma = sqrt(5)/7."""
    num = 20.0 * alpha * (1.0 - alpha) / 3.0
    den = 2400.0 * alpha**2 / 9.0 - 200.0 * alpha / 21.0 + 1.0
    return 0.5 * (num / den) ** 2


# the worked example's alpha grid, evaluated in blocks: whole-grid temporaries
# (0.8 MB each) were paged in afresh on every call, ~1000 page faults
_RESTRICTED_ALPHAS = np.arange(3.0 / 80.0, 1.0, 1e-5)
_BLOCK = 8192


def _maximize_restricted(fn: Callable[[float], float]) -> tuple[float, float]:
    values = np.empty_like(_RESTRICTED_ALPHAS)
    for i in range(0, len(values), _BLOCK):
        values[i : i + _BLOCK] = -fn(_RESTRICTED_ALPHAS[i : i + _BLOCK])
    a_star, neg = grid_min(lambda a: -fn(a), _RESTRICTED_ALPHAS, values)
    return a_star, -neg


@functools.cache
def _optimized_constants() -> tuple[tuple[float, float], tuple[float, float]]:
    """(alpha, c) maximizing each restricted objective; fixed, so computed once."""
    objectives = (_restricted_objective_worst, _restricted_objective_cov)
    return tuple(map(_maximize_restricted, objectives))


@dataclass(frozen=True)
class Prop11Report:
    """Constants and bound values for the worked heavy-tail example.

    ``constant_*_quoted`` are the published round numbers (0.005 and
    0.0367) used for the headline e^{-c n eps^2} values;
    ``constant_*_optimized`` are the suprema of the corresponding
    objectives recomputed here.  The covariance-aware supremum is
    0.036692, so the quoted 0.0367 is a rounding of it.
    """

    epsilon: float
    u: float
    n: int
    constant_iii_quoted: float
    constant_iv_quoted: float
    constant_iii_optimized: float
    alpha_iii: float
    constant_iv_optimized: float
    alpha_iv: float
    value_iii_at_reference_alpha: float
    value_iv_at_reference_alpha: float
    bound_iii: float
    bound_iv: float

    def to_dict(self) -> dict:
        return asdict(self)


REFERENCE_ALPHA_III = 0.0552083
REFERENCE_ALPHA_IV = 0.0568
CONSTANT_III_QUOTED = 0.005
CONSTANT_IV_QUOTED = 0.0367


def prop11_report(epsilon: float, u: float, n: int) -> Prop11Report:
    """Constants and e^{-c n eps^2} values for the heavy-tail example.

    Valid for 0 < u <= epsilon/20; the alpha search is restricted to
    alpha >= 3/80, where the margin takes its linear branch.
    """
    if not (0.0 < u <= epsilon / 20.0):
        raise PreconditionError(
            f"requires 0 < u <= epsilon/20; got u={u}, epsilon/20={epsilon / 20.0}"
        )
    (a3, c3), (a4, c4) = _optimized_constants()
    return Prop11Report(
        epsilon=epsilon,
        u=u,
        n=n,
        constant_iii_quoted=CONSTANT_III_QUOTED,
        constant_iv_quoted=CONSTANT_IV_QUOTED,
        constant_iii_optimized=c3,
        alpha_iii=a3,
        constant_iv_optimized=c4,
        alpha_iv=a4,
        value_iii_at_reference_alpha=_restricted_objective_worst(REFERENCE_ALPHA_III),
        value_iv_at_reference_alpha=_restricted_objective_cov(REFERENCE_ALPHA_IV),
        bound_iii=math.exp(-CONSTANT_III_QUOTED * n * epsilon**2),
        bound_iv=math.exp(-CONSTANT_IV_QUOTED * n * epsilon**2),
    )
