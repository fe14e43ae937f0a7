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
from dataclasses import dataclass, replace

import numpy as np

from ._optim import grid_min, min_convex_gap
from .dist_models import FiniteMargin, ObservablePair, ParetoMargin, Standardized
from .errors import (
    CapabilityError,
    DegenerateScreenError,
    DomainError,
    NumericError,
    PreconditionError,
)

SQRT5 = math.sqrt(5.0)


def square(x: float) -> float:
    """x**2, +inf where that overflows (where ``**`` raises OverflowError)."""
    return x**2 if abs(x) <= 1.3407807929942596e154 else math.inf  # sqrt(sys.float_info.max)


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
        return dict(vars(self))  # flat fields: a shallow copy is a full one


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


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
    mu_lower: float | None = None,
) -> ObservablePair:
    """Affine-rescale a raw pair to E U = 0, Var U = 1, E F = 0, Var F <= 1.

    The F scale comes from ``var_f_bound`` if given, else from the exact
    variance.  Each margin pattern is rescaled in its own kind.  A +F
    pattern centers at ``mu_lower`` if given, a lower bound on the mean
    (the true mean treated as unknown); under it a -F pattern would fall
    below its supremum, so it, and the callables, center at the exact mean.

    A normalized pair comes back as it is; with neither bound given, a
    pair of normalized moments is marked so with unit scales.  Raw
    (epsilon, u) thresholds map through ``pair.map_thresholds``.
    """
    if pair.normalized:
        return pair
    if var_f_bound is None and mu_lower is None and _is_normalized(pair):
        return replace(pair, normalized=True, f_scale=1.0, u_scale=1.0)
    if pair.var_u <= 0.0:
        raise DegenerateScreenError("Var(U) = 0: the screening observable is constant")

    u_scale = math.sqrt(pair.var_u)
    if var_f_bound is None:
        var_f_bound = pair.var_f
    if not var_f_bound > 0.0:
        raise DomainError("variance bound for F must be strictly positive")
    f_scale = math.sqrt(var_f_bound)
    mu_used = pair.mu if mu_lower is None else mu_lower

    def rescaled(s_f, s_u, oracle):
        """The oracle of s_f (F - mu)/c and s_u (U - nu)/s, of the raw oracle's own kind."""
        mu, nu = s_f * (mu_used if s_f > 0 else pair.mu), s_u * pair.nu
        if isinstance(oracle, FiniteMargin):
            f = tuple([(x - mu) / f_scale for x in oracle.f_values])
            u = tuple([(x - nu) / u_scale for x in oracle.u_values])
        elif isinstance(oracle, ParetoMargin):
            (alpha_f, a, delta_f), (alpha_u, b, delta_u) = oracle.f, oracle.u
            f = (alpha_f / f_scale, a, (delta_f - mu) / f_scale)
            u = (alpha_u / u_scale, b, (delta_u - nu) / u_scale)
        else:
            raise CapabilityError(f"cannot normalize a margin oracle of type {type(oracle).__name__}")
        return type(oracle)(f, u)

    var_f = pair.var_f / var_f_bound
    return ObservablePair(
        f=Standardized(pair.f, pair.mu, f_scale),
        u=Standardized(pair.u, pair.nu, u_scale),
        mu=0.0,
        nu=0.0,
        var_f=var_f,
        var_u=1.0,
        # capped at the Cauchy-Schwarz limit that rounding can overshoot; a
        # lower gamma only lowers the exponent
        gamma=min(pair.gamma / (f_scale * u_scale), math.sqrt(var_f)),
        gamma_flag=pair.gamma_flag,
        margins={pattern: rescaled(*pattern, oracle) for pattern, oracle in pair.margins.items()},
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
    hi = min(epsilon / u, 1.7976931348623157e308)  # fewer betas than (0, eps/u): still sound
    if hi * 1e-9 == 0.0:
        raise DomainError(f"eps/u = {hi!r} is too small for a zero-event grid of doubles")
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


def _thm31_ii_objective(gamma: float, epsilon: float, alpha, beta, m):
    """thm31_ii's objective at alpha (or an array) from the margin m at beta = alpha eps/u,
    unchecked (``tests/reference.py`` checks it): +inf where m <= 0, 0 where m = +inf."""
    grid = isinstance(alpha, np.ndarray)
    empty, unbounded = m <= 0.0, m == math.inf
    if not grid and (empty or unbounded):
        return math.inf if empty else 0.0
    sigma2 = 1.0 + beta * beta - 2.0 * beta * gamma
    if grid:
        m = np.where(unbounded, 0.0, m)
    denom = np.where(empty | unbounded, 1.0, m * m + sigma2) if grid else m * m + sigma2
    low = denom <= 0.0
    if low.any() if grid else low:
        at = alpha[low][0] if grid else alpha
        raise NumericError(f"nonpositive Bennett denominator at alpha={at}: check gamma")
    ratio = m * (1.0 - alpha) / denom
    value = 2.0 * ratio * ratio * epsilon * epsilon
    return np.where(empty, math.inf, value) if grid else value


# thm31_ii's alpha grid (built per request: no large array outlives a call),
# its top, and the lowest alpha of the closed form on a straight piece: any
# alpha in (0, 1) gives a valid bound, and beta = alpha eps/u stays a positive double
_ALPHA_STEP = 1e-4
_ALPHA_HI = np.arange(_ALPHA_STEP, 1.0, _ALPHA_STEP)[-1].item()
_ALPHA_MIN = 2.0**-40


class AlphaGrid:
    """thm31_ii's alpha grid (step 1e-4) at (epsilon, u), split where the margin curves.

    ``pieces``: the margin's straight pieces, where ``thm31_ii_search``
    takes alpha in closed form, and the grid's slice where it curves (none
    of a finite table, all of a margin with no ``straight`` but for the
    half-line where a ``ParetoMargin`` is +inf and the objective 0).  Gamma
    enters neither, so the searches of one request at two gammas share
    them and one array margin call on the slice, made on first use: an
    event certified empty makes none.  Build one per request.
    """

    def __init__(self, pair: ObservablePair, epsilon: float, u: float):
        self.pair, self.epsilon, self.u = pair, epsilon, u

    @functools.cached_property
    def pieces(self) -> tuple[tuple | None, np.ndarray | None]:
        """((intercepts, slopes, breaks, lo, hi) of the straight pieces in the
        pair's beta over alpha in [lo, hi], or None; the grid's curved slice,
        widened by one point on each side, or None)."""
        oracle = self.pair.margin
        straight = oracle.straight if isinstance(oracle, (FiniteMargin, ParetoMargin)) else None
        alphas = np.arange(_ALPHA_STEP, 1.0, _ALPHA_STEP)

        def beta(j):  # the oracle's beta at grid point j, as ``values`` takes it
            return float(alphas[j]) * self.epsilon / self.u

        def first(test, edge):
            """The first grid index where ``test`` (False, then True) holds: from
            the alpha of the beta ``edge``, then checked exactly on its neighbours."""
            n, t = len(alphas), int(np.searchsorted(alphas, edge * self.u / self.epsilon))
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
        lines = (
            [table.f_values[i] for i in atoms],
            [table.u_values[i] for i in atoms],
            breaks,
        )
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

    @functools.cached_property
    def values(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(alphas, betas, margins) on the curved slice."""
        alphas = self.pieces[1]
        betas = alphas * self.epsilon / self.u
        return alphas, betas, margin(self.pair, betas)


def bound_thm31_ii(
    pair: ObservablePair, epsilon: float, u: float, grid: AlphaGrid | None = None
) -> BoundReport:
    """Covariance-aware exponent, optimized over the free parameter: the
    zero-event certificate, and where it fails ``thm31_ii_search``."""
    _require_normalized(pair)
    if zero_event_check(pair, epsilon, u):
        return BoundReport(method="zero_event", exponent=math.inf, zero_event=True)
    return thm31_ii_search(pair, epsilon, u, grid)


def thm31_ii_search(
    pair: ObservablePair, epsilon: float, u: float, grid: AlphaGrid | None = None
) -> BoundReport:
    """``bound_thm31_ii`` past a failed certificate: the search over alpha.

    On the margin's straight pieces (a finite table's envelope, or a
    ``ParetoMargin`` off its peak branch) alpha is taken in closed form
    (``_thm31_ii_on_envelope``), down to alpha = 2^-40 where a straight
    piece reaches below the grid.  Where the margin curves, it takes the
    dense grid (step 1e-4) on the curved slice of ``AlphaGrid``, evaluated
    in one array call, plus golden-section refinement around its best
    point; the slice is one grid point wider on each side than the curve,
    so the refinement brackets as on the full grid.  The larger exponent
    wins, the grid's on a tie; a margin +inf at every alpha leaves neither,
    and the exponent is 0 with no alpha.  Gamma enters the search but not the
    certificate, so a pair whose certificate failed needs only this at
    another gamma; ``grid``, an ``AlphaGrid`` of a pair with the same
    margin oracle at the same thresholds, lends it the pieces and the
    margin already evaluated.  The pair is checked once here: both
    searches stay inside (0, 1).
    """
    _require_normalized(pair)
    if grid is None:
        grid = AlphaGrid(pair, epsilon, u)
    if (grid.pair.margin, grid.epsilon, grid.u) != (pair.margin, epsilon, u):
        raise PreconditionError("the alpha grid was evaluated for another margin or thresholds")
    gamma = pair.gamma
    lines, curved = grid.pieces
    if lines is None and curved is None:  # the margin is +inf at every alpha: the objective is 0
        return BoundReport(method="thm31_ii", exponent=0.0)

    def exponent_at(alpha):
        beta = alpha * epsilon / u
        return _thm31_ii_objective(gamma, epsilon, alpha, beta, margin(pair, beta))

    exponent, a_star = -math.inf, None
    if curved is not None:
        alphas, betas, margins = grid.values
        values = -_thm31_ii_objective(gamma, epsilon, alphas, betas, margins)
        a_star, neg = grid_min(lambda alpha: -exponent_at(alpha), alphas, values)
        exponent = -neg
    if lines is not None:
        alpha = _thm31_ii_on_envelope(gamma, epsilon / u, *lines)
        closed = exponent_at(alpha)
        if closed > exponent:
            exponent, a_star = closed, alpha
    return BoundReport(method="thm31_ii", exponent=exponent, alpha_star=a_star)


def _quadratic_roots(c2: float, c1: float, c0: float) -> tuple[float, ...]:
    """The real roots of c2 x^2 + c1 x + c0, by the cancellation-free formula."""
    if c2 == 0.0:
        return (-c0 / c1,) if c1 != 0.0 else ()
    disc = c1 * c1 - 4.0 * c2 * c0
    if not disc >= 0.0:
        return ()
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return (q / c2, c0 / q) if q != 0.0 else (0.0,)


def _thm31_ii_on_envelope(gamma: float, k: float, intercepts, slopes, breaks, lo, hi) -> float:
    """The alpha in [lo, hi] that maximizes thm31_ii on the envelope's pieces.

    At beta = k alpha (k = eps/u) the envelope's piece gives m = A - D alpha,
    and sigma^2 = 1 + k^2 alpha^2 - 2 k gamma alpha.  With
    N = m (1 - alpha) = n0 + n1 alpha + n2 alpha^2 and
    Q = m^2 + sigma^2 = q0 + q1 alpha + q2 alpha^2, the objective is
    2 eps^2 (N/Q)^2, and (N/Q)' = 0 is the quadratic c2 alpha^2 + c1 alpha
    + c0 = 0 (the cubic terms cancel).  So the maximum sits at a piece end
    or at one of its roots; the candidates are ranked by N/Q, +inf where
    m <= 0 (the event is empty).  Q is convex on a piece, so its minimum
    over the span is checked: a nonpositive one raises ``NumericError``.
    """
    best, a_star = -math.inf, lo
    last = len(intercepts) - 1
    for j, (A, slope) in enumerate(zip(intercepts, slopes)):
        left = max(lo, breaks[j - 1] / k) if j else lo
        right = min(hi, breaks[j] / k) if j < last else hi
        if not left <= right:
            continue
        D = -slope * k
        n0, n1, n2 = A, -(A + D), D
        q0, q1, q2 = A * A + 1.0, -2.0 * (A * D + k * gamma), D * D + k * k
        # Q's minimum on the span; Q is linear where q2 underflows (eps/u below 1e-154)
        low = min(max(-q1 / (2.0 * q2), left), right) if q2 else (left if q1 >= 0.0 else right)
        if q0 + low * (q1 + low * q2) <= 0.0 and A - D * low > 0.0:
            raise NumericError(f"nonpositive Bennett denominator at alpha={low}: check gamma")
        roots = _quadratic_roots(n2 * q1 - n1 * q2, 2.0 * (n2 * q0 - n0 * q2), n1 * q0 - n0 * q1)
        for x in (left, right, *roots):
            if left <= x <= right:
                m = A - D * x
                r = math.inf if m <= 0.0 else m * (1.0 - x) / (q0 + x * (q1 + x * q2))
                if r > best:
                    best, a_star = r, x
    return a_star


def bound_thm31_iii(pair: ObservablePair, epsilon: float, K: float) -> BoundReport:
    """Covariance-free exponent, valid for every 0 < u <= K*epsilon."""
    _require_normalized(pair)
    if K <= 0.0:
        raise DomainError("K must be > 0")
    beta = max(1.0 / (2.0 * K), 5e-324)  # past K = 9e307 a larger K, valid for u <= K eps
    m_big = margin(pair, beta)
    denom = m_big * m_big + square(1.0 + beta)  # +inf below K = 4e-155: exponent 0, a sound floor
    # M = +inf gives 0, the exponent's limit as M grows
    exponent = 0.0 if m_big == math.inf else 0.5 * (m_big / denom) ** 2 * epsilon * epsilon
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


@functools.cache
def _optimized_constants() -> tuple[tuple[float, float], tuple[float, float]]:
    """(alpha, c) maximizing each restricted objective; fixed, so computed once.

    For alpha >= 3/80 the normalized margin is the line beta/sqrt5 at
    beta = k alpha, k = eps_n/u_n = 20 sqrt5/3: one straight piece, whose
    alpha the closed form of ``thm31_ii_search`` gives.
    """

    def solve(gamma, objective):
        k = 20.0 * SQRT5 / 3.0
        alpha = _thm31_ii_on_envelope(gamma, k, [0.0], [1.0 / SQRT5], [], 3.0 / 80.0, _ALPHA_HI)
        return alpha, objective(alpha)

    return solve(-1.0, _restricted_objective_worst), solve(SQRT5 / 7.0, _restricted_objective_cov)


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
        return dict(vars(self))  # flat fields: a shallow copy is a full one


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
        bound_iii=math.exp(-CONSTANT_III_QUOTED * n * square(epsilon)),
        bound_iv=math.exp(-CONSTANT_IV_QUOTED * n * square(epsilon)),
    )
