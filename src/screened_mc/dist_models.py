"""Distribution models and observable pairs.

A :class:`DistributionModel` is a law P on the reals that supports exact
sampling, an exact moment oracle, and a joint log-MGF oracle.  Two
kinds are provided:

``pareto_like``
    The fixed heavy-tailed density f(x) = 5 / (2 x^{7/2}) on [1, inf),
    with CDF F(x) = 1 - x^{-5/2} and quantile x = (1 - p)^{-2/5}.  Every
    positive exponential moment is infinite.  Observables on it are
    power forms alpha x^a + delta, whose moments and margins are closed
    forms.

``finite_support``
    Atoms x_j with probabilities p_j (p_j > 0, sum p_j = 1).

``sign_product`` builds the finite law of a magnitude law times an
independent fair +/-1 sign, on the signed atoms.

An :class:`ObservablePair` bundles the two observables F (the quantity
whose mean is estimated) and U (the screening function with known mean)
together with their known statistics and margin oracles.  The margin
``m(beta)`` is an upper bound on ess sup[F(X) - beta U(X)], +inf where
U does not dominate F; its finiteness for every beta > 0 is what makes
screened errors exponentially rare even when F(X) is heavy-tailed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    CapabilityError,
    ConfigError,
    DivergenceError,
    DomainError,
    InputError,
    NumericError,
)
from .streams import RandomStream

KIND_PARETO = "pareto_like"
KIND_FINITE = "finite_support"

_PMF_TOL = 1e-12


# ---------------------------------------------------------------------------
# observable forms (picklable callables; carry enough metadata for
# closed-form moments and for the experiment-config surface)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Power:
    """x -> x**exponent."""

    exponent: float

    def __call__(self, x):
        return np.asarray(x, dtype=float) ** self.exponent


@dataclass(frozen=True)
class Identity:
    def __call__(self, x):
        return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Standardized:
    """x -> (inner(x) - shift) / scale."""

    inner: Callable
    shift: float
    scale: float

    def __call__(self, x):
        return (self.inner(x) - self.shift) / self.scale


@dataclass(frozen=True)
class AbsCentered:
    """x -> |x| - center."""

    center: float

    def __call__(self, x):
        return np.abs(np.asarray(x, dtype=float)) - self.center


@dataclass(frozen=True)
class SignOf:
    def __call__(self, x):
        return np.sign(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Table:
    """Exact lookup on a finite support; rejects off-support points."""

    atoms: tuple
    values: tuple

    @functools.cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.atoms)
        return np.asarray(self.atoms)[order], np.asarray(self.values, dtype=float)[order]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        atoms, values = self._sorted
        idx = np.minimum(np.searchsorted(atoms, x), len(atoms) - 1)
        if not np.all(atoms[idx] == x):
            raise InputError("table form evaluated off the model support")
        return values[idx]


def canonical_power(form) -> tuple[float, float, float]:
    """(alpha, a, delta) with form(x) = alpha * x**a + delta on x >= 1.

    Valid on the pareto_like support x >= 1 only: there |x| - c is x - c
    and sign(x) is 1 = x**0.  Any other form raises CapabilityError.
    """
    if isinstance(form, Identity):
        return (1.0, 1.0, 0.0)
    if isinstance(form, Power):
        return (1.0, form.exponent, 0.0)
    if isinstance(form, AbsCentered):
        return (1.0, 1.0, -form.center)
    if isinstance(form, SignOf):
        return (1.0, 0.0, 0.0)
    if isinstance(form, Standardized):
        alpha, a, delta = canonical_power(form.inner)
        return (alpha / form.scale, a, (delta - form.shift) / form.scale)
    raise CapabilityError(f"{form!r} is not alpha*x**a + delta, the one form pareto_like takes")


# ---------------------------------------------------------------------------
# margin oracles: plain callables taking beta > 0, a float or an array, to a
# bound on an essential extremum of F -/+ beta*U of the same shape (a float
# for a float); an extremum the support does not bound is +inf or -inf.
# Grids take one call; the golden refinement calls with floats, a path kept
# free of numpy overhead.  Callers check the domain.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParetoMargin:
    """Exact extremum over x >= 1 of F + u_sign*beta*U for power forms.

    With F = alpha_f x**a + delta_f and U = alpha_u x**b + delta_u (alphas
    nonzero, as ``canonical_power`` gives them) and s = +1 for "max", -1
    for "min", the oracle is s * sup g, where g = s*(F + u_sign*beta*U) =
    A x**a + beta B x**b + C + beta D.  The sup is +inf where a positive
    power with a positive coefficient leads; else g at its one stationary
    point x* = r**(1/(b-a)), r = -A a / (beta B b), when x* > 1 and g
    peaks there; else the larger of g(1) and the limit at x = inf.  Signs
    decide once, at construction, which of these cases can arise.
    """

    f: tuple  # (alpha_f, a, delta_f)
    u: tuple  # (alpha_u, b, delta_u)
    u_sign: float  # +1 for F + beta*U, -1 for F - beta*U
    sense: str  # "max" | "min"

    def __post_init__(self):
        s = 1.0 if self.sense == "max" else -1.0
        (alpha_f, a, delta_f), (alpha_u, b, delta_u) = self.f, self.u
        A, C = s * alpha_f, s * delta_f
        B, D = s * self.u_sign * alpha_u, s * self.u_sign * delta_u
        # the leading power and its coefficient, lead[0] + beta*lead[1]
        top, lead = (a, (A, B)) if a == b else max((a, (A, 0.0)), (b, (0.0, B)))
        peaks = a != b and (A * a > 0.0 > B * b if a < b else B * b > 0.0 > A * a)
        infinite = lead if top > 0.0 and (a == b or sum(lead) > 0.0) else None
        # (r * beta, A (1 - a/b), a/(b-a), whether x* > 1 means r > 1)
        peak = (-A * a / (B * b), A * (1.0 - a / b), a / (b - a), b > a) if peaks else None
        # with no positive power, x**0 = 1 and x**-e -> 0 as x -> inf
        limit = None if top > 0.0 else (C + (a == 0.0) * A, D + (b == 0.0) * B)
        object.__setattr__(self, "_cases", (s, A + C, B + D, C, D, infinite, peak, limit))

    def __call__(self, beta):
        s, p, q, c, d, infinite, peak, limit = self._cases
        if isinstance(beta, np.ndarray):
            value = p + beta * q
            if limit:
                value = np.maximum(value, limit[0] + beta * limit[1])
            if peak:
                k, coef, power, up = peak
                r = k / beta
                # float_power runs C pow per element, as Python's ** does; the
                # SIMD loop of np.power can differ from it in the last bit
                with np.errstate(over="ignore"):
                    at_peak = coef * np.float_power(r, power) + (c + beta * d)
                value = np.where(r > 1.0 if up else r < 1.0, at_peak, value)
            if infinite:
                value = np.where(infinite[0] + beta * infinite[1] > 0.0, math.inf, value)
            return value if s > 0.0 else -value
        beta = float(beta)
        if infinite and infinite[0] + beta * infinite[1] > 0.0:
            return s * math.inf
        if peak:
            k, coef, power, up = peak
            r = k / beta
            if r > 1.0 if up else r < 1.0:
                try:
                    return s * (coef * r**power + (c + beta * d))
                except OverflowError:  # a peak beyond the doubles
                    return s * math.inf
        value = p + beta * q
        return s * (max(value, limit[0] + beta * limit[1]) if limit else value)


@dataclass(frozen=True)
class FiniteMargin:
    """Exact extremum of f +/- beta*u over a finite support.

    The tables hold finite Python floats, so a float beta takes Python's
    max or min of f + (u_sign*beta)*u over the atoms: the IEEE operations
    of the array expression, in its order, without building an array.
    On finite values the two agree but for a tie of +0.0 with -0.0,
    where Python keeps the first and numpy the last.
    """

    f_values: tuple
    u_values: tuple
    u_sign: float  # +1 for f + beta*u, -1 for f - beta*u
    sense: str  # "max" | "min"

    def __call__(self, beta):
        if not isinstance(beta, np.ndarray):
            scaled = self.u_sign * float(beta)
            pick = max if self.sense == "max" else min
            return float(pick(f + scaled * u for f, u in zip(self.f_values, self.u_values)))
        # atom by atom: a (beta, atom) table is paged in afresh every call
        pick = np.maximum if self.sense == "max" else np.minimum
        scaled = self.u_sign * beta
        ext = self.f_values[0] + scaled * self.u_values[0]
        for f, u in zip(self.f_values[1:], self.u_values[1:]):
            pick(ext, f + scaled * u, out=ext)
        return ext


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionModel:
    kind: str
    atoms: np.ndarray | None = None
    probs: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (KIND_PARETO, KIND_FINITE):
            raise ConfigError(f"unknown model kind: {self.kind!r}")
        if self.kind != KIND_PARETO:
            if self.atoms is None or self.probs is None:
                raise ConfigError(f"{self.kind} model requires atoms and probs")
            atoms = np.asarray(self.atoms, dtype=float)
            probs = np.asarray(self.probs, dtype=float)
            if atoms.ndim != 1 or probs.shape != atoms.shape or atoms.size == 0:
                raise ConfigError("atoms and probs must be equal-length 1-d arrays")
            if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(probs))):
                raise ConfigError("atoms and probs must be finite numbers")
            if np.any(probs <= 0.0):
                raise ConfigError("all atom probabilities must be strictly positive")
            if abs(float(probs.sum()) - 1.0) > _PMF_TOL:
                raise ConfigError(
                    f"atom probabilities sum to {probs.sum()!r}, not 1 within {_PMF_TOL}"
                )

    @property
    def is_finite(self) -> bool:
        return self.kind == KIND_FINITE


def pareto_like() -> DistributionModel:
    return DistributionModel(kind=KIND_PARETO)


def finite_support(atoms, probs) -> DistributionModel:
    return DistributionModel(
        kind=KIND_FINITE,
        atoms=np.asarray(atoms, dtype=float),
        probs=np.asarray(probs, dtype=float),
    )


def sign_product(magnitude_atoms, magnitude_probs) -> DistributionModel:
    """Magnitude law times an independent +/-1 fair sign: the finite law of the signed atoms."""
    mags = np.asarray(magnitude_atoms, dtype=float)
    mprobs = np.asarray(magnitude_probs, dtype=float)
    if np.any(mags <= 0.0):
        raise ConfigError("sign_product magnitudes must be strictly positive")
    return finite_support(np.concatenate([mags, -mags]), np.concatenate([mprobs, mprobs]) / 2.0)


@dataclass(frozen=True)
class ObservablePair:
    """Observables F, U with their known statistics and margin oracles.

    ``gamma_flag`` is "exact" when gamma is Cov(F(X), U(X)) itself, and
    "upper_bound" when the stored value is a conservative surrogate to be
    plugged into bound formulas as-is.  The explicit-bound exponent is
    increasing in gamma, so a sound surrogate must not exceed the true
    covariance; when only |gamma| <= g is known, pass -g.
    """

    f: Callable
    u: Callable
    mu: float
    nu: float
    var_f: float
    var_u: float
    gamma: float
    gamma_flag: str = "exact"
    # margin oracles: beta > 0 (float or array) -> bound of the same shape
    margin: Callable | None = None  # upper bound on sup[F - beta U]
    sum_lower_margin: Callable | None = None  # lower bound on inf[F + beta U]
    sum_margin: Callable | None = None  # upper bound on sup[F + beta U]
    lower_margin: Callable | None = None  # lower bound on inf[F - beta U]
    f_unbounded_above: bool = False
    u_unbounded_above: bool = False
    normalized: bool = False
    f_scale: float | None = None
    u_scale: float | None = None

    def __post_init__(self):
        if self.gamma_flag not in ("exact", "upper_bound"):
            raise ConfigError(f"bad gamma_flag: {self.gamma_flag!r}")
        if self.gamma_flag == "exact":
            cap = math.sqrt(max(self.var_f, 0.0) * max(self.var_u, 0.0))
            if abs(self.gamma) > cap + 1e-9:
                raise ConfigError(
                    f"exact gamma={self.gamma} violates |gamma| <= "
                    f"sqrt(var_f*var_u)={cap}"
                )

    def map_thresholds(self, epsilon: float, u: float) -> tuple[float, float]:
        """Raw-scale (epsilon, u) -> thresholds for this normalized pair."""
        if not self.normalized or self.f_scale is None or self.u_scale is None:
            raise CapabilityError("threshold mapping requires a normalized pair")
        return epsilon / self.f_scale, u / self.u_scale


# ---------------------------------------------------------------------------
# pair constructors
# ---------------------------------------------------------------------------


def heavy_tail_pair() -> tuple[DistributionModel, ObservablePair]:
    """The running heavy-tail example: F(x) = x**(3/4), U(x) = x.

    Exact statistics: E F = 10/7, E U = 5/3, Var F = 45/98,
    Var U = 20/9, Cov = 20/21, kept as these fractions: the closed-form
    moments of the last three differ from them in the last bits.
    """
    model = pareto_like()
    pair = replace(
        pair_from_callables(model, Power(0.75), Identity()),
        mu=10.0 / 7.0, nu=5.0 / 3.0, var_f=45.0 / 98.0, var_u=20.0 / 9.0, gamma=20.0 / 21.0,
    )
    return model, pair


def tabulated_pair(
    model: DistributionModel, f_values, u_values
) -> ObservablePair:
    """Pair on a finite support given per-atom values of F and U."""
    if not model.is_finite:
        raise CapabilityError("tabulated_pair requires a finite-support model")
    f_values = np.asarray(f_values, dtype=float)
    u_values = np.asarray(u_values, dtype=float)
    if f_values.shape != model.atoms.shape or u_values.shape != model.atoms.shape:
        raise InputError("value tables must match the model support size")
    if not (np.all(np.isfinite(f_values)) and np.all(np.isfinite(u_values))):
        raise InputError("value tables must hold finite numbers")
    mu, nu, var_f, var_u, gamma = _finite_moments(model.probs, f_values, u_values)
    fv, uv = tuple(f_values.tolist()), tuple(u_values.tolist())
    return ObservablePair(
        f=Table(tuple(model.atoms), fv),
        u=Table(tuple(model.atoms), uv),
        mu=mu,
        nu=nu,
        var_f=var_f,
        var_u=var_u,
        gamma=gamma,
        margin=FiniteMargin(fv, uv, -1.0, "max"),
        lower_margin=FiniteMargin(fv, uv, -1.0, "min"),
        sum_margin=FiniteMargin(fv, uv, +1.0, "max"),
        sum_lower_margin=FiniteMargin(fv, uv, +1.0, "min"),
    )


def pair_from_callables(model: DistributionModel, f, u) -> ObservablePair:
    """Generic pair construction: tabulated on a finite model, closed forms on pareto_like."""
    if model.is_finite:
        return tabulated_pair(model, f(model.atoms), u(model.atoms))
    cf, cu = canonical_power(f), canonical_power(u)
    mu, nu, var_f, var_u, gamma = _pareto_moments(cf, cu)
    return ObservablePair(
        f=f,
        u=u,
        mu=mu,
        nu=nu,
        var_f=var_f,
        var_u=var_u,
        gamma=gamma,
        margin=ParetoMargin(cf, cu, -1.0, "max"),
        lower_margin=ParetoMargin(cf, cu, -1.0, "min"),
        sum_lower_margin=ParetoMargin(cf, cu, +1.0, "min"),
        f_unbounded_above=cf[1] > 0 and cf[0] > 0,
        u_unbounded_above=cu[1] > 0 and cu[0] > 0,
    )


def counterexample_pair(
    magnitude_atoms, magnitude_probs
) -> tuple[DistributionModel, ObservablePair]:
    """Sign-product pair with F(x) = |x| - E|X| and U(x) = sign(x).

    F(X) and U(X) are independent here, so screening buys nothing: the
    screened and plain error exponents coincide.  The pair is the one a
    config's ``sign_product`` with ``abs_centered`` and ``sign`` forms builds.
    """
    model = sign_product(magnitude_atoms, magnitude_probs)
    center = float(model.probs @ np.abs(model.atoms))
    return model, pair_from_callables(model, AbsCentered(center), SignOf())


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample(model: DistributionModel, stream: RandomStream, count: int) -> np.ndarray:
    """``count`` i.i.d. draws; identical (seed, count) is bit-for-bit stable."""
    return transform_uniforms(model, stream.uniform(count))


def transform_uniforms(model: DistributionModel, p: np.ndarray) -> np.ndarray:
    """Inverse-CDF map from uniforms to samples (shared with the harness)."""
    if model.kind == KIND_PARETO:
        return (1.0 - p) ** (-0.4)
    cum = np.cumsum(model.probs)
    cum[-1] = 1.0  # guard rounding so every uniform lands on an atom
    idx = np.searchsorted(cum, p, side="right")
    return model.atoms[idx]


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def _pareto_power_moment(a: float, name: str) -> float:
    """E[X**a] = 5 / (5 - 2a) for a < 5/2; diverges otherwise."""
    if a >= 2.5:
        raise DivergenceError(f"{name} diverges: E[X**{a}] is infinite for this tail")
    return 5.0 / (5.0 - 2.0 * a)


def _finite_moments(p: np.ndarray, f: np.ndarray, u: np.ndarray) -> tuple[float, ...]:
    """(mu, nu, var_F, var_U, gamma) of per-atom values f, u under probabilities p."""
    mu, nu = float(p @ f), float(p @ u)
    return (
        mu,
        nu,
        float(p @ f**2 - mu**2),
        float(p @ u**2 - nu**2),
        float(p @ (f * u) - mu * nu),
    )


def _pareto_moments(cf: tuple, cu: tuple) -> tuple[float, float, float, float, float]:
    """(mu, nu, var_F, var_U, gamma) of F, U = alpha x**a + delta on pareto_like.

    Variance and covariance do not depend on the shifts delta, so they are
    taken from the power moments alone: E[F^2] - (E F)^2 would cancel when
    delta dwarfs the spread.
    """
    af_alpha, af, af_delta = cf
    au_alpha, au, au_delta = cu
    xf = _pareto_power_moment(af, "E[F]")  # E[X**a] for F's and U's powers
    xu = _pareto_power_moment(au, "E[U]")
    return (
        af_alpha * xf + af_delta,
        au_alpha * xu + au_delta,
        af_alpha**2 * (_pareto_power_moment(2 * af, "E[F^2]") - xf**2),
        au_alpha**2 * (_pareto_power_moment(2 * au, "E[U^2]") - xu**2),
        af_alpha * au_alpha * (_pareto_power_moment(af + au, "E[F*U]") - xf * xu),
    )


def exact_moments(
    model: DistributionModel, pair: ObservablePair
) -> tuple[float, float, float, float, float]:
    """(mu, nu, var_F, var_U, gamma) computed from the model itself."""
    if model.is_finite:
        f = np.asarray(pair.f(model.atoms), dtype=float)
        u = np.asarray(pair.u(model.atoms), dtype=float)
        return _finite_moments(model.probs, f, u)
    return _pareto_moments(canonical_power(pair.f), canonical_power(pair.u))


# ---------------------------------------------------------------------------
# joint log-MGF
# ---------------------------------------------------------------------------

_LOG_REL_CUTOFF = math.log(1e-15)


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.sum(np.exp(values - m))))


_PANEL_BLOCK = 16
_PANEL_CAP = 1280  # dyadic panels k < 1280 reach q = 2**-1280, x = 2**512


@functools.lru_cache(maxsize=256)
def _panel_block_nodes(k0: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/log-weights for panels k0..k0+block-1, flattened."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    half = 0.5 * (nodes + 1.0)
    ks = np.arange(k0, k0 + _PANEL_BLOCK)
    hi = 2.0 ** (-ks)[:, None]
    lo = hi / 2.0
    q = lo + half[None, :] * (hi - lo)
    logw = np.log(weights)[None, :] + np.log(0.5 * (hi - lo))
    return q.ravel(), logw.ravel()


def _pareto_log_exp_integral(h: Callable) -> tuple[float, np.ndarray, np.ndarray]:
    """log of int_0^1 exp(h(x(q))) dq with x(q) = q**(-2/5), and its nodes.

    Dyadic panels [2^-k-1, 2^-k] with fixed Gauss-Legendre nodes,
    evaluated a block at a time; the panel walk continues past any
    pre-peak dip (the integrand maximum is still rising) and stops only
    once both the panel contribution is below 1e-15 of the running
    total and the integrand is decaying.  All accumulation is in the
    log domain: for small theta2/theta1 the integrand peaks at
    astronomically large x and exp(h) overflows any linear-scale
    representation long before the result does.

    Returns the log-integral, the nodes x the walk used, and the
    log-terms h(x) + log-weight whose log-sum it is.
    """
    total = -math.inf
    last_max = math.inf
    xs, logterms = [], []
    for k0 in range(0, _PANEL_CAP, _PANEL_BLOCK):
        q, logw = _panel_block_nodes(k0)
        x = q ** (-0.4)
        vals = np.asarray(h(x), dtype=float)
        if np.any(np.isnan(vals)):
            raise NumericError(f"log-MGF integrand produced NaN near panel k={k0}")
        terms = vals + logw
        xs.append(x)
        logterms.append(terms)
        panels = terms.reshape(_PANEL_BLOCK, -1)
        vmaxes = vals.reshape(_PANEL_BLOCK, -1).max(axis=1)
        for i in range(_PANEL_BLOCK):
            panel = _logsumexp(panels[i])
            total = float(np.logaddexp(total, panel))
            vmax = float(vmaxes[i])
            decaying = vmax <= last_max
            last_max = vmax
            if decaying and panel < total + _LOG_REL_CUTOFF:
                used = (i + 1) * panels.shape[1]
                xs[-1], logterms[-1] = x[:used], terms[:used]
                return total, np.concatenate(xs), np.concatenate(logterms)
    raise NumericError("log-MGF quadrature did not converge within the panel cap")


_NODE_VALUES: tuple = (None, None, None)  # the last (pair, nodes, values) evaluated


def _node_values(pair: ObservablePair, x: np.ndarray) -> np.ndarray:
    """(F, U) at the nodes x, kept for the last (pair, x): a finite model's atoms are one array."""
    global _NODE_VALUES
    last_pair, last_x, fu = _NODE_VALUES
    if last_pair is not pair or last_x is not x:
        fu = np.vstack([pair.f(x), pair.u(x)]).astype(float)
        _NODE_VALUES = (pair, x, fu)
    return fu


def _log_mgf_nodes(model: DistributionModel, pair: ObservablePair, a: float, b: float):
    """log E[exp(a F(X) + b U(X))], its nodes (atoms or quadrature nodes) and
    log-terms; the nodes and terms are None when the integral diverges."""
    if model.is_finite:
        fu = _node_values(pair, model.atoms)
        terms = np.log(model.probs) + a * fu[0] + b * fu[1]
        return _logsumexp(terms), model.atoms, terms

    # divergence is decided by metadata, not by numeric overflow
    if b > 0.0 and pair.u_unbounded_above and not (
        # a F + b U = a (F - beta U) at beta = b/-a, bounded above where F - beta U is below
        a < 0.0 and pair.lower_margin is not None and pair.lower_margin(b / -a) > -math.inf
    ):
        return math.inf, None, None
    if b == 0.0 and a > 0.0 and pair.f_unbounded_above:
        return math.inf, None, None
    # a F + b U = a (F - beta U) at beta = -b/a, unbounded above with its margin
    if b < 0.0 < a and pair.f_unbounded_above and pair.margin(-b / a) == math.inf:
        return math.inf, None, None
    return _pareto_log_exp_integral(lambda x: a * pair.f(x) + b * pair.u(x))


def log_mgf_signed(model: DistributionModel, pair: ObservablePair, a: float, b: float) -> float:
    """log E[exp(a F(X) + b U(X))] for arbitrary real coefficients.

    Returns +inf (a value, not an error) when the integral diverges.
    """
    if a == 0.0 and b == 0.0:
        return 0.0
    return _log_mgf_nodes(model, pair, a, b)[0]


def tilted_moments(model: DistributionModel, pair: ObservablePair, a: float, b: float):
    """(log-MGF, mean, covariance) of (F, U) under the law tilted by exp(aF + bU).

    The mean and covariance are the gradient and Hessian of the log-MGF
    in (a, b), reduced from the nodes of the same log-sum that
    ``log_mgf_signed`` evaluates: no extra quadrature, and the exact
    derivatives of the computed value.  Raises DivergenceError where
    the log-MGF is +inf.
    """
    lam, x, terms = _log_mgf_nodes(model, pair, a, b)
    if x is None:
        raise DivergenceError(f"the log-MGF diverges at ({a}, {b}): no tilted law")
    w = np.exp(terms - lam)
    w /= w.sum()
    fu = _node_values(pair, x)
    mean = fu @ w
    dev = fu - mean[:, None]
    if a == 0.0 and b == 0.0:
        lam = 0.0  # exact, as in log_mgf_signed
    return lam, mean, (dev * w) @ dev.T


def log_mgf_joint(
    model: DistributionModel, pair: ObservablePair, theta1: float, theta2: float
) -> float:
    """log E[exp(theta1 F(X) - theta2 U(X))] on theta1, theta2 >= 0."""
    if theta1 < 0.0 or theta2 < 0.0:
        raise DomainError("log_mgf_joint requires theta1 >= 0 and theta2 >= 0")
    return log_mgf_signed(model, pair, theta1, -theta2)


def with_gamma(pair: ObservablePair, gamma: float, flag: str = "upper_bound") -> ObservablePair:
    """Copy of the pair with a substituted covariance surrogate."""
    return replace(pair, gamma=gamma, gamma_flag=flag)
