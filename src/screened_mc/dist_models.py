"""Distribution models and observable pairs.

A :class:`DistributionModel` is a law P on the reals that supports exact
sampling and a joint log-MGF oracle.  Two kinds are provided:

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
together with their known statistics and margin oracles, keyed by sign
pattern: ``margins[(s_f, s_u)](beta)`` is an upper bound on
ess sup[s_f F(X) + beta s_u U(X)], +inf where the support does not bound
it, and an infimum is a negated supremum.  The margin m(beta), pattern
(+1, -1), bounds ess sup[F(X) - beta U(X)]; its finiteness for every
beta > 0, U dominating F, is what makes screened errors exponentially
rare even when F(X) is heavy-tailed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import CapabilityError, ConfigError, DivergenceError, InputError, NumericError
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
    raise CapabilityError(f"{form!r} is not alpha*x**a + delta, the one form pareto_like takes")


# ---------------------------------------------------------------------------
# margin oracles: plain callables taking beta > 0, a float or an array, to an
# upper bound on an essential supremum of G + beta*H of the same shape (a float
# for a float), +inf where the support does not bound it.  A pair keys each by
# its sign pattern (s_f, s_u), G = s_f F and H = s_u U, the signs folded into
# the oracle's tables or coefficients; an infimum is a negated supremum.
# Grids take one call; the golden refinement calls with floats, a path kept
# free of numpy overhead.  Callers check the domain.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParetoMargin:
    """Exact sup over x >= 1 of A x**a + C + beta (B x**b + D).

    The forms f = (A, a, C) and u = (B, b, D) have A, B nonzero, as
    ``canonical_power`` gives them.  The sup is +inf where a positive
    power with a positive coefficient leads; else g = A x**a + beta B x**b
    + C + beta D at its one stationary point x* = r**(1/(b-a)), r = -A a /
    (beta B b), when x* > 1 and g peaks there; else the larger of g(1) and
    the limit at x = inf.  Signs decide once, at construction, which of
    these cases can arise.  Off the peak branch the oracle is straight in
    beta (``straight``).
    """

    f: tuple  # (A, a, C)
    u: tuple  # (B, b, D)

    def __post_init__(self):
        (A, a, C), (B, b, D) = self.f, self.u
        # the leading power and its coefficient, lead[0] + beta*lead[1]
        top, lead = (a, (A, B)) if a == b else max((a, (A, 0.0)), (b, (0.0, B)))
        peaks = a != b and (A * a > 0.0 > B * b if a < b else B * b > 0.0 > A * a)
        infinite = lead if top > 0.0 and (a == b or sum(lead) > 0.0) else None
        # (r * beta, A (1 - a/b), a/(b-a), whether x* > 1 means r > 1)
        peak = (-A * a / (B * b), A * (1.0 - a / b), a / (b - a), b > a) if peaks else None
        # with no positive power, x**0 = 1 and x**-e -> 0 as x -> inf
        limit = None if top > 0.0 else (C + (a == 0.0) * A, D + (b == 0.0) * B)
        object.__setattr__(self, "_cases", (A + C, B + D, C, D, infinite, peak, limit))

    def __call__(self, beta):
        p, q, c, d, infinite, peak, limit = self._cases
        if isinstance(beta, np.ndarray):
            value = p + beta * q
            if limit:
                value = np.maximum(value, limit[0] + beta * limit[1])
            if peak:
                k, coef, power, up = peak
                # float_power runs C pow per element, as Python's ** does; the
                # SIMD loop of np.power can differ from it in the last bit.  An
                # r past the doubles is +inf, the peak's limit, as on floats
                with np.errstate(over="ignore"):
                    r = k / beta
                    at_peak = coef * np.float_power(r, power) + (c + beta * d)
                value = np.where(r > 1.0 if up else r < 1.0, at_peak, value)
            if infinite:
                value = np.where(infinite[0] + beta * infinite[1] > 0.0, math.inf, value)
            return value
        beta = float(beta)
        if infinite and infinite[0] + beta * infinite[1] > 0.0:
            return math.inf
        if peak:
            k, coef, power, up = peak
            r = k / beta
            if r > 1.0 if up else r < 1.0:
                try:
                    return coef * r**power + (c + beta * d)
                except OverflowError:  # a peak beyond the doubles
                    return math.inf
        value = p + beta * q
        return max(value, limit[0] + beta * limit[1]) if limit else value

    @property
    def infinite(self) -> tuple[float, float] | None:
        """(p, q) with the oracle +inf where p + beta*q > 0, as ``__call__``
        tests, or None where it is finite for every beta."""
        return self._cases[4]

    @functools.cached_property
    def straight(self) -> tuple[FiniteMargin, tuple | None] | None:
        """(lines, peak) of an oracle with no +inf part, else None: off its
        peak branch the oracle is the table ``lines``, g(1) and the limit at
        x = inf as lines in beta; it takes that branch where k/beta > 1 (up)
        or k/beta < 1 for ``peak`` = (k, up), as ``__call__`` tests, and
        nowhere for ``peak`` None."""
        p, q, _, _, infinite, peak, limit = self._cases
        if infinite:
            return None
        f, k = zip(*([(p, q), limit] if limit else [(p, q)]))
        return FiniteMargin(f, k), peak and (peak[0], peak[3])


@dataclass(frozen=True)
class FiniteMargin:
    """Exact max over a finite support of f_j + beta*u_j.

    The tables hold finite Python floats, so a float beta takes Python's
    max of f + beta*u over the atoms: the IEEE operations of the array
    expression, in its order, without building an array.  On finite
    values the two agree but for a tie of +0.0 with -0.0, where Python
    keeps the first and numpy the last.
    """

    f_values: tuple
    u_values: tuple

    def __call__(self, beta):
        if not isinstance(beta, np.ndarray):
            beta = float(beta)
            return float(max(f + beta * u for f, u in zip(self.f_values, self.u_values)))
        # atom by atom: a (beta, atom) table is paged in afresh every call
        ext = self.f_values[0] + beta * self.u_values[0]
        for f, u in zip(self.f_values[1:], self.u_values[1:]):
            np.maximum(ext, f + beta * u, out=ext)
        return ext

    @property
    def straight(self) -> tuple[FiniteMargin, None]:
        """(self, None): straight pieces throughout (``ParetoMargin.straight``)."""
        return self, None

    @functools.cached_property
    def envelope(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """(atoms, breaks): the lines that attain the maximum, in beta order.

        Atom ``atoms[j]`` attains it over all real beta in
        [breaks[j-1], breaks[j]], unbounded at both ends.  Built on first
        use by Andrew's monotone chain on the points (u, f), with
        orientation tests on Python integers: every double is an integer
        over a power of two, so one common power makes every test exact.
        Each break is the exact crossing of its two lines, correctly
        rounded.  Of atoms with one slope only the largest f can win (the
        first of equal ones is kept), and a line that touches the envelope
        at one point only is dropped.
        """
        ratios = [x.as_integer_ratio() for x in (*self.f_values, *self.u_values)]
        scale = max(d for _, d in ratios)  # a power of two
        ints = [n * (scale // d) for n, d in ratios]
        size = len(self.f_values)
        best = {}  # slope -> (intercept, atom) of the largest intercept
        for i in range(size):
            k, c = ints[size + i], ints[i]
            if k not in best or c > best[k][0]:
                best[k] = (c, i)
        hull = []
        for k in sorted(best):
            c, i = best[k]
            # pop a middle point on or below the chord from its left neighbour
            while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (c - hull[-2][1])
                >= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
            ):
                hull.pop()
            hull.append((k, c, i))
        breaks = tuple(
            _ratio(c1 - c2, k2 - k1) for (k1, c1, _), (k2, c2, _) in zip(hull, hull[1:])
        )
        return tuple(i for _, _, i in hull), breaks


def _ratio(num: int, den: int) -> float:
    """num/den correctly rounded, +-inf beyond the doubles (den > 0)."""
    try:
        return num / den
    except OverflowError:
        return math.copysign(math.inf, num)


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
                    f"atom probabilities sum to {float(probs.sum())!r}, not 1 within {_PMF_TOL}"
                )

    @property
    def is_finite(self) -> bool:
        return self.kind == KIND_FINITE

    @functools.cached_property
    def _log_probs(self) -> np.ndarray:
        return np.log(self.probs)


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

    ``margins`` maps a sign pattern (s_f, s_u) to its oracle, an upper bound
    on sup[s_f F + beta s_u U]; ``margin``, derived, is (+1, -1)'s or None.
    """

    f: Callable
    u: Callable
    mu: float
    nu: float
    var_f: float
    var_u: float
    gamma: float
    gamma_flag: str = "exact"
    # ``normalize_observables`` rescales a FiniteMargin or a ParetoMargin
    margins: dict = field(default_factory=dict)
    normalized: bool = False
    f_scale: float | None = None
    u_scale: float | None = None
    # an attribute, not a property: the searches read it on every call
    margin: Callable | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "margin", self.margins.get((1, -1)))
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


_PATTERNS = ((1, -1), (-1, 1), (-1, -1), (1, 1))  # (s_f, s_u) of sup[s_f F + beta s_u U]


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
    signed = {1: (fv, uv), -1: (tuple([-x for x in fv]), tuple([-x for x in uv]))}
    return ObservablePair(
        f=Table(tuple(model.atoms), fv),
        u=Table(tuple(model.atoms), uv),
        mu=mu,
        nu=nu,
        var_f=var_f,
        var_u=var_u,
        gamma=gamma,
        margins={(sf, su): FiniteMargin(signed[sf][0], signed[su][1]) for sf, su in _PATTERNS},
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
        # no (+1, +1): gamma_plus, a light-tail variant, raises CapabilityError here
        margins={
            (sf, su): ParetoMargin((sf * cf[0], cf[1], sf * cf[2]), (su * cu[0], cu[1], su * cu[2]))
            for sf, su in _PATTERNS[:3]
        },
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
    """(mu, nu, var_F, var_U, gamma) of per-atom values f, u under probabilities p.

    Centred sums: E[F^2] - (E F)^2 would cancel when the values sit near a
    large offset.  A moment past the double range (values near +-1e308)
    raises InputError naming it, before numpy warns of the overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mu, nu = float(p @ f), float(p @ u)
        df, du = f - mu, u - nu
        moments = mu, nu, float(p @ (df * df)), float(p @ (du * du)), float(p @ (df * du))
    for name, value in zip(("E F", "E U", "Var F", "Var U", "Cov(F, U)"), moments):
        if not math.isfinite(value):
            raise InputError(f"{name} of the value tables is past the double range")
    return moments


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


# ---------------------------------------------------------------------------
# joint log-MGF
# ---------------------------------------------------------------------------

_LOG_REL_CUTOFF = math.log(1e-15)


def _logsumexp(values: np.ndarray) -> float:
    m = float(values.max())
    if math.isinf(m):
        return m
    with np.errstate(over="ignore"):  # a term past the doubles below m is -inf: exp gives 0
        return m + math.log(float(np.exp(values - m).sum()))


_PANEL_BLOCK = 16
_PANEL_CAP = 1280  # dyadic panels k < 1280 reach q = 2**-1280, x = 2**512


@functools.lru_cache(maxsize=256)
def _panel_block_nodes(k0: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x = q**(-2/5) and log-weights for panels k0..k0+block-1, flattened."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    half = 0.5 * (nodes + 1.0)
    ks = np.arange(k0, k0 + _PANEL_BLOCK)
    hi = 2.0 ** (-ks)[:, None]
    lo = hi / 2.0
    q = lo + half[None, :] * (hi - lo)
    logw = np.log(weights)[None, :] + np.log(0.5 * (hi - lo))
    return q.ravel() ** (-0.4), logw.ravel()


def _pareto_log_exp_integral(pair: ObservablePair, a: float, b: float):
    """log of int_0^1 exp(a F(x) + b U(x)) dq at x = q**(-2/5), with its nodes.

    Dyadic panels [2^-k-1, 2^-k] with fixed Gauss-Legendre nodes, F and U
    evaluated once per block of 512; the panel walk continues past any
    pre-peak dip (the integrand maximum is still rising) and stops only once
    both the panel contribution is below 1e-15 of the running total and the
    integrand is decaying.  All accumulation is in the log domain: for small
    theta2/theta1 the integrand peaks at astronomically large x, where its
    exponential overflows long before the result does.

    Returns the log-integral, the 2 x N array FU of F and U at the N nodes
    the walk used, and the log-terms a F + b U + log-weight it log-sums.
    """
    total, last_max = -math.inf, math.inf
    fus, logterms = [], []
    for k0 in range(0, _PANEL_CAP, _PANEL_BLOCK):
        x, logw = _panel_block_nodes(k0)
        fu = np.array([pair.f(x), pair.u(x)], dtype=float)
        vals = a * fu[0] + b * fu[1]
        if np.any(np.isnan(vals)):
            raise NumericError(f"log-MGF integrand produced NaN near panel k={k0}")
        terms = vals + logw
        fus.append(fu)
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
                fus[-1], logterms[-1] = fu[:, :used], terms[:used]
                return total, np.concatenate(fus, axis=1), np.concatenate(logterms)
    raise NumericError("log-MGF quadrature did not converge within the panel cap")


_LAST_LOG_MGF: tuple = (None, None, None, None)  # the last (model, pair, key, result)


def _log_mgf_nodes(model: DistributionModel, pair: ObservablePair, a: float, b: float):
    """(Lambda, FU, log-terms): Lambda = log E[exp(a F(X) + b U(X))], the
    log-sum of the terms, and FU the 2 x N array of F and U at their nodes
    (atoms or quadrature nodes); None and None where Lambda is +inf.

    The last result is kept for the same (model, pair) objects and the same
    (a, b), signs of zeros included: a Newton step's derivatives come at the
    point its line search has just evaluated.  A new tilt of the same pair
    hands its FU on, so a finite table is evaluated once per switch of
    pair.  Callers do not write to it.
    """
    global _LAST_LOG_MGF
    key = (a, b, math.copysign(1.0, a), math.copysign(1.0, b))
    last_model, last_pair, last_key, result = _LAST_LOG_MGF
    if last_model is not model or last_pair is not pair or last_key != key:
        known = result[1] if last_model is model and last_pair is pair else None
        result = _log_mgf_eval(model, pair, a, b, known)
        _LAST_LOG_MGF = (model, pair, key, result)
    return result


def _log_mgf_eval(model: DistributionModel, pair: ObservablePair, a: float, b: float, fu=None):
    """``_log_mgf_nodes`` evaluated afresh; a finite model takes FU as ``fu`` if given."""
    if model.is_finite:
        if fu is None:
            fu = np.array([pair.f(model.atoms), pair.u(model.atoms)], dtype=float)
        terms = model._log_probs + a * fu[0] + b * fu[1]
        return _logsumexp(terms), fu, terms

    # E e^{aF + bU} = +inf exactly where aF + bU is unbounded above: where its
    # leading power (the largest with a nonzero coefficient) is positive with a
    # positive coefficient.  The margin sup[F - beta U] holds F's form and -U's
    if not isinstance(pair.margin, ParetoMargin):
        raise CapabilityError("a pareto_like log-MGF needs the pair's power forms (a ParetoMargin)")
    (alpha_f, e, _), (alpha_u, g, _) = pair.margin.f, pair.margin.u
    terms = {e: a * alpha_f}
    terms[g] = terms.get(g, 0.0) - b * alpha_u
    top = max((power for power, coef in terms.items() if coef), default=0.0)
    if top > 0.0 and terms[top] > 0.0:
        return math.inf, None, None
    return _pareto_log_exp_integral(pair, a, b)


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
    in (a, b), reduced from the F and U values of the log-sum that
    ``log_mgf_signed`` evaluates: no observable is called, and they are
    the exact derivatives of the computed value.  Raises DivergenceError
    where the log-MGF is +inf.
    """
    lam, fu, terms = _log_mgf_nodes(model, pair, a, b)
    if fu is None:
        raise DivergenceError(f"the log-MGF diverges at ({a}, {b}): no tilted law")
    w = np.exp(terms - lam)
    w /= w.sum()
    mean = fu @ w
    dev = fu - mean[:, None]
    if a == 0.0 and b == 0.0:
        lam = 0.0  # exact, as in log_mgf_signed
    return lam, mean, (dev * w) @ dev.T


def with_gamma(pair: ObservablePair, gamma: float) -> ObservablePair:
    """Copy of the pair with gamma replaced by a conservative surrogate ("upper_bound")."""
    return replace(pair, gamma=gamma, gamma_flag="upper_bound")
