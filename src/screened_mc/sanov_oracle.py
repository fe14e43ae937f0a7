"""Relative-entropy oracle for finite-support screened events.

The screened error rate equals the minimum relative entropy
H(Q || P) = sum q_j log(q_j / p_j) over laws Q in the (closed) moment
set E = {Q : int F dQ >= mu + eps, int U dQ <= nu + u}.  On a finite
alphabet this minimum is computed two independent ways and
cross-checked:

(a) the dual route: the minimizer is the exponential tilt
    q*_j proportional to p_j * exp(th1 f_j - th2 u_j) at the maximizing
    tilt of the Fenchel rate, then projected back onto E;
(b) the primal route: direct constrained minimization over the simplex
    starting from the Euclidean projection of P onto E, sharing nothing
    with the tilt parameterization.

Agreement of (a), (b) and the Fenchel value is the package's strongest
internal consistency check: two convex solvers and one concave solver
meeting at the same number.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import linprog, minimize

from .dist_models import DistributionModel, ObservablePair, finite_support, tabulated_pair
from .errors import CapabilityError, InputError, NumericError
from .rate_functions import _lambda_star_detail, rate_plus_star_detail

SUPPORT_CAP = 64
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class SanovResult:
    q_star: np.ndarray | None
    entropy: float
    fenchel_value: float
    gap: float
    feasible: bool
    degenerate: bool = False
    primal_entropy: float = math.inf
    dual_entropy: float = math.inf
    primal_converged: bool | None = None  # SLSQP status; None when no primal solve ran

    def to_dict(self) -> dict:
        q_star = None if self.q_star is None else [float(v) for v in self.q_star]
        return {**asdict(self), "q_star": q_star}


def relative_entropy(q, p) -> float:
    """sum q_j log(q_j / p_j), with 0 log 0 = 0; +inf off the support of p."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != p.shape:
        raise InputError("q and p must have equal length")
    if np.any((q > 0.0) & (p == 0.0)):
        return math.inf
    mask = q > 0.0
    return float(np.sum(q[mask] * np.log(q[mask] / p[mask])))


# ---------------------------------------------------------------------------
# Euclidean projection machinery
# ---------------------------------------------------------------------------


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort method)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, len(v) + 1)
    cond = u - css / ind > 0
    rho = ind[cond][-1]
    tau = css[cond][-1] / rho
    return np.maximum(v - tau, 0.0)


def _project_constrained_simplex(
    v: np.ndarray,
    halfspaces: list[tuple[np.ndarray, float]],
    sweeps: int = 40,
    bisection_steps: int = 64,
) -> np.ndarray:
    """Euclidean projection onto simplex intersect half-spaces.

    Solved through the dual over the half-space multipliers: for fixed
    multipliers the inner problem is a plain simplex projection of
    v - sum(lambda_i a_i), and each multiplier is pinned by a monotone
    scalar complementarity condition (raise lambda_i until its
    constraint holds with equality, or leave it at zero if already
    slack).  Coordinate bisection over at most three multipliers is
    exact up to bisection tolerance and has bounded cost; alternating
    projection schemes stall badly on the thin-wedge geometries the
    heavy-tail truncation instances produce.
    """
    if not halfspaces:
        return _project_simplex(v)
    rows = np.array([a for a, _ in halfspaces], dtype=float)
    rhs = np.array([b for _, b in halfspaces], dtype=float)
    lam = np.zeros(len(halfspaces))

    def q_of(lam_vec: np.ndarray) -> np.ndarray:
        return _project_simplex(v - rows.T @ lam_vec)

    for _ in range(sweeps):
        moved = 0.0
        for i in range(len(halfspaces)):
            lam_i_old = lam[i]
            lam[i] = 0.0
            slack = float(rows[i] @ q_of(lam)) - rhs[i]
            if slack <= 0.0:
                moved = max(moved, abs(lam_i_old))
                continue
            hi = max(1.0, 2.0 * lam_i_old)
            lam[i] = hi
            while float(rows[i] @ q_of(lam)) - rhs[i] > 0.0:
                hi *= 2.0
                lam[i] = hi
                if hi > 1e18:
                    break
            lo = 0.0
            for _ in range(bisection_steps):
                mid = 0.5 * (lo + hi)
                lam[i] = mid
                if float(rows[i] @ q_of(lam)) - rhs[i] > 0.0:
                    lo = mid
                else:
                    hi = mid
            lam[i] = hi  # the feasible side of the root
            moved = max(moved, abs(lam[i] - lam_i_old))
        if moved < 1e-14:
            break
    return q_of(lam)


# ---------------------------------------------------------------------------
# feasibility (exact small LP)
# ---------------------------------------------------------------------------


def _feasibility(
    p: np.ndarray,
    f: np.ndarray,
    halfspaces: list[tuple[np.ndarray, float]],
    f_target: float,
) -> tuple[bool, bool]:
    """(feasible, degenerate): can int F dQ reach f_target under the half-spaces?

    Degenerate means the target is attained only with equality, i.e. the
    feasible set is a face on which the F constraint is active for every
    point.
    """
    m = len(p)
    a_ub = np.array([a for a, _ in halfspaces]) if halfspaces else None
    b_ub = np.array([b for _, b in halfspaces]) if halfspaces else None
    res = linprog(
        -f,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=np.ones((1, m)),
        b_eq=np.array([1.0]),
        bounds=[(0.0, None)] * m,
        method="highs",
    )
    if res.status != 0:
        return False, False
    f_max = -res.fun
    scale = 1.0 + abs(f_target)
    if f_max < f_target - _FEAS_TOL * scale:
        return False, False
    degenerate = f_max <= f_target + _FEAS_TOL * scale
    return True, degenerate


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def _tilted_dual(
    p: np.ndarray,
    f: np.ndarray,
    u_vals: np.ndarray,
    theta: tuple[float, float],
    halfspaces: list[tuple[np.ndarray, float]],
    f_floor: float,
) -> tuple[np.ndarray, float]:
    t1, t2 = theta
    logits = np.log(p) + t1 * f - t2 * u_vals
    logits -= logits.max()
    q = np.exp(logits)
    q /= q.sum()
    # repair the residual constraint violation left by finite solver tolerance
    violated = float(f @ q) < f_floor - 1e-12 or any(
        float(a @ q) > b + 1e-12 for a, b in halfspaces
    )
    if violated:
        q = _project_constrained_simplex(q, halfspaces + [(-f, -f_floor)])
        q = np.maximum(q, 0.0)
        q /= q.sum()
    return q, relative_entropy(q, p)


def _primal_descent(
    p: np.ndarray,
    halfspaces: list[tuple[np.ndarray, float]],
    f: np.ndarray,
    f_floor: float,
) -> tuple[np.ndarray, float, bool]:
    """Primal minimization of H(q||p) over the constrained simplex.

    Sequential quadratic programming with the exact entropy gradient,
    started from the Euclidean projection of p onto the feasible set.
    The route shares nothing with the exponential-tilt dual, which is
    the point: the two must agree to certify the rate.  First-order
    projected-gradient schemes were tried first and crawl hopelessly
    when the minimizer carries atoms of mass ~1e-8 (the entropy Hessian
    is diag(1/q)), so a curvature-aware solver is a necessity here, not
    a luxury.

    Also returns whether SLSQP reported convergence; when it did not,
    the result may be the starting projection.
    """
    all_hs = halfspaces + [(-f, -f_floor)]
    q0 = np.maximum(_project_constrained_simplex(p.copy(), all_hs), 0.0)
    q0 = q0 / q0.sum()
    floor = 1e-300

    def objective(q: np.ndarray):
        safe = np.maximum(q, floor)
        mask = q > 0.0
        value = float(np.sum(q[mask] * np.log(safe[mask] / p[mask])))
        grad = np.log(safe / p) + 1.0
        return value, grad

    constraints = [
        {"type": "eq", "fun": lambda q: q.sum() - 1.0, "jac": lambda q: np.ones_like(q)}
    ]
    for a, b in all_hs:
        constraints.append(
            {
                "type": "ineq",
                "fun": lambda q, a=a, b=b: b - float(a @ q),
                "jac": lambda q, a=a: -a,
            }
        )
    res = minimize(
        objective,
        q0,
        jac=True,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * len(p),
        constraints=constraints,
        options={"maxiter": 800, "ftol": 1e-14},
    )
    candidates = [q0]
    if res.x is not None:
        candidates.append(np.asarray(res.x, dtype=float))
    best_q, best_val = None, math.inf
    for cand in candidates:
        cand = np.maximum(cand, 0.0)
        total = cand.sum()
        if total <= 0.0:
            continue
        cand = cand / total
        # keep only candidates that actually satisfy the constraints
        if any(float(a @ cand) > b + 1e-9 * (1.0 + abs(b)) for a, b in all_hs):
            continue
        val = relative_entropy(cand, p)
        if val < best_val:
            best_q, best_val = cand, val
    if best_q is None:
        best_q, best_val = q0, relative_entropy(q0, p)
    return best_q, best_val, bool(res.success)


def sanov_rate(
    model: DistributionModel,
    pair: ObservablePair,
    epsilon: float,
    u: float,
    sidedness: str = "one_sided",
) -> SanovResult:
    """Minimum relative entropy over the screened moment set.

    ``one_sided`` constrains int U dQ <= nu + u (matching lambda_plus);
    ``two_sided`` adds int U dQ >= nu - u.  ``u = inf`` drops the
    screening constraint entirely, leaving the plain excess-mean set.
    Infeasible sets return entropy = +inf with ``feasible = False``.
    """
    if not model.is_finite:
        raise CapabilityError("the entropy oracle requires a finite-support model")
    if len(model.atoms) > SUPPORT_CAP:
        raise CapabilityError(
            f"support size {len(model.atoms)} exceeds the oracle cap {SUPPORT_CAP}"
        )
    p = model.probs.astype(float)
    f = np.asarray(pair.f(model.atoms), dtype=float)
    u_vals = np.asarray(pair.u(model.atoms), dtype=float)
    f_floor = pair.mu + epsilon

    halfspaces: list[tuple[np.ndarray, float]] = []
    if math.isfinite(u):
        halfspaces.append((u_vals.copy(), pair.nu + u))
        if sidedness == "two_sided":
            halfspaces.append((-u_vals, -(pair.nu - u)))

    feasible, degenerate = _feasibility(p, f, halfspaces, f_floor)
    if math.isfinite(u):
        fenchel, theta = rate_plus_star_detail(model, pair, epsilon, u, "lambda_plus")
    else:
        # no screening constraint: 1-d tilt on F alone
        fenchel, theta1 = _lambda_star_detail(model, pair, epsilon)
        theta = (theta1, 0.0)

    if not feasible:
        return SanovResult(
            q_star=None,
            entropy=math.inf,
            fenchel_value=fenchel,
            gap=0.0 if math.isinf(fenchel) else math.inf,
            feasible=False,
            degenerate=degenerate,
        )

    if all(math.isfinite(t) for t in theta):
        q_dual, h_dual = _tilted_dual(p, f, u_vals, theta, halfspaces, f_floor)
    else:
        # feasible only on a degenerate face: the tilt runs away, so the
        # dual route contributes nothing useful
        q_dual, h_dual = None, math.inf
    q_primal, h_primal, primal_converged = _primal_descent(p, halfspaces, f, f_floor)
    if h_dual <= h_primal:
        q_star, entropy = q_dual, h_dual
    else:
        q_star, entropy = q_primal, h_primal

    if abs(float(q_star.sum()) - 1.0) > 1e-10:
        raise NumericError("entropy minimizer is not a probability vector")
    return SanovResult(
        q_star=q_star,
        entropy=entropy,
        fenchel_value=fenchel,
        gap=abs(entropy - fenchel),
        feasible=True,
        degenerate=degenerate,
        primal_entropy=h_primal,
        dual_entropy=h_dual,
        primal_converged=primal_converged,
    )


# ---------------------------------------------------------------------------
# randomized agreement suite
# ---------------------------------------------------------------------------


def random_instance(rng: np.random.Generator):
    """One random feasible finite-support instance (model, pair, eps, u)."""
    m = int(rng.integers(3, 11))
    atoms = np.sort(rng.uniform(-2.0, 2.0, size=m))
    probs = rng.dirichlet(np.ones(m) * 2.0)
    probs = np.maximum(probs, 1e-3)
    probs /= probs.sum()
    model = finite_support(atoms, probs)
    f_vals = rng.normal(size=m)
    u_vals = rng.normal(size=m)
    pair = tabulated_pair(model, f_vals, u_vals)

    u_thr = float(rng.uniform(0.05, 0.6) * (u_vals.max() - pair.nu) + 1e-3)
    halfspaces = [(np.asarray(u_vals), pair.nu + u_thr)]
    res = linprog(
        -np.asarray(f_vals),
        A_ub=np.array([hs[0] for hs in halfspaces]),
        b_ub=np.array([hs[1] for hs in halfspaces]),
        A_eq=np.ones((1, m)),
        b_eq=np.array([1.0]),
        bounds=[(0.0, None)] * m,
        method="highs",
    )
    f_max = -res.fun
    if f_max <= pair.mu + 1e-6:
        return None  # cannot exceed the mean under this screen; resample
    eps = float(rng.uniform(0.2, 0.7) * (f_max - pair.mu))
    return model, pair, eps, u_thr


def duality_suite(count: int = 50, seed: int = 20240801) -> list[SanovResult]:
    """Seeded suite of random feasible instances solved by both routes."""
    rng = np.random.default_rng(seed)
    out: list[SanovResult] = []
    while len(out) < count:
        inst = random_instance(rng)
        if inst is None:
            continue
        model, pair, eps, u_thr = inst
        out.append(sanov_rate(model, pair, eps, u_thr))
    return out
