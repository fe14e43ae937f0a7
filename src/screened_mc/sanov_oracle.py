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
from scipy.optimize import linprog, minimize, nnls

from .dist_models import DistributionModel, ObservablePair, finite_support, tabulated_pair
from .errors import CapabilityError, InputError, NumericError
from .rate_functions import _lambda_star_detail, rate_plus_star_detail

SUPPORT_CAP = 64
_FEAS_TOL = 1e-9
# the primal route starts where every atom keeps this share of its mass
START_FLOOR = 1e-2


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
    v: np.ndarray, halfspaces: list[tuple[np.ndarray, float]], floor: np.ndarray | None = None
) -> np.ndarray | None:
    """Euclidean projection onto {q >= floor, sum q = 1} intersect half-spaces.

    An exact least-distance program (Lawson and Hanson, ch. 23): with
    x = q - v, minimize |x| subject to G x >= h (rows q >= floor, sum q = 1
    as two opposite rows, each half-space as a unit row), whose dual is one
    active-set NNLS on [G^T; h^T].  Coordinate bisection over the
    multipliers left thin-wedge sets unconverged after any fixed number of
    sweeps.  None when the set is empty, or misses a constraint by 1e-9.
    """
    if not halfspaces and floor is None:
        return _project_simplex(v)
    m = len(v)
    lower = np.zeros(m) if floor is None else floor
    ones = np.full(m, 1.0 / math.sqrt(m))
    mass_gap = (1.0 - float(v.sum())) / math.sqrt(m)
    rows = [np.eye(m), ones, -ones]
    rhs = [lower - v, [mass_gap, -mass_gap]]
    for a, b in halfspaces:
        norm = float(np.linalg.norm(a))
        if norm == 0.0:
            continue  # holds everywhere, or nowhere (checked below)
        rows.append(-a / norm)
        rhs.append([(float(a @ v) - b) / norm])
    g = np.vstack(rows)
    h = np.concatenate(rhs)
    target = np.zeros(m + 1)
    target[m] = 1.0
    try:
        w, _ = nnls(np.vstack([g.T, h]), target)
    except RuntimeError as exc:
        raise NumericError(f"constrained simplex projection: {exc}") from exc
    scale = float(h @ w) - 1.0
    if not scale < 0.0:
        return None
    q = np.maximum(v - (g.T @ w) / scale, lower)
    if abs(float(q.sum()) - 1.0) > 1e-9 or any(
        float(a @ q) > b + 1e-9 * (1.0 + abs(b)) for a, b in halfspaces
    ):
        return None
    return q


# ---------------------------------------------------------------------------
# feasibility (vertex enumeration)
# ---------------------------------------------------------------------------


def _feasibility(
    f: np.ndarray,
    halfspaces: list[tuple[np.ndarray, float]],
    f_target: float,
) -> tuple[bool, bool]:
    """(feasible, degenerate): can int F dQ reach f_target under the half-spaces?

    The half-spaces are the screen: none, one, or the two sides of a slab
    of positive width, so a point on one boundary lies inside the other.
    The largest mean F over the simplex they cut is a linear program,
    attained at a vertex: a single atom inside every half-space, or a
    mixture of two atoms on one boundary.  The maximum is the best of
    these m atoms and at most m(m-1)/2 pairs per boundary, enumerated
    exactly: no solver and no solver tolerance.

    Degenerate means the target is attained only with equality, i.e. the
    feasible set is a face on which the F constraint is active for every
    point.
    """
    inside = np.ones(f.size, dtype=bool)
    for a, b in halfspaces:
        inside &= a <= b
    f_max = float(f[inside].max(initial=-math.inf))
    i, j = np.triu_indices(f.size, 1)
    for a, b in halfspaces:
        # the pairs strictly on opposite sides of the boundary a.q = b
        cross = ((a[i] < b) & (a[j] > b)) | ((a[i] > b) & (a[j] < b))
        ii, jj = i[cross], j[cross]
        t = (b - a[jj]) / (a[ii] - a[jj])  # the mass on atom ii
        f_max = max(f_max, float((t * f[ii] + (1.0 - t) * f[jj]).max(initial=-math.inf)))
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
) -> tuple[np.ndarray | None, float]:
    """The tilted law at ``theta`` and its entropy, or (None, inf).

    A residual constraint violation left by finite solver tolerance is
    repaired by projection; when the repaired law is still outside the
    moment set there is no dual point, and the primal route decides.
    """
    t1, t2 = theta
    logits = np.log(p) + t1 * f - t2 * u_vals
    logits -= logits.max()
    q = np.exp(logits)
    q /= q.sum()

    def outside(q: np.ndarray) -> bool:
        return float(f @ q) < f_floor - 1e-12 or any(
            float(a @ q) > b + 1e-12 for a, b in halfspaces
        )

    if outside(q):
        q = _project_constrained_simplex(q, halfspaces + [(-f, -f_floor)])
        if q is None:
            return None, math.inf
        q /= q.sum()
        if outside(q):
            return None, math.inf
    return q, relative_entropy(q, p)


def _primal_descent(
    p: np.ndarray,
    halfspaces: list[tuple[np.ndarray, float]],
    f: np.ndarray,
    f_floor: float,
) -> tuple[np.ndarray, float, bool]:
    """Primal minimization of H(q||p) over the constrained simplex.

    Sequential quadratic programming with the exact entropy gradient,
    started from the Euclidean projection of p onto the feasible laws
    keeping START_FLOOR of every atom's mass (the plain projection where
    there are none).  The plain projection zeroes atoms, where the entropy
    gradient is -inf, and SLSQP then took twice the iterations, with
    twice the spread.  The route shares nothing with the exponential-tilt
    dual, which is the point: the two must agree to certify the rate.  First-order
    projected-gradient schemes were tried first and crawl hopelessly
    when the minimizer carries atoms of mass ~1e-8 (the entropy Hessian
    is diag(1/q)), so a curvature-aware solver is a necessity here, not
    a luxury.

    Also returns whether SLSQP reported convergence; when it did not,
    the result may be the starting projection.
    """
    all_hs = halfspaces + [(-f, -f_floor)]
    q0 = _project_constrained_simplex(p, all_hs, START_FLOOR * p)
    if q0 is None:  # no interior start: the set is thin, or only a face
        q0 = _project_constrained_simplex(p, all_hs)
    if q0 is None:  # empty up to the feasibility rule's tolerance
        q0 = p
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
    ] + [
        {"type": "ineq", "fun": lambda q, a=a, b=b: b - float(a @ q), "jac": lambda q, a=a: -a}
        for a, b in all_hs
    ]
    res = minimize(
        objective, q0, jac=True, method="SLSQP", bounds=[(0.0, 1.0)] * len(p),
        constraints=constraints, options={"maxiter": 800, "ftol": 1e-14},
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

    feasible, degenerate = _feasibility(f, halfspaces, f_floor)
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
