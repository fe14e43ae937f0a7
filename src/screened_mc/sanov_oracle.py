"""Relative-entropy oracle for finite-support screened events.

The screened error rate equals the minimum relative entropy
H(Q || P) = sum q_j log(q_j / p_j) over laws Q in the (closed) moment
set E = {Q : int F dQ >= mu + eps, int U dQ <= nu + u}.  On a finite
alphabet this minimum is computed two independent ways and
cross-checked:

(a) the dual route: the minimizer is the exponential tilt
    q*_j proportional to p_j * exp(th1 f_j - th2 u_j) at the maximizing
    tilt of the Fenchel rate; a tilted law outside E gives no dual point;
(b) the primal route: Newton's method on Q itself over the simplex,
    stopped by a Lagrange-dual gap certificate at its own multipliers.
    It starts at (a)'s tilted law where there is one, so one step
    certifies it, and otherwise at P mixed with the vertex of largest
    mean F; its steps and its certificate share no code with (a), and
    a certified run reports its own point, never the start.

Agreement of (a), (b) and the Fenchel value is the package's strongest
internal consistency check: two convex solvers and one concave solver
meeting at the same number.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dist_models import DistributionModel, ObservablePair, finite_support, tabulated_pair
from .errors import CapabilityError, ConfigError, InputError, NumericError
from .rate_functions import _lambda_star_detail, rate_plus_star_detail
from .screen_core import SIDEDNESS

SUPPORT_CAP = 64
_FEAS_TOL = 1e-9
# the primal Newton run: its step cap, its certified relative gap, and the
# squared Newton decrement below which it takes full steps and drops rows
_NEWTON_CAP = 50
_CERT_GAP = 1e-14
_SMALL_STEP = 1e-6


def __getattr__(name):
    # perfbench/layers.py traces these unused names as sanov_oracle attributes
    if name in ("linprog", "minimize"):
        import scipy.optimize

        return getattr(scipy.optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    # the primal run certified its Lagrange-dual gap; None when no primal solve ran
    primal_converged: bool | None = None

    def to_dict(self) -> dict:
        q_star = None if self.q_star is None else [float(v) for v in self.q_star]
        return {**asdict(self), "q_star": q_star}


def relative_entropy(q, p) -> float:
    """sum q_j log(q_j / p_j), with 0 log 0 = 0; +inf off the support of p."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != p.shape:
        raise InputError("q and p must have equal length")
    mask = q > 0.0
    q, p = q[mask], p[mask]
    if (p == 0.0).any():
        return math.inf
    return float(np.sum(q * np.log(q / p)))


# ---------------------------------------------------------------------------
# feasibility (vertex enumeration)
# ---------------------------------------------------------------------------


def _vertices(
    f: np.ndarray, halfspaces: list[tuple[np.ndarray, float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The vertices of the screened simplex as (i, j, t, mean F).

    Vertex k puts mass t[k] on atom i[k] and the rest on atom j[k].  The
    half-spaces are the screen: none, one, or the two sides of a slab of
    positive width, so a point on one boundary lies inside the other.  A
    vertex is then a single atom inside every half-space (i = j, t = 1),
    or the mixture of two atoms on opposite sides of one boundary that
    lies on it: m atoms and at most m(m-1)/2 pairs per boundary.
    """
    inside = np.ones(f.size, dtype=bool)
    for a, b in halfspaces:
        inside &= a <= b
    atoms = np.flatnonzero(inside)
    i_parts, j_parts, t_parts = [atoms], [atoms], [np.ones(atoms.size)]
    for a, b in halfspaces:
        # the pairs strictly on opposite sides of the boundary a.q = b, below it first
        ii, jj = np.nonzero((a < b)[:, None] & (a > b))
        i_parts.append(ii)
        j_parts.append(jj)
        t_parts.append((b - a[jj]) / (a[ii] - a[jj]))  # the mass on atom ii
    i, j, t = (np.concatenate(parts) for parts in (i_parts, j_parts, t_parts))
    return i, j, t, t * f[i] + (1.0 - t) * f[j]


def _classify(vertices: tuple[np.ndarray, ...], f_target: float) -> tuple[bool, bool]:
    """(feasible, degenerate): can int F dQ reach f_target on the set of these ``_vertices``?

    The largest mean F over the simplex the half-spaces cut is a linear
    program, attained at a vertex, so it is the best of the enumerated
    vertices: no solver and no solver tolerance.  Degenerate means the
    target is attained only with equality: the feasible set is a face on
    which the F constraint is active for every point.
    """
    f_max = float(vertices[3].max(initial=-math.inf))
    scale = 1.0 + abs(f_target)
    if f_max < f_target - _FEAS_TOL * scale:
        return False, False
    return True, f_max <= f_target + _FEAS_TOL * scale


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
    """The law proportional to p exp(t1 f - t2 u) and its entropy, or (None, inf).

    A law that misses a row of the moment set by more than 1e-12 gives no
    dual point, and the primal route decides.
    """
    t1, t2 = theta
    logits = np.log(p) + t1 * f - t2 * u_vals
    logits -= logits.max()
    q = np.exp(logits)
    q /= q.sum()
    if float(f @ q) < f_floor - 1e-12 or any(float(a @ q) > b + 1e-12 for a, b in halfspaces):
        return None, math.inf
    return q, relative_entropy(q, p)


def _newton(
    p: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    q: np.ndarray,
    held: list[int],
    tight: list[int],
) -> tuple[np.ndarray, bool]:
    """Active-set Newton for min H(q||p) subject to sum q = 1 and g q <= h.

    ``q`` is a start inside every row (to 1e-12) with every entry
    positive; the rows in ``held`` stay active, as equalities, and those
    in ``tight`` start active but leave as any other row may.  A step
    solves the Newton system of the active rows C: the Hessian is diag(1/q), so
    dq = -q (grad + C^T w), with w from one (1 + |active|)-square solve of
    C diag(q) C^T w = -C (q grad) - r, r the active rows' residual.  It
    goes at most 99% of the way to q = 0, stops at the first inactive row
    it meets, which joins the active set, and backtracks (Armijo) while
    the squared Newton decrement exceeds _SMALL_STEP.  Below that, a row
    with a negative multiplier leaves the active set.

    The run stops on a certificate, not a step rule.  At the full step
    x = q + dq, with multipliers lam = w[1:] (>= 0 on rows not held), the
    Lagrange dual D(lam) = -log sum_j p_j exp(-lam.(g_j - h)) bounds the
    minimum from below, and H(x) - D(lam) = sum_j x_j phi(r_j) + lam.(h - g x),
    with phi(r) = r - 1 + exp(-r) >= 0 and r_j = log(x_j / tilt_j), is
    summed without cancellation.  Returns the last point and whether that
    gap fell to _CERT_GAP (1 + H(x)), x inside every row to 1e-12, within
    _NEWTON_CAP steps.
    """
    logp = np.log(p)
    ones = np.ones((1, q.size))
    tol = 1e-12 * (1.0 + np.abs(h))
    active = [*held, *tight]
    for _ in range(_NEWTON_CAP):
        rows = np.concatenate([ones, g[active]])
        grad = np.log(q) - logp
        room = h - g @ q
        cq = rows * q
        resid = np.concatenate([[1.0 - q.sum()], room[active]])
        try:
            w = np.linalg.solve(cq @ rows.T, -(cq @ grad) - resid)
        except np.linalg.LinAlgError:
            return q, False  # the active rows are dependent on the support
        ratio = -(grad + w @ rows)  # dq / q
        lam = w[1:]
        free = [k for k, row in enumerate(active) if row not in held]
        decrement = float(q @ ratio**2)  # the squared Newton decrement
        small = decrement <= _SMALL_STEP
        lowest = float(ratio.min())
        if small and lowest >= -0.99 and all(lam[k] >= 0.0 for k in free):
            x = q + q * ratio
            slack = h - g @ x
            if (slack >= -tol).all():
                log_x = np.log(x) - logp
                tilt = lam @ (h[active, None] - g[active])
                r = log_x - tilt + np.logaddexp.reduce(logp + tilt)
                gap = float(x @ (np.expm1(-r) + r) + lam @ slack[active])
                if gap <= _CERT_GAP * (1.0 + abs(float(x @ log_x))):
                    return x, True
        if small and free:
            worst = min(free, key=lambda k: lam[k])
            if lam[worst] < 0.0:
                del active[worst]
                continue
        step = 1.0 if lowest >= -0.99 else -0.99 / lowest
        dq = q * ratio
        blocker = None
        for k, slope in enumerate(g @ dq):
            if slope > 0.0 and k not in active and max(room[k], 0.0) < step * slope:
                step, blocker = max(room[k], 0.0) / slope, k
        if not small:
            descent, entropy = float(grad @ dq), float(q @ grad)
            while step > 0.0:
                trial = q + step * dq
                if float(trial @ (np.log(trial) - logp)) <= entropy + 0.25 * step * descent:
                    break
                step *= 0.5
                blocker = None
        q = q + step * dq
        if blocker is not None:
            active.append(blocker)
    return q, False


def _primal_descent(
    p: np.ndarray,
    halfspaces: list[tuple[np.ndarray, float]],
    f: np.ndarray,
    f_floor: float,
    vertices: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    degenerate: bool,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, float, bool]:
    """Primal minimization of H(q||p) over the constrained simplex.

    Newton's method on q itself (``_newton``), certified by its own
    Lagrange-dual gap.  Its steps and its certificate share no code with
    the exponential-tilt dual route, which is the point: the two must
    agree to certify the rate.  First-order projected-gradient schemes
    crawl when the minimizer carries atoms of mass ~1e-8 (the Hessian is
    diag(1/q)).

    Off a degenerate face the run starts at ``start``, the dual route's
    tilted law, when one is given with every atom positive: the
    I-projection to within the tilt's ascent tolerance, so one Newton step
    certifies it.  The rows tight there start active, not held, so a wrong
    tilt costs steps, never the answer.  Without one, the start comes from
    the vertex enumeration that decided feasibility: p mixed with the
    max-F vertex, halfway from where the mixture meets the F row to the
    vertex, inside every row with every atom positive.  On a degenerate
    face the feasible laws mix the vertices that reach the target, so the
    run starts from their centroid, on their atoms, and holds active every
    row tight there that the others do not already fix on those atoms.

    A certified run returns its own point; otherwise the lower of it and
    the start, among those inside every row.  Also returns whether the gap
    certificate was reached.
    """
    rows = np.vstack([*(a for a, _ in halfspaces), -f])
    bounds = np.array([*(b for _, b in halfspaces), -f_floor])
    g, h = rows, bounds  # the rows the run keeps, and their right-hand sides
    support = slice(None)  # the atoms the run moves: all of them off a degenerate face
    held: list[int] = []
    tight: list[int] = []
    if degenerate:
        i, j, t, values = vertices
        chosen = values >= f_floor - _FEAS_TOL * (1.0 + abs(f_floor))
        q0 = np.zeros(p.size)
        np.add.at(q0, i[chosen], t[chosen])
        np.add.at(q0, j[chosen], 1.0 - t[chosen])
        q0 /= np.count_nonzero(chosen)
        support = q0 > 0.0
        at_start = g @ q0
        near = np.abs(at_start - h) <= _FEAS_TOL * (1.0 + np.abs(h))
        basis = np.ones((1, np.count_nonzero(support)))
        for k in np.flatnonzero(near):
            trial = np.vstack([basis, g[k, support]])
            if np.linalg.matrix_rank(trial, tol=1e-9 * np.abs(trial).max()) == len(trial):
                basis, held = trial, held + [k]
        # a tight row the held ones fix on the support cannot move: drop it;
        # the held rows keep the values they have at the start
        keep = held + [k for k in range(len(h)) if not near[k]]
        g, h = g[keep], np.where(near, at_start, h)[keep]
        held = list(range(len(held)))
    elif start is not None and (start > 0.0).all():
        q0 = start
        tight = np.flatnonzero(np.abs(g @ q0 - h) <= _FEAS_TOL * (1.0 + np.abs(h))).tolist()
    else:
        i, j, t, values = vertices
        k = int(np.argmax(values))
        vertex = np.zeros(p.size)
        vertex[i[k]] += t[k]
        vertex[j[k]] += 1.0 - t[k]
        mean = float(f @ p)
        share = 0.0  # p is strictly feasible when eps < 0
        if f_floor >= mean:  # halfway from where the mixture meets the F row
            share = 0.5 * (1.0 + (f_floor - mean) / (float(values[k]) - mean))
        q0 = (1.0 - share) * p + share * vertex
    q = np.zeros(p.size)
    q[support], converged = _newton(p[support], g[:, support], h, q0[support], held, tight)
    if converged:
        return q, relative_entropy(q, p), True
    best_q, best_val = q0, relative_entropy(q0, p)
    q = np.maximum(q, 0.0)
    q /= q.sum()
    # the run's last point counts only where it satisfies every row
    if (rows @ q <= bounds + 1e-9 * (1.0 + np.abs(bounds))).all():
        val = relative_entropy(q, p)
        if val < best_val:
            best_q, best_val = q, val
    return best_q, best_val, False


def sanov_rate(
    model: DistributionModel,
    pair: ObservablePair,
    epsilon: float,
    u: float,
    sidedness: str = "one_sided",
) -> SanovResult:
    """Minimum relative entropy over the screened moment set.

    ``one_sided`` constrains int U dQ <= nu + u (matching lambda_plus);
    ``two_sided`` adds int U dQ >= nu - u (matching gamma_plus).  The
    minimizer lies on at most one row of that slab of positive width, so
    the two-sided rate is max(lambda_plus, gamma_plus), at the tilt of
    the larger (Csiszar 1975, the KKT conditions of an I-projection).
    ``u = inf`` drops the screening constraint entirely, leaving the
    plain excess-mean set; a finite ``u`` must be > 0, so that P lies
    strictly inside the screen.
    Infeasible sets return entropy = +inf with ``feasible = False``.
    """
    if sidedness not in SIDEDNESS:
        raise ConfigError(f"sidedness must be one of {SIDEDNESS}")
    if not model.is_finite:
        raise CapabilityError("the entropy oracle requires a finite-support model")
    if len(model.atoms) > SUPPORT_CAP:
        raise CapabilityError(
            f"support size {len(model.atoms)} exceeds the oracle cap {SUPPORT_CAP}"
        )
    if not u > 0.0:
        raise InputError(f"the screen needs u > 0 (or inf), got {u}")
    p = model.probs.astype(float)
    f = np.asarray(pair.f(model.atoms), dtype=float)
    u_vals = np.asarray(pair.u(model.atoms), dtype=float)
    f_floor = pair.mu + epsilon

    halfspaces: list[tuple[np.ndarray, float]] = []
    if math.isfinite(u):
        halfspaces.append((u_vals.copy(), pair.nu + u))
        if sidedness == "two_sided":
            halfspaces.append((-u_vals, -(pair.nu - u)))

    vertices = _vertices(f, halfspaces)
    feasible, degenerate = _classify(vertices, f_floor)
    if math.isfinite(u):
        fenchel, theta = rate_plus_star_detail(model, pair, epsilon, u, "lambda_plus")
        if sidedness == "two_sided":
            # lambda+ at theta2 = 0 is the plain optimum, which may settle gamma+ as well
            plain = (fenchel, theta[0]) if theta[1] == 0.0 else None
            lower, (t1, t2) = rate_plus_star_detail(model, pair, epsilon, u, "gamma_plus", plain)
            if lower > fenchel:  # the tilt exp(t1 F + t2 U), in _tilted_dual's sign
                fenchel, theta = lower, (t1, -t2)
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
    q_primal, h_primal, primal_converged = _primal_descent(
        p, halfspaces, f, f_floor, vertices, degenerate, q_dual
    )
    # a certified primal lies in the set; the tilt may miss the F row by rounding, reading low
    if primal_converged or h_primal < h_dual:
        q_star, entropy = q_primal, h_primal
    else:
        q_star, entropy = q_dual, h_dual

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
    f_max = float(_vertices(f_vals, [(u_vals, pair.nu + u_thr)])[3].max())
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
