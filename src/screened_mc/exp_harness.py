"""Experiment runner: config ingestion, seeded parallel validation,
heavy-tail decay measurement, and byte-deterministic result emission.

Determinism contract: identical (config, seed) produce byte-identical
output files regardless of worker count or scheduling.  Trial t owns a
fixed run of PCG64 outputs under the key (master seed, namespace), see
``streams``; batches have a fixed size independent of the worker pool,
and aggregation is exact integer addition.

All three Monte Carlo runners draw from one block generator,
``_sample_blocks``: one sampler call and one transform fill a block of
trials, one per row, each row bit-identical to the trial drawn alone by
``dist_models.sample``.  Validation and the slope runner reduce the
blocks in one kernel, ``_trial_deviations``: U once per block, F only on
the rows where the error event is still reachable, every mean (so every
count) bit-identical to the trial evaluated alone.  A run builds its
model, its pair and its certified ceiling once (the slope runner one
ceiling per horizon), and each batch's task carries them to the kernel.
The CLI's ``simulate`` runs ``run_trajectory`` on each row.

All three use worker processes (``simulate`` maps contiguous ranges of
trials to them): at ``jobs > 1``, one pool per process,
built on first use and reused by later calls with the same ``jobs``.
Another ``jobs``, a dead worker (that call raises ``BrokenProcessPool``)
or a ``fork`` makes the next call build a new one.  Workers see module
state as of their fork, so a later monkeypatch does not reach them.  A
worker exits on its own once the process that built the pool is gone,
also when that process was killed and never shut the pool down.
Every output file is rewritten in place by ``_write_file``.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import stat
import threading
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from . import __version__
from ._optim import grid_min
from .bound_engine import (
    AlphaGrid,
    BoundReport,
    CONSTANT_III_QUOTED,
    CONSTANT_IV_QUOTED,
    bound_thm31_ii,
    bound_thm31_iii,
    normalize_observables,
    square,
    thm31_ii_search,
)
from .dist_models import (
    AbsCentered,
    DistributionModel,
    Identity,
    ObservablePair,
    Power,
    SignOf,
    finite_support,
    pair_from_callables,
    heavy_tail_pair,
    pareto_like,
    sign_product,
    tabulated_pair,
    transform_uniforms,
    with_gamma,
)
from .errors import ConfigError, InputError, InsufficientTrialsError, ScreenedMcError
from .rate_functions import rate_plus_star
from .screen_core import SIDEDNESS, ScreenConfig, Trajectory, screened_mask
from .streams import STREAM_CONTRACT, SubstreamSampler

BATCH_SIZE = 8192  # fixed: batch decomposition must not depend on --jobs
BLOCK_SAMPLES = 1 << 14  # uniforms per kernel block; bounds the kernel's working memory
OUTPUT_KINDS = ("trajectory_csv", "report", "rates_table")
WILSON_Z = 3.0  # 99.7%-equivalent score interval


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutputSpec:
    kind: str
    path: str


@dataclass(frozen=True)
class ExperimentConfig:
    model: dict
    observables: dict
    screen: ScreenConfig
    trials: int
    master_seed: int
    outputs: tuple[OutputSpec, ...] = field(default_factory=tuple)


def _integer(value, where: str) -> int:
    """A JSON integer; an integral float such as ``1e6`` counts, a bool does not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the double range
        real = math.inf
    if not math.isfinite(real):  # JSON admits NaN and Infinity
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return real


def _reals(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return [_real(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _one_of(names: tuple[str, ...], value, where: str) -> str:
    if _text(value, where) not in names:
        raise ConfigError(f"{where} must be one of {names}, got {value!r}")
    return value


def _section(value, fields: dict, where: str) -> dict:
    """The checked fields of an object with every required key of ``fields`` and no other.

    ``fields`` maps each key to ``(check, required)``; ``check(value, name)`` returns
    the value checked or raises ``ConfigError`` naming the field.  ``where`` is "" at
    the document root.
    """
    name, prefix = (where, f"{where}.") if where else ("config", "")
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(value) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {name}")
    missing = [key for key, (_, required) in fields.items() if required and key not in value]
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {name}")
    return {k: check(value[k], prefix + k) for k, (check, _) in fields.items() if k in value}


def _tagged(table: dict, tag: str, value, where: str):
    """The builder of the row of ``table`` that ``value``'s string ``tag`` names,
    bound to ``value``'s other fields as checked against that row."""
    if not isinstance(value, dict) or tag not in value:
        raise ConfigError(f"{where} must be an object with a {tag!r} tag")
    name = _text(value[tag], f"{where}.{tag}")
    if name not in table:
        raise ConfigError(f"unknown {tag} {name!r} in {where}")
    fields, build = table[name]
    return partial(build, **_section({k: v for k, v in value.items() if k != tag}, fields, where))


_ARRAY = (_reals, True)

# model kind -> (fields, builder of the model taking the checked fields as keywords)
_MODELS = {
    "pareto_like": ({}, pareto_like),
    "finite_support": ({"atoms": _ARRAY, "probs": _ARRAY}, finite_support),
    "sign_product": ({"magnitude_atoms": _ARRAY, "magnitude_probs": _ARRAY}, sign_product),
}


def _table_form(model: DistributionModel, values: list[float]) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not model.is_finite or values.shape != model.atoms.shape:
        raise ConfigError("table forms need a finite model with matching size")
    return values  # consumed by tabulated_pair


def _abs_centered_form(model: DistributionModel, center: float | None = None) -> AbsCentered:
    if center is None and not model.is_finite:
        raise ConfigError("abs_centered without center needs a finite model")
    return AbsCentered(float(model.probs @ np.abs(model.atoms)) if center is None else center)


# observable form -> (fields, builder of F or U taking the model, then the checked fields)
_FORMS = {
    "power": ({"exponent": (_real, True)}, lambda model, exponent: Power(exponent)),
    "identity": ({}, lambda model: Identity()),
    "table": ({"values": _ARRAY}, _table_form),
    "abs_centered": ({"center": (_real, False)}, _abs_centered_form),
    "sign": ({}, lambda model: SignOf()),
}

_model = partial(_tagged, _MODELS, "kind")
_form = partial(_tagged, _FORMS, "form")


def _observables(value, where: str) -> dict:
    """The heavy-tail preset, or an explicit form for each of F and U."""
    if isinstance(value, dict) and "preset" in value:
        return _section(value, {"preset": (partial(_one_of, ("heavy_tail",)), True)}, where)
    return _section(value, {"f": (_form, True), "u": (_form, True)}, where)


def _integer_in(low: int, bits: int | None, value, where: str) -> int:
    """An integer >= ``low``, and below 2^``bits`` when ``bits`` is given."""
    value = _integer(value, where)
    if bits is None and value < low:
        raise ConfigError(f"{where} must be >= {low}")
    if bits is not None and not low <= value < 1 << bits:
        raise ConfigError(f"{where} must be in [{low}, 2^{bits}), got {value}")
    return value


def _positive(value, where: str) -> float:
    real = _real(value, where)
    if not real > 0.0:
        raise ConfigError(f"{where} must be > 0, got {value!r}")
    return real


_SCREEN = {
    "epsilon": (_positive, True),
    "u": (_positive, True),
    "n": (partial(_integer_in, 1, None), True),
    "sidedness": (partial(_one_of, SIDEDNESS), False),
}
_OUTPUT = {"kind": (partial(_one_of, OUTPUT_KINDS), True), "path": (_text, True)}


def _outputs(value, where: str) -> tuple[OutputSpec, ...]:
    if not isinstance(value, list) or not all(isinstance(e, dict) for e in value):
        raise ConfigError(f"{where} must be a list of objects")
    outputs = tuple(
        OutputSpec(**_section(entry, _OUTPUT, f"{where}[{i}]")) for i, entry in enumerate(value)
    )
    if len({o.path for o in outputs}) != len(outputs):
        raise ConfigError("output paths must be distinct")
    return outputs


_CONFIG = {
    "model": (_model, True),
    "observables": (_observables, True),
    "screen": (lambda value, where: ScreenConfig(**_section(value, _SCREEN, where)), True),
    "trials": (partial(_integer_in, 1, None), True),
    "seed": (partial(_integer_in, 0, 64), True),  # the SeedSequence entropy of every stream
    "outputs": (_outputs, False),
}


def parse_config(doc: dict) -> ExperimentConfig:
    """Check a config document against the tables above; unknown keys are rejected outright."""
    checked = _section(doc, _CONFIG, "")
    return ExperimentConfig(
        model=doc["model"],
        observables=doc["observables"],
        screen=checked["screen"],
        trials=checked["trials"],
        master_seed=checked["seed"],
        outputs=checked.get("outputs", ()),
    )


def build_model(spec: dict) -> DistributionModel:
    """The model ``spec`` declares, after ``parse_config``'s checks of it."""
    return _model(spec, "model")()


def heavy_tail_policy(obs_spec: dict, epsilon: float, u: float) -> tuple[bool, bool]:
    """Whether ``obs_spec`` is the heavy-tail preset (Var F <= 4, mu >= 1, a gamma = -1 bound),
    and whether its quoted constants and Proposition 1.1 apply: 0 < u <= epsilon/20."""
    preset = obs_spec.get("preset") == "heavy_tail"
    return preset, preset and 0.0 < u <= epsilon / 20.0


def build_pair(model: DistributionModel, obs: dict) -> ObservablePair:
    """The observable pair ``obs`` declares on ``model``, after ``parse_config``'s checks of it."""
    checked = _observables(obs, "observables")
    if "preset" in checked:  # heavy_tail, the one preset
        if model.kind != "pareto_like":
            raise ConfigError("the heavy_tail preset pairs with the pareto_like model")
        return heavy_tail_pair()[1]
    f, u = checked["f"](model), checked["u"](model)
    if model.is_finite:
        tables = {}
        for name, form in (("f", f), ("u", u)):
            # a fractional power of a negative atom is NaN, a negative one of 0 is inf
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                values = form if isinstance(form, np.ndarray) else form(model.atoms)
            tables[name] = np.asarray(values, dtype=float)
            if not np.all(np.isfinite(tables[name])):
                raise ConfigError(f"observables.{name} must be finite on every atom of the model")
        return tabulated_pair(model, tables["f"], tables["u"])
    return pair_from_callables(model, f, u)


# ---------------------------------------------------------------------------
# validation run
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundEntry:
    report: BoundReport
    bound_value: float
    skipped: bool = False
    skip_reason: str = ""

    def to_dict(self) -> dict:
        doc = self.report.to_dict()
        doc["bound_value"] = self.bound_value
        doc["skipped"] = self.skipped
        if self.skip_reason:
            doc["skip_reason"] = self.skip_reason
        return doc


@dataclass
class ValidationReport:
    epsilon: float
    u: float
    n: int
    sidedness: str
    trials: int
    seed: int
    screened_count: int
    screened_error_count: int
    unscreened_error_count: int
    bounds: list[BoundEntry]
    bound_passes: list[bool]
    event_inclusion: bool
    runtime: dict

    @property
    def screened_error_rate(self) -> float:
        return self.screened_error_count / self.trials

    @property
    def unscreened_error_rate(self) -> float:
        return self.unscreened_error_count / self.trials

    @property
    def all_sound(self) -> bool:
        return self.event_inclusion and all(
            ok for ok, entry in zip(self.bound_passes, self.bounds) if not entry.skipped
        )

    def to_document(self) -> dict:
        se_lo, se_hi = wilson_interval(self.screened_error_count, self.trials)
        ue_lo, ue_hi = wilson_interval(self.unscreened_error_count, self.trials)
        bounds_doc = []
        for entry, ok in zip(self.bounds, self.bound_passes):
            d = entry.to_dict()
            d["sound"] = bool(ok)
            bounds_doc.append(d)
        return {
            "kind": "validation_report",
            "epsilon": self.epsilon,
            "u": self.u,
            "n": self.n,
            "sidedness": self.sidedness,
            "trials": self.trials,
            "seed": self.seed,
            "counts": {
                "screened": self.screened_count,
                "screened_error": self.screened_error_count,
                "unscreened_error": self.unscreened_error_count,
            },
            "empirical": {
                "screened_rate": self.screened_count / self.trials,
                "screened_error_rate": self.screened_error_rate,
                "screened_error_interval": [se_lo, se_hi],
                "unscreened_error_rate": self.unscreened_error_rate,
                "unscreened_error_interval": [ue_lo, ue_hi],
            },
            "bounds": bounds_doc,
            "checks": {
                "event_inclusion": self.event_inclusion,
                "all_bounds_sound": self.all_sound,
            },
            "runtime": self.runtime,
        }


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Score interval; behaves sensibly at zero and tiny counts."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def normalized_for(pair: ObservablePair, preset: bool) -> ObservablePair:
    """Normalized for Theorem 3.1: the preset with Var F <= 4 and mu >= 1, else exact moments."""
    bounds = {"var_f_bound": 4.0, "mu_lower": 1.0} if preset else {}
    return normalize_observables(pair, **bounds)


def thm31_reports(
    pair: ObservablePair, obs_spec: dict, epsilon: float, u: float, worst_gamma: bool = True
) -> tuple[tuple[float, float], dict[str, BoundReport]]:
    """Theorem 3.1's reports for a config: the one path of ``bound`` and ``validate``.

    Returns the thresholds of the pair ``normalized_for`` the config and
    the reports keyed as ``bound`` prints them: thm31_ii at the pair's
    gamma, with ``worst_gamma`` thm31_ii at gamma = -1, and thm31_iii at
    K = u_n/eps_n.  Gamma does not enter the zero-event certificate, so it
    is decided once: an event certified empty serves the gamma = -1 report
    as it is, and otherwise that report runs only the search over alpha.
    Gamma does not enter the margin either, so both searches read the
    margin's straight pieces, where alpha is taken in closed form, and the
    margin on the grid's curved slice from one ``AlphaGrid``, which dies
    with the call; a finite table is straight throughout, so its searches
    never evaluate the grid.
    """
    norm = normalized_for(pair, heavy_tail_policy(obs_spec, epsilon, u)[0])
    eps_n, u_n = norm.map_thresholds(epsilon, u)
    grid = AlphaGrid(norm, eps_n, u_n)
    exact = bound_thm31_ii(norm, eps_n, u_n, grid)
    reports = {"thm31_ii": exact}
    if worst_gamma:
        reports["thm31_ii_worst_gamma"] = (
            exact
            if exact.zero_event
            else thm31_ii_search(with_gamma(norm, -1.0), eps_n, u_n, grid)
        )
    reports["thm31_iii"] = bound_thm31_iii(norm, eps_n, _thm31_iii_k(eps_n, u_n))
    return (eps_n, u_n), reports


def _thm31_iii_k(eps_n: float, u_n: float) -> float:
    """thm31_iii's K = u_n/eps_n; a K of 0 (below the doubles) takes the
    least positive one: larger, still valid."""
    return max(u_n / eps_n, 5e-324)


def compute_bounds(
    model: DistributionModel,
    pair: ObservablePair,
    obs_spec: dict,
    epsilon: float,
    u: float,
    n: int,
) -> list[BoundEntry]:
    """Every applicable certified bound for the configured event."""
    entries: list[BoundEntry] = []

    def add(report: BoundReport) -> None:
        entries.append(BoundEntry(report=report, bound_value=report.bound_at(n)))

    def skip(method: str, reason: str) -> None:
        entries.append(
            BoundEntry(
                report=BoundReport(method=method, exponent=0.0, note=reason),
                bound_value=1.0,
                skipped=True,
                skip_reason=reason,
            )
        )

    preset, quoted = heavy_tail_policy(obs_spec, epsilon, u)
    reason = "normalization unavailable: "  # the preset pair is fixed, and always normalizes
    try:
        norm = normalized_for(pair, preset)
        reason = ""  # past normalization, an error names its own cause
        (eps_n, u_n), reports = thm31_reports(norm, obs_spec, epsilon, u, worst_gamma=preset)
    except ScreenedMcError as exc:
        skip("thm31_ii", reason + str(exc))
    else:
        notes = {
            "thm31_ii": "gamma=exact",
            "thm31_ii_worst_gamma": "gamma=worst_case",
            "thm31_iii": f"K={_thm31_iii_k(eps_n, u_n)!r}" if preset else "",
        }
        for key, report in reports.items():
            add(replace(report, note=notes[key]))
    if quoted:
        for constant, name in ((CONSTANT_III_QUOTED, "iii"), (CONSTANT_IV_QUOTED, "iv")):
            add(BoundReport("thm31_ii", constant * square(epsilon), note=f"quoted_constant_{name}"))
    elif preset:
        skip("thm31_ii", "quoted constants require u <= epsilon/20")

    try:
        lam_plus = rate_plus_star(model, pair, epsilon, u, "lambda_plus")
        add(BoundReport("chernoff_rate", lam_plus, None, math.isinf(lam_plus), "lambda_plus"))
    except ScreenedMcError as exc:  # one unconverged rate skips its entry, not the run
        skip("chernoff_rate", str(exc))
    return entries


# rho: the relative error allowed to a form's value and to a margin oracle's
CEILING_RHO = 2.0**-44


def _certified_ceiling(pair: ObservablePair, epsilon: float, n: int) -> float:
    """A row mean of U below which the row's computed mean F - mu cannot exceed ``epsilon``.

    U dominates F: with M(beta) = sup[F - beta U], a row's mean F is at
    most M(beta) + beta mean U for every beta > 0, so mean F - mu <= eps
    wherever mean U <= T(beta) = (mu + eps - M(beta))/beta.  T is
    quasi-concave in beta (its upper level sets {M(beta) + t beta <= mu +
    eps} are intervals, M being convex).  The ceiling at beta is T(beta)
    less a slack tau(beta)/beta for rounding, and a log-grid search, refined
    between the best point's neighbours, maximises that difference itself:
    any beta gives a sound ceiling, and tau/beta, large at small beta on
    values far from zero, must not lose the search to the rounding noise of
    T there.  The ceiling is -inf when no beta of the grid gives a finite
    one, when the pair declares no margin for the sign pattern (+1, -1) or
    (-1, -1), or at eps = -inf.

    The slack.  Take a row's samples x_i, points of the support (a finite
    model's atoms; on pareto_like, (1 - p)**-0.4 of a double 1 - p <= 1 is
    >= 1 under a pow within one ulp), their exact values F_i, U_i and
    computed ones f_i, u_i.  Write u = 2^-53, g = n u/(1 - n u) (the
    gamma_n of Higham, Accuracy and Stability, section 4.2) and rho =
    ``CEILING_RHO``.  Assume:

    (a) |f_i - F_i| <= rho |F_i| and |u_i - U_i| <= rho |U_i|: a pow is
        within one ulp, every other form is exact or one rounding;
    (b) the oracles' values M^ and S^ at beta are within rho Sigma of
        M = sup[F - beta U] and S = inf[F + beta U] = -sup[-F - beta U]
        (``margins[(1, -1)]`` and ``-margins[(-1, -1)]``), with the scale Sigma =
        |mu| + |eps| + |M^| + |S^| + beta |T^|: a closed form or a table
        extremum of a few roundings, whose operands Sigma bounds.

    A sum of n terms in any order is within g_(n-1) of the sum of their
    magnitudes, and the division by n adds one rounding, so the computed
    means obey s^ <= mean F + c mean|F| and mean U <= t^ + c mean|U|, with
    c = 2 (rho + g).  The margins bound the magnitudes: S - beta U_i <= F_i
    <= M + beta U_i gives |F_i| <= max(M, -S) + beta U_i and U_i >= (S -
    M)/(2 beta), so on a row with t^ <= T^, mean|F| + beta mean|U| <=
    2 (|M| + |S|) + 2 beta |T^| <= 2 Sigma, up to factors 1 + O(rho + g).
    Then s^ <= M + beta t^ + 2 c Sigma <= mu + eps - beta (T - t^) + 5 (rho
    + g) Sigma, with T = (mu + eps - M^)/beta exact and T^, its value in
    floating point, within 3 u Sigma / beta of it.  The slack tau = 16 (rho
    + g) Sigma covers this with room for the ceiling's own roundings, so
    t^ < T^ - tau/beta gives s^ - mu < eps, and so the kernel's fl(s^ - mu)
    <= eps, rounding being monotone and eps a double.
    The search skips a beta at which n Sigma max(1, 1/beta) would let a row
    sum near the double range, where (a) and the sum bound no longer hold.
    """
    margin, lower = pair.margin, pair.margins.get((-1, -1))
    if margin is None or lower is None:
        return -math.inf
    target = pair.mu + epsilon
    rounding = 16.0 * (CEILING_RHO + n * 2.0**-53 / (1.0 - n * 2.0**-53))

    def neg_ceiling(beta):
        m, s = margin(beta), -lower(beta)
        t = (target - m) / beta
        scale = abs(pair.mu) + abs(epsilon) + np.abs(m) + np.abs(s) + beta * np.abs(t)
        in_range = n * scale * np.maximum(1.0, 1.0 / beta) < 2.0**1000
        return np.where(in_range, rounding * scale / beta - t, math.inf)

    grid = np.geomspace(2.0**-40, 2.0**40, 161)
    with np.errstate(over="ignore", invalid="ignore"):  # in_range drops betas past the doubles
        values = neg_ceiling(grid)
        if not np.isfinite(values).any():
            return -math.inf
        _, best = grid_min(neg_ceiling, grid, values, log=True)
    return -best


def _sample_blocks(model, n, seed, lo, hi, namespace=0):
    """Trials ``[lo, hi)`` of ``(seed, namespace)`` at width ``n``: yields ``(start, x)``,
    row ``i`` of ``x`` holding trial ``start + i``'s samples, at most ``BLOCK_SAMPLES // n``
    rows.  A block is one sampler call (one ``advance``) and one transform; in namespace 0
    each row is bit-identical to ``dist_models.sample`` drawing its trial alone.
    """
    sampler = SubstreamSampler(seed, namespace)
    rows = max(1, BLOCK_SAMPLES // n)
    block = np.empty((rows, n))
    for start in range(lo, hi, rows):
        yield start, transform_uniforms(model, sampler.uniforms(start, n, out=block[: hi - start]))


def _trial_deviations(model, pair, n, seed, lo, hi, namespace, ceiling):
    """Mean of F minus mu and mean of U minus nu, per trial in ``[lo, hi)``;
    -inf for a mean of F that the row's mean of U, below ``ceiling``,
    proves cannot reach the error event.

    The harness's one Monte Carlo kernel, on ``_sample_blocks``'s blocks: U
    runs once per block, and each row sums along its contiguous axis, the
    pairwise summation a per-trial 1-D ``sum`` uses, so every mean of U is
    bit-identical to the per-trial path.

    F runs only on the rows whose mean of U is not below ``ceiling``, the
    run's ``_certified_ceiling`` at its epsilon and n; on the others the
    margin proves that the error event mean F - mu > epsilon is out of
    reach, and they record -inf.
    The rows F runs on are gathered into a copy whose contiguous rows sum
    as before, so each mean of F computed is bit-identical too, and so is
    every count of the event.  The test ``not (t_mean < ceiling)`` sends a
    NaN mean to F, and a -inf one too while the ceiling is -inf: with no
    certificate (a ceiling of -inf) every row is gathered.
    """
    s_dev = np.empty(hi - lo)
    t_dev = np.empty(hi - lo)
    for start, x in _sample_blocks(model, n, seed, lo, hi, namespace):
        done = slice(start - lo, start - lo + len(x))
        t_mean = pair.u(x).sum(axis=1) / n
        t_dev[done] = t_mean - pair.nu
        exact = np.flatnonzero(~(t_mean < ceiling))
        s_dev[done] = -math.inf
        if len(exact):  # F's numpy calls cost about 10 us a block even on no rows
            s_dev[start - lo + exact] = pair.f(x[exact]).sum(axis=1) / n - pair.mu
    return s_dev, t_dev


def _batch_counts(args) -> tuple[int, int, int]:
    """Event counts for one batch of trials. Must stay picklable."""
    (model, pair, epsilon, u, n, sidedness, seed, lo, hi, namespace, ceiling) = args
    s_dev, t_dev = _trial_deviations(model, pair, n, seed, lo, hi, namespace, ceiling)
    err = s_dev > epsilon
    screened = screened_mask(t_dev, u, sidedness)
    return int(screened.sum()), int((err & screened).sum()), int(err.sum())


def _batch_bounds(trials: int) -> list[tuple[int, int]]:
    """The fixed ``[lo, hi)`` batch decomposition of ``trials`` trials."""
    return [(lo, min(lo + BATCH_SIZE, trials)) for lo in range(0, trials, BATCH_SIZE)]


# fork where the platform has it, whatever the interpreter's default (forkserver
# on Linux from Python 3.14): a worker starts as a copy of the process that built
# the pool, with no import of its own and with every patch made before then.
# multiprocessing offers fork wherever os.fork exists; it and concurrent.futures
# are imported when the first pool is built, so a run at jobs 1 never loads them
POOL_START_METHOD = "fork" if hasattr(os, "fork") else "spawn"

_POOL = None  # (creating pid, jobs, executor), built on first use at jobs > 1
_POOL_LOCK = threading.RLock()  # callers in several threads share the one pool


def _shutdown_pool() -> None:
    """Stop the pool; one inherited through ``fork`` belongs to the parent and is only dropped."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL[0] == os.getpid():
            _POOL[2].shutdown()
        _POOL = None


# the pool stack loads after this module, so interpreter teardown clears it
# first; a pool still held here then would be collected without it
atexit.register(_shutdown_pool)


def _exit_with_creator() -> None:
    """Pool initializer: end this worker once the process that built the pool is gone.

    The parent sentinel is a pipe whose write end that process holds, so it
    reads as ready when the process ends, however it ends (a SIGKILL too).
    Workers forked after this one inherit the write end as well, and they
    exit by the same rule.
    """
    import multiprocessing.connection

    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-creator", daemon=True).start()


def _run_batches(worker, arg_list, jobs: int):
    global _POOL
    if jobs <= 1:
        return [worker(a) for a in arg_list]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with _POOL_LOCK:  # map submits every batch before it returns, so no rebuild cuts in
            if _POOL is None or _POOL[:2] != (os.getpid(), jobs) or _POOL[2]._broken:
                _shutdown_pool()
                context = multiprocessing.get_context(POOL_START_METHOD)
                executor = ProcessPoolExecutor(
                    jobs, mp_context=context, initializer=_exit_with_creator
                )
                _POOL = (os.getpid(), jobs, executor)
            results = _POOL[2].map(worker, arg_list, chunksize=1)
        return list(results)
    except BrokenProcessPool:  # a worker died: name it, and start afresh next call
        _shutdown_pool()
        raise


def default_jobs() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def run_validation(config: ExperimentConfig, jobs: int = 1) -> ValidationReport:
    """Monte Carlo validation of every applicable bound at the configured event.

    Final-step screened and unscreened error events are counted over
    ``trials`` independent trajectories; a bound fails only if the
    empirical rate exceeds it by more than three binomial standard
    errors.
    """
    model = build_model(config.model)
    pair = build_pair(model, config.observables)
    sc = config.screen
    bounds = compute_bounds(model, pair, config.observables, sc.epsilon, sc.u, sc.n)
    ceiling = _certified_ceiling(pair, sc.epsilon, sc.n)
    args = [
        (model, pair, sc.epsilon, sc.u, sc.n, sc.sidedness, config.master_seed, lo, hi, 0, ceiling)
        for lo, hi in _batch_bounds(config.trials)
    ]
    results = _run_batches(_batch_counts, args, jobs)
    screened = sum(r[0] for r in results)
    screened_err = sum(r[1] for r in results)
    unscreened_err = sum(r[2] for r in results)

    p_hat = screened_err / config.trials
    se = math.sqrt(p_hat * (1.0 - p_hat) / config.trials)
    passes = [entry.skipped or p_hat <= entry.bound_value + 3.0 * se for entry in bounds]

    return ValidationReport(
        epsilon=sc.epsilon,
        u=sc.u,
        n=sc.n,
        sidedness=sc.sidedness,
        trials=config.trials,
        seed=config.master_seed,
        screened_count=screened,
        screened_error_count=screened_err,
        unscreened_error_count=unscreened_err,
        bounds=bounds,
        bound_passes=passes,
        event_inclusion=screened_err <= unscreened_err,
        runtime={"batch_size": BATCH_SIZE, "package_version": __version__,
                 "stream_contract": STREAM_CONTRACT},
    )


# ---------------------------------------------------------------------------
# heavy-tail decay slope
# ---------------------------------------------------------------------------


def fit_log_slope(n_list, rates) -> float:
    """Least-squares slope of log(rate) against log(n)."""
    n_arr = np.asarray(n_list, dtype=float)
    r_arr = np.asarray(rates, dtype=float)
    if n_arr.size != r_arr.size or n_arr.size < 2:
        raise InputError("need matching n and rate sequences of length >= 2")
    if np.any(r_arr <= 0.0):
        raise InputError("rates must be strictly positive for a log fit")
    x = np.log(n_arr)
    y = np.log(r_arr)
    x_c = x - x.mean()
    return float((x_c @ (y - y.mean())) / (x_c @ x_c))


def _slope_batch(args) -> int:
    """Plain-estimator error count for one batch of trials."""
    (model, pair, epsilon, n, seed, lo, hi, namespace, ceiling) = args
    s_dev, _ = _trial_deviations(model, pair, n, seed, lo, hi, namespace, ceiling)
    return int((s_dev > epsilon).sum())


@dataclass(frozen=True)
class SlopeResult:
    n_list: tuple[int, ...]
    counts: tuple[int, ...]
    trials: int
    slope: float

    def to_dict(self) -> dict:
        doc = {**asdict(self), "n_list": list(self.n_list), "counts": list(self.counts)}
        return {**doc, "rates": [c / self.trials for c in self.counts]}


def run_heavy_tail_slope(
    model_spec: dict,
    obs_spec: dict,
    epsilon: float,
    n_list,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> SlopeResult:
    """Fitted decay slope of the plain estimator's error rate in n.

    Horizon ``i`` draws from namespace ``i``, so horizons share no outputs.
    At least three horizons are required, each with at least one hit (a
    hundred or more is advisable for a stable fit).  The horizons and
    ``trials`` are integers >= 1 under the config's rule.
    """
    n_list = [_integer_in(1, None, n, f"n_list[{i}]") for i, n in enumerate(n_list)]
    trials = _integer_in(1, None, trials, "trials")
    if len(n_list) < 3:
        raise InputError("need at least 3 horizons for a slope fit")
    model = build_model(model_spec)
    pair = build_pair(model, obs_spec)
    ceilings = [_certified_ceiling(pair, epsilon, n) for n in n_list]
    bounds = _batch_bounds(trials)
    args = [
        (model, pair, epsilon, n, seed, lo, hi, i, ceiling)
        for i, (n, ceiling) in enumerate(zip(n_list, ceilings))
        for lo, hi in bounds
    ]
    hits = _run_batches(_slope_batch, args, jobs)
    per = len(bounds)
    counts = [sum(hits[i * per : (i + 1) * per]) for i in range(len(n_list))]
    for n, count in zip(n_list, counts):
        if count == 0:
            raise InsufficientTrialsError(
                f"no error events at n={n} in {trials} trials; "
                "increase trials or reduce epsilon (target >= 100 hits per horizon)"
            )
    slope = fit_log_slope(n_list, [c / trials for c in counts])
    return SlopeResult(
        n_list=tuple(n_list), counts=tuple(counts), trials=trials, slope=slope
    )


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def emit_trajectory_csv(trajectory: Trajectory, path: str) -> None:
    """One row ``k,s_hat,t_hat,screened`` per step; floats carry 17 significant
    digits (exact round trip), the bytes of ``b"%.17g" % x``."""
    _write_file(path, _trajectory_csv(trajectory))


_CSV_HEADER = b"k,s_hat,t_hat,screened\n"
_FIELD = 24  # a positional %.17g field: sign, "0." and 3 zeros, 17 digits and a point
_SPLITTER = 2.0**27 + 1.0  # Veltkamp's constant for doubles


def _trajectory_csv_printf(trajectory: Trajectory) -> bytes:
    """The CSV by one bytes ``%`` call: the reference of ``_trajectory_csv``,
    and its path for a trajectory the kernel does not print."""
    n = len(trajectory.s_hat)
    flat: list = [0] * (4 * n)
    flat[0::4] = range(1, n + 1)
    flat[1::4] = trajectory.s_hat.tolist()
    flat[2::4] = trajectory.t_hat.tolist()
    flat[3::4] = trajectory.screened.tolist()
    return _CSV_HEADER + b"%d,%.17g,%.17g,%d\n" * n % tuple(flat)


def _trajectory_csv(trajectory: Trajectory) -> bytes:
    """The bytes of ``_trajectory_csv_printf``: one NUL-padded row per step,
    ``k,`` from a cached table, the two fields of ``_positional_g17`` and the
    flag, assembled as columns, transposed once, and the NULs deleted at once."""
    n = len(trajectory.s_hat)
    columns = np.concatenate((trajectory.s_hat, trajectory.t_hat))
    fields = _positional_g17(columns) if n else None
    if fields is None:
        return _trajectory_csv_printf(trajectory)
    labels = _step_labels(n)
    w = len(labels)
    rows = np.empty((w + 2 * _FIELD + 4, n), np.uint8)
    rows[:w] = labels
    rows[w : w + _FIELD] = fields[:, :n]
    rows[w + _FIELD] = rows[-3] = ord(",")
    rows[w + _FIELD + 1 : -3] = fields[:, n:]
    rows[-2] = trajectory.screened.view(np.uint8) + ord("0")
    rows[-1] = ord("\n")
    return _CSV_HEADER + rows.T.tobytes().translate(None, b"\0")


@lru_cache(maxsize=4)
def _step_labels(n: int) -> np.ndarray:
    """The text ``k,`` of k = 1..n as NUL-padded uint8 columns, step k in column k - 1."""
    labels = np.array([b"%d," % k for k in range(1, n + 1)])
    return np.ascontiguousarray(labels.view(np.uint8).reshape(n, labels.itemsize).T)


@lru_cache(maxsize=1)
def _g17_tables() -> tuple[np.ndarray, ...]:
    """The kernel's lookup tables, built on first use, not at import:

    - 10^k for k = 0..22, every one an exact double, and its Veltkamp halves;
    - the four ASCII digits of each of 0..9999 as one native uint32 word;
    - the text "0.000" that leads the digits of an X < 0, and for each of
      its bytes the least -X that shows it.
    """
    pow10 = np.array([float(10**k) for k in range(23)])
    c = _SPLITTER * pow10
    pow_hi = c - (c - pow10)
    i = np.arange(10**4)
    quads = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    words = np.ascontiguousarray(quads, np.uint8).view(np.uint32).ravel()
    head = np.frombuffer(b"0.000", np.uint8)[:, None]
    shown_from = np.array([1, 1, 2, 3, 4], np.uint8)[:, None]
    return pow10, pow_hi, pow10 - pow_hi, words, head, shown_from


def _positional_g17(values: np.ndarray) -> np.ndarray | None:
    """``b"%.17g" % x`` of each x in ``values`` as a NUL-padded column of
    ``_FIELD`` uint8; None unless every x is finite, nonzero and printed
    positionally (decimal exponent X of x rounded to 17 digits in -4..16).

    The exponent X is the k = 16 - X with 10^16 <= |x| 10^k < 10^17, and
    the 17-digit significand is N = round(|x| 10^k), half to even.  Both
    are exact: Dekker's TwoProduct gives |x| 10^k = p + err with no
    rounding, which decides the bounds, and p lies at or above 2^53 so is
    an even integer, so p + rint(err) is the half-even rounding of p + err.
    N never rounds up to 10^17, which would carry into X: only a double
    within half a 17th-digit unit below 10^(X+1) could, and for X in -4..16
    none lies there (an exact check in the tests).  The guess
    X = floor(log10|x|) is corrected until the bounds hold, so no bit of
    ``log10`` reaches the output.  The layout works on columns of bytes,
    one column per value, with products of masks in place of ``np.where``.
    """
    a = np.abs(values)
    if not 1e-5 <= a.min() <= a.max() < 1e17:  # also False on nan
        return None
    pow10, pow_hi, pow_lo, words, head, shown_from = _g17_tables()
    x = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    for _ in range(2):  # a guess one off, near a power of ten
        k = 16 - x
        p = a * pow10[k]
        err = ((a_hi * pow_hi[k] - p) + a_hi * pow_lo[k] + a_lo * pow_hi[k]) + a_lo * pow_lo[k]
        shift = _at_least(p, err, 1e17).astype(np.intp) - ~_at_least(p, err, 1e16)
        if not shift.any():
            break
        x += shift
        if not -4 <= x.min() <= x.max() <= 16:
            return None
    else:
        return None
    sig = p.astype(np.int64) + np.rint(err).astype(np.int64)
    # digits: the first, then four words of four from the table
    m = a.size
    top, upper = sig // 10**16, sig // 10**8
    halves = np.stack([upper - top * 10**8, sig - upper * 10**8])
    quads = np.empty((2, 2, m), np.int64)
    quads[:, 0] = halves // 10**4
    quads[:, 1] = halves - quads[:, 0] * 10**4
    digits = np.empty((18, m), np.uint8)  # 17 and a NUL
    digits[0] = top + ord("0")
    quad_digits = words[quads.reshape(4, m)].view(np.uint8).reshape(4, m, 4)
    digits[1:17] = quad_digits.transpose(0, 2, 1).reshape(16, m)
    digits[17] = 0
    # layout: trailing fraction zeros dropped, a point after digit X >= 0 unless bare
    place = np.arange(18, dtype=np.uint8)[:, None]
    keep = np.maximum(((digits[:17] != ord("0")) * place[:17]).max(axis=0), x) + 1
    digits *= place < keep.astype(np.uint8)
    point = np.where(x >= 0, x + 1, 18).astype(np.uint8)
    field = np.empty((_FIELD, m), np.uint8)
    field[0] = (values < 0) * np.uint8(ord("-"))
    field[1:6] = (shown_from <= np.clip(-x, 0, 4).astype(np.uint8)) * head
    body = field[6:]
    np.multiply(digits, place < point, out=body)
    body[1:] += digits[:17] * (place[1:] > point)
    body += (place == point) * ((keep > x + 1) * np.uint8(ord(".")))
    return field


def _at_least(p: np.ndarray, err: np.ndarray, bound: float) -> np.ndarray:
    """p + err >= bound, exactly, where p is p + err rounded and bound is a double."""
    return (p > bound) | ((p == bound) & (err >= 0.0))


def canonicalize(obj):
    """Map a result tree onto JSON-safe, byte-stable values."""
    if isinstance(obj, dict):
        # keys become text before they are sorted: keys of mixed types do not compare
        out = {str(k): canonicalize(v) for k, v in obj.items()}
        if len(out) != len(obj):
            raise InputError("two keys of a report dict print as the same text")
        return dict(sorted(out.items()))
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, np.ndarray):
        return [canonicalize(v) for v in obj.tolist()]
    raise InputError(f"cannot serialize {type(obj).__name__} into a report")


def report_text(document: dict) -> str:
    """Sorted-key JSON with canonical float text: a report's bytes, file or stdout."""
    return json.dumps(canonicalize(document), sort_keys=True, indent=2) + "\n"


def emit_report(document: dict, path: str) -> None:
    """Write ``report_text``; rerunning is byte-identical."""
    _write_file(path, report_text(document).encode())


def _write_file(path: str, data: bytes) -> None:
    """Make ``data`` the whole of ``path``, written over its old bytes in place (README)."""
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    try:
        try:
            fd = os.open(path, flags, 0o666)
        except FileNotFoundError:  # the directory is made on the first write into it
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            fd = os.open(path, flags, 0o666)
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):  # not O_TRUNC: ext4 flushes a file cut to 0
                os.ftruncate(fd, len(data))  # the new length: no stale tail survives
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
    except OSError as exc:
        raise InputError(f"cannot write output file {path!r}: {exc}") from exc
