"""Experiment runner: config ingestion, seeded parallel validation,
heavy-tail decay measurement, and byte-deterministic result emission.

Determinism contract: identical (config, seed) produce byte-identical
output files regardless of worker count or scheduling.  Trial t owns a
fixed run of Philox counters under the key (master seed, namespace), see
``streams``; batches have a fixed size independent of the worker pool,
and aggregation is exact integer addition.

Validation and the slope runner share one block kernel,
``_trial_deviations``: one sampler call fills a block of trials' uniforms,
then F and U are evaluated once per block.  Each trial's uniforms and
means are bit-identical to evaluating the trial alone.

Only those two use worker processes: at ``jobs > 1``, one pool per
process, built on first use and reused by later calls with the same
``jobs``.  Another ``jobs``, a dead worker (that call raises
``BrokenProcessPool``) or a ``fork`` makes the next call build a new one.
Workers see module state as of their fork, so a later monkeypatch does
not reach them.
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .bound_engine import (
    BoundReport,
    CONSTANT_III_QUOTED,
    CONSTANT_IV_QUOTED,
    bound_thm31_ii,
    bound_thm31_iii,
    normalize_observables,
)
from .dist_models import (
    AbsCentered,
    DistributionModel,
    Identity,
    ObservablePair,
    Power,
    SignOf,
    counterexample_pair,
    finite_support,
    pair_from_callables,
    heavy_tail_pair,
    pareto_like,
    sign_product,
    tabulated_pair,
    transform_uniforms,
    with_gamma,
)
from .errors import (
    CapabilityError,
    ConfigError,
    InputError,
    InsufficientTrialsError,
    ScreenedMcError,
)
from .rate_functions import rate_plus_star
from .screen_core import ScreenConfig, TrajectoryRecord
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


def _require_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


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


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    return value


_MODEL_ARRAYS = {
    "finite_support": ("atoms", "probs"),
    "sign_product": ("magnitude_atoms", "magnitude_probs"),
}


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document; unknown keys are rejected outright."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(
        doc,
        {"model", "observables", "screen", "trials", "seed", "outputs"},
        {"model", "observables", "screen", "trials", "seed"},
        "config",
    )
    model_spec = doc["model"]
    if not isinstance(model_spec, dict) or "kind" not in model_spec:
        raise ConfigError("model must be an object with a 'kind' tag")
    kind = model_spec["kind"]
    if kind == "pareto_like":
        _require_keys(model_spec, {"kind"}, {"kind"}, "model")
    elif kind in _MODEL_ARRAYS:
        arrays = _MODEL_ARRAYS[kind]
        _require_keys(model_spec, {"kind", *arrays}, {"kind", *arrays}, "model")
        for key in arrays:
            _reals(model_spec[key], f"model.{key}")
    else:
        raise ConfigError(f"unknown model kind {kind!r}")

    obs = _object(doc["observables"], "observables")
    if "preset" in obs:
        _require_keys(obs, {"preset"}, {"preset"}, "observables")
        if obs["preset"] not in ("heavy_tail",):
            raise ConfigError(f"unknown observables preset {obs['preset']!r}")
    else:
        _require_keys(obs, {"f", "u"}, {"f", "u"}, "observables")
        for name in ("f", "u"):
            _validate_form(obs[name], f"observables.{name}")

    screen = _object(doc["screen"], "screen")
    _require_keys(screen, {"epsilon", "u", "n", "sidedness"}, {"epsilon", "u", "n"}, "screen")
    screen_cfg = ScreenConfig(  # checks the ranges and the sidedness
        epsilon=_real(screen["epsilon"], "screen.epsilon"),
        u=_real(screen["u"], "screen.u"),
        n=_integer(screen["n"], "screen.n"),
        sidedness=screen.get("sidedness", "two_sided"),
    )

    trials = _integer(doc["trials"], "trials")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    seed = _integer(doc["seed"], "seed")
    if not 0 <= seed < 1 << 64:  # one word of the Philox key
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")

    entries = doc.get("outputs", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError("outputs must be a list of objects")
    outputs = []
    for entry in entries:
        _require_keys(entry, {"kind", "path"}, {"kind", "path"}, "outputs[]")
        if entry["kind"] not in OUTPUT_KINDS:
            raise ConfigError(f"unknown output kind {entry['kind']!r}")
        outputs.append(OutputSpec(kind=entry["kind"], path=str(entry["path"])))
    paths = [o.path for o in outputs]
    if len(set(paths)) != len(paths):
        raise ConfigError("output paths must be distinct")

    return ExperimentConfig(
        model=model_spec,
        observables=obs,
        screen=screen_cfg,
        trials=trials,
        master_seed=seed,
        outputs=tuple(outputs),
    )


_FORM_KEYS = {
    "power": ({"form", "exponent"}, {"form", "exponent"}),
    "identity": ({"form"}, {"form"}),
    "table": ({"form", "values"}, {"form", "values"}),
    "abs_centered": ({"form", "center"}, {"form"}),
    "sign": ({"form"}, {"form"}),
}


def _validate_form(spec: dict, where: str) -> None:
    if not isinstance(spec, dict) or "form" not in spec:
        raise ConfigError(f"{where} must be an object with a 'form' tag")
    if spec["form"] not in _FORM_KEYS:
        raise ConfigError(f"unknown form {spec['form']!r} in {where}")
    allowed, required = _FORM_KEYS[spec["form"]]
    _require_keys(spec, allowed, required, where)
    for key in ("exponent", "center"):
        if key in spec:
            _real(spec[key], f"{where}.{key}")
    if "values" in spec:
        _reals(spec["values"], f"{where}.values")


def build_model(spec: dict) -> DistributionModel:
    kind = spec["kind"]
    if kind == "pareto_like":
        return pareto_like()
    if kind == "finite_support":
        return finite_support(spec["atoms"], spec["probs"])
    return sign_product(spec["magnitude_atoms"], spec["magnitude_probs"])


def _build_form(spec: dict, model: DistributionModel):
    form = spec["form"]
    if form == "power":
        return Power(float(spec["exponent"]))
    if form == "identity":
        return Identity()
    if form == "table":
        values = np.asarray(spec["values"], dtype=float)
        if not model.is_finite or values.shape != model.atoms.shape:
            raise ConfigError("table forms need a finite model with matching size")
        return values  # consumed by tabulated_pair
    if form == "abs_centered":
        if "center" in spec:
            center = float(spec["center"])
        else:
            if not model.is_finite:
                raise ConfigError("abs_centered without center needs a finite model")
            center = float(model.probs @ np.abs(model.atoms))
        return AbsCentered(center)
    return SignOf()


def build_pair(model: DistributionModel, obs: dict) -> ObservablePair:
    if obs.get("preset") == "heavy_tail":
        if model.kind != "pareto_like":
            raise ConfigError("the heavy_tail preset pairs with the pareto_like model")
        return heavy_tail_pair()[1]
    f = _build_form(obs["f"], model)
    u = _build_form(obs["u"], model)
    if model.is_finite:
        f_vals = f if isinstance(f, np.ndarray) else np.asarray(f(model.atoms), dtype=float)
        u_vals = u if isinstance(u, np.ndarray) else np.asarray(u(model.atoms), dtype=float)
        if model.kind == "sign_product" and isinstance(f, AbsCentered) and isinstance(u, SignOf):
            return counterexample_pair(model.magnitude_atoms, model.magnitude_probs)[1]
        return tabulated_pair(model, f_vals, u_vals)
    if isinstance(f, np.ndarray) or isinstance(u, np.ndarray):
        raise ConfigError("table forms need a finite-support model")
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

    if obs_spec.get("preset") == "heavy_tail":
        norm = normalize_observables(pair, var_f_bound=4.0, mu_lower=1.0)
        eps_n, u_n = norm.map_thresholds(epsilon, u)
        add(replace(bound_thm31_ii(norm, eps_n, u_n), note="gamma=exact"))
        worst = with_gamma(norm, -1.0)
        add(replace(bound_thm31_ii(worst, eps_n, u_n), note="gamma=worst_case"))
        K = u_n / eps_n
        add(replace(bound_thm31_iii(norm, eps_n, K), note=f"K={K!r}"))
        if 0.0 < u <= epsilon / 20.0:
            for constant, name in ((CONSTANT_III_QUOTED, "iii"), (CONSTANT_IV_QUOTED, "iv")):
                add(BoundReport("thm31_ii", constant * epsilon**2, note=f"quoted_constant_{name}"))
        else:
            skip("thm31_ii", "quoted constants require u <= epsilon/20")
    elif model.is_finite:
        try:
            norm = normalize_observables(pair)
            eps_n, u_n = norm.map_thresholds(epsilon, u)
            add(replace(bound_thm31_ii(norm, eps_n, u_n), note="gamma=exact"))
            add(bound_thm31_iii(norm, eps_n, u_n / eps_n))
        except ScreenedMcError as exc:
            skip("thm31_ii", f"normalization unavailable: {exc}")

    try:
        lam_plus = rate_plus_star(model, pair, epsilon, u, "lambda_plus")
        add(BoundReport("chernoff_rate", lam_plus, None, math.isinf(lam_plus), "lambda_plus"))
    except CapabilityError as exc:
        skip("chernoff_rate", str(exc))
    return entries


def _trial_deviations(model_spec, obs_spec, n, seed, lo, hi, namespace):
    """Mean of F minus mu and mean of U minus nu, per trial in ``[lo, hi)``.

    The harness's one Monte Carlo kernel. A block of ``BLOCK_SAMPLES // n``
    trials, one per row, is one sampler call (one counter write); the
    transform, F and U then run once per block, and each row sums along
    its contiguous axis, the pairwise summation a per-trial 1-D ``sum``
    uses, so every mean is bit-identical to the per-trial path.
    """
    model = build_model(model_spec)
    pair = build_pair(model, obs_spec)
    sampler = SubstreamSampler(seed, namespace)
    rows = max(1, BLOCK_SAMPLES // n)
    block = np.empty((rows, n))
    s_dev = np.empty(hi - lo)
    t_dev = np.empty(hi - lo)
    for start in range(lo, hi, rows):
        x = transform_uniforms(model, sampler.uniforms(start, n, out=block[: hi - start]))
        done = slice(start - lo, start - lo + len(x))
        s_dev[done] = pair.f(x).sum(axis=1) / n - pair.mu
        t_dev[done] = pair.u(x).sum(axis=1) / n - pair.nu
    return s_dev, t_dev


def _batch_counts(args) -> tuple[int, int, int]:
    """Event counts for one batch of trials. Must stay picklable."""
    (model_spec, obs_spec, epsilon, u, n, sidedness, seed, lo, hi, namespace) = args
    s_dev, t_dev = _trial_deviations(model_spec, obs_spec, n, seed, lo, hi, namespace)
    err = s_dev > epsilon
    screened = (np.abs(t_dev) if sidedness == "two_sided" else t_dev) < u
    return int(screened.sum()), int((err & screened).sum()), int(err.sum())


def _batch_bounds(trials: int) -> list[tuple[int, int]]:
    """The fixed ``[lo, hi)`` batch decomposition of ``trials`` trials."""
    return [(lo, min(lo + BATCH_SIZE, trials)) for lo in range(0, trials, BATCH_SIZE)]


_POOL = None  # (creating pid, jobs, executor), built on first use at jobs > 1
_POOL_LOCK = threading.RLock()  # callers in several threads share the one pool


def _shutdown_pool() -> None:
    """Stop the pool; one inherited through ``fork`` belongs to the parent and is only dropped."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL[0] == os.getpid():
            _POOL[2].shutdown()
        _POOL = None


def _run_batches(worker, arg_list, jobs: int):
    global _POOL
    if jobs <= 1:
        return [worker(a) for a in arg_list]
    try:
        with _POOL_LOCK:  # map submits every batch before it returns, so no rebuild cuts in
            if _POOL is None or _POOL[:2] != (os.getpid(), jobs) or _POOL[2]._broken:
                _shutdown_pool()
                _POOL = (os.getpid(), jobs, ProcessPoolExecutor(max_workers=jobs))
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

    args = [
        (
            config.model,
            config.observables,
            sc.epsilon,
            sc.u,
            sc.n,
            sc.sidedness,
            config.master_seed,
            lo,
            hi,
            0,
        )
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
    (model_spec, obs_spec, epsilon, n, seed, lo, hi, namespace) = args
    s_dev, _ = _trial_deviations(model_spec, obs_spec, n, seed, lo, hi, namespace)
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

    Horizon ``i`` draws from namespace ``i`` (Philox key word 2); at least
    three horizons are required, and every horizon must register at least
    one hit (a hundred or more is advisable for a stable fit).
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3:
        raise InputError("need at least 3 horizons for a slope fit")
    bounds = _batch_bounds(trials)
    args = [
        (model_spec, obs_spec, epsilon, n, seed, lo, hi, i)
        for i, n in enumerate(n_list)
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


def emit_trajectory_csv(records: list[TrajectoryRecord], path: str) -> None:
    """One row per step; floats carry 17 significant digits (exact round trip).

    All rows are formatted by one ``%`` call; ``%.17g`` writes the same
    bytes as ``format(x, ".17g")``.
    """
    flat = tuple([x for r in records for x in (r.k, r.s_hat, r.t_hat, r.screened)])
    _write_text(path, "k,s_hat,t_hat,screened\n" + "%d,%.17g,%.17g,%d\n" * len(records) % flat)


def canonicalize(obj):
    """Map a result tree onto JSON-safe, byte-stable values."""
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in sorted(obj.items())}
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


def emit_report(document: dict, path: str) -> None:
    """Sorted-key JSON with canonical float text; rerunning is byte-identical."""
    _write_text(path, json.dumps(canonicalize(document), sort_keys=True, indent=2) + "\n")


def _write_text(path: str, text: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output file {path!r}: {exc}") from exc
