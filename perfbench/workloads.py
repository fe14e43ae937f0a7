"""The four closed-loop workloads and their correctness gates.

Every workload is one client in a closed loop: it sends request ``i + 1``
only after request ``i`` has returned.  All inputs derive from the
workload seed, and the package sees only those inputs.

Work units, for ``throughput_per_s``:

=============  ==============================================================
mc-validate    trials of ``run_validation`` (README config, n = 200)
mc-slope       horizon-trials of ``run_heavy_tail_slope`` (n = 25, 50, 100)
exponents      requests of every kind: bound, rates (heavy-tail and finite)
               and entropy
simulate       trajectory steps of ``screened-mc simulate``, CSVs included
=============  ==============================================================
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback

import numpy as np
from scipy.optimize import linprog

import screened_mc as sm
from screened_mc import cli, exp_harness, sanov_oracle

README_CONFIG = {
    "model": {"kind": "pareto_like"},
    "observables": {"preset": "heavy_tail"},
    "screen": {"epsilon": 0.5, "u": 0.025, "n": 200, "sidedness": "two_sided"},
    "trials": 1_000_000,
    "seed": 20240808,
}

# acceptance bands of the worked example's constants (criteria 1 and 2)
PROP11_BANDS = {
    "constant_iii_optimized": (0.005, 0.006),
    "value_iii_at_reference_alpha": (0.005054 - 1e-5, 0.005054 + 1e-5),
    "constant_iv_optimized": (0.0366, math.inf),
    "value_iv_at_reference_alpha": (0.036642 - 1e-5, 0.036642 + 1e-5),
}
SANOV_GAP_MAX = 1e-4
SANOV_PRIMAL_DUAL_MAX = 1e-6


def _config(epsilon, u, n, trials, seed, **model) -> dict:
    doc = json.loads(json.dumps(README_CONFIG))
    doc["screen"] = {"epsilon": epsilon, "u": u, "n": n, "sidedness": "two_sided"}
    doc["trials"] = trials
    doc["seed"] = seed
    doc.update(model)
    return doc


def _request_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


class Recorder:
    """Latencies per population, work done, and failed operations.

    A population is a set of requests that do the same work: the same
    kind on the same input size, or the very same input.  Latencies are
    kept per population, so a statistic taken within one is never
    decided by a faster neighbour in the mix.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latency: dict[str, list[float]] = {}  # population -> seconds
        self.work = 0
        self.busy = 0.0  # seconds spent in requests that returned
        self.attempted = 0
        self.failures: list[str] = []

    def request(self, kind: str, fn, check, work: int, population: str = ""):
        """Run one request doing ``work`` units; ``check(out)`` lists problems.

        ``kind`` labels failures; latencies go under ``population``, which
        defaults to the kind.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request_id = self.attempted
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed request is counted, not fatal
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.failures.append(
                f"{kind}: {type(exc).__name__}: {exc} "
                f"(at {os.path.basename(where.filename)}:{where.lineno})"
            )
            return None
        elapsed = time.perf_counter() - t0
        self.latency.setdefault(population or kind, []).append(elapsed)
        self.work += work
        self.busy += elapsed
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            problems = check(out)
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
        if problems:
            self.failures.append(f"{kind}: " + "; ".join(problems))
        return out

    def gate(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))

    def merge(self, other: "Recorder") -> None:
        """Count another recorder's operations; its timings stay its own."""
        self.attempted += other.attempted
        self.failures += other.failures


def _cli_json(argv: list[str]) -> dict:
    """Run one CLI command in-process and parse the JSON it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited with {code}")
    return json.loads(buf.getvalue())


class Workload:
    name = ""
    throughput_label = ""  # label printed for the throughput over all request time
    uses_workers = False  # requests honour ``jobs``
    min_requests = 3
    reference_step = "batch_step"  # the calibrate.py step that does this kind of work

    def __init__(self, seed: int, jobs: int, scratch: str, small: bool = False):
        self.seed = seed
        self.jobs = jobs
        self.scratch = scratch
        self.small = small

    def setup_config(self) -> dict:
        return _config(0.5, 0.025, 200, 1, self.seed)

    def warmup(self, rec: Recorder) -> None:
        self.request(rec, -1, self.jobs)

    def request(self, rec: Recorder, i: int, jobs: int) -> None:
        raise NotImplementedError

    def gates(self, rec: Recorder) -> None:
        pass

    def trace_plan(self) -> tuple[range, range]:
        """Request indices for a ``--trace 1`` run: (traced only, untraced and traced)."""
        return range(0), range(1)


# ---------------------------------------------------------------------------
# mc-validate
# ---------------------------------------------------------------------------


class McValidate(Workload):
    name = "mc-validate"
    throughput_label = "validate_trials_per_s"
    uses_workers = True

    @property
    def trials(self) -> int:
        # short requests: many samples per run for the per-request minimum
        return 8192 if self.small else 16_384

    def _run(self, rec, cfg_doc, jobs):
        cfg = exp_harness.parse_config(cfg_doc)
        rec.request(
            "validate", lambda: exp_harness.run_validation(cfg, jobs=jobs), _check_report,
            cfg.trials,
        )

    def warmup(self, rec):
        self._run(rec, _config(0.5, 0.025, 200, 8192, self.seed), self.jobs)

    def request(self, rec, i, jobs):
        self._run(rec, _config(0.5, 0.025, 200, self.trials, _request_seed(self.seed, i)), jobs)

    def trace_plan(self):
        return range(0), range(8)

    def gates(self, rec):
        # counts identical at jobs = 1 and jobs = 2 (the whole document, in fact)
        doc = _config(0.5, 0.025, 200, 2 * 8192, _request_seed(self.seed, -1))
        cfg = exp_harness.parse_config(doc)
        one = exp_harness.run_validation(cfg, jobs=1).to_document()
        two = exp_harness.run_validation(cfg, jobs=2).to_document()
        rec.gate("jobs1_equals_jobs2", [] if one == two else [f"{one['counts']} != {two['counts']}"])

        # counts match an independent per-trial reference on a slice
        slice_trials = 512 if self.small else 2048
        doc = _config(0.5, 0.025, 200, slice_trials, _request_seed(self.seed, -2))
        report = exp_harness.run_validation(exp_harness.parse_config(doc), jobs=1)
        got = (report.screened_count, report.screened_error_count, report.unscreened_error_count)
        want, ties = reference_counts(doc)
        off = [abs(g - w) for g, w in zip(got, want)]
        rec.gate(
            "reference_counts",
            [] if max(off) <= ties else [f"harness {got} vs reference {want} ({ties} ties)"],
        )


def _check_report(report) -> list[str]:
    problems = []
    if not report.all_sound:
        problems.append("a certified bound failed against the empirical rate")
    if not report.event_inclusion:
        problems.append("screened errors exceed unscreened errors")
    return problems


def reference_counts(doc: dict) -> tuple[tuple[int, int, int], int]:
    """Counts from ``RandomStream.substream`` + ``sample`` + plain means.

    Returns the counts and the number of trials within floating-point
    reach of a strict boundary, where the summation order may decide.
    """
    model, pair = sm.heavy_tail_pair()
    sc = doc["screen"]
    eps, u, n = sc["epsilon"], sc["u"], sc["n"]
    root = sm.RandomStream(doc["seed"])
    screened = screened_err = unscreened_err = ties = 0
    for t in range(doc["trials"]):
        x = sm.sample(model, root.substream(t), n)
        s_dev = float(np.mean(pair.f(x))) - pair.mu
        t_dev = float(np.mean(pair.u(x))) - pair.nu
        err = s_dev > eps
        sc_ok = abs(t_dev) < u
        screened += sc_ok
        unscreened_err += err
        screened_err += err and sc_ok
        ties += abs(s_dev - eps) < 1e-9 or abs(abs(t_dev) - u) < 1e-9
    return (screened, screened_err, unscreened_err), ties


# ---------------------------------------------------------------------------
# mc-slope
# ---------------------------------------------------------------------------


class McSlope(Workload):
    name = "mc-slope"
    throughput_label = "slope_trials_per_s"
    uses_workers = True
    horizons = (25, 50, 100)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.counts = [0] * len(self.horizons)  # summed over the run's requests

    @property
    def trials(self) -> int:
        # ~2e-4 of trials err at n = 100 and the harness refuses a horizon
        # with no hit: 65536 trials expect ~14 there, so P(none) ~ 1e-6
        return 32_768 if self.small else 65_536

    def request(self, rec, i, jobs):
        seed = _request_seed(self.seed, i)

        def check(result):
            c = result.counts
            if len(c) != len(self.horizons) or not all(0 <= k <= self.trials for k in c):
                return [f"counts {c} out of range for {self.trials} trials"]
            self.counts = [a + b for a, b in zip(self.counts, c)]
            return []

        rec.request(
            "slope",
            lambda: exp_harness.run_heavy_tail_slope(
                README_CONFIG["model"], README_CONFIG["observables"], 0.5,
                self.horizons, self.trials, seed, jobs=jobs,
            ),
            check,
            self.trials * len(self.horizons),
        )

    def trace_plan(self):
        return range(0), range(2)

    def gates(self, rec):
        # one request sees only ~14 hits at n = 100, so its counts may not
        # fall; the gate holds on the counts summed over the run
        rec.gate("slope_counts", _check_slope(self.counts))


def _check_slope(c) -> list[str]:
    problems = []
    if min(c) <= 0:
        problems.append(f"a horizon registered no hits: {c}")
    if any(a <= b for a, b in zip(c, c[1:])):
        problems.append(f"counts do not fall as n grows: {c}")
    return problems


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

HEAVY_RATE_POINTS = ((0.03, 0.005), (0.02, 0.002))
# finite instances per run; round r uses instance r % FINITE_INSTANCES
FINITE_INSTANCES = 8
# heavy-tail bound grid; u <= eps/20 (all but the last) adds the prop11 report
HEAVY_BOUND_GRID = ((0.5, 0.025), (0.2, 0.005), (0.1, 0.005), (0.2, 0.01), (0.05, 0.001), (0.3, 0.05))
# a cheap stand-in for the smoke test: the event is empty, so the rate is +inf
SMALL_HEAVY_POINT = (0.5, 0.025)


def finite_instance(seed: int, index: int) -> dict:
    """A random finite-support screened event whose moment set is nonempty.

    The support size cycles through 3..10 with ``index``.  Atoms,
    probabilities and the F/U tables are drawn from the seed; the screen
    u is a fraction of the room U has above its mean, and epsilon a
    fraction (bounded away from 0 and 1) of the largest mean excess any
    law can reach under that screen, found by a small LP.
    """
    rng = np.random.default_rng([seed, index])
    m = 3 + index % 8
    while True:
        atoms = np.sort(rng.uniform(-2.0, 2.0, size=m))
        probs = np.maximum(rng.dirichlet(np.full(m, 2.0)), 1e-3)
        probs /= probs.sum()
        f = rng.normal(size=m)
        u = rng.normal(size=m)
        mu, nu = float(probs @ f), float(probs @ u)
        u_thr = float(rng.uniform(0.05, 0.6) * (u.max() - nu) + 1e-3)
        lp = linprog(
            -f, A_ub=u[None, :], b_ub=[nu + u_thr], A_eq=np.ones((1, m)), b_eq=[1.0],
            bounds=[(0.0, None)] * m, method="highs",
        )
        room = -lp.fun - mu
        if lp.status == 0 and room > 1e-6:
            eps = float(rng.uniform(0.2, 0.7) * room)
            return {
                "model": {"kind": "finite_support", "atoms": atoms.tolist(), "probs": probs.tolist()},
                "observables": {
                    "f": {"form": "table", "values": f.tolist()},
                    "u": {"form": "table", "values": u.tolist()},
                },
                "screen": {"epsilon": eps, "u": u_thr, "n": 200, "sidedness": "two_sided"},
                "trials": 1,
                "seed": seed,
            }


class Exponents(Workload):
    """Bound, rate and entropy requests; no Monte Carlo at all.

    The client cycles through rounds of four requests: bound, rates and
    entropy on the round's finite instance, then one bound on the
    heavy-tail grid.  Round ``r`` uses finite instance ``r % 8`` and grid
    point ``r % 6``, so each (kind, instance) and each grid point is one
    population of identical requests, seen many times in a run.  The
    traced run adds the heavy phase, requests -4 to -1: a bound and then
    the feasible heavy-tail rate at each of ``HEAVY_RATE_POINTS``.  These
    take seconds each, too few per run for a steady end-to-end number, so
    they are measured per layer.
    """

    name = "exponents"
    throughput_label = "exponent_requests_per_s"
    reference_step = "mixed_step"
    min_requests = 4 * 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.heavy_points = (SMALL_HEAVY_POINT,) * 2 if self.small else HEAVY_RATE_POINTS
        self.bounds: dict = {}  # config path -> thm31_ii exponent
        self.instances: dict = {}

    def setup_config(self):
        return finite_instance(self.seed, 0)

    def _write(self, key: str, doc: dict) -> str:
        path = os.path.join(self.scratch, f"exponents_{key}.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return path

    def _bound(self, rec, path, population):
        def check(doc):
            exponent = float(doc["thm31_ii"]["exponent"])  # +inf is written as "inf"
            self.bounds[path] = exponent
            problems = [] if exponent >= 0.0 else [f"negative exponent {exponent}"]
            if "prop11" in doc:
                for key, (lo, hi) in PROP11_BANDS.items():
                    value = doc["prop11"][key]
                    if not lo <= value <= hi:
                        problems.append(f"prop11 {key}={value} outside [{lo}, {hi}]")
            return problems

        rec.request(
            "bound", lambda: _cli_json(["bound", "--config", path]), check, 1, population
        )

    def _rates(self, rec, kind, path, population):
        def check(doc):
            lam = float(doc["lambda_plus_star"])
            cert = self.bounds.get(path)
            if cert is None:
                return ["no bound request preceded this rate"]
            # a certified exponent can never beat the exact rate of its event
            if cert > lam * (1.0 + 1e-6) + 1e-12:
                return [f"thm31_ii exponent {cert} exceeds lambda_plus {lam}"]
            return []

        rec.request(
            kind, lambda: _cli_json(["rates", "--config", path]), check, 1, population
        )

    def _entropy(self, rec, doc, population):
        model = exp_harness.build_model(doc["model"])
        pair = exp_harness.build_pair(model, doc["observables"])
        eps, u = doc["screen"]["epsilon"], doc["screen"]["u"]

        def check(res):
            if not res.feasible:
                return ["entropy oracle reports an infeasible moment set"]
            problems = []
            if res.gap > SANOV_GAP_MAX:
                problems.append(f"gap {res.gap} > {SANOV_GAP_MAX}")
            disagreement = abs(res.primal_entropy - res.dual_entropy)
            if disagreement > SANOV_PRIMAL_DUAL_MAX:
                problems.append(f"primal/dual disagreement {disagreement} > {SANOV_PRIMAL_DUAL_MAX}")
            return problems

        rec.request(
            "entropy", lambda: sanov_oracle.sanov_rate(model, pair, eps, u), check, 1, population
        )

    def warmup(self, rec):
        self._round(rec, -1, range(4))

    def request(self, rec, i, jobs):
        if i < 0:
            point = (i + 4) // 2
            eps, u = self.heavy_points[point]
            path = self._write(f"heavy{point}", _config(eps, u, 200, 1, self.seed))
            if i % 2 == 0:
                # the certificate the heavy rate is checked against
                self._bound(rec, path, f"bound#heavy{point}")
            else:
                self._rates(rec, "rates_heavy", path, f"rates_heavy#{point}")
            return
        self._round(rec, i // 4, [i % 4])

    def _round(self, rec, r, steps):
        k = r % FINITE_INSTANCES
        key = f"finite{k}"
        if key not in self.instances:
            self.instances[key] = finite_instance(self.seed, k + 1)
        doc = self.instances[key]
        path = self._write(key, doc)
        for step in steps:
            if step == 0:
                self._bound(rec, path, f"bound#{key}")
            elif step == 1:
                self._rates(rec, "rates", path, f"rates#{key}")
            elif step == 2:
                self._entropy(rec, doc, f"entropy#{key}")
            else:
                g = r % len(HEAVY_BOUND_GRID)
                eps, u = HEAVY_BOUND_GRID[g]
                grid_path = self._write(f"grid{g}", _config(eps, u, 200, 1, self.seed))
                self._bound(rec, grid_path, f"bound#grid{g}")

    def trace_plan(self):
        rounds = 2 if self.small else 6
        return range(-4, 0), range(4 * rounds)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class Simulate(Workload):
    name = "simulate"
    throughput_label = "simulate_steps_per_s"
    n = 1000

    @property
    def trials(self) -> int:
        # short requests: many samples per run for the per-request minimum
        return 4 if self.small else 10

    def request(self, rec, i, jobs):
        seed = _request_seed(self.seed, i)
        doc = _config(0.5, 0.025, self.n, self.trials, seed)
        doc["outputs"] = [{"kind": "trajectory_csv", "path": "traj.csv"}]
        cfg_path = os.path.join(self.scratch, "simulate.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out_dir = os.path.join(self.scratch, "simulate_out")
        argv = ["simulate", "--config", cfg_path, "--out", out_dir, "--jobs", str(jobs)]

        def run():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"simulate exited with {code}")
            return out_dir

        rec.request(
            "simulate", run, lambda d: _check_trajectories(d, seed, self.trials, self.n),
            self.trials * self.n,
        )

    def trace_plan(self):
        return range(0), range(2 if self.small else 25)


def _check_trajectories(out_dir: str, seed: int, trials: int, n: int) -> list[str]:
    """Final step of every CSV against ``substream`` + ``sample`` + plain means."""
    model, pair = sm.heavy_tail_pair()
    u = README_CONFIG["screen"]["u"]
    root = sm.RandomStream(seed)
    problems = []
    for t in range(trials):
        with open(os.path.join(out_dir, f"traj_{t:03d}.csv"), encoding="utf-8") as fh:
            last = fh.read().rstrip("\n").rsplit("\n", 1)[-1].split(",")
        k, s_hat, t_hat, screened = int(last[0]), float(last[1]), float(last[2]), last[3] == "1"
        x = sm.sample(model, root.substream(t), n)
        s_ref, t_ref = float(np.mean(pair.f(x))), float(np.mean(pair.u(x)))
        dev = abs(t_ref - pair.nu)
        close = (
            k == n
            and abs(s_hat - s_ref) <= 1e-9 * (1.0 + abs(s_ref))
            and abs(t_hat - t_ref) <= 1e-9 * (1.0 + abs(t_ref))
            and (screened == (dev < u) or abs(dev - u) <= 1e-9 * (1.0 + abs(t_ref)))
        )
        if not close:
            problems.append(f"trial {t}: final step {last} vs reference ({s_ref}, {t_ref}, {dev < u})")
    return problems


WORKLOADS = {w.name: w for w in (McValidate, McSlope, Exponents, Simulate)}
