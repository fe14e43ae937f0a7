"""Command-line interface.

Subcommands::

    simulate   run seeded trajectories, write trajectory CSVs
    bound      compute the explicit exponential bounds for a config
    rates      Fenchel-Legendre rate table (incl. the exponent gap)
    sanov      relative-entropy oracle and the duality agreement suite
    validate   Monte Carlo validation of every applicable bound
    prop11     golden reproduction of the worked example's numbers

The exit code is 0 only when every soundness check the command ran has
passed; configuration problems exit with 2, and any other exception
prints its traceback to stderr and exits with 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback
from dataclasses import replace

from .bound_engine import prop11_report
from .errors import CapabilityError, ConfigError, ScreenedMcError
from .exp_harness import (
    ExperimentConfig,
    _run_batches,
    _sample_blocks,
    _write_file,
    build_model,
    build_pair,
    canonicalize,
    default_jobs,
    emit_report,
    emit_trajectory_csv,
    heavy_tail_policy,
    parse_config,
    run_validation,
    thm31_reports,
)
from .rate_functions import _delta_point, rate_lambda_star, rate_plus_star_detail
from .screen_core import run_trajectory

# unused here: perfbench/layers.py traces these names as cli attributes
from .bound_engine import bound_thm31_ii, bound_thm31_iii, normalize_observables, zero_event_check
from .rate_functions import delta_exponent

# the worked example's golden table: (epsilon, n, quoted bound)
_GOLDEN_ROWS = (
    (0.2, 5000, 0.368),
    (0.2, 10_000, 0.136),
    (0.2, 15_000, 0.0498),
    (0.1, 5000, 0.1596),
    (0.1, 10_000, 0.025),
)
_GOLDEN_TOL = 1e-3


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("this command requires --config PATH")
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if args.seed is not None and isinstance(doc, dict):
        doc["seed"] = args.seed  # checked by parse_config like the file's own seed
    cfg = parse_config(doc)
    if args.trials is not None:
        if args.trials < 1:
            raise ConfigError("--trials must be >= 1")
        cfg = replace(cfg, trials=args.trials)
    return cfg


def _load_pair(args):
    """The config, its model and its observable pair."""
    cfg = _load_config(args)
    model = build_model(cfg.model)
    return cfg, model, build_pair(model, cfg.observables)


def _out_path(args, path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(args.out, path)


def _emit_or_print(args, cfg: ExperimentConfig, document: dict) -> None:
    wrote = False
    for spec in cfg.outputs:
        if spec.kind == "report":
            emit_report(document, _out_path(args, spec.path))
            wrote = True
    if not wrote:
        json.dump(canonicalize(document), sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")


def _simulate_trials(task) -> int:
    """Run trials ``[lo, hi)`` of ``simulate`` and write their CSVs; return how
    many were screened at the final step.

    A pool task, so module-level and picklable. It calls ``run_trajectory``
    and ``emit_trajectory_csv`` by this module's names, which a caller may
    replace; pool workers see the names as of their fork.
    """
    model, pair, cfg, csv_bases, lo, hi = task
    screened = 0
    for start, x in _sample_blocks(model, cfg.screen.n, cfg.master_seed, lo, hi):
        for t, row in enumerate(x, start):
            trajectory = run_trajectory(pair, row, cfg.screen)
            for base in csv_bases:
                if cfg.trials == 1:
                    emit_trajectory_csv(trajectory, base)
                else:
                    stem, ext = os.path.splitext(base)
                    emit_trajectory_csv(trajectory, f"{stem}_{t:03d}{ext or '.csv'}")
            screened += trajectory.screened[-1]
    return screened


def _cmd_simulate(args) -> int:
    cfg, model, pair = _load_pair(args)  # a config error exits 2 before any task starts
    csv_bases = [
        _out_path(args, spec.path) for spec in cfg.outputs if spec.kind == "trajectory_csv"
    ]
    # trial t is a pure function of (seed, t, n), so any split writes the same bytes;
    # one range runs in-process, and no more workers start than there are ranges
    jobs = default_jobs() if args.jobs is None else args.jobs
    parts = max(1, min(jobs, cfg.trials))
    bounds = [(cfg.trials * i // parts, cfg.trials * (i + 1) // parts) for i in range(parts)]
    tasks = [(model, pair, cfg, csv_bases, lo, hi) for lo, hi in bounds]
    screened_final = sum(_run_batches(_simulate_trials, tasks, parts))
    summary = {
        "kind": "simulate_summary",
        "trials": cfg.trials,
        "n": cfg.screen.n,
        "screened_fraction_final": screened_final / cfg.trials,
        "seed": cfg.master_seed,
    }
    for spec in cfg.outputs:
        if spec.kind == "report":
            emit_report(summary, _out_path(args, spec.path))
    return 0


def _cmd_bound(args) -> int:
    cfg, _, pair = _load_pair(args)
    sc = cfg.screen
    thresholds, reports = thm31_reports(pair, cfg.observables, sc.epsilon, sc.u)
    doc: dict = {"kind": "bound_report", "epsilon": sc.epsilon, "u": sc.u, "n": sc.n}
    doc["normalized_thresholds"] = list(thresholds)
    doc["zero_event"] = reports["thm31_ii"].zero_event
    for key, rep in reports.items():
        doc[key] = {**rep.to_dict(), "bound_value": rep.bound_at(sc.n)}
    if heavy_tail_policy(cfg.observables, sc.epsilon, sc.u)[1]:
        doc["prop11"] = prop11_report(sc.epsilon, sc.u, sc.n).to_dict()
    _emit_or_print(args, cfg, doc)
    return 0


def _cmd_rates(args) -> int:
    cfg, model, pair = _load_pair(args)
    sc = cfg.screen
    doc: dict = {"kind": "rates", "epsilon": sc.epsilon, "u": sc.u}
    lam_star = rate_lambda_star(model, pair, sc.epsilon)
    doc["lambda_star"] = lam_star
    lam_plus, theta = rate_plus_star_detail(model, pair, sc.epsilon, sc.u, "lambda_plus")
    doc["lambda_plus_star"] = lam_plus
    doc["theta_star"] = list(theta)
    gamma_plus = delta = None
    try:
        point = _delta_point(model, pair, sc.epsilon, sc.u, lam_star, lam_plus, theta)
        gamma_plus, delta = point.gamma_plus_star, point.delta
    except CapabilityError as exc:
        doc["delta_note"] = str(exc)
    doc["gamma_plus_star"] = gamma_plus
    doc["delta"] = delta

    header = "epsilon,u,lambda_star,lambda_plus_star,gamma_plus_star,delta"
    values = (sc.epsilon, sc.u, lam_star, lam_plus, gamma_plus, delta)
    row = ",".join("" if v is None else f"{v:.17g}" for v in values)
    for spec in cfg.outputs:
        if spec.kind == "rates_table":
            _write_file(_out_path(args, spec.path), (header + "\n" + row + "\n").encode())
    _emit_or_print(args, cfg, doc)
    return 0


def _cmd_sanov(args) -> int:
    from .sanov_oracle import duality_suite, sanov_rate  # the one command that loads scipy

    cfg, model, pair = _load_pair(args)
    sc = cfg.screen
    result = sanov_rate(model, pair, sc.epsilon, sc.u, sc.sidedness)
    suite = duality_suite(count=50, seed=cfg.master_seed)
    max_gap = max((r.gap for r in suite if r.feasible), default=0.0)
    max_pd = max(
        (abs(r.primal_entropy - r.dual_entropy) for r in suite if r.feasible),
        default=0.0,
    )
    ok = max_gap <= 1e-4 and max_pd <= 1e-6
    doc = {
        "kind": "sanov_report",
        "instance": result.to_dict(),
        "suite": {
            "count": len(suite),
            "max_gap": max_gap,
            "max_primal_dual_disagreement": max_pd,
            "pass": ok,
        },
        "seed": cfg.master_seed,
    }
    _emit_or_print(args, cfg, doc)
    return 0 if ok else 1


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    report = run_validation(cfg, jobs=default_jobs() if args.jobs is None else args.jobs)
    elapsed = time.perf_counter() - t0
    doc = report.to_document()
    _emit_or_print(args, cfg, doc)
    print(f"validate: {cfg.trials} trials in {elapsed:.1f}s", file=sys.stderr)
    return 0 if report.all_sound else 1


def _cmd_prop11(args) -> int:
    epsilon = args.epsilon if args.epsilon is not None else 0.2
    u = args.u if args.u is not None else 0.005
    n = args.n if args.n is not None else 5000
    rep = prop11_report(epsilon, u, n)
    rows = []
    ok = True
    for eps_row, n_row, quoted in _GOLDEN_ROWS:
        r = prop11_report(eps_row, 0.005, n_row)
        value = r.bound_iii if eps_row == 0.2 else r.bound_iv
        good = abs(value - quoted) <= _GOLDEN_TOL
        ok = ok and good
        rows.append(
            {"epsilon": eps_row, "n": n_row, "bound": value, "quoted": quoted, "pass": good}
        )
    const_ok = (
        0.005 <= rep.constant_iii_optimized <= 0.006
        and rep.constant_iv_optimized >= 0.0366
    )
    ok = ok and const_ok
    doc = {
        "kind": "prop11_report",
        "requested": rep.to_dict(),
        "golden_table": rows,
        "constants_pass": const_ok,
        "pass": ok,
    }
    if args.config:
        cfg = _load_config(args)
        _emit_or_print(args, cfg, doc)
    else:
        json.dump(canonicalize(doc), sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screened-mc",
        description="Screened Monte Carlo estimation: bounds, rates, and validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": _cmd_simulate,
        "bound": _cmd_bound,
        "rates": _cmd_rates,
        "sanov": _cmd_sanov,
        "validate": _cmd_validate,
        "prop11": _cmd_prop11,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None, help="override the trial count")
        p.add_argument("--out", type=str, default=".", help="directory for relative outputs")
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes, used by validate and simulate; one pool per process, "
            "reused by later calls with the same value, whose workers see module state as "
            "of their fork (default: available parallelism, read when the command runs)",
        )
        if name == "prop11":
            p.add_argument("--epsilon", type=float, default=None)
            p.add_argument("--u", type=float, default=None)
            p.add_argument("--n", type=int, default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScreenedMcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
