"""Command-line interface.

Subcommands::

    simulate   run seeded trajectories, write trajectory CSVs
    bound      compute the explicit exponential bounds for a config
    rates      Fenchel-Legendre rate table (incl. the exponent gap)
    sanov      relative-entropy oracle and the duality agreement suite
    validate   Monte Carlo validation of every applicable bound
    prop11     golden reproduction of the worked example's numbers

The exit code is 0 only when every soundness check the command ran has
passed; configuration problems exit with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from .bound_engine import (
    bound_thm31_ii,
    bound_thm31_iii,
    normalize_observables,
    prop11_report,
    zero_event_check,
)
from .dist_models import with_gamma
from .errors import CapabilityError, ConfigError, ScreenedMcError
from .exp_harness import (
    ExperimentConfig,
    build_model,
    build_pair,
    canonicalize,
    default_jobs,
    emit_report,
    emit_trajectory_csv,
    parse_config,
    run_validation,
)
from .rate_functions import delta_exponent, rate_lambda_star, rate_plus_star_detail
from .sanov_oracle import duality_suite, sanov_rate
from .screen_core import run_trajectory
from .streams import RandomStream

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


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    model = build_model(cfg.model)
    pair = build_pair(model, cfg.observables)
    csv_bases = [
        _out_path(args, spec.path) for spec in cfg.outputs if spec.kind == "trajectory_csv"
    ]
    screened_final = 0
    for t in range(cfg.trials):
        stream = RandomStream(cfg.master_seed).substream(t)
        records = run_trajectory(model, pair, cfg.screen, stream)
        for base in csv_bases:
            if cfg.trials == 1:
                emit_trajectory_csv(records, base)
            else:
                stem, ext = os.path.splitext(base)
                emit_trajectory_csv(records, f"{stem}_{t:03d}{ext or '.csv'}")
        screened_final += records[-1].screened
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
    cfg = _load_config(args)
    model = build_model(cfg.model)
    pair = build_pair(model, cfg.observables)
    sc = cfg.screen
    doc: dict = {"kind": "bound_report", "epsilon": sc.epsilon, "u": sc.u, "n": sc.n}
    if cfg.observables.get("preset") == "heavy_tail":
        norm = normalize_observables(pair, var_f_bound=4.0, mu_lower=1.0)
    else:
        norm = normalize_observables(pair)
    eps_n, u_n = norm.map_thresholds(sc.epsilon, sc.u)
    doc["normalized_thresholds"] = [eps_n, u_n]
    doc["zero_event"] = zero_event_check(norm, eps_n, u_n)
    rep = bound_thm31_ii(norm, eps_n, u_n)
    doc["thm31_ii"] = {**rep.to_dict(), "bound_value": rep.bound_at(sc.n)}
    rep_w = bound_thm31_ii(with_gamma(norm, -1.0), eps_n, u_n)
    doc["thm31_ii_worst_gamma"] = {**rep_w.to_dict(), "bound_value": rep_w.bound_at(sc.n)}
    rep3 = bound_thm31_iii(norm, eps_n, u_n / eps_n)
    doc["thm31_iii"] = {**rep3.to_dict(), "bound_value": rep3.bound_at(sc.n)}
    if cfg.observables.get("preset") == "heavy_tail" and 0.0 < sc.u <= sc.epsilon / 20.0:
        doc["prop11"] = prop11_report(sc.epsilon, sc.u, sc.n).to_dict()
    _emit_or_print(args, cfg, doc)
    return 0


def _cmd_rates(args) -> int:
    cfg = _load_config(args)
    model = build_model(cfg.model)
    pair = build_pair(model, cfg.observables)
    sc = cfg.screen
    doc: dict = {"kind": "rates", "epsilon": sc.epsilon, "u": sc.u}
    lam_star = rate_lambda_star(model, pair, sc.epsilon)
    doc["lambda_star"] = lam_star
    lam_plus, theta = rate_plus_star_detail(model, pair, sc.epsilon, sc.u, "lambda_plus")
    doc["lambda_plus_star"] = lam_plus
    doc["theta_star"] = list(theta)
    gamma_plus = delta = None
    try:
        point = delta_exponent(model, pair, sc.epsilon, sc.u)
        gamma_plus, delta = point.gamma_plus_star, point.delta
    except CapabilityError as exc:
        doc["delta_note"] = str(exc)
    doc["gamma_plus_star"] = gamma_plus
    doc["delta"] = delta

    header = "epsilon,u,lambda_star,lambda_plus_star,gamma_plus_star,delta"

    def cell(v):
        return "" if v is None else f"{v:.17g}"

    row = ",".join(
        [f"{sc.epsilon:.17g}", f"{sc.u:.17g}", cell(lam_star), cell(lam_plus), cell(gamma_plus), cell(delta)]
    )
    from .exp_harness import _write_text

    for spec in cfg.outputs:
        if spec.kind == "rates_table":
            _write_text(_out_path(args, spec.path), header + "\n" + row + "\n")
    _emit_or_print(args, cfg, doc)
    return 0


def _cmd_sanov(args) -> int:
    cfg = _load_config(args)
    model = build_model(cfg.model)
    pair = build_pair(model, cfg.observables)
    sc = cfg.screen
    result = sanov_rate(model, pair, sc.epsilon, sc.u)
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
    report = run_validation(cfg, jobs=args.jobs)
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
            default=default_jobs(),
            help="worker processes, used by validate only; one pool per process, reused "
            "by later calls with the same value, whose workers see module state as of "
            "their fork (default: available parallelism)",
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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
