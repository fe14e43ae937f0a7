"""Acceptance gate: every headline claim, checked at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  The heavy Monte Carlo criteria (4 and 5) are the slow part of
the suite; together they need a few minutes.  They are marked ``slow``,
so ``pytest -m "not slow"`` runs everything else.
"""

import json
import math
import time

import numpy as np
import pytest

import screened_mc as sm
from screened_mc.bound_engine import REFERENCE_ALPHA_III, REFERENCE_ALPHA_IV
from screened_mc.cli import main
from screened_mc.exp_harness import parse_config


def report(idx: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {idx} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_criterion_1_prop11_iii_constant():
    t0 = time.perf_counter()
    rep = sm.prop11_report(0.2, 0.01, 5000)
    c = rep.constant_iii_optimized
    v = rep.value_iii_at_reference_alpha
    elapsed = time.perf_counter() - t0
    ok = 0.005 <= c <= 0.006 and abs(v - 0.005054) <= 1e-5 and elapsed < 1.0
    report(
        1,
        ok,
        f"covariance-free constant: sup={c:.7f} in [0.00500, 0.00600], "
        f"value at alpha={REFERENCE_ALPHA_III} is {v:.7f} (target 0.005054 +/- 1e-5), "
        f"{elapsed:.2f}s < 1s",
    )
    assert ok


def test_criterion_2_prop11_iv_constant():
    t0 = time.perf_counter()
    rep = sm.prop11_report(0.2, 0.01, 5000)
    c = rep.constant_iv_optimized
    v = rep.value_iv_at_reference_alpha
    elapsed = time.perf_counter() - t0
    ok = c >= 0.0366 and abs(v - 0.036642) <= 1e-5 and elapsed < 1.0
    report(
        2,
        ok,
        f"covariance-aware constant: sup={c:.7f} >= 0.0366, "
        f"value at alpha={REFERENCE_ALPHA_IV} is {v:.7f} (target 0.036642 +/- 1e-5), "
        f"{elapsed:.2f}s < 1s",
    )
    assert ok


def test_criterion_3_headline_bound_values():
    cases = [
        (0.2, 5000, "iii", 0.3679, 0.368),
        (0.2, 10_000, "iii", 0.1353, 0.136),
        (0.2, 15_000, "iii", 0.0498, 0.0498),
        (0.1, 5000, "iv", 0.1596, 0.1596),
        (0.1, 10_000, "iv", 0.0255, 0.025),
    ]
    ok = True
    values = []
    for eps, n, which, _, quoted in cases:
        rep = sm.prop11_report(eps, 0.005, n)
        value = rep.bound_iii if which == "iii" else rep.bound_iv
        values.append(value)
        ok = ok and abs(value - quoted) <= 1e-3
    report(
        3,
        ok,
        "headline bounds "
        + ", ".join(f"{v:.4f}" for v in values)
        + " each within 1e-3 of 0.368/0.136/0.0498/0.1596/0.025",
    )
    assert ok


@pytest.mark.slow
def test_criterion_4_soundness_vs_simulation():
    t0 = time.perf_counter()
    cfg = parse_config(
        {
            "model": {"kind": "pareto_like"},
            "observables": {"preset": "heavy_tail"},
            "screen": {"epsilon": 0.5, "u": 0.025, "n": 200, "sidedness": "two_sided"},
            "trials": 1_000_000,
            "seed": 20240808,
        }
    )
    rep = sm.run_validation(cfg, jobs=2)
    elapsed = time.perf_counter() - t0
    bound = math.exp(-1.8350)
    p_hat = rep.screened_error_rate
    se = math.sqrt(p_hat * (1.0 - p_hat) / rep.trials)
    ok = (
        p_hat <= bound + 3.0 * se
        and rep.screened_error_count <= rep.unscreened_error_count
        and rep.all_sound
        and elapsed < 120.0
    )
    report(
        4,
        ok,
        f"10^6 trials at n=200: screened-error rate {p_hat:.2e} <= e^-1.835 = {bound:.4f} + 3se, "
        f"screened count {rep.screened_error_count} <= unscreened {rep.unscreened_error_count}, "
        f"{elapsed:.0f}s < 120s",
    )
    assert ok


@pytest.mark.slow
def test_criterion_5_heavy_tail_decay_slope():
    t0 = time.perf_counter()
    res = sm.run_heavy_tail_slope(
        {"kind": "pareto_like"},
        {"preset": "heavy_tail"},
        0.5,
        [25, 50, 100],
        10_000_000,
        20240808,
        jobs=2,
    )
    elapsed = time.perf_counter() - t0
    ok = -3.03 <= res.slope <= -1.63 and elapsed < 900.0
    report(
        5,
        ok,
        f"plain-estimator decay slope {res.slope:.3f} in [-3.03, -1.63] "
        f"(counts {res.counts} over 10^7 trials each), {elapsed:.0f}s < 900s",
    )
    assert ok


def test_criterion_6_duality():
    t0 = time.perf_counter()
    suite = sm.duality_suite(count=50, seed=20240801)
    elapsed = time.perf_counter() - t0
    feasible = [r for r in suite if r.feasible]
    max_gap = max(r.gap for r in feasible)
    max_pd = max(abs(r.primal_entropy - r.dual_entropy) for r in feasible)
    ok = (
        len(suite) == 50
        and max_gap <= 1e-4
        and max_pd <= 1e-6
        and elapsed < 60.0
    )
    report(
        6,
        ok,
        f"50 random instances: max |entropy - tilt rate| = {max_gap:.2e} <= 1e-4, "
        f"max primal/dual disagreement = {max_pd:.2e} <= 1e-6, {elapsed:.0f}s < 60s",
    )
    assert ok


def test_criterion_7_exponent_gap():
    t0 = time.perf_counter()
    model_ind, pair_ind = sm.counterexample_pair([1.0, 2.0], [0.5, 0.5])
    grid = [(e, u) for e in (0.05, 0.1, 0.15, 0.2, 0.25) for u in (0.02, 0.1)]
    max_abs_delta = max(
        abs(sm.delta_exponent(model_ind, pair_ind, e, u).delta) for e, u in grid
    )

    r2 = math.sqrt(2.0)
    model_cor = sm.finite_support([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
    pair_cor = sm.tabulated_pair(model_cor, [-r2, 0.0, 0.0, r2], [-1.0, -1.0, 1.0, 1.0])
    g = pair_cor.gamma
    thm42_ok = True
    margins = []
    for eps in (0.02, 0.05, 0.1):
        point = sm.delta_exponent(model_cor, pair_cor, eps, abs(g) * eps / 4.0)
        needed = g * g * eps * eps / 8.0
        margins.append(point.delta / needed)
        thm42_ok = thm42_ok and point.delta >= needed
    elapsed = time.perf_counter() - t0
    ok = max_abs_delta <= 1e-6 and thm42_ok and elapsed < 60.0
    report(
        7,
        ok,
        f"independent pair: max |gap| = {max_abs_delta:.2e} <= 1e-6 on 10 points; "
        f"correlated pair: gap/(g^2 eps^2/8) = "
        + ", ".join(f"{m:.2f}" for m in margins)
        + f" all >= 1, {elapsed:.0f}s < 60s",
    )
    assert ok


def test_criterion_8_inequality_suites():
    t0 = time.perf_counter()
    # Bennett dominance across test laws, 200 tilt values in [0, 10]
    bennett_ok = True
    for values, probs in [
        ([-1.0, 1.0], [0.5, 0.5]),
        ([-0.25, 1.0], [0.8, 0.2]),
        ([-2.0, -1.0, 0.5, 3.0], [0.3, 0.3, 0.2, 0.2]),
        ([-0.1, -0.05, 2.0], [0.5, 0.45, 0.05]),
    ]:
        p = np.asarray(probs)
        y = np.asarray(values) - float(p @ np.asarray(values))
        m = float(y.max())
        s2 = float(p @ y**2)
        for theta in np.linspace(0.0, 10.0, 200):
            exact = math.log(float(p @ np.exp(theta * y)))
            if sm.bennett_log_mgf_bound(float(theta), m, s2) < exact - 1e-9:
                bennett_ok = False

    # binary KL dominates the quadratic lower bound on a 100 x 100 grid
    ys = np.linspace(0.005, 0.995, 100)
    zs = np.linspace(0.005, 0.995, 100)
    kl_ok = all(
        sm.binary_kl(float(y), float(z)) >= sm.pinsker_lower(float(y), float(z)) - 1e-9
        for y in ys
        for z in zs
    )

    # covariance-free bound never beats the covariance-aware one
    model, pair = sm.heavy_tail_pair()
    norm = sm.normalize_observables(pair, var_f_bound=4.0, mu_lower=1.0)
    order_ok = True
    for eps_raw in (0.1, 0.2, 0.4):
        u_raw = eps_raw / 20.0
        eps_n, u_n = norm.map_thresholds(eps_raw, u_raw)
        rep2 = sm.bound_thm31_ii(norm, eps_n, u_n)
        rep3 = sm.bound_thm31_iii(norm, eps_n, u_n / eps_n)
        order_ok = order_ok and rep3.exponent <= rep2.exponent + 1e-9

    # the certified exponent never exceeds the exact tilt rate
    rng = np.random.default_rng(314)
    rate_ok = True
    checked = 0
    while checked < 8:
        m_size = int(rng.integers(3, 8))
        atoms = np.sort(rng.uniform(-2, 2, size=m_size))
        probs = np.maximum(rng.dirichlet(np.ones(m_size)), 1e-3)
        probs /= probs.sum()
        model_r = sm.finite_support(atoms, probs)
        pair_r = sm.tabulated_pair(model_r, rng.normal(size=m_size), rng.normal(size=m_size))
        if pair_r.var_u < 1e-6 or pair_r.var_f < 1e-6:
            continue
        norm_r = sm.normalize_observables(pair_r)
        eps = 0.3 * float(np.asarray(norm_r.f(model_r.atoms)).max())
        if eps <= 0:
            continue
        rep = sm.bound_thm31_ii(norm_r, eps, 0.2)
        rate = sm.rate_plus_star(model_r, norm_r, eps, 0.2, "lambda_plus")
        if math.isinf(rep.exponent):
            rate_ok = rate_ok and math.isinf(rate)
        else:
            rate_ok = rate_ok and rep.exponent <= rate + 1e-9 * (1.0 + abs(rate))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = bennett_ok and kl_ok and order_ok and rate_ok
    report(
        8,
        ok,
        f"inequality suites: bennett={bennett_ok}, kl>=quadratic={kl_ok}, "
        f"covariance-free<=aware={order_ok}, bound<=rate={rate_ok}, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_9_determinism_across_jobs(tmp_path):
    doc = {
        "model": {"kind": "pareto_like"},
        "observables": {"preset": "heavy_tail"},
        "screen": {"epsilon": 0.5, "u": 0.025, "n": 100, "sidedness": "two_sided"},
        "trials": 20_000,
        "seed": 777,
        "outputs": [{"kind": "report", "path": "report.json"}],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    code1 = main(["validate", "--config", str(cfg), "--out", str(out1), "--jobs", "1"])
    code2 = main(["validate", "--config", str(cfg), "--out", str(out2), "--jobs", "2"])
    b1 = (out1 / "report.json").read_bytes()
    b2 = (out2 / "report.json").read_bytes()
    ok = code1 == 0 and code2 == 0 and b1 == b2
    report(
        9,
        ok,
        f"validate with --jobs 1 vs --jobs 2: byte-identical reports ({len(b1)} bytes)",
    )
    assert ok
