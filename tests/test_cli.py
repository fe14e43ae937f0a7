import argparse
import hashlib
import json
import math
import multiprocessing
import pathlib
import warnings

import numpy as np
import pytest

from screened_mc import bound_engine, cli, dist_models, exp_harness, rate_functions
from screened_mc._optim import grid_min
from screened_mc.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def heavy_tail_doc(**overrides):
    doc = {
        "model": {"kind": "pareto_like"},
        "observables": {"preset": "heavy_tail"},
        "screen": {"epsilon": 0.5, "u": 0.025, "n": 50, "sidedness": "two_sided"},
        "trials": 20_000,
        "seed": 4242,
        "outputs": [{"kind": "report", "path": "report.json"}],
    }
    doc.update(overrides)
    return doc


def finite_doc(**overrides):
    r2 = math.sqrt(2.0)
    doc = {
        "model": {
            "kind": "finite_support",
            "atoms": [1.0, 2.0, 3.0, 4.0],
            "probs": [0.25, 0.25, 0.25, 0.25],
        },
        "observables": {
            "f": {"form": "table", "values": [-r2, 0.0, 0.0, r2]},
            "u": {"form": "table", "values": [-1.0, -1.0, 1.0, 1.0]},
        },
        "screen": {"epsilon": 0.1, "u": 0.05, "n": 100},
        "trials": 2000,
        "seed": 7,
        "outputs": [{"kind": "report", "path": "out.json"}],
    }
    doc.update(overrides)
    return doc


def test_validate_exit_zero_and_report(tmp_path):
    cfg = write_config(tmp_path, heavy_tail_doc())
    code = main(["validate", "--config", cfg, "--out", str(tmp_path), "--jobs", "1"])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["checks"]["all_bounds_sound"] is True
    assert doc["counts"]["screened_error"] <= doc["counts"]["unscreened_error"]


def test_validate_jobs_byte_identical(tmp_path):
    cfg1 = write_config(tmp_path, heavy_tail_doc(trials=12_288), "c1.json")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["validate", "--config", cfg1, "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["validate", "--config", cfg1, "--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_seed_and_trials_overrides(tmp_path):
    cfg = write_config(tmp_path, heavy_tail_doc(trials=4000))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["validate", "--config", cfg, "--out", str(out1), "--jobs", "1", "--seed", "11"]) == 0
    assert main(["validate", "--config", cfg, "--out", str(out2), "--jobs", "1", "--seed", "12"]) == 0
    d1 = json.loads((out1 / "report.json").read_text())
    d2 = json.loads((out2 / "report.json").read_text())
    assert d1["seed"] == 11 and d2["seed"] == 12
    assert d1["counts"] != d2["counts"]
    out3 = tmp_path / "s3"
    assert main(["validate", "--config", cfg, "--out", str(out3), "--jobs", "1", "--trials", "2000"]) == 0
    assert json.loads((out3 / "report.json").read_text())["trials"] == 2000


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, heavy_tail_doc(typo_key=1))
    assert main(["validate", "--config", cfg, "--jobs", "1"]) == 2
    assert "typo_key" in capsys.readouterr().err


def _with_screen(**fields):
    return {**heavy_tail_doc()["screen"], **fields}


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"trials": "abc"}, "trials"),
        ({"trials": True}, "trials"),
        ({"trials": 20.5}, "trials"),
        ({"seed": 1.5}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"screen": 5}, "screen"),
        ({"screen": _with_screen(n=20.7)}, "screen.n"),
        ({"screen": _with_screen(n=True)}, "screen.n"),
        ({"screen": _with_screen(epsilon="x")}, "screen.epsilon"),
        ({"screen": _with_screen(u=False)}, "screen.u"),
        ({"model": "pareto_like"}, "model"),
        ({"observables": ["heavy_tail"]}, "observables"),
        ({"outputs": {"kind": "report", "path": "report.json"}}, "outputs"),
        ({"outputs": ["report.json"]}, "outputs"),
        ({"model": {"kind": "finite_support", "atoms": [0.0, 1.0], "probs": "ab"}}, "model.probs"),
        (
            {"observables": {"f": {"form": "power", "exponent": "x"}, "u": {"form": "identity"}}},
            "observables.f.exponent",
        ),
        (
            {"observables": {"f": {"form": "table", "values": "zz"}, "u": {"form": "identity"}}},
            "observables.f.values",
        ),
        # a seed is the streams' 64-bit SeedSequence entropy: nothing outside it is masked into it
        ({"seed": -1}, "seed"),
        ({"seed": 1 << 64}, "seed"),
        # a path is a string, never a str() of some other value
        ({"outputs": [{"kind": "report", "path": None}]}, "outputs[0].path"),
        ({"outputs": [{"kind": "report", "path": 5}]}, "outputs[0].path"),
        # a tag is a string naming a table row
        ({"model": {"kind": ["pareto_like"]}}, "model.kind"),
        (
            {"observables": {"f": {"form": ["power"]}, "u": {"form": "identity"}}},
            "observables.f.form",
        ),
        # a fractional power of a negative atom is no number
        (
            {
                "model": {"kind": "finite_support", "atoms": [-1.0, 2.0], "probs": [0.5, 0.5]},
                "observables": {"f": {"form": "power", "exponent": 0.5}, "u": {"form": "identity"}},
            },
            "observables.f",
        ),
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, heavy_tail_doc(**overrides))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{field} must be" in err
    assert not (tmp_path / "report.json").exists()


def _finite_with(section, key, index, value):
    doc = finite_doc(outputs=[])
    if section == "model":
        doc["model"][key][index] = value
    else:
        doc["observables"][key]["values"][index] = value
    return doc


# well-formed sections that do not fit together: refused when the pair is built
@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"observables": {"f": {"form": "abs_centered"}, "u": {"form": "identity"}}},
            "abs_centered without center needs a finite model",
        ),
        (
            {"model": {"kind": "finite_support", "atoms": [1.0, 2.0], "probs": [0.5, 0.5]}},
            "the heavy_tail preset pairs with the pareto_like model",
        ),
    ],
    ids=["abs_centered_on_pareto", "preset_on_finite"],
)
def test_a_pair_its_model_cannot_carry_exits_2(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, heavy_tail_doc(outputs=[], **overrides))
    assert main(["bound", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# json reads NaN and Infinity; none of them may reach a certificate
@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("bound", _finite_with("model", "atoms", 1, math.nan), "model.atoms[1]"),
        ("bound", _finite_with("model", "probs", 0, math.inf), "model.probs[0]"),
        ("sanov", _finite_with("model", "probs", 2, math.nan), "model.probs[2]"),
        ("sanov", _finite_with("observables", "f", 3, math.nan), "observables.f.values[3]"),
        ("rates", _finite_with("observables", "u", 0, -math.inf), "observables.u.values[0]"),
        ("bound", heavy_tail_doc(screen=_with_screen(u=math.inf), outputs=[]), "screen.u"),
        ("bound", heavy_tail_doc(screen=_with_screen(epsilon=math.nan), outputs=[]), "screen.epsilon"),
        ("bound", heavy_tail_doc(screen=_with_screen(epsilon=10**400), outputs=[]), "screen.epsilon"),
    ],
)
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command, doc, field):
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{field} must be a finite number" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["bound", "rates", "sanov", "validate"])
def test_tables_whose_moments_overflow_exit_2_naming_the_moment(tmp_path, capsys, command):
    # finite values of +-1e308 whose variance is past the doubles: every
    # command used to warn of the overflow (exit 3 here, where warnings are
    # errors); without the filter three exited 2 on a message naming another
    # cause, and `validate` exited 0 with every bound skipped
    doc = finite_doc(outputs=[])
    doc["model"]["probs"] = [0.1, 0.2, 0.3, 0.4]
    doc["observables"]["f"]["values"] = [1e308, -1e308, 2.0, 0.5]
    doc["observables"]["u"]["values"] = [1e308, 0.2, -1e308, -0.3]
    doc["screen"] = {"epsilon": 0.3, "u": 0.1, "n": 100}
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--jobs", "1"]) == 2
    assert capsys.readouterr().err == "error: Var F of the value tables is past the double range\n"


# valid configs with extreme but finite thresholds, one field changed on the
# README heavy-tail or four-atom config; each once exited 3 with a traceback.
# Each exits 0, and a `validate` run skips none of its bound entries
_EXTREME_THRESHOLD_RUNS = [
    # (1 + 1/(2K))**2 overflowed in bound_thm31_iii, K = u_n/eps_n
    ("bound", "heavy", "u", 1e-300),
    ("validate", "heavy", "u", 1e-300),
    ("bound", "finite", "u", 1e-300),
    ("validate", "finite", "u", 1e-300),
    # q2 = D^2 + k^2 underflowed to 0 in _thm31_ii_on_envelope, k = eps/u;
    # at u = 1e308, K = inf then made bound_thm31_iii's beta = 1/(2K) zero
    ("bound", "finite", "epsilon", 1e-300),
    ("validate", "finite", "epsilon", 1e-300),
    ("bound", "finite", "u", 1e308),
    ("validate", "finite", "u", 1e308),
    # the quoted constants' c eps^2 overflowed in compute_bounds, after
    # np.geomspace warned on the zero-event grid at eps/u = inf
    ("validate", "heavy", "epsilon", 1e308),
    # k/beta overflowed in ParetoMargin's array call at eps/u = 5e-310
    ("bound", "heavy", "u", 1e308),
    ("validate", "heavy", "u", 1e308),
    # a log-MGF term past the doubles overflowed in _logsumexp, and the gap
    # between two +inf rates printed "nan"
    ("rates", "finite", "epsilon", 1e308),
]


@pytest.mark.parametrize("command, config, field, value", _EXTREME_THRESHOLD_RUNS)
def test_extreme_thresholds_exit_without_a_traceback(tmp_path, capsys, command, config, field, value):
    doc = (heavy_tail_doc if config == "heavy" else finite_doc)(trials=1000, outputs=[])
    doc["screen"] = {**doc["screen"], "n": 200 if config == "heavy" else 100, field: value}
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--jobs", "1"]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err and '"nan"' not in out
    if command == "validate":
        skipped = [entry["skip_reason"] for entry in json.loads(out)["bounds"] if entry["skipped"]]
        # the heavy tail's quoted constants hold only for u <= epsilon/20
        quoted = (config, field, value) == ("heavy", "u", 1e308)
        assert skipped == (["quoted constants require u <= epsilon/20"] if quoted else [])
    if command == "rates":
        doc = json.loads(out)
        assert doc["lambda_star"] == "inf" and doc["delta"] is None
        assert doc["delta_note"].startswith("the exponent gap is undefined")


def _four_atom_doc_past_max_f():
    # max F = 2 < mu + eps at eps = 1e308: the plain event is empty
    return finite_doc(
        model={"kind": "finite_support", "atoms": [0.0, 1.0, 2.0, 3.0], "probs": [0.1, 0.2, 0.3, 0.4]},
        observables={
            "f": {"form": "table", "values": [0.3, -1.0, 2.0, 0.5]},
            "u": {"form": "table", "values": [1.0, 0.2, 1.5, -0.3]},
        },
        screen={"epsilon": 1e308, "u": 0.1, "n": 100},
        outputs=[],
    )


def _instance_doc_past_max_f():
    from workloads import finite_instance

    doc = finite_instance(2001, 8)
    doc["screen"] = {**doc["screen"], "epsilon": 1e308}
    return doc


def _instance_doc_just_past_max_f():
    # the margin grid does not certify lambda+ empty here; the empty plain event does
    from workloads import finite_instance

    doc = finite_instance(2001, 6)
    f, p = np.array(doc["observables"]["f"]["values"]), np.array(doc["model"]["probs"])
    doc["screen"] = {**doc["screen"], "epsilon": float(f.max() - p @ f + 1e-9)}
    return doc


@pytest.mark.parametrize(
    "make_doc", [_four_atom_doc_past_max_f, _instance_doc_past_max_f, _instance_doc_just_past_max_f]
)
def test_rates_past_max_f_certifies_the_plain_rate_without_a_log_mgf(tmp_path, capsys, monkeypatch, make_doc):
    # the plain solve ran Newton past theta = 2^60 here (at eps = 1e308 overflowing
    # in a * F), and so did lambda+ where its margin certificate misses
    monkeypatch.syspath_prepend(str(PERFBENCH))
    calls = []
    evaluate = dist_models._log_mgf_eval
    monkeypatch.setattr(dist_models, "_log_mgf_eval", lambda *args: calls.append(args) or evaluate(*args))
    cfg = write_config(tmp_path, make_doc())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["rates", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda_star"] == "inf" and doc["lambda_plus_star"] == "inf"
    assert calls == []


@pytest.mark.parametrize("seed, code", [("-1", 2), (str(1 << 64), 2), (str((1 << 64) - 1), 0)])
def test_seed_override_must_fit_a_key_word(tmp_path, capsys, seed, code):
    cfg = write_config(tmp_path, heavy_tail_doc(trials=100))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path), "--seed", seed]) == code
    assert ("seed must be in [0, 2^64)" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_nonpositive_trials_override_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, heavy_tail_doc())
    assert main([command, "--config", cfg, "--out", str(tmp_path), "--trials", "0"]) == 2
    assert "--trials must be >= 1" in capsys.readouterr().err


def test_integral_float_counts_are_accepted(tmp_path):
    cfg = write_config(tmp_path, heavy_tail_doc(trials=2e3, seed=4242.0))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path), "--jobs", "1"]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["trials"] == 2000 and doc["seed"] == 4242


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["validate", "--jobs", "1"]) == 2
    assert main(["validate", "--config", str(tmp_path / "absent.json"), "--jobs", "1"]) == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path), "--jobs", "1"]) == 2


def test_prop11_golden(capsys):
    assert main(["prop11"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    quoted = {(r["epsilon"], r["n"]): r for r in doc["golden_table"]}
    assert abs(quoted[(0.2, 5000)]["bound"] - 0.368) <= 1e-3
    assert abs(quoted[(0.1, 10000)]["bound"] - 0.025) <= 1e-3


def test_every_command_takes_the_common_flags_only(capsys):
    # prop11 takes no thresholds: `bound` on a heavy-tail config with
    # u <= eps/20 prints the same block at the config's, and
    # prop11_report takes any
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"simulate", "bound", "rates", "sanov", "validate", "prop11"}
    for name, parser in sub.choices.items():
        flags = [flag for action in parser._actions for flag in action.option_strings]
        assert flags == ["-h", "--help", "--config", "--seed", "--trials", "--out", "--jobs"], name
    with pytest.raises(SystemExit) as exc:
        main(["prop11", "--epsilon", "0.1"])
    assert exc.value.code == 2 and "unrecognized arguments: --epsilon" in capsys.readouterr().err


def test_bound_subcommand(tmp_path):
    cfg = write_config(tmp_path, heavy_tail_doc(screen={"epsilon": 0.2, "u": 0.01, "n": 5000}))
    assert main(["bound", "--config", cfg, "--out", str(tmp_path), "--jobs", "1"]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["kind"] == "bound_report"
    assert "thm31_ii" in doc and "thm31_iii" in doc and "prop11" in doc
    assert doc["thm31_ii"]["exponent"] >= doc["thm31_iii"]["exponent"]


def test_rates_subcommand_finite(tmp_path):
    doc = finite_doc(
        outputs=[
            {"kind": "rates_table", "path": "rates.csv"},
            {"kind": "report", "path": "rates.json"},
        ]
    )
    cfg = write_config(tmp_path, doc)
    assert main(["rates", "--config", cfg, "--out", str(tmp_path), "--jobs", "1"]) == 0
    table = (tmp_path / "rates.csv").read_text().splitlines()
    assert table[0] == "epsilon,u,lambda_star,lambda_plus_star,gamma_plus_star,delta"
    row = table[1].split(",")
    assert float(row[3]) >= float(row[2]) - 1e-10  # screened rate dominates
    rep = json.loads((tmp_path / "rates.json").read_text())
    assert rep["delta"] >= 0.0


def test_rates_subcommand_heavy_tail_skips_delta(tmp_path):
    doc = heavy_tail_doc(
        screen={"epsilon": 0.03, "u": 0.005, "n": 100},
        outputs=[{"kind": "report", "path": "rates.json"}],
    )
    cfg = write_config(tmp_path, doc)
    assert main(["rates", "--config", cfg, "--out", str(tmp_path), "--jobs", "1"]) == 0
    rep = json.loads((tmp_path / "rates.json").read_text())
    assert rep["lambda_star"] == 0.0
    assert rep["delta"] is None
    assert "delta_note" in rep


def test_sanov_subcommand(tmp_path):
    cfg = write_config(tmp_path, finite_doc())
    assert main(["sanov", "--config", cfg, "--out", str(tmp_path), "--jobs", "1"]) == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["suite"]["pass"] is True
    assert doc["instance"]["gap"] <= 1e-4


def test_sanov_rejects_heavy_tail(tmp_path, capsys):
    cfg = write_config(tmp_path, heavy_tail_doc())
    assert main(["sanov", "--config", cfg, "--jobs", "1"]) == 2


def test_sanov_honours_the_screen_sidedness(tmp_path, capsys, monkeypatch):
    # the one-sided moment set of this instance is not empty, the two-sided one is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import finite_instance

    doc = finite_instance(1, 4)
    assert doc["screen"]["sidedness"] == "two_sided"
    results = {}
    for sidedness in ("two_sided", "one_sided"):
        doc["screen"]["sidedness"] = sidedness
        cfg = write_config(tmp_path, doc, f"{sidedness}.json")
        assert main(["sanov", "--config", cfg]) == 0
        results[sidedness] = json.loads(capsys.readouterr().out)["instance"]
    assert results["two_sided"]["feasible"] is False
    assert results["one_sided"]["feasible"] is True
    assert results["one_sided"]["entropy"] == pytest.approx(0.7799, abs=1e-4)


def power_doc(f_exponent, u_form, epsilon, u, **overrides):
    return heavy_tail_doc(
        observables={"f": {"form": "power", "exponent": f_exponent}, "u": u_form},
        screen={"epsilon": epsilon, "u": u, "n": 200, "sidedness": "two_sided"},
        outputs=[],
        **overrides,
    )


def test_bound_on_a_perfectly_correlated_pair_exits_0(tmp_path, capsys):
    # F = U = x^0.5: the normalized gamma rounds to 1 + 2e-16, above the
    # Cauchy-Schwarz limit, so sigma^2 = 1 + beta^2 - 2 beta gamma went
    # negative near beta = 1 and `bound` exited 2; normalization caps it at 1
    doc = power_doc(0.5, {"form": "power", "exponent": 0.5}, 0.8228616787857973, 0.8064091156960165)
    assert main(["bound", "--config", write_config(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("thm31_ii", "thm31_ii_worst_gamma", "thm31_iii"):
        assert report[key]["exponent"] >= 0.0


def test_validate_checks_the_bounds_of_a_power_pair(tmp_path, capsys):
    doc = power_doc(0.5, {"form": "identity"}, 0.02, 0.01, trials=4000, seed=11)
    doc["screen"]["n"] = 50
    assert main(["validate", "--config", write_config(tmp_path, doc), "--jobs", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["all_bounds_sound"] is True
    assert report["counts"]["screened_error"] > 0  # the event is not certified empty
    thm31 = {b["method"]: b for b in report["bounds"] if b["method"].startswith("thm31")}
    assert sorted(thm31) == ["thm31_ii", "thm31_iii"]
    assert all(not b["skipped"] and 0.0 < b["exponent"] < math.inf for b in thm31.values())


def test_a_power_pair_u_does_not_dominate_certifies_nothing(tmp_path, capsys):
    # sup[x**0.9 - beta x**0.5] = +inf for every beta
    cfg = write_config(tmp_path, power_doc(0.9, {"form": "power", "exponent": 0.5}, 0.2, 0.01))
    assert main(["bound", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["zero_event"] is False
    for key in ("thm31_ii", "thm31_ii_worst_gamma", "thm31_iii"):
        assert doc[key]["exponent"] == 0.0 and doc[key]["bound_value"] == 1.0
    assert main(["rates", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda_star"] == 0.0 and doc["lambda_plus_star"] == 0.0


def _grid_search_margin(f, u, beta):
    """sup of f - beta*u over a 600-point log grid on [1, 1e12], refined by golden
    section: the margin of every non-preset pareto_like pair before it had a closed form."""
    xs = np.geomspace(1.0, 1e12, 600)

    def neg_profile(x):
        return -(f(x) - beta * u(x))

    return -grid_min(neg_profile, xs, neg_profile(xs), log=True)[1]


def test_power_pair_margins_against_the_grid_search_they_replace(tmp_path, capsys, monkeypatch):
    seen = []
    real = dist_models.ParetoMargin.__call__

    def spy(self, beta):
        if self.f[0] > 0.0 > self.u[0]:  # sup[F - beta U] of F = x^0.5, U = x
            seen.append(np.ravel(beta))
        return real(self, beta)

    monkeypatch.setattr(dist_models.ParetoMargin, "__call__", spy)
    cfg = write_config(tmp_path, power_doc(0.5, {"form": "identity"}, 0.02, 0.01))
    assert main(["bound", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["thm31_ii"]["exponent"] > 0.0
    pair = dist_models.pair_from_callables(
        dist_models.pareto_like(), dist_models.Power(0.5), dist_models.Identity()
    )
    # the bound evaluates its alpha grid only where the margin curves: add
    # the whole 9,999-point grid, in the raw beta the bound maps it to
    norm = bound_engine.normalize_observables(pair)
    eps_n, u_n = norm.map_thresholds(0.02, 0.01)
    norm.margin(np.arange(1e-4, 1.0, 1e-4) * eps_n / u_n)
    monkeypatch.undo()
    betas = np.unique(np.concatenate(seen))
    assert len(betas) > 10_000
    for beta in betas[:: len(betas) // 300].tolist():
        new = pair.margin(beta)
        old = _grid_search_margin(pair.f, pair.u, beta)
        assert new >= old - 1e-15 * abs(old)
        if 1.0 / (4.0 * beta * beta) <= 1e12:  # the peak x* lies on the old grid
            assert new == pytest.approx(old, rel=1e-12)


def test_simulate_single_and_multi(tmp_path):
    doc = heavy_tail_doc(
        trials=1,
        screen={"epsilon": 0.2, "u": 0.005, "n": 100},
        outputs=[{"kind": "trajectory_csv", "path": "traj.csv"}],
    )
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--jobs", "1"]) == 0
    assert (tmp_path / "traj.csv").exists()
    assert len((tmp_path / "traj.csv").read_text().splitlines()) == 101

    doc3 = heavy_tail_doc(
        trials=3,
        screen={"epsilon": 0.2, "u": 0.005, "n": 50},
        outputs=[{"kind": "trajectory_csv", "path": "multi.csv"}],
    )
    cfg3 = write_config(tmp_path, doc3, "c3.json")
    assert main(["simulate", "--config", cfg3, "--out", str(tmp_path), "--jobs", "1"]) == 0
    names = sorted(p.name for p in tmp_path.glob("multi_*.csv"))
    assert names == ["multi_000.csv", "multi_001.csv", "multi_002.csv"]


# sha256 of `simulate` outputs for the README config at n = 1000, 3 trials,
# seed 20240808: pins the stream contract, the running-mean recurrence and
# the CSV format together.  Pinned under numpy 2.4's AVX-512 dispatch on x86:
# under another, the pareto_like samples move in their last bits, so the
# jobs and start-method tests compare against a jobs=1 run instead.
_SIMULATE_DIGESTS = {
    "two_sided": {
        "summary.json": "703aa43b8bc035c1eeb1b658b91f835efbc7072ca144c8a7cdd2691b54e8dad3",
        "traj_000.csv": "186b8a894b6fac11750acc3705b550d03eec89258ad4b0e0ee4122be9532b457",
        "traj_001.csv": "8a1a20c267cea274e0c79056de6fb687343d868d7992ef0e4860ad8105b10653",
        "traj_002.csv": "9c6ee334385c9291f78651b08b3a7e4134ac775f8be354c7c18c055813b3ad11",
    },
    "one_sided": {
        "summary.json": "703aa43b8bc035c1eeb1b658b91f835efbc7072ca144c8a7cdd2691b54e8dad3",
        "traj_000.csv": "7a643f1779e9e43d23de3a2965cb856f25059454ec1fa3089fb4c75ea9bfb631",
        "traj_001.csv": "fc56a30428a521dd652ff64b1ae792540993854c8f5536ef765865c3d69159f4",
        "traj_002.csv": "61838a32a1995df84f93681a930834708afe4ba07e6e492621d6f2db47f17720",
    },
}


def _simulate_outputs(tmp_path, jobs, sidedness="two_sided", trials=3, n=1000):
    """sha256 of each file `simulate` writes at ``jobs`` on the README config."""
    doc = heavy_tail_doc(
        screen={"epsilon": 0.5, "u": 0.025, "n": n, "sidedness": sidedness},
        trials=trials,
        seed=20240808,
        outputs=[
            {"kind": "trajectory_csv", "path": "traj.csv"},
            {"kind": "report", "path": "summary.json"},
        ],
    )
    cfg = write_config(tmp_path, doc, f"config_{jobs}.json")
    out = tmp_path / f"out_{jobs}"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("sidedness", sorted(_SIMULATE_DIGESTS))
def test_simulate_outputs_match_golden_digests(tmp_path, sidedness):
    assert _simulate_outputs(tmp_path, "1", sidedness) == _SIMULATE_DIGESTS[sidedness]


# 3 trials at --jobs 2 split unevenly, 2 + 1; at --jobs 3 one trial each
@pytest.mark.parametrize("jobs", ["2", "3"])
@pytest.mark.parametrize("sidedness", sorted(_SIMULATE_DIGESTS))
def test_simulate_bytes_do_not_depend_on_jobs(tmp_path, sidedness, jobs):
    # against jobs 1 on this host, not the golden digests: those pin one SIMD dispatch
    one_job = _simulate_outputs(tmp_path, "1", sidedness)
    assert _simulate_outputs(tmp_path, jobs, sidedness) == one_job


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="needs the forkserver start method",
)
@pytest.mark.parametrize("jobs", ["2", "3"])
def test_simulate_bytes_do_not_depend_on_the_start_method(tmp_path, monkeypatch, jobs):
    exp_harness._shutdown_pool()
    monkeypatch.setattr(exp_harness, "POOL_START_METHOD", "forkserver")
    try:
        assert _simulate_outputs(tmp_path, jobs) == _simulate_outputs(tmp_path, "1")
    finally:
        exp_harness._shutdown_pool()


@pytest.mark.parametrize(
    "trials, jobs, names",
    [
        (5, "3", ["summary.json"] + [f"traj_{t:03d}.csv" for t in range(5)]),
        (1, "2", ["summary.json", "traj.csv"]),  # one trial keeps the unsuffixed name
    ],
)
def test_simulate_split_writes_the_bytes_of_jobs_1(tmp_path, trials, jobs, names):
    split = _simulate_outputs(tmp_path, jobs, trials=trials, n=200)
    assert sorted(split) == names
    assert split == _simulate_outputs(tmp_path, "1", trials=trials, n=200)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_rewrites_longer_csvs_to_the_bytes_of_a_fresh_run(tmp_path, jobs):
    doc = heavy_tail_doc(
        trials=3,
        outputs=[
            {"kind": "trajectory_csv", "path": "traj.csv"},
            {"kind": "report", "path": "summary.json"},
        ],
    )
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    for n, out, run_jobs in ((50, reused, "1"), (20, reused, jobs), (20, fresh, "1")):
        doc["screen"]["n"] = n
        cfg = write_config(tmp_path, doc, f"config_{n}.json")
        assert main(["simulate", "--config", cfg, "--out", str(out), "--jobs", run_jobs]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in reused.iterdir())
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
    assert len((fresh / "traj_000.csv").read_text().splitlines()) == 21


def test_simulate_onto_a_directory_exits_2_naming_the_path(tmp_path, capsys):
    (tmp_path / "traj.csv").mkdir()
    doc = heavy_tail_doc(trials=1, outputs=[{"kind": "trajectory_csv", "path": "traj.csv"}])
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output file {str(tmp_path / 'traj.csv')!r}: ")
    assert "Traceback" not in err


def test_an_absolute_output_path_ignores_out(tmp_path, capsys):
    report = tmp_path / "abs" / "report.json"
    cfg = write_config(tmp_path, finite_doc(outputs=[{"kind": "report", "path": str(report)}]))
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "elsewhere")]) == 0
    assert json.loads(report.read_text())["kind"] == "bound_report"
    assert not (tmp_path / "elsewhere").exists() and capsys.readouterr().out == ""


def test_simulate_reads_the_jobs_default_when_it_runs(tmp_path, monkeypatch):
    seen = []
    real = cli._run_batches

    def spy(worker, tasks, jobs):
        seen.append((len(tasks), jobs))
        return real(worker, tasks, 1)

    monkeypatch.setattr(cli, "default_jobs", lambda: 5)
    monkeypatch.setattr(cli, "_run_batches", spy)
    cfg = write_config(tmp_path, heavy_tail_doc(trials=3, outputs=[]))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--jobs", "2"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--jobs", "0"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--jobs", "2",
                 "--trials", "1"]) == 0
    # min(jobs, trials) ranges, at least one, on as many workers as ranges
    assert seen == [(3, 3), (2, 2), (1, 1), (1, 1)]


def test_simulate_one_trial_at_jobs_2_runs_in_process(tmp_path, monkeypatch):
    calls = []
    real = cli.run_trajectory

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "run_trajectory", counted)
    cfg = write_config(tmp_path, heavy_tail_doc(trials=1, outputs=[]))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--jobs", "2"]) == 0
    assert len(calls) == 1  # a pool worker would not see the replaced name


def test_simulate_config_error_at_jobs_2_exits_2_before_any_task(tmp_path, monkeypatch, capsys):
    def no_tasks(*args):
        raise AssertionError("a task was submitted for a malformed config")

    monkeypatch.setattr(cli, "_run_batches", no_tasks)
    doc = heavy_tail_doc(
        observables={"f": {"form": "table", "values": [1.0]}, "u": {"form": "identity"}},
        outputs=[{"kind": "trajectory_csv", "path": "traj.csv"}],
    )
    cfg = write_config(tmp_path, doc)
    errors = []
    for jobs in ("1", "2"):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--jobs", jobs]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: table forms need a finite model with matching size\n"
    assert not list(tmp_path.glob("traj*"))


def test_simulate_unwritable_csv_at_jobs_2_exits_2_naming_the_path(tmp_path, monkeypatch, capsys):
    (tmp_path / "blocker").write_text("a regular file, not a directory")
    doc = heavy_tail_doc(
        trials=3,
        screen={"epsilon": 0.5, "u": 0.025, "n": 50},
        outputs=[{"kind": "trajectory_csv", "path": "blocker/traj.csv"}],
    )
    cfg = write_config(tmp_path, doc)
    for method in [m for m in ("fork", "forkserver") if m in multiprocessing.get_all_start_methods()]:
        exp_harness._shutdown_pool()
        monkeypatch.setattr(exp_harness, "POOL_START_METHOD", method)
        try:
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--jobs", "2"]) == 2
        finally:
            exp_harness._shutdown_pool()
        err = capsys.readouterr().err
        path = str(tmp_path / "blocker" / "traj_000.csv")
        assert err.startswith(f"error: cannot write output file {path!r}: "), method
        assert "Traceback" not in err


def test_unexpected_exception_exits_3_with_traceback(tmp_path, monkeypatch, capsys):
    def boom(*args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "run_trajectory", boom)
    doc = heavy_tail_doc(trials=1, outputs=[{"kind": "trajectory_csv", "path": "t.csv"}])
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--jobs", "1"]) == 3
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "RuntimeError: injected fault" in err


# sha256 of the JSON that `bound` and `rates` print, on the README config,
# on a heavy-tail point with u <= eps/20 (so `bound` adds the prop11 block)
# and on three finite-support table configs (the four-atom one twice: at
# eps = 1 the zero-event certificate empties the event, at eps = 0.1 it
# does not), that `prop11` prints, and that `sanov` prints on the
# four-atom config (the instance and the 50-instance duality suite).
_FINITE_THREE_ATOMS = {
    "model": {
        "kind": "finite_support",
        "atoms": [0.15319435675564286, 0.7149141514346704, 1.737583795343661],
        "probs": [0.09870981692887273, 0.2827271212239274, 0.6185630618471999],
    },
    "observables": {
        "f": {"form": "table", "values": [0.6523059630426672, -0.4215940288906705, 1.4825857649341232]},
        "u": {"form": "table", "values": [0.2814927017439339, 0.08960834788875513, -0.6151317142858498]},
    },
    "screen": {"epsilon": 0.29931595025411445, "u": 0.14973181087206583, "n": 200, "sidedness": "two_sided"},
    "trials": 1,
    "seed": 1,
}
_REPORT_CONFIGS = {
    "readme": heavy_tail_doc(
        screen={"epsilon": 0.5, "u": 0.025, "n": 200, "sidedness": "two_sided"},
        trials=1_000_000,
        seed=20240808,
        outputs=[],
    ),
    "heavy_prop11": heavy_tail_doc(
        screen={"epsilon": 0.2, "u": 0.005, "n": 200, "sidedness": "two_sided"}, outputs=[]
    ),
    "finite_four_atoms": finite_doc(outputs=[]),
    "finite_four_atoms_empty": finite_doc(screen={"epsilon": 1.0, "u": 0.05, "n": 100}, outputs=[]),
    "finite_three_atoms": _FINITE_THREE_ATOMS,
}
_REPORT_DIGESTS = {
    ("bound", "readme"): "faba03725faa579ebf11902c09b1b72c0eb52d6156c95be8185dcee33ec39e3d",
    ("rates", "readme"): "70c75c123d400862bdcdcadfa445e70befb9e8de2fa2d634b9cbe8e9270a9297",
    ("bound", "heavy_prop11"): "5480b5c9f71d527b3600ff02a5121a5cfc35cb2c824afae8fdcf58d7e807a2a5",
    ("rates", "heavy_prop11"): "7c768a03205c775e56534b4b02414de5497889a54457e0a4ed4d9ca62adc8cc5",
    ("bound", "finite_four_atoms"): "3d2aed451d0d0c5d476143ba5b0e14e10e42142d7f54ac84d965f0cf457a0a91",
    ("rates", "finite_four_atoms"): "aa3fe921e165586d6c11ebf1b06f15e8ab76e31f85cc7f5b1551f11e080554ad",
    ("bound", "finite_four_atoms_empty"): "8d9bf17930331753ed1cf9ca0b7cfba8e2a4e34ce0ce6e93a1aed1dc4454d1d0",
    ("rates", "finite_four_atoms_empty"): "2d6b14b8442e0838c9c281187c9dd548a3a5e27e3454e0cdcfc4861ce8eba204",
    ("bound", "finite_three_atoms"): "32fa49b0af08c5f526d4c909191b7477a1ebdf6fa733ed7fb48e63e33078450e",
    ("rates", "finite_three_atoms"): "e0b39ff55a8801626a8af8cf5404a722520ee016575f3eb802eae5a2f757a72e",
    ("prop11", ""): "447b3f368eb7dd5ef58c1d7bd53525a395b357fce4be5f30dae8f4fe97e1f921",
    ("sanov", "finite_four_atoms"): "57f691c0c1af78edba5a8d83d475409363aab75b939f3d4deb8a92852aa1e5bd",
}


def _printed_digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command, name", sorted(k for k in _REPORT_DIGESTS if k[0] in ("bound", "rates")))
def test_bound_and_rates_outputs_match_golden_digests(tmp_path, capsys, command, name):
    cfg = write_config(tmp_path, _REPORT_CONFIGS[name])
    assert _printed_digest(capsys, [command, "--config", cfg]) == _REPORT_DIGESTS[command, name]


def test_prop11_output_matches_golden_digest(capsys):
    assert _printed_digest(capsys, ["prop11"]) == _REPORT_DIGESTS["prop11", ""]


def test_sanov_output_matches_golden_digest(tmp_path, capsys):
    cfg = write_config(tmp_path, _REPORT_CONFIGS["finite_four_atoms"])
    assert _printed_digest(capsys, ["sanov", "--config", cfg]) == _REPORT_DIGESTS["sanov", "finite_four_atoms"]


def _constant_u_doc():
    doc = finite_doc(outputs=[])
    doc["observables"]["u"]["values"] = [1.0] * 4
    return doc


# sha256 of the JSON that `validate` prints at 20,000 trials and --jobs 1 on
# every _REPORT_CONFIGS entry, on a power pair whose event is not certified
# empty, and on a constant U table (no normalization: the thm31 entry is
# skipped, where `bound` exits 2); the README config also at --jobs 2.
_VALIDATE_CONFIGS = {
    **_REPORT_CONFIGS,
    "power_half_identity": power_doc(0.5, {"form": "identity"}, 0.02, 0.01),
    "finite_constant_u": _constant_u_doc(),
}
_VALIDATE_DIGESTS = {
    ("readme", "1"): "a19b5054810407540fae16657fdde47514d2d0bca88c5f34e66fec564c24100e",
    ("readme", "2"): "a19b5054810407540fae16657fdde47514d2d0bca88c5f34e66fec564c24100e",
    ("heavy_prop11", "1"): "6e3e749b5cb6215234e7db3ed976ecbbf28cc06c30b30730aabbf80cbe0499b3",
    ("finite_four_atoms", "1"): "b814f7679806127877c034e0825d58d0c9f39f066965a11132d2bb85d8c84776",
    ("finite_four_atoms_empty", "1"): "2cf0d57ef37ea3367f6e79bb0265292bf81d5743604a82f8e59e54aee8a09f5a",
    ("finite_three_atoms", "1"): "c3d42c5fdd42017ef745a31d42310a59f9ae12f589db3c1dfda465e494573003",
    ("power_half_identity", "1"): "a6b603cd070f8037da9cc71b2f6185328cacd43f41901998350d923144c147d0",
    ("finite_constant_u", "1"): "c46830d1df4bc23f5a0a8bf5d638a9e5f5c96142965fd1da661bffa62f06f41b",
}


@pytest.mark.parametrize("name, jobs", sorted(_VALIDATE_DIGESTS))
def test_validate_output_matches_golden_digest(tmp_path, capsys, name, jobs):
    cfg = write_config(tmp_path, _VALIDATE_CONFIGS[name])
    argv = ["validate", "--config", cfg, "--trials", "20000", "--jobs", jobs]
    assert _printed_digest(capsys, argv) == _VALIDATE_DIGESTS[name, jobs]


# The fields that moved, at the rounding level, when normalization began to
# rescale each margin oracle in its own kind (the digests above were re-pinned
# then), at their values before; `validate` readme prints the same bytes at
# --jobs 2 as at --jobs 1.  Exponents, bound values and constants moved by at
# most 6.9e-16 (relative), alpha_star by 6.1e-9 (golden refinement lands
# anywhere on a flat top), and the worked example's alphas by 7.8e-10, the
# closed form's maximum against the old grid search's.
_PROP11_BEFORE = {
    "alpha_iii": 0.054801622050140206,
    "alpha_iv": 0.058593206527819415,
    "constant_iii_optimized": 0.0050540072191416355,
    "constant_iv_optimized": 0.03669187519631882,
}
_REPINNED_BEFORE = {
    ("bound", "readme"): {
        **{("prop11", key): value for key, value in _PROP11_BEFORE.items()},
        ("thm31_iii", "exponent"): 5.0924070648846395e-05,
    },
    ("bound", "heavy_prop11"): {
        **{("prop11", key): value for key, value in _PROP11_BEFORE.items()},
        ("thm31_ii_worst_gamma", "alpha_star"): 0.008108876354976001,
        ("thm31_iii", "exponent"): 2.511130564649078e-06,
    },
    ("prop11", ""): {("requested", key): value for key, value in _PROP11_BEFORE.items()},
    ("validate", "readme"): {("bounds", 2, "exponent"): 5.0924070648846395e-05},
    ("validate", "heavy_prop11"): {
        ("bounds", 1, "alpha_star"): 0.008108876354976001,
        ("bounds", 2, "exponent"): 2.511130564649078e-06,
    },
    ("validate", "power_half_identity"): {
        ("bounds", 0, "alpha_star"): 0.11546761918766446,
        ("bounds", 0, "bound_value"): 0.3734218582717247,
        ("bounds", 0, "exponent"): 0.004925232555495035,
        ("bounds", 1, "exponent"): 2.8966135092174326e-06,
    },
}
# (relative, absolute) tolerance by field name; 1e-15 relative for the others
_REPINNED_TOLERANCE = {"alpha_star": (1e-8, 0.0), "alpha_iii": (0.0, 1e-9), "alpha_iv": (0.0, 1e-9)}


@pytest.mark.parametrize("command, name", sorted(_REPINNED_BEFORE))
def test_repinned_digest_fields_stay_within_tolerance_of_their_values_before(tmp_path, capsys, command, name):
    argv = [command]
    if name:
        argv += ["--config", write_config(tmp_path, _VALIDATE_CONFIGS[name])]
    if command == "validate":
        argv += ["--trials", "20000", "--jobs", "1"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    for path, before in _REPINNED_BEFORE[command, name].items():
        value = doc
        for key in path:
            value = value[key]
        rel, tol = _REPINNED_TOLERANCE.get(path[-1], (1e-15, 0.0))
        assert value == pytest.approx(before, rel=rel, abs=tol), path


def _bound_key(entry):
    """The `bound` report key of a thm31 entry of `validate`, or None."""
    if entry["method"] == "thm31_iii":
        return "thm31_iii"
    return {"gamma=exact": "thm31_ii", "gamma=worst_case": "thm31_ii_worst_gamma"}.get(entry["note"])


@pytest.mark.parametrize("name", sorted(_VALIDATE_CONFIGS))
def test_validate_thm31_entries_equal_the_bound_report(tmp_path, capsys, name):
    cfg = write_config(tmp_path, _VALIDATE_CONFIGS[name])
    assert main(["validate", "--config", cfg, "--trials", "100", "--jobs", "1"]) == 0
    entries = json.loads(capsys.readouterr().out)["bounds"]
    if name == "finite_constant_u":
        assert entries[0]["method"] == "thm31_ii" and entries[0]["skipped"]
        assert main(["bound", "--config", cfg]) == 2
        return
    assert main(["bound", "--config", cfg]) == 0
    bound = json.loads(capsys.readouterr().out)
    matched = {_bound_key(entry): entry for entry in entries}
    matched.pop(None, None)  # the quoted constants, the Chernoff rate, skipped entries
    expected = ["thm31_ii", "thm31_iii"]
    if name in ("readme", "heavy_prop11"):  # the preset lists the worst-case gamma too
        expected.append("thm31_ii_worst_gamma")
    assert sorted(matched) == sorted(expected)
    for key, entry in matched.items():
        for field in ("exponent", "alpha_star", "zero_event", "bound_value"):
            assert entry[field] == bound[key][field], (key, field)


def _count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


_ANTI_U = {"form": "table", "values": [1.0, 1.0, -1.0, -1.0]}


# a finite screen that is slack at the plain tilt takes lambda_star's solve:
# lambda_plus binds where E[U] > nu + u there, gamma_plus where E[U] < nu - u,
# so at most one of the two runs its own 2-d ascent
@pytest.mark.parametrize(
    "doc, solves",
    [
        (finite_doc(outputs=[]), 2),  # lambda_star, then lambda_plus binds
        (finite_doc(screen={"epsilon": 0.1, "u": 2.0, "n": 100}, outputs=[]), 1),
        (finite_doc(observables={**finite_doc()["observables"], "u": _ANTI_U}, outputs=[]), 2),
        # lambda_star, lambda_plus: the plain tilt is no point of the heavy tail's domain
        (heavy_tail_doc(screen={"epsilon": 0.03, "u": 0.005, "n": 100}, outputs=[]), 2),
    ],
    ids=["finite", "finite_slack", "finite_gamma_binds", "heavy_tail"],
)
def test_rates_solves_each_rate_once(tmp_path, monkeypatch, capsys, doc, solves):
    calls = []
    _count_calls(monkeypatch, rate_functions, "legendre_sup", calls)
    assert main(["rates", "--config", write_config(tmp_path, doc)]) == 0
    assert len(calls) == solves
    doc = json.loads(capsys.readouterr().out)
    if doc["gamma_plus_star"] is not None:  # finite: each slack variant prints lambda_star's bits
        rates = [doc["lambda_plus_star"], doc["gamma_plus_star"]]
        assert rates.count(doc["lambda_star"]) == 3 - solves
        assert (doc["delta"] == 0.0) is (solves == 1)


@pytest.mark.parametrize(
    "command, name, most",
    [
        ("bound", "finite_four_atoms_empty", 1),
        ("bound", "finite_four_atoms", 2),
        # the preset's gamma = -1 entry reuses the certificate of the exact-gamma one
        ("validate", "readme", 1),
    ],
    ids=["finite_four_atoms_empty-1", "finite_four_atoms-2", "validate-readme-1"],
)
def test_bound_runs_the_zero_event_certificate_once_per_report(
    tmp_path, monkeypatch, capsys, command, name, most
):
    calls = []
    for module in (cli, bound_engine):
        _count_calls(monkeypatch, module, "zero_event_check", calls)
    cfg = write_config(tmp_path, _REPORT_CONFIGS[name])
    assert main([command, "--config", cfg, "--trials", "100", "--jobs", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    zero_event = doc["bounds"][0]["zero_event"] if command == "validate" else doc["zero_event"]
    assert zero_event is (most == 1)
    assert 1 <= len(calls) <= most


@pytest.mark.parametrize("name", ["finite_four_atoms", "finite_four_atoms_empty", "readme"])
def test_bound_decides_the_zero_event_certificate_once(tmp_path, monkeypatch, capsys, name):
    # gamma does not enter the certificate: past a failed one, the gamma = -1
    # report runs only the search over alpha
    certificates, searches = [], []
    _count_calls(monkeypatch, bound_engine, "zero_event_check", certificates)
    for module in (bound_engine, exp_harness):
        _count_calls(monkeypatch, module, "thm31_ii_search", searches)
    assert main(["bound", "--config", write_config(tmp_path, _REPORT_CONFIGS[name])]) == 0
    zero_event = json.loads(capsys.readouterr().out)["zero_event"]
    assert zero_event is (name != "finite_four_atoms")
    assert len(certificates) == 1
    assert len(searches) == (0 if zero_event else 2)


def _bound_margin_calls(tmp_path, monkeypatch, capsys, name):
    """(in the certificate, on an array) for each margin call of one `bound`."""
    calls, in_certificate = [], []
    real_margin, real_check = bound_engine.margin, bound_engine.zero_event_check

    def margin(pair, beta):
        calls.append((bool(in_certificate), isinstance(beta, np.ndarray)))
        return real_margin(pair, beta)

    def check(*args):
        in_certificate.append(True)
        try:
            return real_check(*args)
        finally:
            in_certificate.clear()

    monkeypatch.setattr(bound_engine, "margin", margin)
    monkeypatch.setattr(bound_engine, "zero_event_check", check)
    assert main(["bound", "--config", write_config(tmp_path, _REPORT_CONFIGS[name])]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["zero_event"] is False and "thm31_ii_worst_gamma" in doc
    return calls


def test_heavy_tail_bound_shares_the_alpha_grid_margin(tmp_path, monkeypatch, capsys):
    # one array call for the certificate's beta grid and one for the alpha
    # grid of both searches; the failed certificate is settled on its grid
    calls = _bound_margin_calls(tmp_path, monkeypatch, capsys, "heavy_prop11")
    assert calls.count((True, True)) == 1 and (True, False) not in calls
    assert calls.count((False, True)) == 1 and (False, False) in calls


def _array_margin_sizes(monkeypatch):
    """The sizes of the array calls to ``bound_engine.margin``, as they come."""
    sizes, real_margin = [], bound_engine.margin

    def margin(pair, beta):
        if isinstance(beta, np.ndarray):
            sizes.append(beta.size)
        return real_margin(pair, beta)

    monkeypatch.setattr(bound_engine, "margin", margin)
    return sizes


def test_heavy_tail_alpha_grid_call_holds_the_curved_slice(tmp_path, monkeypatch, capsys):
    # past the certificate's 256-point grid, the one alpha-grid array call
    # holds the 187 points where the margin curves and one more, not 9,999
    sizes = _array_margin_sizes(monkeypatch)
    assert main(["bound", "--config", write_config(tmp_path, _REPORT_CONFIGS["heavy_prop11"])]) == 0
    assert json.loads(capsys.readouterr().out)["zero_event"] is False
    assert sizes == [256, 188]


def test_a_margin_infinite_at_every_alpha_makes_no_alpha_grid_call(tmp_path, monkeypatch, capsys):
    # F = x^0.9, U = x^0.5: the margin is +inf at every beta, so both searches
    # return exponent 0 with no alpha; only the certificate's 256-point grid runs
    sizes = _array_margin_sizes(monkeypatch)
    cfg = write_config(tmp_path, power_doc(0.9, {"form": "power", "exponent": 0.5}, 0.2, 0.01))
    assert main(["bound", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sizes == [256]
    for key in ("thm31_ii", "thm31_ii_worst_gamma"):
        assert doc[key]["exponent"] == 0.0 and doc[key]["alpha_star"] is None


def test_finite_bound_takes_alpha_in_closed_form(tmp_path, monkeypatch, capsys):
    # one array call for the certificate's beta grid; past it, each of the two
    # searches evaluates the margin once, at the alpha its envelope picks
    calls = _bound_margin_calls(tmp_path, monkeypatch, capsys, "finite_four_atoms")
    assert calls.count((True, True)) == 1 and (True, False) not in calls
    # thm31_iii adds one scalar call at beta = 1/(2K)
    assert calls.count((False, True)) == 0 and calls.count((False, False)) == 3


def test_prop11_constants_are_optimized_once_per_process(monkeypatch):
    calls = []
    _count_calls(monkeypatch, bound_engine, "_thm31_ii_on_envelope", calls)
    bound_engine._optimized_constants.cache_clear()
    first = bound_engine.prop11_report(0.2, 0.005, 5000)
    second = bound_engine.prop11_report(0.1, 0.005, 10_000)
    assert len(calls) <= 2
    assert first.constant_iv_optimized == second.constant_iv_optimized


def test_jobs_default_is_read_when_validate_runs(tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    real = cli.run_validation

    def spy(cfg, jobs):
        seen.append(jobs)
        return real(cfg, jobs=1)

    monkeypatch.setattr(cli, "default_jobs", lambda: 5)
    monkeypatch.setattr(cli, "run_validation", spy)
    cfg = write_config(tmp_path, heavy_tail_doc(trials=100))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["validate", "--config", cfg, "--out", str(tmp_path), "--jobs", "2"]) == 0
    assert seen == [5, 2]
