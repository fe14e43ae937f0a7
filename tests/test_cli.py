import hashlib
import json
import math

import pytest

from screened_mc import bound_engine, cli, rate_functions
from screened_mc.cli import main


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
        # a seed is one 64-bit Philox key word: nothing outside it is masked into it
        ({"seed": -1}, "seed"),
        ({"seed": 1 << 64}, "seed"),
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
# the CSV format together.
_SIMULATE_DIGESTS = {
    "two_sided": {
        "summary.json": "9c97bd832b1112ae6992362e92b03aeba9c878d3c2605419b50f195d0b760b95",
        "traj_000.csv": "6656366626d83800d027dbbbfaef895e656d11d7dbc375bb20cfe5b4a430897d",
        "traj_001.csv": "982620df03c34fa884c9a1ea4edc843ae163b26c793a158888a24ffb3a2bac76",
        "traj_002.csv": "c8da3bd1a1d0888e95cc86842a78be2933179965c5a416fee845e41446a7a59c",
    },
    "one_sided": {
        "summary.json": "703aa43b8bc035c1eeb1b658b91f835efbc7072ca144c8a7cdd2691b54e8dad3",
        "traj_000.csv": "834c611d2c173cf9efb7fc70619bc9995d37cfb4565f13fbc392694355db7be4",
        "traj_001.csv": "4b64506d31831019aa02c78190720b162a407c22fb160510623bb15da1413aa2",
        "traj_002.csv": "83523b57ac775f34f06795599cf16d47ae00f32545cd1f07f109de3ede5254db",
    },
}


@pytest.mark.parametrize("sidedness", sorted(_SIMULATE_DIGESTS))
def test_simulate_outputs_match_golden_digests(tmp_path, sidedness):
    doc = heavy_tail_doc(
        screen={"epsilon": 0.5, "u": 0.025, "n": 1000, "sidedness": sidedness},
        trials=3,
        seed=20240808,
        outputs=[
            {"kind": "trajectory_csv", "path": "traj.csv"},
            {"kind": "report", "path": "summary.json"},
        ],
    )
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == _SIMULATE_DIGESTS[sidedness]


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
    ("bound", "readme"): "a0dd13d380c5446d00b46ba0938efe83b9b0c152aabb4554f6a2350008b21bd9",
    ("rates", "readme"): "70c75c123d400862bdcdcadfa445e70befb9e8de2fa2d634b9cbe8e9270a9297",
    ("bound", "heavy_prop11"): "e65b3abc3d9619d466c26508f7525c7a1aa558de6c4b278016c692799425a143",
    ("rates", "heavy_prop11"): "7c768a03205c775e56534b4b02414de5497889a54457e0a4ed4d9ca62adc8cc5",
    ("bound", "finite_four_atoms"): "6a1cf4bc2e8f3b4fa83693241a8995b9c292085348061dcdf63f379d5b0b30dc",
    ("rates", "finite_four_atoms"): "74979c4c2de434edf2f826c2b4040772d212f7f3fdcd7f27db493cb5a744ce52",
    ("bound", "finite_four_atoms_empty"): "8d9bf17930331753ed1cf9ca0b7cfba8e2a4e34ce0ce6e93a1aed1dc4454d1d0",
    ("rates", "finite_four_atoms_empty"): "2d6b14b8442e0838c9c281187c9dd548a3a5e27e3454e0cdcfc4861ce8eba204",
    ("bound", "finite_three_atoms"): "eb4839af4229b98d0b2d224a572035fb16d72d79444cc6e183eba835316a139b",
    ("rates", "finite_three_atoms"): "e0b39ff55a8801626a8af8cf5404a722520ee016575f3eb802eae5a2f757a72e",
    ("prop11", ""): "fa01693d956ea96979dc2e33b701f79007f47f53d1da6581363cd26825cd4e9f",
    ("sanov", "finite_four_atoms"): "99fc929d02b0860bce579df6002248b7bbf801dc61df28a090b3836fe8e3fc7d",
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


def _count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "doc, solves",
    [
        (finite_doc(outputs=[]), 3),  # lambda_star, lambda_plus, gamma_plus
        (heavy_tail_doc(screen={"epsilon": 0.03, "u": 0.005, "n": 100}, outputs=[]), 2),
    ],
    ids=["finite", "heavy_tail"],
)
def test_rates_solves_each_rate_once(tmp_path, monkeypatch, capsys, doc, solves):
    calls = []
    _count_calls(monkeypatch, rate_functions, "legendre_sup", calls)
    assert main(["rates", "--config", write_config(tmp_path, doc)]) == 0
    assert len(calls) == solves


@pytest.mark.parametrize("name, most", [("finite_four_atoms_empty", 1), ("finite_four_atoms", 2)])
def test_bound_runs_the_zero_event_certificate_once_per_report(
    tmp_path, monkeypatch, capsys, name, most
):
    calls = []
    for module in (cli, bound_engine):
        _count_calls(monkeypatch, module, "zero_event_check", calls)
    assert main(["bound", "--config", write_config(tmp_path, _REPORT_CONFIGS[name])]) == 0
    assert json.loads(capsys.readouterr().out)["zero_event"] is (most == 1)
    assert 1 <= len(calls) <= most


def test_prop11_constants_are_optimized_once_per_process(monkeypatch):
    calls = []
    _count_calls(monkeypatch, bound_engine, "_maximize_restricted", calls)
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
