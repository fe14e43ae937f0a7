"""The package runs on numpy alone.

scipy is a test and benchmark dependency only: no module imports it, and
every command, the entropy oracle's `sanov` included, runs where it is
missing.  Each check runs in a fresh interpreter, since the test process
has loaded scipy already.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import screened_mc as sm

_ORACLE_NAMES = ["SanovResult", "duality_suite", "relative_entropy", "sanov_rate"]

# the README config
_README = {
    "model": {"kind": "pareto_like"},
    "observables": {"preset": "heavy_tail"},
    "screen": {"epsilon": 0.5, "u": 0.025, "n": 200, "sidedness": "two_sided"},
    "trials": 1000000,
    "seed": 20240808,
    "outputs": [{"kind": "report", "path": "report.json"}],
}
# the four-atom config of the golden `rates` digest: its lambda+ tilt is interior in 2-d
_FINITE = {
    "model": {"kind": "finite_support", "atoms": [1.0, 2.0, 3.0, 4.0], "probs": [0.25] * 4},
    "observables": {
        "f": {"form": "table", "values": [-2.0**0.5, 0.0, 0.0, 2.0**0.5]},
        "u": {"form": "table", "values": [-1.0, -1.0, 1.0, 1.0]},
    },
    "screen": {"epsilon": 0.1, "u": 0.05, "n": 100},
    "trials": 2000,
    "seed": 7,
}


def _fresh(script):
    """Run ``script`` in a new interpreter that imports from this ``src``; return its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _scipy_loaded_after(script):
    return json.loads(_fresh(script + "\nimport sys\nprint('scipy' in sys.modules)\n").lower())


@pytest.mark.parametrize("module", ["screened_mc", "screened_mc.cli", "screened_mc.exp_harness"])
def test_importing_the_package_leaves_scipy_out(module):
    assert not _scipy_loaded_after(f"import {module}")


def test_bound_on_the_readme_config_leaves_scipy_out(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_README))
    script = (
        "import contextlib, io\n"
        "from screened_mc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['bound', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
    )
    assert not _scipy_loaded_after(script)


def test_rates_on_a_finite_config_leaves_scipy_out(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_FINITE))
    script = (
        "import contextlib, io\n"
        "from screened_mc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['rates', '--config', {str(cfg)!r}]) == 0\n"
    )
    assert not _scipy_loaded_after(script)


def test_every_command_in_one_interpreter_leaves_scipy_out(tmp_path):
    readme, finite = tmp_path / "readme.json", tmp_path / "finite.json"
    readme.write_text(json.dumps(_README))
    finite.write_text(json.dumps(_FINITE))
    out = ["--out", str(tmp_path), "--jobs", "1"]
    runs = [
        ["bound", "--config", str(readme), *out],
        ["rates", "--config", str(finite), *out],
        ["sanov", "--config", str(finite), *out],
        ["validate", "--config", str(readme), "--trials", "200", *out],
        ["simulate", "--config", str(finite), "--trials", "3", *out],
        ["prop11"],
    ]
    script = (
        "import contextlib, io\n"
        "from screened_mc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert [main(args) for args in {runs!r}] == [0] * {len(runs)}\n"
    )
    assert not _scipy_loaded_after(script)


def test_the_oracle_runs_where_scipy_is_missing(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_FINITE))
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from screened_mc import sanov_rate\n"
        "from screened_mc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['sanov', '--config', {str(cfg)!r}]) == 0\n"
    )
    _fresh(script)


def test_the_oracle_names_resolve_to_the_oracle():
    from screened_mc import sanov_oracle

    assert sm.sanov_oracle is sanov_oracle
    for name in _ORACLE_NAMES:
        assert getattr(sm, name) is getattr(sanov_oracle, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        sm.no_such_name


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from screened_mc import *", namespace)
    assert set(sm.__all__) <= namespace.keys()
    assert set(_ORACLE_NAMES) <= set(sm.__all__)


def test_dir_lists_the_oracle_names():
    assert {*_ORACLE_NAMES, "sanov_oracle", "run_validation"} <= set(dir(sm))


def test_no_module_holds_a_large_array_after_import():
    # tables the package needs are built on first use, so a process that
    # never asks for them (every CLI call, every pool worker) never holds them
    script = (
        "import importlib, pkgutil\n"
        "import numpy as np\n"
        "import screened_mc\n"
        "for info in pkgutil.iter_modules(screened_mc.__path__):\n"
        "    if info.name == '__main__':\n"
        "        continue\n"
        "    module = importlib.import_module('screened_mc.' + info.name)\n"
        "    for name, value in vars(module).items():\n"
        "        if isinstance(value, np.ndarray) and value.nbytes > 64 * 1024:\n"
        "            print(f'{info.name}.{name}: {value.nbytes} bytes')\n"
    )
    assert _fresh(script) == ""


_ROOT = pathlib.Path(__file__).resolve().parents[1]
# public names no production path, demo or benchmark uses, each with its reason
_TEST_ONLY_NAMES = {
    "bennett_log_mgf_bound": "a proof lemma of thm31(ii); acceptance criterion 8 checks it",
    "binary_kl": "a proof lemma of thm31(ii); acceptance criterion 8 checks it",
    "pinsker_lower": "a proof lemma of thm31(ii); acceptance criterion 8 checks it",
}
# reference paths that moved to tests/reference.py, and a wrapper and an error class deleted
_REMOVED_NAMES = [
    "StreamState",
    "update_stream",
    "screen_decision",
    "control_variate_estimate",
    "exact_moments",
    "thm31_ii_exponent_at",
    "log_mgf_joint",
    "EmptyStreamError",
]


def _names_used_outside_tests():
    """Every name, attribute and string constant read in src/ (but for
    __init__.py), demos/ and perfbench/; a name only imported is not read."""
    paths = [p for p in (_ROOT / "src" / "screened_mc").glob("*.py") if p.name != "__init__.py"]
    paths += [*(_ROOT / "demos").glob("*.py"), *(_ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)  # the benchmark's tracer hooks attributes by name
    return used


def test_every_public_name_has_a_use_outside_the_tests():
    # a reference path only tests call belongs in tests/reference.py, not in the API
    unused = set(sm.__all__) - _names_used_outside_tests()
    assert unused == set(_TEST_ONLY_NAMES)


def test_the_removed_names_no_longer_resolve():
    for name in _REMOVED_NAMES:
        assert name not in sm.__all__
        assert not hasattr(sm, name), name


def test_the_module_level_caches_are_the_known_two():
    # a module-level cache rebinds its name under `global`
    rebound = set()
    for path in (_ROOT / "src" / "screened_mc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Global):
                rebound.update(f"{path.stem}.{name}" for name in node.names)
    assert rebound == {"dist_models._LAST_LOG_MGF", "exp_harness._POOL"}
