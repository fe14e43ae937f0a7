"""Every script in ``demos/`` runs to completion.

Each demo runs in a fresh interpreter with ``PYTHONPATH`` set to this
checkout's ``src``, so a public-API change that a demo still uses the
old way fails here instead of in a reader's terminal.  A RuntimeWarning
is an error there, as it is in the test suite.  The trajectory
demo writes its CSVs under ``demos/out/``, which git ignores.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import screened_mc as sm

_SRC = Path(sm.__file__).resolve().parents[1]
_DEMOS = sorted((_SRC.parent / "demos").glob("[0-9][0-9]_*.py"))


def test_every_demo_is_collected():
    assert len(_DEMOS) == 5


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    path = os.pathsep.join([str(_SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
