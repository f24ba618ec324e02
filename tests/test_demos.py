"""Every demo script runs to completion against the package's current API,
each in a fresh interpreter, with no arguments and no dataset files.
Demos 02, 03, 04 and 06 also run the noise loop the way a direct, serial
call does.  ``PREALIGN_DATA_DIR`` is removed from the demos' environment,
so demo 03 stays on synthetic blobs whatever data directory is set.  A demo
leaves no ``prealign-demo-*`` directory behind in the temporary directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", [
    "01_two_backward_rules.py",
    "02_alignment_from_noise.py",
    "03_pretraining_pays_off.py",
    "04_spectral_toolkit.py",
    "05_runner_end_to_end.py",
    "06_fast_adaptation.py",
])
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env.pop("PREALIGN_DATA_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert not list(tmp_path.glob("prealign-demo-*"))
