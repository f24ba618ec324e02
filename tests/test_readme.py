"""README's examples run as written.  Every fenced ``python`` block runs in
order in one fresh interpreter, with ``PREALIGN_DATA_DIR`` removed, so they
need no dataset files; the Quickstart's comments on the angles hold.  The
full commands of the verb table build the configs they state."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from prealign.runner.cli import _build_config, _build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_python_blocks_run_in_order(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PREALIGN_DATA_DIR", None)
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", "\n".join(blocks)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    before, after = map(float, result.stdout.splitlines()[:2])
    assert 85.0 < before < 95.0 and after < 80.0, result.stdout


def test_verb_table_commands_build_their_configs():
    commands = re.findall(r"`prealign ((?:pretrain|train) [^`]*)`", README)
    stated = {
        "pretrain": ("fa_pre", "out/noise"),
        "train": ("fa_pre", "out/fa_pre"),
    }
    assert sorted(c.split()[0] for c in commands) == sorted(stated)
    for command in commands:
        cfg = _build_config(_build_parser().parse_args(shlex.split(command)))
        variant, output_dir = stated[command.split()[0]]
        assert cfg.dims == (784, 100, 10)
        assert [v.name for v in cfg.variants] == [variant]
        assert cfg.output_dir == output_dir
