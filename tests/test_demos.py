"""Each demo script runs to completion in a fresh interpreter, and each
command of the README's Command line block exits 0.

The package imports NumPy only where arrays are used, so a name a demo
still needs from a lazily imported module shows up here as a failure.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from phasebounds.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCK = re.search(r"## Command line\n\n```bash\n(.*?)```",
                         (ROOT / "README.md").read_text(), re.S).group(1)
README_COMMANDS = [shlex.split(line, comments=True)[1:] for line in README_BLOCK.splitlines()
                   if line.startswith("phasebounds ")]


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_readme_has_commands():
    assert len(README_COMMANDS) >= 5


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[" ".join(a) for a in README_COMMANDS])
def test_readme_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err
