"""The demonstration scripts stay runnable."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"
SCRIPTS = sorted(DEMO_DIR.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_demos_exist():
    assert len(SCRIPTS) >= 5
