"""Every demo script runs cleanly as its own process, as a reader would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )


def test_demos_are_found():
    assert DEMOS, "no demos/*.py found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    result = _run(demo)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_bisimulation_demo_reports_each_verdict():
    lines = _run(ROOT / "demos" / "02_bisimulation_checks.py").stdout.splitlines()
    assert any(line.endswith("still true by construction): True") for line in lines)
    assert "  precondition violation at l3: missing {acc, n}" in lines
    assert "  prediction violation on edge l1 -> l2: excess {ghost}" in lines
