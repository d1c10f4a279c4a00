"""Smoke test: the experiment scripts run end to end on one small fixture."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, header", [
    ("run_ablation.py", ["options", "sum", "objective", "agreement"]),
    ("bitwidth_sweep.py", ["fixture", "method", "fp", "top1"]),
])
def test_script_runs_on_tiny_fixture(script, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--fixtures",
         "tiny-mvit-ln", "--candidates", "2", "--iterations", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert any(line.split()[:len(header)] == header
               for line in result.stdout.splitlines())
