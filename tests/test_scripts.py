"""Smoke test: the experiment scripts run end to end on one small fixture."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("script, header", [
    ("run_ablation.py", ["options", "sum", "objective", "agreement"]),
    ("bitwidth_sweep.py", ["fixture", "method", "fp", "top1"]),
])
def test_script_runs_on_tiny_fixture(script, header):
    result = run_script(script, "--fixtures", "tiny-mvit-ln", "--candidates",
                        "2", "--iterations", "1")
    assert result.returncode == 0, result.stderr
    assert any(line.split()[:len(header)] == header
               for line in result.stdout.splitlines())


def test_default_fingerprint_check_passes_on_one_fixture():
    result = run_script("default_fingerprints.py", "--check", "--fixtures",
                        "tiny-mvit-ln", "--bits", "8")
    assert result.returncode == 0, result.stderr
    assert ("| tiny-mvit-ln | 8 | 1ec590191eec | 9544 | 0x1.f09b98ecbde7fp-8 |"
            in result.stdout)
    assert result.stdout.rstrip().endswith("| equal |")


# a bad flag is a usage error: exit 2 and one argparse error line, no traceback
@pytest.mark.parametrize("script", ["run_ablation.py", "bitwidth_sweep.py"])
@pytest.mark.parametrize("args, message", [
    (["--fixtures", "nope"], "invalid choice: 'nope'"),
    (["--fixtures", "tiny-mvit-ln", "nope"], "invalid choice: 'nope'"),
    (["--candidates", "0"], "need at least one scale candidate"),
    (["--iterations", "0"], "need at least one alternation round"),
], ids=["fixture", "second-fixture", "candidates", "iterations"])
def test_script_refuses_a_bad_flag(script, args, message):
    result = run_script(script, *args)
    assert result.returncode == 2
    assert result.stdout == "" and "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0], result.stderr
