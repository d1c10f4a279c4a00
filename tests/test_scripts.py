"""Smoke test: the experiment scripts run end to end on one small fixture."""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_never_run_lines_lists_what_a_run_skips(tmp_path):
    # a run that calls grid_range with a valid width reaches its return but
    # not its refusal
    from hyquant import quant
    test = tmp_path / "test_one.py"
    test.write_text("from hyquant.quant import grid_range\n\n\n"
                    "def test_width_8():\n"
                    "    assert grid_range(8) == (-128, 127)\n")
    result = run_script("never_run_lines.py", str(test), "-p",
                        "no:cacheprovider")
    assert result.returncode == 0, result.stderr
    assert "1 passed" in result.stderr
    *listed, count = result.stdout.splitlines()
    missed, total = (int(w) for w in count.split()[0:3:2])
    assert count.endswith("executable lines never run")
    assert 0 < missed == len(listed) < total
    source, first = inspect.getsourcelines(quant.grid_range)
    at = {key: f"src/hyquant/quant.py:{first + i}:" for i, line in
          enumerate(source) for key in ("raise", "return") if key in line}
    assert any(line.startswith(at["raise"]) for line in listed)
    assert not any(line.startswith(at["return"]) for line in listed)


def test_check_erf_stops_at_the_first_mismatch(monkeypatch, capsys):
    # two chunks of 2^16 patterns: the real erf passes them, and one with a
    # single wrong bit fails at that bit pattern
    pytest.importorskip("scipy.special")
    spec = importlib.util.spec_from_file_location(
        "check_erf", ROOT / "scripts" / "check_erf.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    monkeypatch.setattr(check, "CHUNK", 1 << 16)
    monkeypatch.setattr(check, "CHUNKS", 2)
    assert check.main() == 0
    assert capsys.readouterr().out.startswith(
        "0 mismatches in 131072 float32 inputs")

    def off_by_one_bit(y, out):
        check._erf(y, out)
        out.view(np.uint32)[y.view(np.uint32) == 0x00012345] ^= 1

    assert check.main(erf=off_by_one_bit) == 1
    assert capsys.readouterr().out.startswith(
        "mismatch at bit pattern 0x00012345")
