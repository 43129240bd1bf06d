"""Smoke test of tools/stages.py: it runs and prints a median per stage
and of the faults, in all and by part, and refuses more samples than its
split holds.  It runs in a process of its own, because the tool fixes
malloc's mmap threshold in the process that imports it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def run_stages(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "tools" / "stages.py"), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_stages_prints_the_medians_of_two_episodes():
    proc = run_stages("--samples", "2", "--passes", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("2 samples, median of pass 1, mmap threshold ")
    medians = json.loads(lines[-1])
    assert set(medians) == {"views", "encode", "tune", "predict", "total", "faults",
                            "views_faults", "encode_faults", "rest_faults"}
    assert all(v >= 0 for v in medians.values()) and medians["total"] > 0
    assert lines[-2].startswith("faults ") and "(views " in lines[-2]


def test_stages_refuses_more_samples_than_the_split_holds():
    proc = run_stages("--samples", "600", "--passes", "1")
    assert proc.returncode == 2
    assert "--samples must be at most 512, the size of the split" in proc.stderr
    assert "Traceback" not in proc.stderr
