"""Smoke test of tools/stages.py: it runs and prints a median per stage.
It runs in a process of its own, because the tool fixes malloc's mmap
threshold in the process that imports it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_stages_prints_the_medians_of_two_episodes():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "stages.py"),
                           "--samples", "2", "--passes", "1"],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("2 samples, median of pass 1, mmap threshold ")
    medians = json.loads(lines[-1])
    assert set(medians) == {"views", "encode", "tune", "predict", "total", "faults"}
    assert all(v >= 0 for v in medians.values()) and medians["total"] > 0
