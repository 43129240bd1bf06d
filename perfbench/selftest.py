"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Each test runs perfbench/run.py in a subprocess for a second or two per
phase, as the benchmark is meant to be run.  The file is not named
test_*.py, so the repository's own test run does not collect it.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    cmd = [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=False)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_metric_with_unit(workload, trace, kind):
    proc = run("--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace))
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = proc.stdout.splitlines()[:-1]
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in printed), name
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_exactly_across_seeds():
    counts = []
    for seed in ("1", "2"):
        metrics = result_of(run("--workload", "episode-noise", "--seed", seed,
                                "--seconds", "2", "--trace", "1"))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith(("calls_per_op", "_per_backward", "tensors_per_op"))})
    assert counts[0] == counts[1]
    assert counts[0]["model.encode_image.calls_per_op"] > 0


def test_tampered_checkpoint_is_rejected(tmp_path):
    original = HERE / "checkpoint" / "pretrained.tptw"
    raw = bytearray(original.read_bytes())
    raw[-1] ^= 0x01
    tampered = tmp_path / "tampered.tptw"
    tampered.write_bytes(bytes(raw))
    truncated = tmp_path / "truncated.tptw"
    truncated.write_bytes(original.read_bytes()[:1000])
    for path in (tampered, truncated):
        proc = run("--workload", "episode-noise", "--seconds", "1",
                   "--checkpoint", str(path))
        assert proc.returncode != 0
        assert "sha256" in proc.stderr
        assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_forced_check_failure_is_counted(workload):
    proc = run("--workload", workload, "--seconds", "1", "--inject-fault", "0")
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    meta = json.loads(next(line[len("# meta "):] for line in proc.stdout.splitlines()
                           if line.startswith("# meta ")))
    assert meta["error_rate"] == result["failed"] / result["attempted"] > 0


def test_fails_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "episode-noise", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
