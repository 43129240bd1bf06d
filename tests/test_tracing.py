"""The benchmark (perfbench/) calls tpt functions, and its tracer
(perfbench/tracing.py) patches tpt functions and methods, by name.  A
refactor that drops, renames or re-signs one of them would make a
benchmark run fail: at set-up with AttributeError, or op by op."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


@pytest.fixture(scope="module")
def targets(tracing):
    return tracing.span_targets() + tracing.count_targets()


def test_every_target_resolves(targets):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if not hasattr(owner, attr)]
    assert not missing


def test_install_and_uninstall(tracing, targets):
    originals = [getattr(owner, attr) for owner, attr, _ in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.active
        patched = [getattr(owner, attr) for owner, attr, _ in targets]
        assert all(p is not o for p, o in zip(patched, originals))
    finally:
        tracer.uninstall()
    assert not tracer.active
    assert all(getattr(owner, attr) is o
               for (owner, attr, _), o in zip(targets, originals))


def test_benchmark_runs_every_workload(tmp_path):
    """A short run of every workload, in a copy of the checkout (run.py
    imports tpt from the src/ next to it and writes under perfbench/out)."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seconds", "0.3",
         "--seed", "5"], cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["correct"]
