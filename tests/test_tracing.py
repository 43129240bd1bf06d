"""The benchmark's tracer (perfbench/tracing.py) patches tpt functions and
methods by name.  A refactor that drops or renames one of them would
make `perfbench/run.py --trace 1` fail at set-up with AttributeError."""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


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
