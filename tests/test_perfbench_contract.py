"""The benchmark's span tracer patches nillab names by attribute; each one it
targets must exist, so renaming or deleting one fails here rather than in a
traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

import nillab
import nillab.cli  # noqa: F401  (loads every module the tracer patches)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing(targets):
    out = []
    for owner, attr, *_ in targets:
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        if not found:
            out.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return out


def test_meter_targets_resolve(tracing):
    targets = tracing.meter_targets(nillab)
    assert targets and _missing(targets) == []


def test_full_targets_resolve(tracing):
    targets = tracing.full_targets(nillab, tracing.Tracer())
    assert len(targets) > len(tracing.meter_targets(nillab))
    assert _missing(targets) == []
