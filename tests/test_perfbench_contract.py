"""The benchmark's span tracer patches nillab names by attribute; each one it
targets must exist, so renaming or deleting one fails here rather than in a
traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

import nillab
import nillab.cli  # noqa: F401  (loads every module the tracer patches)
from nillab.config import standard_config

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


def test_run_streams_what_work_per_s_divides(tracing, tmp_path, capsys):
    """``work_per_s`` divides the steps the stream spans count: a ``run`` to N
    makes two skew streams (correlate, davenport), one pair route of p*N steps
    and one joining stream (Weyl).  Work moved between these calls changes the
    metric without changing speed, so it must fail here first."""
    cfg = standard_config(checkpoints=(200, 500), sieve_bound=500, segment_size=128,
                          workers=2, out_dir=str(tmp_path / "out"), coboundary_cutoff=8)
    (tmp_path / "cfg.ini").write_text(cfg.to_ini())
    meter = tracing.Tracer()
    with meter.install(tracing.meter_targets(nillab)):
        assert nillab.cli.main(["run", "--config", str(tmp_path / "cfg.ini")]) == 0
    assert sorted(r[2] for r in meter.records) == [
        "engine.stream.joining", "engine.stream.pair", "engine.stream.skew", "engine.stream.skew",
    ]
    n = cfg.checkpoints[-1]
    assert tracing.stream_time(meter.records)[1] == n + cfg.p * n + n + n
