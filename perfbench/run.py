"""nillab benchmark: run one workload once and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload standard-run --seed 0 --seconds 20 --trace 0

The workload repeats its unit of work until ``--seconds`` would be exceeded
(at least once) and reports its fastest repetition: on a shared host,
contention only ever slows a repetition down.  Set-up is the median of
several fresh interpreters.  Correctness checks run outside the timed
region.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` repeats the untraced measurement,
then makes one traced repetition and reports the per-layer metrics.  The
last line of standard output is one JSON object; the lines before it give
the same numbers for people.  Outputs and span files go to
``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Checks, TwoRouteParallel  # noqa: E402

MODULES = ("engine", "dynamics", "observables", "moebius", "diagnostics", "heisenberg",
           "fixedpoint", "reports", "config", "cli")


def load_nillab() -> SimpleNamespace:
    """nillab from this checkout's ``src``; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "nillab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nillab sources in {src}")
    sys.path.insert(0, str(src))
    import importlib

    mods = {m: importlib.import_module(f"nillab.{m}") for m in MODULES}
    if Path(mods["engine"].__file__).resolve().parent != (src / "nillab").resolve():
        raise SystemExit("perfbench: imported a nillab that is not this checkout's")
    return SimpleNamespace(**mods)


def setup_seconds(ini: Path) -> float:
    """Median set-up time over fresh interpreters (import, load, build)."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), str(ini)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def measure(wl, seconds: float, checks: Checks, records: list) -> list:
    """Whole repetitions until the next one would overrun ``seconds``."""
    reps, cycles = [], []
    started = time.perf_counter()
    while True:
        mark = len(records)
        t0 = time.perf_counter()
        reps.append(wl.rep(lambda: tracing.stream_time(records[mark:])))
        wl.check_rep(checks)
        cycles.append(time.perf_counter() - t0)
        if time.perf_counter() - started + statistics.median(cycles) > seconds:
            return reps


def traced_metrics(wl, nl, checks: Checks, untraced_wall: float, out: Path) -> dict:
    extra = {"engine.scaling_efficiency": 0.0}
    if isinstance(wl, TwoRouteParallel):
        extra["engine.scaling_efficiency"] = wl.one_worker(checks) / (2 * untraced_wall)
    tracer = tracing.Tracer()
    with tracer.install(tracing.full_targets(nl, tracer)):
        wl.prepare()
        rep = wl.rep(lambda: tracing.stream_time(tracer.records))
    wl.check_rep(checks)
    tracer.save(out / "trace.npz")
    metrics = tracing.layer_metrics(tracer.records)
    metrics.update(extra)
    metrics["trace.overhead_s"] = rep.wall - untraced_wall
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nl = load_nillab()
    os.environ.pop("LAB_WORKERS", None)
    out = ROOT / ".perfbench_out" / args.workload
    wl = WORKLOADS[args.workload](nl, ROOT, out, args.seed)
    ini = wl.write_config()
    checks = Checks()

    setup = None if args.trace else setup_seconds(ini)
    wl.prepare()
    meter = tracing.Tracer()
    with meter.install(tracing.meter_targets(nl)):
        reps = measure(wl, args.seconds, checks, meter.records)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / "reps.json").write_text(json.dumps([vars(r) for r in reps]), encoding="utf-8")
    wall = min(r.wall for r in reps)
    rate = max(r.work / r.work_time for r in reps)

    if args.trace:
        values = traced_metrics(wl, nl, checks, wall, out)
        wanted = bench["per_layer"]
    else:
        values = {"setup_s": setup, "wall_s": wall, "work_per_s": rate, "peak_rss_mb": peak_mb}
        wanted = bench["end_to_end"]
    wl.final_checks(checks)

    failed = len(checks.failed)
    notes = {
        "setup_s": f"median of {SETUP_PROBES} set-ups",
        "wall_s": f"fastest of {len(reps)} repetitions",
        "work_per_s": f"{wl.rate_name}, fastest of {len(reps)} repetitions",
    }
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} untraced repetitions")
    for m in wanted:
        note = notes.get(m["name"], "") if not args.trace else ""
        print(f"  {m['name']:<32} {values[m['name']]:.6g} {m['unit']}  {note}".rstrip())
    if args.trace:
        print(f"  not measured from outside: {tracing.UNMEASURED}")
    print(f"  {'failed_share':<32} {failed / checks.attempted:.6g}  "
          f"({failed} of {checks.attempted} checks)")
    for name in sorted(set(checks.failed))[:20]:
        print(f"perfbench: FAILED check: {name}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
