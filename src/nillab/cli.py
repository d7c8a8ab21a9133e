"""Command-line experiment runner.

Subcommands: verify, sieve, orbit, reduce-joining, winding, run, and one per
experiment of the registry ``EXPERIMENTS`` (correlate, bilinear, davenport,
weyl, constants, coboundary).  Most commands read an INI config (``--config``,
default the in-repo standard baseline) and accept only the overrides they
read: ``run`` and the experiment subcommands ``--out``, ``--workers``,
``--segment-size`` and ``--checkpoints``; ``orbit`` ``--out`` and
``--checkpoints``; ``sieve`` ``--out``; ``reduce-joining`` and ``winding``
none.  The worker count comes from ``[run] workers`` and ``--workers`` alone.

An experiment subcommand writes that experiment's reports and prints its
summary entries and the files written.  ``run`` executes every experiment
enabled in the config, writes CSV reports with JSON sidecars, and finishes
with a manifest listing each emitted file with its SHA-256.  Report files are
byte-identical across reruns of the same config; only the manifest carries
timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import sys
import time
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .config import FIELDS, SOFT_THRESHOLDS, ExperimentConfig, load_config, standard_config
from .diagnostics import coboundary_search, proof_constants, weyl_sums, winding_in_x
from .engine import OrbitSegmentPlan, PairScan, orbit_points
from .moebius import (
    MAX_SIEVE,
    MobiusTable,
    bilinear_sum,
    bilinear_sum_reduced,
    correlation_sum,
    davenport_baseline,
    sieve_mobius,
)
from .reports import (
    _write_lines,
    correlation_sidecar,
    file_sha256,
    fmt17,
    write_correlation_csv,
    write_json,
    write_orbit_csv,
    write_weyl_csv,
)
from .verify import run_verify


# the overrides a subcommand may accept besides --config
_OPTIONS = {
    "--out": dict(type=str, help="output directory"),
    "--workers": dict(type=int, help="worker threads"),
    "--segment-size": dict(type=int, help="orbit segment size (power of two)"),
    "--checkpoints": dict(type=str, help="comma-separated checkpoint list"),
}


def _add_options(p: argparse.ArgumentParser, *names: str):
    """``--config`` plus the overrides ``names``: only those the command reads."""
    p.add_argument("--config", type=str, default=None, help="INI config path")
    for name in names:
        p.add_argument(name, **_OPTIONS[name])
    # an override the command does not accept reads as None in ``_load``
    p.set_defaults(out=None, workers=None, segment_size=None, checkpoints=None)


def _check_plan_option(option: str, **field) -> None:
    """Check a segment-plan option with the plan's own rule, naming it as typed."""
    try:
        OrbitSegmentPlan(1, **field)
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _count_option(option: str, value: int, least: int) -> int:
    if value < least:
        raise ValueError(f"{option} = {value} must be at least {least}")
    return value


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else standard_config()
    patch = {}
    if args.out is not None:
        patch["out_dir"] = FIELDS["out_dir"].read(args.out, "--out")
    if args.workers is not None:
        _check_plan_option("--workers", worker_count=args.workers)
        patch["workers"] = args.workers
    if args.segment_size is not None:
        _check_plan_option("--segment-size", segment_size=args.segment_size)
        patch["segment_size"] = args.segment_size
    if args.checkpoints is not None:
        patch["checkpoints"] = FIELDS["checkpoints"].read(args.checkpoints, "--checkpoints")
    if patch:
        cfg = dataclasses.replace(cfg, **patch).validate()
    return cfg


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_verify(args) -> int:
    results, ok = run_verify(fault=args.inject_fault)
    for name, passed, detail in results:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    print(f"verify: {'all suites passed' if ok else 'FAILURES detected'}")
    return 0 if ok else 1


def cmd_sieve(args) -> int:
    cfg = _load(args)
    bound = cfg.sieve_bound if args.bound is None else args.bound
    if not 1 <= bound <= MAX_SIEVE:
        raise ValueError(f"--bound = {bound} must be in [1, {MAX_SIEVE}]")
    t0 = time.perf_counter()
    table = sieve_mobius(bound)
    secs = time.perf_counter() - t0
    print(f"sieved mu to {bound} in {secs:.2f} s ({bound / secs:.3g} ints/s)")
    rows = []
    n = 1000
    while n <= bound:
        m = table.mertens(n)
        rows.append((n, m))
        print(f"M({n}) = {m}")
        n *= 10
    if args.out:
        out = _outdir(cfg)
        _write_lines(out / "mertens.csv", ["N,mertens"] + [f"{n},{m}" for n, m in rows])
        print(f"wrote {out / 'mertens.csv'}")
    return 0


def cmd_orbit(args) -> int:
    cfg = _load(args)
    sys_ = cfg.system()
    if args.n is None:
        ns = list(cfg.checkpoints)
    else:
        ns = list(range(1, _count_option("--n", args.n, 1) + 1))
    rows = orbit_points(sys_, None, ns)
    out = _outdir(cfg)
    write_orbit_csv(out / "orbit.csv", rows)
    for row in rows[:10]:
        print(f"n={row[0]}: ({fmt17(row[1])}, {fmt17(row[2])}, {fmt17(row[3])})")
    print(f"wrote {out / 'orbit.csv'}")
    return 0


def cmd_reduce_joining(args) -> int:
    cfg = _load(args)
    js = cfg.joining()
    w = winding_in_x(js.H_lift(), 0.37, js.lipschitz_H)
    print(f"prime pair      : p={js.p}, q={js.q}")
    print(f"twist p^2-q^2   : {js.twist}")
    print(f"H winding in x  : {w} (expected {js.twist * js.base.h.d1})")
    print(f"Lipschitz bound : {js.lipschitz_H:.6g}")
    from .verify import suite_commutation

    name, ok, detail = suite_commutation(np.random.default_rng(0))
    print(f"commutation     : {'ok' if ok else 'BROKEN'} ({detail})")
    return 0 if ok and w == js.twist * js.base.h.d1 else 1


def cmd_winding(args) -> int:
    cfg = _load(args)
    js = cfg.joining()
    n = _count_option("--n", args.n, 0)
    if not np.isfinite(args.y0):
        raise ValueError(f"--y0 = {args.y0} must be finite")
    lift = js.Hn_lift(n)
    w = winding_in_x(lift, args.y0, n * js.lipschitz_H)
    expected = n * js.twist * cfg.d1
    print(f"winding of H_{n} in x at y0={args.y0}: {w} (closed form {expected})")
    return 0 if w == expected else 1


# ---------------------------------------------------------------------------
# the experiments: each builds its reports and its manifest summary entries
# ---------------------------------------------------------------------------


class RunContext:
    """What the experiments of one invocation share: the Mobius table, sieved
    on first use, and the :class:`~nillab.engine.PairScan` of the config's
    joining, Weyl frequencies and checkpoints, whose sums the pair route's
    pass fills.  ``names`` are the experiments the invocation runs; only
    when it runs both ``bilinear`` and ``weyl`` is there a holder, for
    otherwise the pass would make sums nobody reads.  It takes the table's
    mu, for the pass to make Davenport's sums too, only when ``davenport``
    runs as well and (1, 0, 0) is a Weyl frequency."""

    def __init__(self, cfg: ExperimentConfig, names):
        self.cfg = cfg
        names = set(names)
        self.pair_scan = None
        if {"bilinear", "weyl"} <= names:
            twin = "davenport" in names and (1, 0, 0) in cfg.weyl_freqs
            self.pair_scan = PairScan(cfg.joining(), cfg.weyl_freqs, cfg.checkpoints,
                                      self.table.mu_slice if twin else None)

    @cached_property
    def table(self) -> MobiusTable:
        return sieve_mobius(self.cfg.sieve_bound)


def _correlation_outputs(stem: str, rep):
    return [
        (f"{stem}.csv", write_correlation_csv, rep),
        (f"{stem}.json", write_json, correlation_sidecar(rep)),
    ]


def _correlate(cfg: ExperimentConfig, run: RunContext):
    """Mobius correlation along the orbit"""
    rep = correlation_sum(
        cfg.system(), cfg.observable(), None, list(cfg.checkpoints), run.table,
        cfg.plan(cfg.checkpoints[-1]),
    )
    return _correlation_outputs("correlation", rep), {
        "correlation_final_modulus": rep.checkpoints[-1].modulus,
        "correlation_moduli": {str(c.n): c.modulus for c in rep.checkpoints},
    }


def _bilinear(cfg: ExperimentConfig, run: RunContext):
    """prime-pair bilinear average"""
    rep = bilinear_sum(
        cfg.system(), cfg.observable(), None, cfg.p, cfg.q,
        list(cfg.checkpoints), cfg.plan(cfg.checkpoints[-1]),
        pair_scan=run.pair_scan,
    )
    return _correlation_outputs("bilinear", rep), {
        "bilinear_final_modulus": rep.checkpoints[-1].modulus
    }


def _davenport(cfg: ExperimentConfig, run: RunContext):
    """Mobius exponential-sum baseline along the rotation"""
    rep = davenport_baseline(
        cfg.alpha, list(cfg.checkpoints), run.table, cfg.plan(cfg.checkpoints[-1]),
        pair_scan=run.pair_scan,
    )
    return _correlation_outputs("davenport", rep), {
        "davenport_final_modulus": rep.checkpoints[-1].modulus
    }


def _weyl(cfg: ExperimentConfig, run: RunContext):
    """Weyl sums along the reduced orbit"""
    reports = weyl_sums(
        cfg.joining(), None, cfg.weyl_freqs, list(cfg.checkpoints),
        cfg.plan(cfg.checkpoints[-1]), pair_scan=run.pair_scan,
    )
    return [("weyl.csv", write_weyl_csv, reports)], {
        "weyl_max_modulus": max(r.checkpoints[-1].modulus for r in reports)
    }


def _constants(cfg: ExperimentConfig, run: RunContext):
    """proof constants delta1 and nu"""
    pc = proof_constants(
        cfg.coboundary_k, cfg.p, cfg.q, cfg.d1, cfg.alpha, cfg.beta,
        cfg.base_function().L,
    )
    return [("constants.json", write_json, dataclasses.asdict(pc))], {
        "delta1": pc.delta1, "nu": pc.nu
    }


def _coboundary(cfg: ExperimentConfig, run: RunContext):
    """cohomological-equation residual"""
    rep = coboundary_search(cfg.joining(), cfg.coboundary_k, cfg.coboundary_cutoff)
    return [("coboundary.json", write_json, dataclasses.asdict(rep))], {
        "coboundary_residual": rep.residual
    }


# name -> fn(cfg, run) -> (outputs, summary); outputs are (file name, writer,
# payload) triples.  ``run`` and every subcommand of the same name dispatch here.
EXPERIMENTS = {
    "correlate": _correlate,
    "bilinear": _bilinear,
    "davenport": _davenport,
    "weyl": _weyl,
    "constants": _constants,
    "coboundary": _coboundary,
}


def _write(out: Path, outputs) -> list[Path]:
    paths = []
    for name, writer, payload in outputs:
        writer(out / name, payload)
        paths.append(out / name)
    return paths


def cmd_experiment(args) -> int:
    """One registry experiment: print its summary entries and the files written."""
    cfg = _load(args)
    reduced = None
    if getattr(args, "two_route", False):
        # the reduced route goes first, so a config it cannot descend (xi = 0)
        # fails before the pair route streams
        reduced = bilinear_sum_reduced(
            cfg.system(), cfg.observable(), cfg.p, cfg.q, list(cfg.checkpoints),
            cfg.plan(cfg.checkpoints[-1]),
        )
    outputs, summary = EXPERIMENTS[args.command](cfg, RunContext(cfg, [args.command]))
    if reduced is not None:
        pair = outputs[0][2]  # payload of bilinear.csv
        summary["two_route_max_deviation"] = max(
            abs(a.value - b.value) for a, b in zip(pair.checkpoints, reduced.checkpoints)
        )
        outputs.append(("bilinear_reduced.csv", write_correlation_csv, reduced))
    paths = _write(_outdir(cfg), outputs)
    for key, value in summary.items():
        print(f"{key} = {value!r}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_run(args) -> int:
    cfg = _load(args)
    out = _outdir(cfg)
    # a manifest left by an earlier run must not outlive the files it lists,
    # and the new one, written last, must not sit beside a stale config.ini
    (out / "manifest.json").unlink(missing_ok=True)
    _write_lines(out / "config.ini", cfg.to_ini().removesuffix("\n").split("\n"))
    names = [name for name in EXPERIMENTS if name in cfg.experiments]
    run = RunContext(cfg, names)
    files = []
    summary = {}
    for name in names:
        outputs, entries = EXPERIMENTS[name](cfg, run)
        files += _write(out, outputs)
        summary.update(entries)

    manifest = {
        "artifact_version": __version__,
        "config_hash": cfg.config_hash(),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "soft_thresholds": SOFT_THRESHOLDS,
        "summary": summary,
        "files": [
            {"name": f.name, "sha256": file_sha256(f), "bytes": f.stat().st_size}
            for f in files
        ],
    }
    write_json(out / "manifest.json", manifest)
    print(f"run complete: {len(files)} report files in {out}")
    for f in files:
        print(f"  {f.name}")
    return 0

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nillab",
        description="Heisenberg skew products, prime-pair joinings, Mobius correlations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--inject-fault", choices=["twist"], default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sieve", help="sieve mu and print Mertens checkpoints")
    _add_options(p, "--out")
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("orbit", help="emit orbit samples at checkpoints")
    _add_options(p, "--out", "--checkpoints")
    p.add_argument("--n", type=int, default=None, help="emit steps 1..n instead")
    p.set_defaults(func=cmd_orbit)

    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(name, help=experiment.__doc__)
        _add_options(p, *_OPTIONS)
        p.set_defaults(func=cmd_experiment)
        if name == "bilinear":
            p.add_argument("--two-route", action="store_true", help="also run the reduced route")

    p = sub.add_parser("reduce-joining", help="summarize the joining reduction")
    _add_options(p)
    p.set_defaults(func=cmd_reduce_joining)

    p = sub.add_parser("winding", help="winding of the iterated joining cocycle")
    _add_options(p)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--y0", type=float, default=0.37)
    p.set_defaults(func=cmd_winding)

    p = sub.add_parser("run", help="run all experiments enabled in the config")
    _add_options(p, *_OPTIONS)
    p.set_defaults(func=cmd_run)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
