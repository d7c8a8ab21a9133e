"""Span tracing around calls into nillab's public functions.

nillab itself is not edited.  For the length of a traced region, each target
below is replaced by a wrapper that records one span -- id, parent id, name,
start, end and a work amount -- and the original is put back afterwards.
Module-level functions are rebound in every nillab module that imported them
by name, so calls between nillab modules are caught too.  Spans stay in
memory and are written out once, at the end of the run.

Parents come from a per-thread stack.  A span opened on an engine worker
thread with an empty stack takes the innermost open span of the main thread
as its parent, because the benchmark runs one top-level call at a time.

What runs inside the engine's per-segment job closure (cocycle ``u_values``,
the scan, ``lanes``, float conversion, quantize, exact sum) has no public
boundary, so it is not measured from outside; ``UNMEASURED`` names it.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

STREAM_KINDS = ("skew", "joining", "pair")
UNMEASURED = (
    "cocycle u_values, segment scan, lanes, float conversion, quantize and exact sum "
    "run inside the engine's per-segment closure and have no public boundary; "
    "engine.*_segment_ms is whole stream time per segment and engine.self_s is "
    "their sum plus the thread-pool overhead"
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _segments(n: int, plan) -> int:
    return -(-n // plan.segment_size)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.records = []  # (sid, parent, name, start, end, amount)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._main else []
            self._local.stack = stack
        return stack

    def wrap(self, name, fn, amount=None, prepare=None):
        """``fn`` recording a span per call.  ``name`` may be a callable of
        the arguments; ``amount(args, kwargs, result)`` gives the work tuple;
        ``prepare(args, kwargs)`` may rewrite the arguments first."""
        perf = time.perf_counter
        records = self.records
        ids = self._ids
        main_stack = self._main_stack

        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
            span = name(args) if callable(name) else name
            records.append(
                (sid, parent, span, t0, t1, amount(args, kwargs, result) if amount else None)
            )
            return result

        traced.__wrapped__ = fn
        traced.__dict__.update(getattr(fn, "__dict__", {}))
        return traced

    # -- patching ------------------------------------------------------------

    def _patch_function(self, module, attr, wrapper_args):
        original = getattr(module, attr)
        wrapper = self.wrap(wrapper_args[0], original, *wrapper_args[1:])
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nillab" or mod_name.startswith("nillab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr, wrapper_args):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self.wrap(wrapper_args[0], raw.__func__, *wrapper_args[1:]))
        else:
            patched = self.wrap(wrapper_args[0], raw, *wrapper_args[1:])
        setattr(cls, attr, patched)
        self._undo.append((cls, attr, raw))

    def install(self, targets):
        for owner, attr, *wrapper_args in targets:
            if isinstance(owner, type):
                self._patch_method(owner, attr, wrapper_args)
            else:
                self._patch_function(owner, attr, wrapper_args)
        return self

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def save(self, path):
        """Write every span as arrays (``names`` indexes ``name``)."""
        names = sorted({r[2] for r in self.records})
        index = {n: i for i, n in enumerate(names)}
        recs = sorted(self.records)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            sid=np.array([r[0] for r in recs], dtype=np.int64),
            parent=np.array([r[1] for r in recs], dtype=np.int64),
            name=np.array([index[r[2]] for r in recs], dtype=np.int32),
            start=np.array([r[3] for r in recs], dtype=np.float64),
            end=np.array([r[4] for r in recs], dtype=np.float64),
            amount=np.array([r[5][0] if r[5] else 0 for r in recs], dtype=np.float64),
            names=np.array(names),
        )


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


def _stream_targets(nl, value_fn_wrapper=None):
    """The two engine stream entry points, with their work amounts."""
    dyn = nl.dynamics

    def stream_name(args):
        return "engine.stream.joining" if isinstance(args[0], dyn.JoiningSystem) else "engine.stream.skew"

    def stream_amount(args, kwargs, result):
        system, plan = args[0], _arg(args, kwargs, 2, "plan")
        steps = plan.n_total
        width = system.p + system.q if isinstance(system, dyn.JoiningSystem) else 1
        return (steps, _segments(steps, plan), steps * width)

    def pair_amount(args, kwargs, result):
        p = _arg(args, kwargs, 2, "p")
        steps = p * _arg(args, kwargs, 4, "n_pairs")
        return (steps, _segments(steps, _arg(args, kwargs, 5, "plan_template")), steps)

    eng = nl.engine
    return [
        (eng, "orbit_stream_multi", stream_name, stream_amount, value_fn_wrapper),
        (eng, "pair_factor_values", "engine.stream.pair", pair_amount),
    ]


def meter_targets(nl):
    """Untraced runs time only the engine streams (a handful of calls)."""
    return _stream_targets(nl)


def full_targets(nl, tracer: Tracer):
    """Every layer boundary of the traced run."""
    eng, dyn, obs, moe = nl.engine, nl.dynamics, nl.observables, nl.moebius
    dia, grp, fxp, rep, cfg, cli = (
        nl.diagnostics, nl.heisenberg, nl.fixedpoint, nl.reports, nl.config, nl.cli
    )

    def points(args, kwargs, result):
        return (int(np.size(args[0])),)

    def method_points(args, kwargs, result):
        return (int(np.size(args[1])),)

    def slice_len(args, kwargs, result):
        return (args[2] - args[1],)

    def block_len(args, kwargs, result):
        return (args[1] - args[0],)

    def file_bytes(args, kwargs, result):
        return (os.path.getsize(args[0]),)

    def wrap_value_fns(args, kwargs):
        # plain value functions (Weyl modes, the davenport wave) have no
        # public boundary of their own; Observables and the descent sink are
        # traced through their classes below
        fns = _arg(args, kwargs, 3, "value_fns")
        wrapped = [
            fn if isinstance(fn, (obs.Observable, eng.StarDescentSink))
            else tracer.wrap("observables.eval", fn, points)
            for fn in fns
        ]
        if len(args) > 3:
            return args[:3] + (wrapped,) + args[4:], kwargs
        return args, {**kwargs, "value_fns": wrapped}

    return _stream_targets(nl, wrap_value_fns) + [
        (eng, "orbit_stream", "engine.orbit_stream"),
        (eng, "orbit_stream_naive", "engine.orbit_stream_naive"),
        (eng, "orbit_points", "engine.orbit_points"),
        (eng, "checkpoint_sums", "engine.checkpoint_sums"),
        (eng.StarDescentSink, "__call__", "engine.star_sink", method_points),
        (dyn.BaseFunctionSpec, "periodic_q53", "dynamics.periodic_q53", method_points),
        (dyn, "lift_fixed", "dynamics.lift_fixed"),
        (dyn, "step_T", "dynamics.step_T"),
        (dyn, "iterate_T", "dynamics.iterate_T"),
        (dyn, "build_joining", "dynamics.build_joining"),
        (dyn, "cocycle_sum", "dynamics.cocycle_sum"),
        (obs.Observable, "eval_arrays", "observables.eval", method_points),
        (obs, "eval_observable", "observables.eval_observable"),
        (obs, "fiber_average", "observables.fiber_average"),
        (moe, "sieve_mobius", "moebius.sieve", lambda a, k, r: (a[0],)),
        (moe, "_sieve_block", "moebius.sieve_block", block_len),
        (moe.MobiusTable, "mu_slice", "moebius.mu_slice", slice_len),
        (moe.MobiusTable, "mertens", "moebius.mertens"),
        (moe, "correlation_sum", "moebius.correlate"),
        (moe, "bilinear_sum", "moebius.bilinear_pair"),
        (moe, "bilinear_sum_reduced", "moebius.bilinear_reduced"),
        (moe, "davenport_baseline", "moebius.davenport"),
        (dia, "weyl_sums", "diagnostics.weyl"),
        (dia, "coboundary_search", "diagnostics.coboundary"),
        (dia, "proof_constants", "diagnostics.constants"),
        (dia, "winding_in_x", "diagnostics.winding"),
        (dia, "lipschitz_estimate", "diagnostics.lipschitz"),
        (dia, "boundary_increment_Fn", "diagnostics.boundary_increment"),
        (grp, "mul", "heisenberg.mul"),
        (grp, "inv", "heisenberg.inv"),
        (grp, "canonical_rep", "heisenberg.canonical_rep"),
        (grp, "lattice_floor", "heisenberg.lattice_floor"),
        (grp, "nil_point", "heisenberg.nil_point"),
        (grp.LatticeElement, "to_group", "heisenberg.lattice_to_group"),
        (fxp.FixedReal, "from_q64", "fixedpoint.from_q64"),
        (fxp, "parse_real", "fixedpoint.parse_real"),
        (fxp, "sqrt_q64", "fixedpoint.sqrt_q64"),
        (rep, "write_correlation_csv", "reports.write", file_bytes),
        (rep, "write_weyl_csv", "reports.write", file_bytes),
        (rep, "write_orbit_csv", "reports.write", file_bytes),
        (rep, "write_json", "reports.write", file_bytes),
        (cfg, "load_config", "config.load"),
        (cfg, "parse_config", "config.parse"),
        (cfg, "standard_config", "config.standard"),
        (cli, "cmd_run", "cli.run"),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def stream_time(records) -> tuple[float, int]:
    """(seconds inside engine streams, steps streamed)."""
    spans = [r for r in records if r[2].startswith("engine.stream.")]
    return sum(r[4] - r[3] for r in spans), sum(r[5][0] for r in spans)


def layer_metrics(records) -> dict:
    """Every per-layer metric that the spans determine."""
    parent_of = {r[0]: r[1] for r in records}
    name_of = {r[0]: r[2] for r in records}
    children = defaultdict(list)
    for r in records:
        children[r[1]].append((r[3], r[4]))
    by_name = defaultdict(list)
    for r in records:
        by_name[r[2]].append(r)

    def total(name):
        return sum(r[4] - r[3] for r in by_name[name])

    def amount(name, k=0, within=None):
        return sum(
            r[5][k] for r in by_name[name]
            if within is None or stream_kind(r[1]) in within
        )

    memo = {}

    def stream_kind(sid):
        """Kind of the engine stream enclosing span ``sid``, or None."""
        path = []
        kind = None
        while sid:
            if sid in memo:
                kind = memo[sid]
                break
            path.append(sid)
            name = name_of.get(sid, "")
            if name.startswith("engine.stream."):
                kind = name[len("engine.stream."):]
                break
            sid = parent_of.get(sid, 0)
        for s in path:
            memo[s] = kind
        return kind

    def self_time(name):
        return sum(r[4] - r[3] - _covered(children[r[0]], r[3], r[4]) for r in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    streams = [f"engine.stream.{k}" for k in STREAM_KINDS]
    one_pass = sum(amount(s, 2) for s in streams)
    lanes = amount("engine.stream.pair", 0)
    out = {
        "engine.stream_s": sum(total(s) for s in streams),
        "engine.self_s": sum(self_time(s) for s in streams),
        "engine.steps": sum(amount(s, 0) for s in streams),
        "engine.segments": sum(amount(s, 1) for s in streams),
        "engine.cocycle_passes": ratio(
            amount("dynamics.periodic_q53", within=STREAM_KINDS), one_pass
        ),
        "engine.pair_lane_useful_ratio": ratio(
            amount("observables.eval", within=("pair",)), lanes
        ),
        "engine.star_sink_s": total("engine.star_sink"),
        "dynamics.periodic_q53_s": total("dynamics.periodic_q53"),
        "dynamics.periodic_q53_calls": len(by_name["dynamics.periodic_q53"]),
        "dynamics.periodic_q53_points": amount("dynamics.periodic_q53"),
        "dynamics.step_T_s": total("dynamics.step_T"),
        "dynamics.iterate_T_s": total("dynamics.iterate_T"),
        "observables.eval_s": total("observables.eval"),
        "observables.points": amount("observables.eval"),
        "moebius.sieve_s": total("moebius.sieve"),
        "moebius.sieve_blocks": len(by_name["moebius.sieve_block"]),
        "moebius.mu_slice_s": total("moebius.mu_slice"),
        "moebius.mu_slice_calls": len(by_name["moebius.mu_slice"]),
        "moebius.mertens_s": total("moebius.mertens"),
        "moebius.correlate_s": total("moebius.correlate"),
        "moebius.bilinear_pair_s": total("moebius.bilinear_pair"),
        "moebius.bilinear_reduced_s": total("moebius.bilinear_reduced"),
        "moebius.davenport_s": total("moebius.davenport"),
        "diagnostics.weyl_s": total("diagnostics.weyl"),
        "diagnostics.coboundary_s": total("diagnostics.coboundary"),
        "diagnostics.constants_s": total("diagnostics.constants"),
        "heisenberg.mul_s": total("heisenberg.mul"),
        "heisenberg.mul_calls": len(by_name["heisenberg.mul"]),
        "heisenberg.inv_s": total("heisenberg.inv"),
        "heisenberg.canonical_rep_s": total("heisenberg.canonical_rep"),
        "heisenberg.lattice_to_group_s": total("heisenberg.lattice_to_group"),
        "fixedpoint.from_q64_s": total("fixedpoint.from_q64"),
        "fixedpoint.from_q64_calls": len(by_name["fixedpoint.from_q64"]),
        "reports.write_s": total("reports.write"),
        "reports.bytes": amount("reports.write"),
        "config.load_s": total("config.load"),
        "cli.self_s": self_time("cli.run"),
        "trace.spans": len(records),
    }
    for kind in STREAM_KINDS:
        name = f"engine.stream.{kind}"
        out[f"engine.{kind}_segment_ms"] = 1e3 * ratio(total(name), amount(name, 1))
    return {k: float(v) for k, v in out.items()}
