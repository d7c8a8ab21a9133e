"""Deterministic segmented orbit engine on exact uint64 circle lanes.

A torus coordinate is carried as a uint64 ``u`` standing for ``u / 2**64``;
uint64 wraparound *is* arithmetic mod 1, exactly.  The periodic part of the
fiber function enters through the canonical 2**-53 quantization (shared with
the scalar dynamics), so every z value along an orbit is an exact integer
computation: independent of segmentation, worker count and evaluation order.
The z lane carries a second 64-bit limb (``z = hi/2**64 + lo/2**128``) because
cross terms like alpha * y0 live on the 2**-128 grid.

One lane stream serves T and T_star: T_star has fiber function
H(x, y) = h_p(px, py) - h_q(qx, qy) and twist p^2 - q^2, and T is the side
pair (p, q) = (1, 0), with H = h and twist 1.

Streaming is a single-pass scan, and every pass over segments goes through
the one function :func:`_scan_segments`: each segment computes its cocycle
values once and takes their local prefix sums, then adds the inclusive carry
of the segment before it, publishes its own carry and evaluates its
observables (on the caller's thread for one worker, on w threads for w
workers).  A pass may instead read its cocycle prefixes from an array kept
earlier.  The prime-pair route is one pass at stride p over chunks of n: a
chunk scans the skew steps p n of its n, keeps S at the multiples of q among
them in a ring of about N (p - q) / p entries, and evaluates
F(T^{pn} x0) conj F(T^{qn} x0) from S_{pn}, read in the steps it has just
scanned, and S_{qn}, copied out of the ring before any later chunk can
overwrite it.  From the origin the joining's cocycle prefix is
S*_n = S_{pn} - S_{qn} of the skew cocycle, bit for bit.  Only when a later
joining stream (the Weyl sums of ``nillab run``) will read it does the ring
span N: the pass then writes S* over the S_{qn} it has read and leaves that
array in a :class:`PairScan`, which the joining reads as its kept prefixes
instead of scanning its p + q lifts.  Observable values are
quantized to 2**-53 and summed in integer arithmetic, which makes checkpoint
sums bit-identical for any worker count and segment size -- and equal to the
naive single-loop oracle.

Each worker of a pass over segments holds one :class:`Workspace`: a few
segment-length buffers into which the cocycle values, the scan, the lanes,
their floats, the observable values and the quantized values are written in
place, segment after segment.  A workspace lives for one pass of one stream
-- at most one per worker, dropped when the pass returns -- so the hot arrays
are neither allocated nor page-faulted again per segment, and the engine
keeps no buffer between calls.  The kernels take their workspace or buffers
as optional arguments: ``u_values``, ``lanes``, ``mulhi_u64`` and the float
lanes here, ``BaseFunctionSpec.periodic_q53`` (through ``u_values``),
``Observable.eval_arrays`` with its bump, and ``observables.fourier_mode``
(through ``observables.fourier_value``, the Weyl and Davenport modes).
Without them, as in the naive oracle and on the scalar path, the same code
writes into fresh arrays.  Only the index arrays of a support
(``np.flatnonzero``) are still made per call.  A gather into a buffer is
``np.take(..., mode="clip")``: its indices come from ``np.flatnonzero``, so
clipping never acts, and the default mode would copy through a temporary.

Both pair products -- the pair route and :class:`StarDescentSink` --
evaluate their second factor only where the first is nonzero; the bump
vanishes on 3/4 of the torus.  Elsewhere the full product would be a signed
zero, which quantizes to 0, so every checkpoint sum keeps its bits.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import JoiningSystem, SkewSystem
from .fixedpoint import FixedReal
from .heisenberg import HEISENBERG, canonical_rep, check_prime_pair, identity
from .workspace import FRESH, Workspace

MASK64 = (1 << 64) - 1
Q53 = 2.0**53
_U32MASK = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_VALUE_BOUND = 2.0  # |observable value| contract for exact accumulation


def u64c(v: int) -> np.uint64:
    """A Python integer as a wrapped uint64 constant."""
    return np.uint64(v & MASK64)


def mulhi_u64(a, b, out=None, tmp=None):
    """High 64 bits of the 64x64 product, elementwise (32-bit split), written
    into ``out`` when given; ``tmp``, when given, is scratch of the same shape.

    When every a is below 2**32 (or b is a scalar below 2**32, by symmetry)
    two partial products suffice: a (b >> 32) + (a (b & M) >> 32) is at most
    (2**32 - 1)**2 + 2**32 - 1 < 2**64, so it is exact.  Otherwise four.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if b.ndim == 0 and b <= _U32MASK:
        a, b = b, a
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.empty(shape, np.uint64) if out is None else out
    if np.max(a, initial=0) <= _U32MASK:
        tmp = np.empty(shape, np.uint64) if tmp is None else tmp
        if b.ndim == 0:
            np.multiply(a, b & _U32MASK, out=out)
            np.multiply(a, b >> _SH32, out=tmp)
        else:
            np.bitwise_and(b, _U32MASK, out=out)
            out *= a
            np.right_shift(b, _SH32, out=tmp)
            tmp *= a
        out >>= _SH32
        out += tmp
        out >>= _SH32
        return out
    a_lo = a & _U32MASK
    a_hi = a >> _SH32
    b_lo = b & _U32MASK
    b_hi = b >> _SH32
    t = a_lo * b_lo
    w = a_hi * b_lo + (t >> _SH32)
    v = a_lo * b_hi + (w & _U32MASK)
    return np.add(a_hi * b_hi + (w >> _SH32), v >> _SH32, out=out)


def _frac_int_parts(base_u: np.uint64, step_u: np.uint64, n: np.ndarray, frac=None, ip=None):
    """frac and floor of base + n*step, where base, step are Q64 in [0, 1),
    written into ``frac`` and ``ip`` when given."""
    frac = np.empty(n.shape, np.uint64) if frac is None else frac
    ip = mulhi_u64(n, step_u, out=ip, tmp=frac)
    np.multiply(n, step_u, out=frac)
    if base_u:  # adding 0 cannot wrap
        frac += base_u
        ip += frac < base_u  # the sum wrapped exactly when it fell below base
    return frac, ip


def _n_times_q128(c128: int, n: np.ndarray, hi=None, lo=None):
    """(hi, lo) lanes of n * c128 mod 2**128 for a fixed 128-bit constant,
    written into ``hi`` and ``lo`` when given."""
    c_hi = u64c(c128 >> 64)
    c_lo = u64c(c128)
    lo = np.empty(n.shape, np.uint64) if lo is None else lo
    hi = mulhi_u64(n, c_lo, out=hi, tmp=lo)
    hi += np.multiply(n, c_hi, out=lo)
    np.multiply(n, c_lo, out=lo)
    return hi, lo


def _integer(value, name: str) -> int:
    """``value`` as an int; a float or string is refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} = {value!r} must be an integer") from None


@dataclass(frozen=True)
class OrbitSegmentPlan:
    """Segmentation contract for a deterministic stream."""

    n_total: int
    segment_size: int = 1 << 16
    worker_count: int = 1

    def __post_init__(self):
        if not (1 <= _integer(self.n_total, "n_total") < (1 << 63)):
            raise ValueError("n_total must be in [1, 2**63)")
        s = _integer(self.segment_size, "segment_size")
        if s < 1 or (s & (s - 1)) != 0:
            raise ValueError(f"segment_size = {s!r} must be a power of two")
        if _integer(self.worker_count, "workers") < 1:
            raise ValueError(f"workers = {self.worker_count!r} must be positive")


def resize_plan(plan: OrbitSegmentPlan | None, n_total: int) -> OrbitSegmentPlan:
    """``plan`` (by default one worker and 2**16-step segments) for ``n_total`` steps."""
    return OrbitSegmentPlan(n_total) if plan is None else replace(plan, n_total=n_total)


def check_checkpoints(checkpoints, sieve_bound=None) -> list[int]:
    """``checkpoints`` as ints, strictly increasing and within [1, sieve_bound]
    (None leaves the top open)."""
    cps = [_integer(c, "checkpoint") for c in checkpoints]
    if not cps or cps[0] < 1 or any(a >= b for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing positive integers")
    if sieve_bound is not None and cps[-1] > sieve_bound:
        raise ValueError(f"max checkpoint {cps[-1]} exceeds sieve bound {sieve_bound}")
    return cps


def _checkpoints_within(checkpoints, n_steps: int) -> list[int]:
    """Checked ``checkpoints``, none past the ``n_steps`` a stream covers."""
    cps = check_checkpoints(checkpoints)
    if cps[-1] > n_steps:
        raise ValueError(f"max checkpoint {cps[-1]} exceeds step count {n_steps}")
    return cps


# ---------------------------------------------------------------------------
# lane streams
# ---------------------------------------------------------------------------


def _require_q64_unit(v: FixedReal, name: str) -> int:
    if not isinstance(v, FixedReal):
        raise TypeError(f"{name} must be FixedReal on the engine path")
    if not (0 <= v and v < 1):
        raise ValueError(f"{name} must lie in [0, 1) for the engine")
    return v.frac_u64()


class _LaneStream:
    """Lanes of the skew product over the rotation by (alpha, beta) with fiber
    function H(x, y) = h_p(px, py) - h_q(qx, qy) and twist c = p^2 - q^2:

    z_n = frac(z0 + S_n + c [n (alpha y0 - beta x0)
                              - (x0 + n alpha) floor(y0 + n beta)
                              + floor(x0 + n alpha) (y0 + n beta)])
    with S_n the Birkhoff sum of H mod 1.
    """

    def __init__(self, alpha: FixedReal, beta: FixedReal, h, start, p: int, q: int):
        x0, y0, z0 = start
        self.h = h
        self.d1u = u64c(h.d1)
        self.d2u = u64c(h.d2)
        a = _require_q64_unit(alpha, "alpha")
        b = _require_q64_unit(beta, "beta")
        x = _require_q64_unit(x0, "start x")
        y = _require_q64_unit(y0, "start y")
        self.z0_hi, self.z0_lo = z0.frac().frac_lanes()
        self.p, self.q = p, q
        twist = p * p - q * q
        self.au = u64c(a)
        self.bu = u64c(b)
        self.x0u = u64c(x)
        self.y0u = u64c(y)
        self.cu = u64c(twist)
        # c*(alpha*y0 - beta*x0) on the 2**-128 grid, wrapped mod 2**128
        self.cross = (twist * (a * y - b * x)) % (1 << 128)
        # h_m(m x, m y) at x = x0 + i alpha sums h at m x0 + j alpha + i m alpha,
        # j < m: per shift (subtract, base x, base y, step x, step y), p side first
        self.shifts = [
            (minus, u64c(m * x + j * a), u64c(m * y + j * b), u64c(m * a), u64c(m * b))
            for minus, m in ((False, p), (True, q))
            for j in range(m)
        ]

    def _lift(self, xg: np.ndarray, yg: np.ndarray, ws: Workspace):
        """The lift of h at u64 torus coordinates, wrapped mod 1, written over
        ``xg`` (``yg`` is overwritten too)."""
        q = self.h.periodic_q53(xg, yg, ws)
        xg *= self.d1u
        yg *= self.d2u
        xg += yg
        np.copyto(yg, q, casting="unsafe")  # int64 -> uint64 wraps, as astype does
        yg <<= np.uint64(11)
        xg += yg

    def u_values(self, i: np.ndarray, ws: Workspace = FRESH) -> np.ndarray:
        """H at the base points (x0, y0) + i (alpha, beta), wrapped mod 1, in
        ``ws``'s buffer ``u``."""
        acc, xg, yg = (ws.take(name, i.shape) for name in ("u", "t1", "t2"))
        for k, (minus, bx, by, sx, sy) in enumerate(self.shifts):
            x = acc if k == 0 else xg
            np.multiply(i, sx, out=x)
            x += bx
            np.multiply(i, sy, out=yg)
            yg += by
            self._lift(x, yg, ws)
            if k:
                (np.subtract if minus else np.add)(acc, xg, out=acc)
        return acc

    def lanes(self, n: np.ndarray, s: np.ndarray, ws: Workspace = FRESH):
        """(x frac, y frac, z hi, z lo) for step indices n with cocycle sums s,
        in ``ws``'s buffers ``fx``, ``fy``, ``z_hi`` and ``z_lo``."""
        fx, fy, z_hi, z_lo, kx, m = (
            ws.take(name, n.shape) for name in ("fx", "fy", "z_hi", "z_lo", "t1", "t2")
        )
        if self.cross:
            _n_times_q128(self.cross, n, hi=z_hi, lo=z_lo)
            z_hi += s
        else:  # from x0 = y0 = 0, or with no twist: no cross term
            np.copyto(z_hi, s)
            z_lo.fill(0)
        if self.z0_lo:  # adding 0 cannot carry
            z0_lo = u64c(self.z0_lo)
            z_lo += z0_lo
            z_hi += z_lo < z0_lo  # the carry out of the low limb
        z_hi += u64c(self.z0_hi)
        _frac_int_parts(self.x0u, self.au, n, frac=fx, ip=kx)
        _frac_int_parts(self.y0u, self.bu, n, frac=fy, ip=m)
        m *= self.cu
        m *= fx
        z_hi -= m
        kx *= self.cu
        kx *= fy
        z_hi += kx
        return fx, fy, z_hi, z_lo


def _make_stream(system, start) -> _LaneStream:
    """The lanes of a skew system from a canonical start (default: identity),
    or of a joining from a point of [0, 1)^3 (default: origin)."""
    if isinstance(system, SkewSystem):
        if start is None:
            start = canonical_rep(identity())
        if start.law != HEISENBERG:
            raise ValueError("engine start must be a Heisenberg NilPoint")
        return _LaneStream(system.alpha, system.beta, system.h, start.coords(), 1, 0)
    if isinstance(system, JoiningSystem):
        if start is None:
            start = (FixedReal(0), FixedReal(0), FixedReal(0))
        base = system.base
        return _LaneStream(base.alpha, base.beta, base.h, start, system.p, system.q)
    raise TypeError(f"cannot stream orbits of {type(system).__name__}")


# ---------------------------------------------------------------------------
# exact quantized accumulation
# ---------------------------------------------------------------------------


def _exact_sum_i64(a: np.ndarray) -> int:
    """Exact integer sum of quantized values (|entry| <= 2**54 guaranteed)."""
    if a.size == 0:
        return 0
    k = (a.size // 256) * 256
    total = 0
    if k:
        body = a[:k].reshape(-1, 256).sum(axis=1, dtype=np.int64)  # <= 256*2**54 < 2**63
        total += int(body.sum(dtype=object))
    if a.size > k:
        total += int(a[k:].sum(dtype=np.int64))
    return total


def _peak(v: np.ndarray):
    """max |entry| over both parts of ``v`` (0 when empty, NaN when any is),
    without an |v| array; a contiguous complex array is read as one float
    array."""
    if v.dtype == np.complex128 and v.flags.c_contiguous:
        v = v.reshape(-1).view(np.float64)
    if np.iscomplexobj(v):
        # np.maximum, not max: max(peak, nan) would drop an imaginary part's NaN
        return np.maximum(_peak(v.real), _peak(v.imag))
    return max(v.max(initial=0.0), -v.min(initial=0.0))


def _quantize(part: np.ndarray, ws: Workspace = FRESH) -> np.ndarray:
    """Real values on the 2**-53 grid, as int64 in ``ws``'s scratch ``t2``."""
    scaled = np.multiply(part, Q53, out=ws.take("t1", part.shape, np.float64))
    q = ws.take("t2", part.shape, np.int64)
    np.copyto(q, np.rint(scaled, out=scaled), casting="unsafe")
    return q


def _float_lanes(fx, fy, z_hi, z_lo, ws: Workspace = FRESH):
    """The lanes as floats in [0, 1), in ``ws``'s buffers ``xf``, ``yf``, ``zf``:
    each lane cast to float64, then scaled by a power of two (exactly)."""
    shape = np.broadcast_shapes(fx.shape, fy.shape, z_hi.shape, z_lo.shape)
    xf, yf, zf, lo = (ws.take(name, shape, np.float64) for name in ("xf", "yf", "zf", "t1"))
    np.multiply(fx, 2.0**-64, out=xf)
    np.multiply(fy, 2.0**-64, out=yf)
    np.multiply(z_hi, 2.0**-64, out=zf)
    zf += np.multiply(z_lo, 2.0**-128, out=lo)
    return xf, yf, zf


def _eval_fn(fn, fx, fy, z_hi, z_lo, n, floats_cache, ws):
    """One value function on a segment.  A lane sink gets ``ws``, and may
    overwrite any of its buffers but the lanes and ``n`` it is given; a value
    function marked ``wants_ws`` gets ``ws`` too, and may overwrite any but
    those and the float lanes."""
    if getattr(fn, "wants_lanes", False):
        floats_cache[0] = None
        return fn(fx, fy, z_hi, z_lo, n, ws=ws)
    if floats_cache[0] is None:
        floats_cache[0] = _float_lanes(fx, fy, z_hi, z_lo, ws)
    xf, yf, zf = floats_cache[0]
    if getattr(fn, "wants_ws", False):
        return fn(xf, yf, zf, n, ws=ws)
    return fn(xf, yf, zf, n)


def _times_on(first: np.ndarray, on: np.ndarray, second: np.ndarray, ws: Workspace):
    """``first`` with ``first[on] * second`` written at its flat indices
    ``on``.  Where ``first`` is zero off ``on`` the full product would be a
    signed zero, which quantizes to 0 all the same.  The first factor stays
    the left operand: under fused multiply-add, swapping the operands of a
    complex product changes its rounding.  The product goes to a buffer that
    aliases neither factor: numpy rounds an in-place complex product of one
    element without the fused multiply-add it uses at every other length, so
    a support of one point would change the bits."""
    at_on = np.take(first, on, out=ws.take("first.on", on.shape, first.dtype), mode="clip")
    np.put(first, on, np.multiply(at_on, second, out=ws.take("product", on.shape, first.dtype)))
    return first


# ---------------------------------------------------------------------------
# the single-pass stream
# ---------------------------------------------------------------------------


def _scan_segments(stream: _LaneStream, plan: OrbitSegmentPlan, consume, kept=None,
                   keep=None, stride: int = 1) -> list:
    """One pass over the n-chunks (lo, hi] of 1 .. plan.n_total, a segment
    long each: ``[consume(lo, hi, s, ws)]`` per chunk.

    With stride m the chunk (lo, hi] scans the steps m lo + 1 .. m hi: ``s``
    holds their cocycle prefix sums S_{m lo + 1} .. S_{m hi} (mod 1), in the
    buffer ``u`` of the worker's workspace ``ws``, m segments long.  Chunk k
    computes its ``u_values`` once and takes their local cumsum, then waits
    until chunk k - 1 has published its inclusive carry, adds it, runs
    ``keep(lo, hi, s)`` when given and publishes its own carry before it
    consumes: once chunk k + 1 has its carry, every chunk up to k has kept
    its values.  ``kept``, when given, holds S_1 .. S_{plan.n_total} from a
    scan made earlier (stride 1): ``s`` is then the view ``kept[lo:hi]``,
    which ``consume`` only reads, and nothing is scanned.

    On one worker the caller runs every chunk in order.  On w workers, w
    threads each take the next chunk index under one lock, on whose
    condition chunk k waits, and keep one :class:`Workspace` for the pass;
    the caller waits for them.  A failing chunk is recorded against its
    index, stops further chunks from being taken and wakes every waiter,
    which gives its chunk up; once every thread has ended, the failure of
    the lowest chunk is raised.  No workspace or thread outlives the call.
    """
    n_total, size = plan.n_total, plan.segment_size
    n_chunks = -(-n_total // size)
    segment = min(size, n_total)
    width = segment if kept is not None else stride * segment
    steps = np.arange(width, dtype=np.uint64)
    results = [None] * n_chunks
    failures = {}
    lock = threading.Condition()
    taken = ready = carry = 0  # chunks taken; carries published; the last of them

    def job(k, ws):
        nonlocal ready, carry
        lo, hi = k * size, min(k * size + size, n_total)
        if kept is not None:
            return consume(lo, hi, kept[lo:hi], ws)
        s = stream.u_values(ws.steps("n", stride * lo, stride * hi), ws)
        np.cumsum(s, dtype=np.uint64, out=s)
        with lock:
            lock.wait_for(lambda: ready == k or failures)
            if failures:  # the chain is broken: give the chunk up
                return None
        s += u64c(carry)
        if keep is not None:
            keep(lo, hi, s)
        with lock:
            ready, carry = k + 1, int(s[-1])
            lock.notify_all()
        return consume(lo, hi, s, ws)

    def work():
        nonlocal taken
        ws = Workspace(width, steps, segment)
        while True:
            with lock:
                if taken == n_chunks or failures:
                    return
                k, taken = taken, taken + 1
            try:
                results[k] = job(k, ws)
            except BaseException as exc:  # re-raised by the caller
                with lock:
                    failures[k] = exc
                    lock.notify_all()

    workers = min(plan.worker_count, n_chunks)
    threads = [threading.Thread(target=work) for _ in range(workers)] if workers > 1 else []
    try:
        for thread in threads:
            thread.start()
        if not threads:
            work()
    finally:
        for thread in threads:
            if thread.is_alive():  # one that failed to start never ran
                thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def _cut_sums(values, lo: int, cuts, ws: Workspace = FRESH):
    """Exact quantized sums of the values of steps lo+1 ..: one prefix sum per
    checkpoint in ``cuts``, then the totals."""
    v = np.asarray(values)
    complex_v = np.iscomplexobj(v)
    peak = _peak(v)
    if not np.isfinite(peak) or peak > _VALUE_BOUND:
        raise ValueError(
            f"observable value magnitude {peak} exceeds the accumulation bound "
            f"{_VALUE_BOUND}"
        )

    def part_sums(part):
        q = _quantize(part, ws)  # one part at a time, through one buffer
        return [_exact_sum_i64(q[: c - lo]) for c in cuts], _exact_sum_i64(q)

    re_cuts, re_tot = part_sums(v.real)
    im_cuts, im_tot = part_sums(v.imag) if complex_v else ([0] * len(cuts), 0)
    return list(zip(cuts, re_cuts, im_cuts)), re_tot, im_tot


def _running_sums(chunks) -> list[tuple[int, complex]]:
    """Checkpoint sums from consecutive chunks' ``_cut_sums``."""
    out = []
    re0 = im0 = 0
    for cut_sums, tot_re, tot_im in chunks:
        for c, cre, cim in cut_sums:
            out.append((c, complex((re0 + cre) / Q53, (im0 + cim) / Q53)))
        re0 += tot_re
        im0 += tot_im
    return out


def orbit_stream_multi(
    system,
    start,
    plan: OrbitSegmentPlan,
    value_fns,
    weights=None,
    checkpoints=None,
    *,
    pair_scan: PairScan | None = None,
):
    """Checkpointed exact sums of several observables along one orbit.

    ``value_fns`` are callables ``fn(x, y, z, n) -> complex ndarray`` (floats
    in [0,1)), or lane sinks with ``wants_lanes = True`` receiving the raw
    uint64 lanes (see :class:`StarDescentSink`).  A value function marked
    ``wants_ws = True`` -- an :class:`~nillab.observables.Observable`, a
    :func:`~nillab.observables.fourier_value` -- is called with ``ws=`` the
    worker's :class:`Workspace` too, and may return one of its buffers.  The
    arrays a value function is given are valid only during the call: the next
    segment reuses them.  ``weights`` is an optional callable
    ``(lo, hi) -> int8`` giving multiplicative weights for steps lo+1 .. hi.
    Returns, per value function, a list of ``(N, complex_sum)`` with the
    *unnormalized* sum over n <= N, exactly accumulated on the 2**-53 grid.
    A joining from the origin reads S* from ``pair_scan`` as its kept
    prefixes when that holds a scan covering it (see :class:`PairScan`),
    instead of scanning its p + q lifts.
    """
    n_total = plan.n_total
    checkpoints = _checkpoints_within([n_total] if checkpoints is None else checkpoints, n_total)
    stream = _make_stream(system, start)

    def consume(lo, hi, s, ws):
        n = ws.steps("n", lo + 1, hi + 1)
        fx, fy, z_hi, z_lo = stream.lanes(n, s, ws)
        w = weights(lo + 1, hi + 1) if weights is not None else None
        floats_cache = [None]
        cuts = [c for c in checkpoints if lo < c <= hi]
        out = []
        for fn in value_fns:
            v = _eval_fn(fn, fx, fy, z_hi, z_lo, n, floats_cache, ws)
            if w is not None:
                v = np.multiply(v, w, out=ws.take("w", v.shape, np.result_type(v, w)))
            out.append(_cut_sums(v, lo, cuts, ws))
        return out

    kept = pair_scan.prefixes(stream, n_total) if pair_scan is not None else None
    segments = _scan_segments(stream, plan, consume, kept)
    return [_running_sums(seg[f] for seg in segments) for f in range(len(value_fns))]


def orbit_stream(system, start, plan, value_fn, weights=None, checkpoints=None):
    """Single-observable form of :func:`orbit_stream_multi`."""
    return orbit_stream_multi(system, start, plan, [value_fn], weights, checkpoints)[0]


def orbit_stream_naive(system, start, n_total, value_fn, weights=None, checkpoints=None):
    """Single-threaded reference loop; must agree with the engine bit for bit.

    Reuses the same per-step kernels pointwise (length-1 arrays) but performs
    no segmentation, scan, or vector accumulation.
    """
    cset = set([n_total] if checkpoints is None else checkpoints)
    stream = _make_stream(system, start)
    s = re_tot = im_tot = 0
    out = []
    for i in range(n_total):
        iu = np.array([i], dtype=np.uint64)
        s = (s + int(stream.u_values(iu)[0])) & MASK64
        n = i + 1
        n_arr = np.array([n], dtype=np.uint64)
        fx, fy, z_hi, z_lo = stream.lanes(n_arr, np.array([s], dtype=np.uint64))
        v = _eval_fn(value_fn, fx, fy, z_hi, z_lo, n_arr, [None], FRESH)
        if weights is not None:
            v = v * weights(n, n + 1)
        _, re, im = _cut_sums(v, i, [])
        re_tot += re
        im_tot += im
        if n in cset:
            out.append((n, complex(re_tot / Q53, im_tot / Q53)))
    return out


def orbit_points(system, start, ns):
    """Float coordinates of the orbit at the given step indices (exact lanes)."""
    want = np.array(sorted(set(int(n) for n in ns)), dtype=np.int64)
    if not want.size:
        return []
    if want[0] < 1:
        raise ValueError("orbit indices must be >= 1")
    stream = _make_stream(system, start)

    def consume(lo, hi, s, ws):
        return s[want[(want > lo) & (want <= hi)] - lo - 1]

    s = np.concatenate(_scan_segments(stream, OrbitSegmentPlan(int(want[-1])), consume))
    xf, yf, zf = _float_lanes(*stream.lanes(want.astype(np.uint64), s))
    return [(int(v), float(x), float(y), float(z)) for v, x, y, z in zip(want, xf, yf, zf)]


# ---------------------------------------------------------------------------
# the prime-pair stream
# ---------------------------------------------------------------------------


def _keep_multiples(dst: np.ndarray, stride: int, lo: int, hi: int, s: np.ndarray):
    """``S_{m stride}`` for the multiples of ``stride`` among the steps
    lo+1 .. hi (none when hi <= lo) into the ring ``dst``, at slot
    (m - 1) mod ``dst.size``; there are at most ``dst.size`` of them, so
    they wrap at most once."""
    first = lo // stride + 1
    src = s[first * stride - lo - 1 : max(hi - lo, 0) : stride]
    at = (first - 1) % dst.size
    head = min(src.size, dst.size - at)
    dst[at : at + head] = src[:head]
    dst[: src.size - head] = src[head:]


def _ring_size(p: int, q: int, n_pairs: int, size: int) -> int:
    """Slots the pair route needs for S_{qn}, n <= N, in n-chunks of ``size``.

    The n-chunk (lo, hi] writes S_{qm} for m up to min(N, p hi / q) and then
    reads m in (lo, hi], so the ring must span min(N, p hi / q) - lo entries.
    That span grows with lo until p hi / q reaches N and falls after, so the
    chunk where it does and the one before bound it.  Rounded up to whole
    chunks, a chunk's entries never wrap, and at most N: about N (p - q) / p.
    """

    def span(k):
        lo = k * size
        return min(n_pairs, p * min(n_pairs, lo + size) // q) - lo

    k = -(-q * n_pairs // (p * size)) - 1  # the first chunk whose p hi / q reaches N
    slots = max(span(j) for j in (k - 1, k) if j >= 0)
    return min(n_pairs, -(-slots // size) * size)


class PairScan:
    """Holder for the joining cocycle prefixes S*_n = S_{pn} - S_{qn} (n <= N)
    of a pair route scanned from the origin, for the rest of one run.

    From x0 = y0 = 0 the joining's cocycle h_p(p., p.) - h_q(q., q.) sums h
    over the same points k alpha as the skew cocycle, so its prefix at n is
    S*_n = S_{pn} - S_{qn}, bit for bit on the u64 lanes.  A joining stream
    of the same rotation, h and pair from the origin reads S* here instead of
    scanning its p + q lifts.  Holding S* costs the pair route an N-long
    array instead of its ring of about N (p - q) / p entries, so only a run
    whose Weyl sums follow its pair route makes one.  Each such run owns one
    holder; the engine keeps none between calls.
    """

    def __init__(self):
        self._kept = None

    @staticmethod
    def _key(stream: _LaneStream, p: int, q: int):
        return (stream.au, stream.bu, stream.h, p, q)

    @staticmethod
    def at_origin(stream: _LaneStream) -> bool:
        """Whether ``stream`` starts at x = y = 0, where S* is the joining's."""
        return stream.x0u == 0 and stream.y0u == 0

    def keep(self, stream: _LaneStream, p: int, q: int, star: np.ndarray):
        """Hold ``star``, the S* of the pair route of a skew ``stream`` from
        the origin; the holder then owns the array."""
        self._kept = (self._key(stream, p, q), star)

    def prefixes(self, stream: _LaneStream, n_total: int):
        """S*_1 .. S*_{n_total} for a joining ``stream``, as a view of the
        held array, or None when the held scan does not cover it."""
        if self._kept is None or not self.at_origin(stream):
            return None
        key, star = self._kept
        if key != self._key(stream, stream.p, stream.q) or n_total > star.size:
            return None
        return star[:n_total]


def pair_factor_values(sys: SkewSystem, start, p: int, q: int, n_pairs: int,
                       plan_template: OrbitSegmentPlan, obs, checkpoints=None, *,
                       pair_scan: PairScan | None = None):
    """Exact checkpoint sums of F(T^{p n} x0) conj(F(T^{q n} x0)) over
    n <= N, one cocycle stream to p * n_pairs.

    One :func:`_scan_segments` pass at stride p over the n-chunks of
    ``plan_template``'s segment size: the chunk (lo, hi] scans the skew steps
    p lo + 1 .. p hi.  Its keep, which runs in chunk order, writes S at the
    multiples q m of q among them into a ring of u64 slots, slot (m - 1) mod
    R, and then copies this chunk's S_{qn}, n in (lo, hi], out of the ring
    into ``s[::p]``, whose own entries (S at the steps p n - p + 1) nothing
    reads after the keep; this chunk or an earlier one wrote them, since
    q n < p n.  Later keeps may then overwrite those slots, however far a
    slower chunk lags.  The chunk builds the lanes at q n and evaluates F
    there, then the lanes at p n (S_{pn} is ``s[p-1::p]``) and F only where
    F(T^{q n} x0) is nonzero (the product is 0 elsewhere), and sums the
    quantized products, so no per-step array longer than a chunk is formed.
    Returns ``(N, sum)`` for each checkpoint N (default ``[n_pairs]``),
    unnormalized, like :func:`orbit_stream_multi`.

    The ring spans about N (p - q) / p entries (:func:`_ring_size`).  Given
    ``pair_scan`` and a start at the origin it spans N instead: each chunk
    then writes S*_n = S_{pn} - S_{qn} over the ring's entries n in
    (lo, hi], which no chunk reads again, and the array is left in the
    holder, from which a joining from the origin (Weyl sums in
    ``nillab run``) reads its cocycle.
    """
    checkpoints = _checkpoints_within(
        [n_pairs] if checkpoints is None else checkpoints, n_pairs
    )
    stream = _make_stream(sys, start)
    plan = resize_plan(plan_template, n_pairs)
    holds = pair_scan is not None and PairScan.at_origin(stream)
    ring = np.empty(n_pairs if holds else _ring_size(p, q, n_pairs, plan.segment_size),
                    dtype=np.uint64)

    def keep(lo, hi, s):
        _keep_multiples(ring, q, p * lo, min(p * hi, q * n_pairs), s)
        at = lo % ring.size  # a whole chunk of slots: lo .. hi - 1 do not wrap
        np.copyto(s[::p], ring[at : at + hi - lo])

    def pairs(lo, hi, s, ws):
        s_p, s_q = s[p - 1 :: p], s[::p]

        def factor(m, s, out=None, on=None):
            """F(T^{m n} x0) for the chunk's n, or for those at ``on``."""
            mn = ws.steps("n", lo + 1, hi + 1)
            mn *= u64c(m)
            if on is not None:
                mn = np.take(mn, on, out=ws.take("pair.n", on.shape), mode="clip")
                s = np.take(s, on, out=ws.take("pair.s", on.shape), mode="clip")
            return obs.eval_arrays(*_float_lanes(*stream.lanes(mn, s, ws), ws), ws, out)

        # conj(F_q) * F_p in this order (see _times_on); F_p only where F_q
        # is nonzero
        values = factor(q, s_q, out=ws.take("pair.f", (hi - lo,), np.complex128))
        np.conjugate(values, out=values)
        on = np.flatnonzero(values)
        _times_on(values, on, factor(p, s_p, on=on), ws)
        if holds:
            np.subtract(s_p, s_q, out=ring[lo:hi])
        return _cut_sums(values, lo, [c for c in checkpoints if lo < c <= hi], ws)

    sums = _running_sums(_scan_segments(stream, plan, pairs, keep=keep, stride=p))
    if holds:
        pair_scan.keep(stream, p, q, ring)
    return sums


def checkpoint_sums(values: np.ndarray, checkpoints) -> list[tuple[int, complex]]:
    """Exact quantized checkpoint sums of 1-indexed per-step values."""
    checkpoints = _checkpoints_within(checkpoints, values.size)
    return _running_sums([_cut_sums(values, 0, checkpoints)])


class StarDescentSink:
    """The pair observable f (x) conj(f) descended to the reduced space X_star.

    f(x1) conj f(x2) is invariant under the diagonal central shift, so it
    descends: at a trivialized star point (x, y, z) it is evaluated on the
    pair representative ((p x, p y, z), (q x, q y, 0)), each factor reduced
    exactly to the fundamental domain of X on the u64 lanes; the q factor is
    evaluated only where the p factor is nonzero (the product is 0
    elsewhere).  The engine calls it on lanes; :meth:`eval_star` takes float
    star coordinates.
    """

    wants_lanes = True

    def __init__(self, obs, p: int, q: int):
        if obs.xi == 0:
            raise ValueError("descent requires a nonzero vertical frequency")
        check_prime_pair(p, q)
        self.obs = obs
        self.p = p
        self.q = q

    def _factor(self, m: int, fx, fy, z_hi, z_lo, ws: Workspace, out=None):
        """f at the X-reduction of (m x, m y, z), into ``out`` (by default
        ``ws``'s buffer ``obs.v``): with m x = ka + xa 2**-64 and
        m y = la + ya 2**-64, z loses m x floor(m y) - floor(m x) m y."""
        mu = u64c(m)
        shape = np.broadcast_shapes(fx.shape, fy.shape, z_hi.shape)
        xa, ya, za, ka = (ws.take(name, shape) for name in ("star.x", "star.y", "star.z", "t2"))
        mulhi_u64(fy, mu, out=za, tmp=xa)  # la
        za *= np.multiply(fx, mu, out=xa)
        mulhi_u64(fx, mu, out=ka, tmp=ya)
        ka *= np.multiply(fy, mu, out=ya)
        np.subtract(z_hi, za, out=za)  # z - xa la + ka ya
        za += ka
        return self.obs.eval_arrays(*_float_lanes(xa, ya, za, z_lo, ws), ws, out)

    def __call__(self, fx, fy, z_hi, z_lo, n, ws: Workspace = FRESH):
        """f_p conj(f_q) on the lanes, in ``ws``'s buffer ``star.f``; the q
        factor is evaluated only where the p factor is nonzero."""
        shape = np.broadcast_shapes(fx.shape, fy.shape, z_hi.shape, z_lo.shape)
        f1 = self._factor(self.p, fx, fy, z_hi, z_lo, ws,
                          ws.take("star.f", shape, np.complex128))
        on = np.flatnonzero(f1)
        fx, fy = (np.take(v, on, out=ws.take(name, on.shape), mode="clip")
                  for v, name in ((fx, "star.fx"), (fy, "star.fy")))
        zero = np.broadcast_to(np.uint64(0), on.shape)
        f2 = self._factor(self.q, fx, fy, zero, zero, ws)
        return _times_on(f1, on, np.conjugate(f2, out=f2), ws)

    def eval_star(self, x, y, z):
        """f_star at float star coordinates, taken mod 1 (vectorized).

        A coordinate in [0, 1) reaches the lanes exactly when it lies on the
        2**-64 grid (x, y) or the 2**-128 grid (z), as every float of at
        least 2**-12 (resp. 2**-76) does."""
        fx, _ = _q128_lanes(x)
        fy, _ = _q128_lanes(y)
        z_hi, z_lo = _q128_lanes(z)
        return self(fx, fy, z_hi, z_lo, None)


def _q128_lanes(v):
    """Floats mod 1 as (hi, lo) u64 lanes, v = hi/2**64 + lo/2**128 rounded down."""
    v = np.asarray(v, dtype=np.float64)
    s = (v - np.floor(v)) * 2.0**64
    hi = np.floor(s)
    lo = np.floor((s - hi) * 2.0**64)
    return (hi % 2.0**64).astype(np.uint64), lo.astype(np.uint64)
