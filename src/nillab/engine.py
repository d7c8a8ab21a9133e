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
workers).  A pass may scan several streams over the same n-chunks, one
prefix each.  A stream of stride m sums the cocycle of the m steps
n m .. n m + m - 1 at its step n, from a shift table m times as long, so
its prefix at n is S_{mn}: the prime-pair route is one pass over the
stride-p and stride-q skew streams, in which a chunk evaluates
F(T^{pn} x0) conj F(T^{qn} x0) from the S_{pn} and S_{qn} of its n, so it
holds no array longer than a segment.  From the origin the joining's
cocycle prefix is S*_n = S_{pn} - S_{qn} of the skew cocycle, bit for bit.
So when ``nillab run`` makes both the pair route's and the Weyl sums, the same
chunk forms S* over its stride-q prefix, once the pair product is made, and
evaluates them there too, into the ``sums`` of a :class:`PairScan`, a
record of the joining, its frequencies and checkpoints: S* is never stored,
and the joining scans none of its p + q lifts.  Its x lane is Davenport's,
frac(n alpha), so the (1, 0, 0) mode's quantized values times mu give
Davenport's sums too.  A chunk's results are folded
into running sums in chunk order as they finish, so a pass keeps no
per-chunk record.  Observable values are quantized to 2**-53 and summed in
integer arithmetic, which makes checkpoint sums bit-identical for any
worker count and segment size -- and equal to the naive single-loop oracle.

A chunk's lifts are summed on u64: per shift the periodic part of h on the
2**-53 grid, + for side p and - for side q, straight into the prefix
buffer, which is then shifted into the 2**-64 scale once and given the
affine part sum +-(d1 x + d2 y) in closed form.  Every lane of a chunk --
a shift's base points, the rotation lanes -- is one wrapping multiply-add
of the pass's shared offsets 0 .. S - 1, with the chunk's first step folded
into the constant, so neither the scan nor a support test makes a step
index array, and a support test makes no rotation lane either.

Each worker of a pass over segments holds one :class:`Workspace`: a few
segment-length buffers into which the cocycle values, the scan, the lanes,
their floats, the observable values and the quantized values are written in
place, segment after segment.  A worker of the pair pass fills four of them
a whole segment long (``scan.0`` and ``scan.1``, the lift's x lane ``t1``,
which the box test reuses, and float ``h.q``), one of the reduced pass or
of correlate three (one prefix), besides one-byte masks; ``t2`` and ``h.y``
join them only when h reads y, and ``h.t`` when it has two terms or more.
The rest fill only the support's length, but for the dense lanes of the
Weyl modes that the pair pass makes with a holder.  A workspace lives for
one pass -- at most one per worker, dropped when the pass returns -- so the
hot arrays are neither allocated nor page-faulted again per segment, and
the engine keeps no buffer between calls.  The kernels take their workspace
or buffers as optional arguments: ``u_values``, ``lanes``, ``mulhi_u64``
and the float lanes here, ``BaseFunctionSpec.periodic_q53`` (through
``u_values``), ``Observable.on_support`` and ``eval_arrays`` with their
bump, and ``observables.fourier_mode`` (through
``observables.fourier_value``, the Weyl and Davenport modes).  Without
them, as in the naive oracle and on the scalar path, the same code writes
into fresh arrays.  Only the index array of a support (``np.flatnonzero``)
and, in a weighted stream, the weights gathered on it are still made per
call.  A gather into a buffer is ``np.take(..., mode="clip")``: its indices
come from ``np.flatnonzero``, so clipping never acts, and the default mode
would copy through a temporary.

A value function -- what a stream sums -- is one of three things, and the
engine tells them apart by what it already knows.  An
:class:`~nillab.observables.Observable` of nonzero frequency and a
:class:`StarDescentSink` are recognized by type and evaluated on their
support (below), the sink on u64 lanes.  Anything else is a callable
``fn(x, y, z, n)`` of the float lanes in [0, 1) and the step indices, with
complex values of modulus at most 2; a base-mode observable is one.  Two
attributes refine it: with ``fn.wants_ws`` it is called with ``ws=`` the
worker's :class:`Workspace` too, and may write into any of its buffers but
``n`` and the float lanes, and return one; ``fn.ks``, the frequencies of
:func:`~nillab.observables.fourier_value`, lets a dense, unweighted mode that
reads z run on sorted phases (below) and :meth:`PairScan.holds` match held
sums.  These two stay attributes, not types: a wrapper that copies a
function's ``__dict__``, as the benchmark's tracer does, keeps them, where
it would lose a type.  The arrays a value function is given are valid only
during the call: the next segment reuses them.

Observables are evaluated only on their support.  F = e(xi z) bump(x, y)
vanishes off the bump's box, a quarter of the torus, and whether step n
lies there depends on the rotation lanes x = frac(x0 + n alpha) and y =
frac(y0 + n beta) alone, not on the cocycle.  So a chunk first takes the
support on them, without floats and without making them: the bump's
``lane_box`` [lo, hi] is the exact u64 preimage of its float test, and a
rotation lane is the affine form i step + base of the chunk's offsets i, so
i step + (base - lo) <= hi - lo mod 2**64 on each axis, one multiply-add
into scratch, keeps the same steps (on the descent's reductions, m step and
m base).  It narrows the support, for a mu-weighted stream, to mu != 0; for
the pair route to the steps where both T^{qn} x0 and T^{pn} x0 lie in the
box; for :class:`StarDescentSink` to those where both of its reductions do.
Only there does it build the lanes with their z and floats, evaluate F and
the product and quantize them, and :func:`_cut_sums` sums values given at
chunk offsets.  Davenport's wave, streamed alone, is likewise evaluated
only where mu != 0.  A value dropped would be an exact +-0 (a zero bump or
weight), which quantizes to 0, and at every step kept the same operations
run in the same order, so every checkpoint sum keeps its bits.  The naive
oracle still evaluates every step, and the dense paths test the box on
floats, so both check the lane path.

Order within a checkpoint interval is free.  :func:`_cut_sums` adds exact
integers, so the values between two cuts of a chunk (its ends and each
checkpoint in it) give the same sums in any order.  The dense, unweighted
Fourier modes whose phase reads z (k3 != 0) use that:
:func:`_sorted_mode` sorts a mode's phases within each interval and
evaluates the mode (1,) of them, elementwise, so every value keeps its
bits.  glibc's complex exp branches on the angle's range and quadrant; z is
pseudo-random in lane order, so those branches mispredict, and sorted they
do not (BENCH_sortedphase.json).  The x and y phases follow the rotation,
which the predictor follows already.  The x and y modes, Davenport's
mu-weighted twin (whose weights follow lane order) and every observable
evaluated on its support keep lane order.  The gain rests on the host: with
a branch-free exp, or without numpy's SIMD sort, the sort is pure cost.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .dynamics import JoiningSystem, SkewSystem
from .fixedpoint import FixedReal
from .heisenberg import HEISENBERG, canonical_rep, check_prime_pair, identity
from .observables import Observable, fourier_mode, fourier_phase, fourier_value, lane_form
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


_ZERO = np.zeros((), np.uint64)


def _zeros(shape) -> np.ndarray:
    """Read-only uint64 zeros of ``shape``, one broadcast 0: the cocycle and
    prefix of the zero h, and the z lo lane of a stream without a low limb,
    which :func:`_float_lanes` recognizes by its base and skips."""
    return np.broadcast_to(_ZERO, shape)


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
    with S_n the Birkhoff sum of H mod 1.  At stride m the cocycle of step n
    is that of the steps n m .. n m + m - 1 (a scan gives S_{mn}); ``lanes``
    takes steps of the orbit itself.
    """

    def __init__(self, alpha: FixedReal, beta: FixedReal, h, start, p: int, q: int, stride=1):
        x0, y0, z0 = start
        self.h = h
        self.reads_y = any(t.k2 for t in h.terms)
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
        self.axes = ((x, a), (y, b))  # (start, step) of the rotation lanes
        # c*(alpha*y0 - beta*x0) on the 2**-128 grid, wrapped mod 2**128
        self.cross = (twist * (a * y - b * x)) % (1 << 128)
        # at stride s, side m's h_m(m x, m y) of step i sums h at m x0 + j alpha +
        # i m s alpha, j < m s: per shift (subtract, base x, base y, step x, step y);
        # the zero h (Davenport's) lifts to 0 everywhere and has none
        zero_h = not (h.d1 or h.d2 or h.terms)
        self.shifts = [] if zero_h else [
            (minus, (m * x + j * a) & MASK64, (m * y + j * b) & MASK64,
             (m * stride * a) & MASK64, (m * stride * b) & MASK64)
            for minus, m in ((False, p), (True, q))
            for j in range(m * stride)
        ]
        # the affine part sum +-(d1 x + d2 y) over the shifts at step i is
        # i step + base, wrapped
        step = base = 0
        for minus, bx, by, sx, sy in self.shifts:
            sign = -1 if minus else 1
            step += sign * (h.d1 * sx + h.d2 * sy)
            base += sign * (h.d1 * bx + h.d2 * by)
        self.affine = (step & MASK64, base & MASK64)

    def u_values(self, i: np.ndarray, ws: Workspace = FRESH, name: str = "u", lo: int = 0):
        """The cocycle of steps lo + i, wrapped mod 1, in ``ws``'s buffer
        ``name``: H at the base points (x0, y0) + k (alpha, beta), summed
        over the stride's k = (lo + i) m .. (lo + i) m + m - 1.

        The periodic parts of the shifts (``periodic_q53``, on the 2**-53
        grid) are summed on u64, + for side p and - for side q, straight
        into the buffer; the sum is shifted into the 2**-64 scale once, and
        the affine part sum +-(d1 x + d2 y) is added in closed form, one
        multiply-add of i.  A shift's x lane is made in the scratch ``t1``
        (the first's in the buffer itself) with lo folded into its base, and
        ``periodic_q53`` writes over it once it has read it; the y lane, in
        ``t2``, is made only when a term reads y (k2 != 0).  u64 addition,
        multiplication and the shift are exact mod 2**64, so the values are
        those of the lifts shift by shift.  Without shifts (the zero h) the
        values are 0, a read-only broadcast that takes no buffer."""
        if not self.shifts:
            return _zeros(i.shape)
        acc = ws.take(name, i.shape)
        for k, (minus, bx, by, sx, sy) in enumerate(self.shifts):
            x = np.multiply(i, u64c(sx), out=acc if k == 0 else ws.take("t1", i.shape))
            x += u64c(bx + lo * sx)
            y = None
            if self.reads_y:
                y = np.multiply(i, u64c(sy), out=ws.take("t2", i.shape))
                y += u64c(by + lo * sy)
            q = self.h.periodic_q53(x, y, ws, out=x.view(np.int64)).view(np.uint64)
            if k:
                (np.subtract if minus else np.add)(acc, q, out=acc)
        acc <<= np.uint64(11)  # 2**-53 quanta into the 2**-64 scale
        step, base = self.affine
        if step or base:
            affine = np.multiply(i, u64c(step), out=ws.take("t1", i.shape))
            affine += u64c(base + lo * step)
            acc += affine
        return acc

    def rotation_forms(self, i: np.ndarray, lo: int = 0, m: int = 1):
        """(x frac, y frac) of steps m (lo + i) as affine forms (i, step,
        base) of the offsets ``i`` (see :func:`~nillab.observables.lane_form`),
        with lo folded into the base: the bits of the first two :meth:`lanes`
        without their floor parts, and no array."""
        return tuple((i, m * step & MASK64, (start + m * lo * step) & MASK64)
                     for start, step in self.axes)

    def lanes(self, n: np.ndarray, s: np.ndarray, ws: Workspace = FRESH):
        """(x frac, y frac, z hi, z lo) for step indices n with cocycle sums s,
        in ``ws``'s buffers ``fx``, ``fy``, ``z_hi`` and ``z_lo``.  A stream
        whose z has no low limb -- no cross term, as from x0 = y0 = 0, and a
        z0 on the 2**-64 grid -- gives the read-only zeros of :func:`_zeros`
        as its z lo, which :func:`_float_lanes` skips."""
        fx, fy, z_hi, kx, m = (ws.take(name, n.shape) for name in ("fx", "fy", "z_hi", "t1", "t2"))
        z_lo = _zeros(n.shape)
        if self.cross:
            z_lo = ws.take("z_lo", n.shape)
            _n_times_q128(self.cross, n, hi=z_hi, lo=z_lo)
            z_hi += s
        else:
            np.copyto(z_hi, s)
        if self.z0_lo:  # adding 0 cannot carry
            z0_lo = u64c(self.z0_lo)
            z_lo = np.add(z_lo, z0_lo, out=ws.take("z_lo", n.shape))
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


def _make_stream(system, start, stride: int = 1) -> _LaneStream:
    """The lanes of a skew system from a canonical start (default: identity),
    or of a joining from a point of [0, 1)^3 (default: origin), at ``stride``."""
    if isinstance(system, SkewSystem):
        if start is None:
            start = canonical_rep(identity())
        if start.law != HEISENBERG:
            raise ValueError("engine start must be a Heisenberg NilPoint")
        return _LaneStream(system.alpha, system.beta, system.h, start.coords(), 1, 0, stride)
    if isinstance(system, JoiningSystem):
        if start is None:
            start = (FixedReal(0), FixedReal(0), FixedReal(0))
        base = system.base
        return _LaneStream(base.alpha, base.beta, base.h, start, system.p, system.q, stride)
    raise TypeError(f"cannot stream orbits of {type(system).__name__}")


# ---------------------------------------------------------------------------
# exact quantized accumulation
# ---------------------------------------------------------------------------


def _exact_sum_i64(a: np.ndarray) -> int:
    """Exact integer sum of quantized values (|entry| <= 2**54 guaranteed)."""
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


def _xy_floats(fx, fy, ws: Workspace = FRESH):
    """The x and y lanes as floats in [0, 1), in ``ws``'s buffers ``xf`` and
    ``yf``: each lane cast to float64, then scaled by a power of two
    (exactly)."""
    shape = np.broadcast_shapes(fx.shape, fy.shape)
    xf, yf = (ws.take(name, shape, np.float64) for name in ("xf", "yf"))
    np.multiply(fx, 2.0**-64, out=xf)
    np.multiply(fy, 2.0**-64, out=yf)
    return xf, yf


def _float_lanes(fx, fy, z_hi, z_lo, ws: Workspace = FRESH):
    """The lanes of one shape as floats in [0, 1), in ``ws``'s buffers
    ``xf``, ``yf``, ``zf``, as :func:`_xy_floats` makes x and y.  A z lo of
    :func:`_zeros` is skipped: its float is +0, and z hi's float, which is
    not -0, plus +0 keeps its bits."""
    shape = np.broadcast_shapes(z_hi.shape, z_lo.shape)
    zf = np.multiply(z_hi, 2.0**-64, out=ws.take("zf", shape, np.float64))
    if z_lo.base is not _ZERO:
        zf += np.multiply(z_lo, 2.0**-128, out=ws.take("t1", shape, np.float64))
    return (*_xy_floats(fx, fy, ws), zf)


def _product(first: np.ndarray, second: np.ndarray, ws: Workspace):
    """``first * second`` in ``ws``'s buffer ``product``.  The first factor
    stays the left operand: under fused multiply-add, swapping the operands
    of a complex product changes its rounding.  The product goes to a buffer
    that aliases neither factor: numpy rounds an in-place complex product of
    one element without the fused multiply-add it uses at every other
    length, so a support of one point would change the bits."""
    return np.multiply(first, second, out=ws.take("product", first.shape, first.dtype))


# ---------------------------------------------------------------------------
# the single-pass stream
# ---------------------------------------------------------------------------


def _scan_segments(streams, plan: OrbitSegmentPlan, consume, fold) -> None:
    """One pass over the n-chunks (lo, hi] of 1 .. plan.n_total, a segment
    long each: ``fold(consume(lo, hi, *prefixes, ws))`` per chunk, in chunk
    order, one prefix array per stream of ``streams``.  A pass always folds
    and returns nothing: whatever it makes, ``fold`` keeps.

    The j-th prefix array holds the j-th stream's cocycle prefix sums (mod
    1) at n in (lo, hi] -- S_{mn} for a stream of stride m -- in the buffer
    ``scan.j`` of the worker's workspace ``ws``.  Chunk k computes each
    stream's ``u_values`` at lo .. hi - 1 once, from the pass's shared
    offsets 0 .. hi - lo - 1, and takes their local cumsum (none for the
    zero h, whose prefix is 0), then waits until chunk k - 1 has published
    its inclusive carries, adds them, and publishes its own, all at once,
    before it consumes.

    On one worker the caller runs every chunk in order.  On w workers, w
    threads each take the next chunk index under one lock, on whose
    condition chunk k waits, and keep one :class:`Workspace` for the pass;
    the caller waits for them.  A chunk's result is folded under the lock
    as soon as every earlier one has been, and a chunk is taken only while
    fewer than w chunks from the first unfolded one on are, so at most
    w - 1 results wait, however long one worker stalls.  A failing chunk is
    recorded against its index, stops further chunks from being taken and
    further results from being folded and wakes every waiter, which gives
    its chunk up; once every thread has ended, the failure of the lowest
    chunk is raised.  No workspace or thread outlives the call.
    """
    n_total, size = plan.n_total, plan.segment_size
    n_chunks = -(-n_total // size)
    offsets = np.arange(min(size, n_total), dtype=np.uint64)
    pending = {}  # the results that wait for an earlier chunk's
    failures = {}
    lock = threading.Condition()
    taken = ready = folded = 0  # chunks taken; carries published; results folded
    carries = [0] * len(streams)  # the last of them, per stream

    def job(k, ws):
        nonlocal ready, carries
        lo, hi = k * size, min(k * size + size, n_total)
        i = offsets[: hi - lo]
        prefixes = []
        for j, stream in enumerate(streams):
            u = stream.u_values(i, ws, f"scan.{j}", lo)
            prefixes.append(np.cumsum(u, dtype=np.uint64, out=u) if stream.shifts else u)
        with lock:
            lock.wait_for(lambda: ready == k or failures)
            if failures:  # the chain is broken: give the chunk up
                return None
        for s, carry in zip(prefixes, carries):
            if carry:  # the zero h's prefix, read-only, has carry 0
                s += u64c(carry)
        with lock:
            ready, carries = k + 1, [int(s[-1]) for s in prefixes]
            lock.notify_all()
        return consume(lo, hi, *prefixes, ws)

    def work():
        nonlocal taken, folded
        ws = Workspace(offsets.size, offsets)
        while True:
            with lock:
                # a chunk is taken only within w of the first unfolded one
                lock.wait_for(lambda: taken - folded < workers or failures)
                if taken == n_chunks or failures:
                    return
                k, taken = taken, taken + 1
            try:
                result = job(k, ws)
                with lock:
                    if failures:  # nothing is folded once the pass has failed
                        return
                    pending[k] = result
                    while folded in pending:
                        fold(pending.pop(folded))
                        folded += 1
                    lock.notify_all()
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


def _cut_sums(values, lo: int, hi: int, checkpoints, ws: Workspace = FRESH, at=None,
              weights=None):
    """Exact quantized sums of the values of steps lo+1 .. hi: one prefix sum
    per checkpoint among those steps, then the totals.  ``values`` holds
    every step's value or, given ``at``, the values at the ascending chunk
    offsets ``at`` (step lo + 1 + offset), every other step's value being
    0; a checkpoint's prefix then ends at the first offset that is past it.
    Every value summed is checked against the accumulation bound.

    Given int8 ``weights`` in {-1, 0, 1} of the first steps (the rest weigh
    0) and values of every step, the quantized values are then multiplied
    by them in place and summed again, into a second triple: w v is an
    exact sign flip or a signed zero, and rint is odd, so those are the
    sums of w v."""
    v = np.asarray(values)
    cuts = [c for c in checkpoints if lo < c <= hi]
    ends = [c - lo for c in cuts]
    if at is not None:
        ends = np.searchsorted(at, ends).tolist()
    complex_v = np.iscomplexobj(v)
    peak = _peak(v)
    if not np.isfinite(peak) or peak > _VALUE_BOUND:
        raise ValueError(
            f"observable value magnitude {peak} exceeds the accumulation bound "
            f"{_VALUE_BOUND}"
        )

    def part_sums(part):
        q = _quantize(part, ws)  # one part at a time, through one buffer
        yield [_exact_sum_i64(q[:k]) for k in ends], _exact_sum_i64(q)
        if weights is not None:
            q = np.multiply(q[: weights.size], weights, out=q[: weights.size])
            yield [_exact_sum_i64(q[:k]) for k in ends], _exact_sum_i64(q)

    re = list(part_sums(v.real))  # before the imaginary part takes the buffer
    im = list(part_sums(v.imag)) if complex_v else [([0] * len(cuts), 0)] * len(re)
    # a tuple: most chunks hold no checkpoint, and the empty tuple is shared
    out = [(tuple(zip(cuts, re_cuts, im_cuts)), re_tot, im_tot)
           for (re_cuts, re_tot), (im_cuts, im_tot) in zip(re, im)]
    return out[0] if weights is None else out


def _lanes_on(stream: _LaneStream, lo: int, hi: int, s, on, ws: Workspace, m: int = 1):
    """The step indices m n, for the chunk's n in (lo, hi] at its offsets
    ``on`` (all of them when None), in ``ws``'s buffer ``n``, and
    ``stream``'s lanes there, from their cocycle sums ``s`` (all of the
    chunk's)."""
    i = ws.offsets[: hi - lo] if on is None else on.view(np.uint64)
    mn = np.add(i, u64c(lo + 1), out=ws.take("n", i.shape))
    if on is not None:
        s = np.take(s, on, out=ws.take("s.on", on.shape), mode="clip")
    if m != 1:
        mn *= u64c(m)
    return mn, stream.lanes(mn, s, ws)


def _sorted_mode(ks, floats, ends, ws: Workspace):
    """The mode ``ks`` of the float lanes ``floats``, its values permuted
    within each interval of offsets cut at ``ends``: its phase in the
    scratch ``t1`` (a copy when it is a float lane, which later modes read),
    sorted in place interval by interval, then the mode (1,) of it, in
    ``ws``'s buffer ``mode.v``."""
    phase = fourier_phase(ks, floats, ws)
    if any(phase is c for c in floats):
        t1 = ws.take("t1", phase.shape, np.float64)
        np.copyto(t1, phase)
        phase = t1
    for a, b in zip([0, *ends], [*ends, phase.size]):
        phase[a:b].sort()
    return fourier_mode((1,), (phase,), ws)


def _value_sums(stream: _LaneStream, value_fns, checkpoints, lo: int, hi: int, s,
                ws: Workspace, weights=None, twin=None) -> list:
    """``_cut_sums`` of each of ``value_fns`` on the steps lo+1 .. hi of
    ``stream``, whose cocycle prefixes are ``s``, weighted by
    ``weights(lo + 1, hi + 1)`` when given.  A consume of
    :func:`_scan_segments` once the first three are bound.  Given
    ``twin = (j, dense)``, the j-th function's sums weighted by ``dense``,
    taken up to the last checkpoint, follow last; its values must be every
    step's (no ``weights``, no support).

    Each value function is evaluated, and its lanes are built, only where
    it can be nonzero.  An observable of nonzero frequency vanishes off its
    bump's open box, a descent sink off the steps where both of its
    reductions lie in that box; the rotation lanes alone give that support,
    by the bump's lane box on their affine forms, which is narrowed to the
    nonzero weights, and the lanes, their floats and the value follow there.
    The other value functions share the lanes of every step, or of every
    step of nonzero weight; without weights, a Fourier mode that reads z is
    evaluated on its phases sorted within each checkpoint interval
    (:func:`_sorted_mode`).  Every value dropped is an exact +-0 (a zero
    bump or weight), which quantizes to 0, so the sums keep their bits."""
    w = None if weights is None else weights(lo + 1, hi + 1)
    shared = None  # (offsets, steps, float lanes) of the functions without a support
    out = []
    twin_sums = []
    for j, fn in enumerate(value_fns):
        if isinstance(fn, StarDescentSink) or (isinstance(fn, Observable) and fn.xi):
            where = None if w is None else np.not_equal(w, 0, out=ws.take("w.on", w.shape, bool))
            forms = stream.rotation_forms(ws.offsets[: hi - lo], lo + 1)
            if isinstance(fn, StarDescentSink):
                on = fn.support(*forms, ws, where)
                v = fn.on_support(*_lanes_on(stream, lo, hi, s, on, ws)[1], ws)
            else:
                on = fn.bump.support_lanes(*forms, ws, where)
                v = fn.on_support(*_float_lanes(*_lanes_on(stream, lo, hi, s, on, ws)[1], ws), ws)
            shared = None  # these lanes took the shared lanes' buffers
        else:
            if shared is None:
                on = None if w is None else np.flatnonzero(w)
                n, lanes = _lanes_on(stream, lo, hi, s, on, ws)
                shared = (on, n, _float_lanes(*lanes, ws))
            on, n, floats = shared
            ks = getattr(fn, "ks", ())
            if w is None and len(ks) > 2 and ks[2]:  # a dense mode that reads z
                ends = [c - lo for c in checkpoints if lo < c <= hi]
                v = _sorted_mode(ks, floats, ends, ws)
            elif getattr(fn, "wants_ws", False):
                v = fn(*floats, n, ws=ws)
            else:
                v = fn(*floats, n)
        if w is not None:
            w_on = np.take(w, on)
            v = np.multiply(v, w_on, out=ws.take("w", v.shape, np.result_type(v, w_on)))
        if twin is not None and j == twin[0]:
            end = min(hi, checkpoints[-1]) + 1
            sums, weighted = _cut_sums(v, lo, hi, checkpoints, ws, on,
                                       twin[1](min(lo + 1, end), end))
            out.append(sums)
            twin_sums.append(weighted)
        else:
            out.append(_cut_sums(v, lo, hi, checkpoints, ws, on))
    return out + twin_sums


class _CheckpointSums:
    """The checkpoint sums of ``count`` value functions, folded from
    consecutive chunks' lists of ``_cut_sums``, one per function: ``sums``
    holds each function's ``(N, complex_sum)`` so far, and a chunk is added
    by calling the fold with its list.  Only the running totals are kept."""

    def __init__(self, count: int):
        self.sums = [[] for _ in range(count)]
        self._totals = [(0, 0)] * count

    def __call__(self, chunk):
        for j, (cut_sums, tot_re, tot_im) in enumerate(chunk):
            re0, im0 = self._totals[j]
            self.sums[j] += [(c, complex((re0 + cre) / Q53, (im0 + cim) / Q53))
                             for c, cre, cim in cut_sums]
            self._totals[j] = (re0 + tot_re, im0 + tot_im)


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

    ``value_fns`` are value functions (see the module docstring for what
    one may be).  ``weights`` is an optional callable
    ``(lo, hi) -> int8`` giving multiplicative weights for steps lo+1 .. hi.
    A value function is called only at the steps that can add to its sums:
    those of nonzero weight, and, for an observable of nonzero frequency or
    a descent sink, those of its support (see :func:`_value_sums`); its
    ``n`` names them.
    Returns, per value function, a list of ``(N, complex_sum)`` with the
    *unnormalized* sum over n <= N, exactly accumulated on the 2**-53 grid.
    Sums that ``pair_scan`` holds (see :meth:`PairScan.holds`) are copies
    of its ``sums``, or of its ``weighted_sums`` when weighted; nothing is
    streamed then.
    """
    n_total = plan.n_total
    checkpoints = _checkpoints_within([n_total] if checkpoints is None else checkpoints, n_total)
    if pair_scan is not None and pair_scan.holds(system, start, value_fns, checkpoints, weights):
        return [list(s) for s in (pair_scan.sums if weights is None else pair_scan.weighted_sums)]
    stream = _make_stream(system, start)
    consume = partial(_value_sums, stream, value_fns, checkpoints, weights=weights)
    fold = _CheckpointSums(len(value_fns))
    _scan_segments((stream,), plan, consume, fold)
    return fold.sums


def orbit_stream(system, start, plan, value_fn, weights=None, checkpoints=None):
    """Single-observable form of :func:`orbit_stream_multi`."""
    return orbit_stream_multi(system, start, plan, [value_fn], weights, checkpoints)[0]


def orbit_stream_naive(system, start, n_total, value_fn, weights=None, checkpoints=None):
    """Single-threaded reference loop; must agree with the engine bit for bit.

    Reuses the same per-step kernels pointwise (length-1 arrays) but performs
    no segmentation, scan, or vector accumulation, and evaluates every step
    through the dense value functions (a :class:`StarDescentSink` called on
    the u64 lanes, any other on the float lanes, as ``Observable.eval_arrays``
    is), so it checks the engine's support-first evaluation rather than
    sharing it.  ``checkpoints`` are checked as :func:`orbit_stream`
    checks them.
    """
    cset = set(_checkpoints_within([n_total] if checkpoints is None else checkpoints, n_total))
    stream = _make_stream(system, start)
    s = re_tot = im_tot = 0
    out = []
    for i in range(n_total):
        iu = np.array([i], dtype=np.uint64)
        s = (s + int(stream.u_values(iu)[0])) & MASK64
        n = i + 1
        n_arr = np.array([n], dtype=np.uint64)
        lanes = stream.lanes(n_arr, np.array([s], dtype=np.uint64))
        if isinstance(value_fn, StarDescentSink):
            v = value_fn(*lanes, n_arr)
        else:
            v = value_fn(*_float_lanes(*lanes), n_arr)
        if weights is not None:
            v = v * weights(n, n + 1)
        _, re, im = _cut_sums(v, i, n, [])
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

    chunks = []
    _scan_segments((stream,), OrbitSegmentPlan(int(want[-1])), consume, chunks.append)
    s = np.concatenate(chunks)
    xf, yf, zf = _float_lanes(*stream.lanes(want.astype(np.uint64), s))
    return [(int(v), float(x), float(y), float(z)) for v, x, y, z in zip(want, xf, yf, zf)]


# ---------------------------------------------------------------------------
# the prime-pair stream
# ---------------------------------------------------------------------------


class PairScan:
    """A record of the joining ``js``, its Weyl frequencies ``freqs``, its
    ``checkpoints`` and, optionally, Davenport's weights, whose ``sums`` and
    ``weighted_sums`` the pass of a pair route of the same rotation, h and
    pair fills, for the rest of one run.

    From x0 = y0 = 0 the joining's cocycle h_p(p., p.) - h_q(q., q.) sums h
    over the same points k alpha as the skew cocycle, so its prefix at n is
    S*_n = S_{pn} - S_{qn}, bit for bit on the u64 lanes.  The pass of a pair
    route from there to the last of ``checkpoints`` forms S* per n-chunk from
    its stride-p and stride-q streams' prefixes and sets ``sums`` to the
    checkpoint sums of e(k . orbit_n) for each k in ``freqs``
    (:func:`~nillab.observables.fourier_value`), which the Weyl stream of
    ``js`` (see :meth:`holds`) returns instead of scanning its p + q lifts.

    Given ``weights`` (the run's mu), the pass also sets ``weighted_sums``
    to Davenport's: the x lane of its zero-h rotation from the identity is
    the joining's, frac(n alpha), so its wave e(x) is the (1, 0, 0) mode
    bit for bit, and its quantized values are mu times the mode's.  Only a
    run of both the pair route and the Weyl sums makes a holder; the engine
    keeps none between calls.
    """

    def __init__(self, js: JoiningSystem, freqs, checkpoints, weights=None):
        self.js = js
        self.freqs = [tuple(int(k) for k in f) for f in freqs]
        self.checkpoints = check_checkpoints(checkpoints)
        if weights is not None and (1, 0, 0) not in self.freqs:
            raise ValueError("Davenport's sums need the Weyl frequency (1, 0, 0)")
        self.weights = weights
        self.sums = None  # per frequency, once a pass has made them
        self.weighted_sums = None  # Davenport's, in a list of one, when weights are given

    def holds(self, system, start, value_fns, checkpoints, weights=None) -> bool:
        """Whether the held sums are those of ``value_fns`` at ``checkpoints``
        along ``system`` from ``start``, weighted by ``weights``: unweighted,
        ``sums`` for ``js`` from None or the origin; weighted by the holder's
        own ``weights``, ``weighted_sums`` for Davenport's wave ``(1,)`` on a
        zero-h skew system of ``js``'s alpha from None or the identity.  No
        stream checks the start first, so it is matched exactly."""
        if self.sums is None or list(checkpoints) != self.checkpoints:
            return False
        ks = [getattr(fn, "ks", None) for fn in value_fns]
        if weights is None:
            return (system == self.js and ks == self.freqs and (start is None or (
                len(start) == 3 and all(isinstance(c, FixedReal) and c == 0 for c in start))))
        return (weights == self.weights and ks == [(1,)] and isinstance(system, SkewSystem)
                and system.alpha == self.js.base.alpha
                and not (system.h.d1 or system.h.d2 or system.h.terms)
                and (start is None or start == canonical_rep(identity())))


def pair_factor_values(sys: SkewSystem, start, p: int, q: int, n_pairs: int,
                       plan_template: OrbitSegmentPlan, obs, checkpoints=None, *,
                       pair_scan: PairScan | None = None):
    """Exact checkpoint sums of F(T^{p n} x0) conj(F(T^{q n} x0)) over
    n <= N, from the skew cocycle at strides p and q.

    One :func:`_scan_segments` pass over the stride-p and stride-q skew
    streams and the n-chunks of ``plan_template``'s segment size: the chunk
    (lo, hi] is given S_{pn} and S_{qn} for n in (lo, hi].  From the
    rotation lanes at q n and p n alone, by the bump's lane box, it takes
    the n at which both lie in the box, where the product can be nonzero
    (every n for a base mode).  Only there does it build the lanes at q n
    and p n, evaluate F at both and sum the quantized products, so no
    per-step array longer than a chunk is formed.  Returns ``(N, sum)`` for each checkpoint N
    (default ``[n_pairs]``), unnormalized, like :func:`orbit_stream_multi`.

    Given a ``pair_scan`` of the joining of ``(sys, p, q)``, a start at
    x = y = 0 and N at least its last checkpoint, each chunk then writes
    S*_n = S_{pn} - S_{qn}, n in (lo, hi], over its S_{qn} and makes
    the Weyl sums on the joining's lanes from it as
    :func:`orbit_stream_multi` would; the pass sets them as the holder's
    ``sums``, for the Weyl sums of ``nillab run`` to return, and a holder
    with weights Davenport's as its ``weighted_sums``.
    """
    checkpoints = _checkpoints_within(
        [n_pairs] if checkpoints is None else checkpoints, n_pairs
    )
    # ``lanes`` does not read the stride: the stride-p stream's serve q n too
    strided = [_make_stream(sys, start, m) for m in (p, q)]
    stream = strided[0]
    plan = resize_plan(plan_template, n_pairs)
    weyl = (pair_scan is not None
            and (pair_scan.js.base, pair_scan.js.p, pair_scan.js.q) == (sys, p, q)
            and stream.x0u == stream.y0u == 0 and n_pairs >= pair_scan.checkpoints[-1])
    if weyl:
        joining = _make_stream(pair_scan.js, None)
        weyl_fns = [fourier_value(k) for k in pair_scan.freqs]
        twin = None if pair_scan.weights is None else (
            pair_scan.freqs.index((1, 0, 0)), pair_scan.weights)

    def pairs(lo, hi, s_p, s_q, ws):
        def factor(m, s, name):
            """F(T^{m n} x0) for the chunk's n at the offsets ``on``, in
            ``ws``'s buffer ``name``."""
            xf, yf, zf = _float_lanes(*_lanes_on(stream, lo, hi, s, on, ws, m)[1], ws)
            return obs.on_support(xf, yf, zf, ws, ws.take(name, zf.shape, np.complex128))

        # the steps where both factors can be nonzero (all, for a base mode),
        # from the rotation lanes at q n and p n; conj(F_q) * F_p there, in
        # this order (see _product)
        on = None
        if obs.xi:
            i = ws.offsets[: hi - lo]
            in_q = obs.bump.inside_lanes(*stream.rotation_forms(i, lo + 1, q), ws,
                                         out=ws.take("pair.in", i.shape, np.bool_))
            on = obs.bump.support_lanes(*stream.rotation_forms(i, lo + 1, p), ws, where=in_q)
        f_q = factor(q, s_q, "pair.f")
        values = _product(np.conjugate(f_q, out=f_q), factor(p, s_p, "obs.e"), ws)
        pair = _cut_sums(values, lo, hi, checkpoints, ws, on)
        if not weyl:
            return [pair]
        # S*_n over the stride-q prefix, which nothing reads after the product;
        # the zero h's prefixes are read-only zeros, and so is S* then
        star = np.subtract(s_p, s_q, out=s_q) if stream.shifts else s_q
        return [pair, *_value_sums(joining, weyl_fns, pair_scan.checkpoints, lo, hi, star, ws,
                                   twin=twin)]

    held = len(weyl_fns) + (twin is not None) if weyl else 0
    fold = _CheckpointSums(1 + held)
    _scan_segments(strided, plan, pairs, fold)
    if weyl:
        pair_scan.sums = fold.sums[1 : 1 + len(weyl_fns)]
        pair_scan.weighted_sums = fold.sums[1 + len(weyl_fns) :] or None
    return fold.sums[0]


def checkpoint_sums(values: np.ndarray, checkpoints) -> list[tuple[int, complex]]:
    """Exact quantized checkpoint sums of 1-indexed per-step values."""
    checkpoints = _checkpoints_within(checkpoints, values.size)
    fold = _CheckpointSums(1)
    fold([_cut_sums(values, 0, values.size, checkpoints)])
    return fold.sums[0]


class StarDescentSink:
    """The pair observable f (x) conj(f) descended to the reduced space X_star.

    f(x1) conj f(x2) is invariant under the diagonal central shift, so it
    descends: at a trivialized star point (x, y, z) it is evaluated on the
    pair representative ((p x, p y, z), (q x, q y, 0)), each factor reduced
    exactly to the fundamental domain of X on the u64 lanes.  The product
    can be nonzero only where both reductions' (x, y) lie in the bump's
    open box, which the x and y lanes decide alone: the engine takes that
    :meth:`support` from the joining's rotation lanes and builds the z lanes
    and evaluates :meth:`on_support` only there.  Called on lanes, the sink
    scatters the same values (+0 off the support); :meth:`eval_star` takes
    float star coordinates.
    """

    def __init__(self, obs, p: int, q: int):
        if obs.xi == 0:
            raise ValueError("descent requires a nonzero vertical frequency")
        check_prime_pair(p, q)
        self.obs = obs
        self.p = p
        self.q = q

    def support(self, fx, fy, ws: Workspace = FRESH, where=None, *, floats=False):
        """The flat indices of the x, y lanes at which both reductions,
        (p x, p y) and (q x, q y) mod 1, lie in the bump's open box, and
        where ``where`` holds when it is given: by the bump's lane box on the
        reduced lanes, whose affine forms (see
        :func:`~nillab.observables.lane_form`) are the lanes' times m; or,
        with ``floats``, on lane arrays, by its float test on the reduced
        lanes' floats (``star.x`` and ``star.y`` in ``ws``), as the dense
        :meth:`__call__` takes it."""
        forms = lane_form(fx), lane_form(fy)
        shape = np.broadcast_shapes(*(np.shape(i) for i, _, _ in forms))
        bump = self.obs.bump
        inside, support = (bump.inside, bump.support) if floats else (
            bump.inside_lanes, bump.support_lanes)

        def reduced(m):
            if not floats:
                return tuple((i, step * m & MASK64, base * m & MASK64) for i, step, base in forms)
            xa, ya = (np.multiply(v, u64c(m), out=ws.take(name, shape))
                      for v, name in ((fx, "star.x"), (fy, "star.y")))
            return _xy_floats(xa, ya, ws)

        on_p = inside(*reduced(self.p), ws, out=ws.take("star.in", shape, np.bool_))
        if where is not None:
            on_p &= where
        return support(*reduced(self.q), ws, where=on_p)

    def _factor(self, m: int, fx, fy, z_hi, z_lo, ws: Workspace, out=None):
        """f at the X-reduction of (m x, m y, z), for lanes whose reduction
        lies in the bump's open box, into ``out`` (by default ``ws``'s
        buffer ``obs.e``): with m x = ka + xa 2**-64 and m y = la + ya
        2**-64, z loses m x floor(m y) - floor(m x) m y."""
        mu = u64c(m)
        shape = np.broadcast_shapes(fx.shape, fy.shape, z_hi.shape)
        xa, ya, za, ka = (ws.take(name, shape) for name in ("star.x", "star.y", "star.z", "t2"))
        mulhi_u64(fy, mu, out=za, tmp=xa)  # la
        za *= np.multiply(fx, mu, out=xa)
        mulhi_u64(fx, mu, out=ka, tmp=ya)
        ka *= np.multiply(fy, mu, out=ya)
        np.subtract(z_hi, za, out=za)  # z - xa la + ka ya
        za += ka
        return self.obs.on_support(*_float_lanes(xa, ya, za, z_lo, ws), ws, out)

    def on_support(self, fx, fy, z_hi, z_lo, ws: Workspace = FRESH):
        """f_p conj(f_q) on lanes at which both reductions lie in the bump's
        open box (see :meth:`support`), in ``ws``'s buffer ``product``."""
        shape = np.broadcast_shapes(fx.shape, fy.shape, z_hi.shape, z_lo.shape)
        f1 = self._factor(self.p, fx, fy, z_hi, z_lo, ws,
                          ws.take("star.f", shape, np.complex128))
        zero = _zeros(shape)
        f2 = self._factor(self.q, fx, fy, zero, zero, ws)
        return _product(f1, np.conjugate(f2, out=f2), ws)

    def __call__(self, fx, fy, z_hi, z_lo, n, ws: Workspace = FRESH):
        """f_p conj(f_q) on lanes of one shape, in ``ws``'s buffer
        ``star.v``: :meth:`on_support` at the lanes on the support, +0
        elsewhere.  The support is taken by the float test, so this dense
        path checks the engine's lane box."""
        on = self.support(fx, fy, ws, floats=True)
        lanes = (np.take(v, on, out=ws.take(name, on.shape), mode="clip") for v, name in
                 zip((fx, fy, z_hi, z_lo), ("star.fx", "star.fy", "star.zh", "star.zl")))
        out = ws.take("star.v", np.shape(fx), np.complex128)
        out.fill(0)
        np.put(out, on, self.on_support(*lanes, ws))
        return out

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
