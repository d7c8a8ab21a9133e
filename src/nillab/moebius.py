"""Mobius sieving and the correlation estimators.

mu(n) is (-1)^k on squarefree n with k prime factors and 0 otherwise.  The
sieve is segmented into blocks of 2^20 and vectorized on one int32 array per
block holding the signed product of the distinct base primes (those up to
sqrt(N)) that divide n, each entering as -p.  A block starts from a copy of
the wheel: one period, 30030 = 2 * 3 * 5 * 7 * 11 * 13, of that product over
the six smallest primes, tiled in at lo % 30030.  Every other base prime
multiplies its multiples by -p.  sign(product) is then mu up to the single
possible prime factor above sqrt(N), which shows as |product| != n and flips
the sign.  int32 stays exact: |product| is a product of distinct primes
dividing n <= 10^9 < 2^31.  The multiples of the squares p^2 are set to
mu = 0 last, on the codes: the squares up to the block length one strided
assignment each, and the larger ones, which have at most one multiple per
block, all in one indexed assignment.  Values are packed two bits per entry
(codes mu + 1), a quarter byte each, so 10^9 fits comfortably in memory.
The buffers of a block are made once per sieve.  Reading goes through byte
tables: ``mu_slice`` looks each packed byte up in a 256 x 4 table of its four
mu values, and ``mertens`` sums whole bytes through a 256-entry table of
their mu sums.

Estimators (all streamed through the deterministic orbit engine, hence
byte-reproducible for any worker count):

* correlation_sum   --  (1/N) sum F(T^n x0) mu(n)
* bilinear_sum      --  (1/N) sum F(T^{pn} x0) conj(F(T^{qn} x0))  (no mu)
* bilinear_sum_reduced -- the same quantity via the reduced joining orbit
* davenport_baseline -- (1/N) sum mu(n) e(n alpha), the classical reference
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import BaseFunctionSpec, SkewSystem, build_joining
from .engine import (
    OrbitSegmentPlan,
    PairScan,
    StarDescentSink,
    check_checkpoints,
    orbit_stream,
    pair_factor_values,
    resize_plan,
)
from .fixedpoint import FixedReal
from .heisenberg import NilPoint
from .observables import Observable, fourier_value

MAX_SIEVE = 10**9
_BLOCK = 1 << 20
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)


def _wheel() -> np.ndarray:
    """Entry r is the product of -p over the wheel primes p dividing r, which
    is the same for every n = r (mod 30030)."""
    wheel = np.ones(math.prod(_WHEEL_PRIMES), dtype=np.int32)
    for p in _WHEEL_PRIMES:
        wheel[::p] *= -p
    return wheel


_WHEEL = _wheel()
# times a word of four codes (at most 2, at bits 0, 8, 16, 24) this puts them
# at bits 24, 26, 28, 30; the cross terms below bit 24 sum to less than 2^24
_GATHER = np.uint32((1 << 24) + (1 << 18) + (1 << 12) + (1 << 6))


def sieve_mobius(n_max: int) -> "MobiusTable":
    """Sieve mu(n) for 1 <= n <= n_max into a packed table."""
    if not (1 <= n_max <= MAX_SIEVE):
        raise ValueError(f"sieve bound must be in [1, {MAX_SIEVE}]")
    # the table first: buffers made after it can go back to the OS at the end
    packed = np.zeros((n_max + 4) // 4 + 1, dtype=np.uint8)
    work = _SieveWork(_base_primes(math.isqrt(n_max)), min(_BLOCK, n_max))
    for lo in range(1, n_max + 1, _BLOCK):
        hi = min(lo + _BLOCK, n_max + 1)
        _sieve_block(lo, hi, work)
        _pack_into(packed, lo, hi, work)
    return MobiusTable(n_max, packed)


def _base_primes(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.nonzero(is_p)[0].astype(np.int64)


class _SieveWork:
    """What one sieve reuses across its blocks of at most ``length`` entries:
    the base primes by the step that handles them, and the block buffers.

    A square p^2 <= ``length`` may have many multiples in a block, a larger
    one at most one.  ``codes`` holds a block [lo, hi) at offset lo % 4, so
    its codes fill whole little-endian words aligned as the packed bytes are.
    """

    def __init__(self, base: np.ndarray, length: int):
        # (p, -p), the factor an int32 scalar, which numpy applies faster
        self.strided = [(p, np.int32(-p)) for p in base[base > _WHEEL_PRIMES[-1]].tolist()]
        squares = base * base
        self.small_squares = squares[squares <= length].tolist()
        self.large_squares = squares[squares > length]
        self.prod = np.empty(length, dtype=np.int32)
        self.ramp = np.arange(length, dtype=np.int32)
        self.positive = np.empty(length, dtype=bool)
        self.whole = np.empty(length, dtype=bool)
        self.codes = np.empty(length + 8, dtype=np.uint8)


def _sieve_block(lo: int, hi: int, work: _SieveWork) -> np.ndarray:
    """Codes mu(n) + 1 for n in [lo, hi), as a view of ``work.codes``.

    ``prod`` collects the signed product of the distinct base primes dividing
    n, starting from the wheel tiled in at lo % 30030; primes of the wheel
    above sqrt(n_max) only complete the product of the n they divide.  Being
    a product of distinct primes dividing n <= MAX_SIEVE < 2^31, ``|prod|``
    never overflows int32.  ``|prod| - ramp == lo`` marks the n whose prime
    factors all entered (``whole``); elsewhere a squarefree n has exactly one
    prime factor more, so mu(n) = +1 where ``whole`` equals ``prod > 0``.  The
    multiples of the squares are set to code 1 (mu = 0) afterwards: one
    strided assignment per small square, one indexed assignment for all the
    large ones.
    """
    n = hi - lo
    prod = work.prod[:n]
    r = lo % _WHEEL.size
    head = min(_WHEEL.size - r, n)
    periods, tail = divmod(n - head, _WHEEL.size)
    prod[:head] = _WHEEL[r : r + head]
    prod[head : n - tail].reshape(periods, _WHEEL.size)[...] = _WHEEL
    prod[n - tail :] = _WHEEL[:tail]
    for p, minus_p in work.strided:
        w = prod[(-lo) % p :: p]
        np.multiply(w, minus_p, out=w)
    positive, whole = work.positive[:n], work.whole[:n]
    np.greater(prod, 0, out=positive)
    np.abs(prod, out=prod)
    np.subtract(prod, work.ramp[:n], out=prod)
    np.equal(prod, lo, out=whole)
    np.equal(whole, positive, out=positive)
    codes = work.codes[lo % 4 : lo % 4 + n]
    np.left_shift(positive.view(np.uint8), 1, out=codes)
    for sq in work.small_squares:
        codes[(-lo) % sq :: sq] = 1
    first = (-lo) % work.large_squares
    codes[first[first < n]] = 1
    return codes


def _pack_into(packed: np.ndarray, lo: int, hi: int, work: _SieveWork):
    """OR the codes of block [lo, hi) into the 2-bit packed array (blocks never
    overlap except possibly at shared boundary bytes, where OR merges them;
    the slots of a word outside the block hold code 0)."""
    a = lo % 4
    words = (a + hi - lo + 3) // 4
    codes = work.codes[: 4 * words]
    codes[:a] = 0
    codes[a + hi - lo :] = 0
    word = codes.view("<u4")
    np.multiply(word, _GATHER, out=word)
    packed[lo // 4 : lo // 4 + words] |= codes[3::4]


# _DECODE[b] holds the four mu values packed in byte b; _BYTE_SUM[b] their sum
_DECODE = (((np.arange(256)[:, None] >> np.array([0, 2, 4, 6])) & 3) - 1).astype(np.int8)
_BYTE_SUM = _DECODE.sum(axis=1).astype(np.int8)


@dataclass(frozen=True, eq=False)
class MobiusTable:
    """Packed mu values for 1 <= n <= n_max (two bits per entry)."""

    n_max: int
    packed: np.ndarray

    def mu_slice(self, lo: int, hi: int) -> np.ndarray:
        """mu(n) for n in [lo, hi) as an int8 array."""
        if not (1 <= lo <= hi <= self.n_max + 1):
            raise ValueError(f"slice [{lo}, {hi}) outside table range [1, {self.n_max}]")
        b0 = lo // 4
        quads = np.take(_DECODE, self.packed[b0 : (hi + 3) // 4], axis=0)
        return quads.reshape(-1)[lo - 4 * b0 : hi - 4 * b0]

    def mu(self, n: int) -> int:
        return int(self.mu_slice(n, n + 1)[0])

    def mertens(self, n: int) -> int:
        """M(n) = sum_{k<=n} mu(k), exact.

        Whole bytes inside [1, n] are summed through ``_BYTE_SUM``; the partial
        bytes at either end are decoded.  Byte 0 holds slot n = 0 and the last
        byte may hold padding past n_max, which decode as -1 and so are never
        summed whole.
        """
        if not (1 <= n <= self.n_max):
            raise ValueError("mertens argument outside table range")
        head = min(4, n + 1)  # [1, head) lies in byte 0
        tail = max(head, (n + 1) // 4 * 4)  # bytes [1, tail // 4) are whole
        total = int(self.mu_slice(1, head).sum()) + int(self.mu_slice(tail, n + 1).sum())
        for b in range(1, tail // 4, _BLOCK):
            chunk = self.packed[b : min(b + _BLOCK, tail // 4)]
            total += int(np.take(_BYTE_SUM, chunk).sum(dtype=np.int64))
        return total


# ---------------------------------------------------------------------------
# correlation reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationPoint:
    n: int
    value: complex

    @property
    def modulus(self) -> float:
        return abs(self.value)


@dataclass(frozen=True)
class CorrelationReport:
    checkpoints: tuple[CorrelationPoint, ...]
    metadata: dict = field(default_factory=dict)

    def value_at(self, n: int) -> complex:
        for c in self.checkpoints:
            if c.n == n:
                return c.value
        raise KeyError(f"no checkpoint at N={n}")


def _normalize(sums, metadata) -> CorrelationReport:
    pts = tuple(CorrelationPoint(n, s / n) for n, s in sums)
    return CorrelationReport(pts, metadata)


def correlation_sum(
    sys: SkewSystem,
    obs: Observable,
    start: NilPoint | None,
    checkpoints,
    table: MobiusTable,
    plan: OrbitSegmentPlan | None = None,
) -> CorrelationReport:
    """(1/N) sum_{n<=N} F(T^n x0) mu(n) at each checkpoint N."""
    if not isinstance(obs, Observable):
        raise TypeError("correlation_sum expects a base-system Observable")
    checkpoints = check_checkpoints(checkpoints, table.n_max)
    plan = resize_plan(plan, checkpoints[-1])
    sums = orbit_stream(sys, start, plan, obs, weights=table.mu_slice, checkpoints=checkpoints)
    meta = {
        "estimator": "correlation_sum",
        "alpha": sys.alpha.dyadic_str(),
        "beta": sys.beta.dyadic_str(),
        "xi": obs.xi,
        "start": "identity" if start is None else [str(v) for v in start.coords()],
        "segment_size": plan.segment_size,
    }
    return _normalize(sums, meta)


def bilinear_sum(
    sys: SkewSystem,
    obs: Observable,
    start: NilPoint | None,
    p: int,
    q: int,
    checkpoints,
    plan: OrbitSegmentPlan | None = None,
    *,
    pair_scan: PairScan | None = None,
) -> CorrelationReport:
    """(1/N) sum_{n<=N} F(T^{pn} x0) conj(F(T^{qn} x0)) -- the pair route.

    One skew-orbit stream to p * max N; :func:`pair_factor_values` returns the
    exact checkpoint sums, which are normalized here, and leaves its scan in
    ``pair_scan`` when one is given.
    """
    js = build_joining(sys, p, q)  # validates the prime pair
    checkpoints = check_checkpoints(checkpoints)
    n_pairs = checkpoints[-1]
    plan = resize_plan(plan, p * n_pairs)
    sums = pair_factor_values(
        sys, start, p, q, n_pairs, plan, obs, checkpoints, pair_scan=pair_scan
    )
    meta = {
        "estimator": "bilinear_sum",
        "route": "pair-orbit",
        "p": p,
        "q": q,
        "twist": js.twist,
        "xi": obs.xi,
        "segment_size": plan.segment_size,
    }
    return _normalize(sums, meta)


def bilinear_sum_reduced(
    sys: SkewSystem,
    obs: Observable,
    p: int,
    q: int,
    checkpoints,
    plan: OrbitSegmentPlan | None = None,
) -> CorrelationReport:
    """The same bilinear average computed as (1/N) sum f_star(T_star^n x0*)."""
    js = build_joining(sys, p, q)
    checkpoints = check_checkpoints(checkpoints)
    plan = resize_plan(plan, checkpoints[-1])
    sink = StarDescentSink(obs, p, q)
    sums = orbit_stream(js, None, plan, sink, checkpoints=checkpoints)
    meta = {
        "estimator": "bilinear_sum",
        "route": "reduced-joining",
        "p": p,
        "q": q,
        "twist": js.twist,
        "xi": obs.xi,
        "segment_size": plan.segment_size,
    }
    return _normalize(sums, meta)


def davenport_baseline(
    alpha,
    checkpoints,
    table: MobiusTable,
    plan: OrbitSegmentPlan | None = None,
) -> CorrelationReport:
    """(1/N) sum_{n<=N} mu(n) e(n alpha): the rotation-orbit decay reference."""
    alpha = FixedReal(alpha)
    checkpoints = check_checkpoints(checkpoints, table.n_max)
    plan = resize_plan(plan, checkpoints[-1])
    sys = SkewSystem(alpha.frac(), FixedReal(0), BaseFunctionSpec(0, 0))

    sums = orbit_stream(sys, None, plan, fourier_value((1,)), weights=table.mu_slice,
                        checkpoints=checkpoints)
    meta = {
        "estimator": "davenport_baseline",
        "alpha": alpha.dyadic_str(),
        "segment_size": plan.segment_size,
    }
    return _normalize(sums, meta)
