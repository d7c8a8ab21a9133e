"""Mobius sieving and the correlation estimators.

mu(n) is (-1)^k on squarefree n with k prime factors and 0 otherwise.  The
sieve is segmented into blocks of 2^20 and vectorized on one int32 array per
block: each prime p up to sqrt(N) multiplies its multiples by -p, and the
multiples of p^2 are zeroed.  sign(product) is then mu up to the single
possible prime factor above sqrt(N), which shows as |product| != n and flips
the sign.  Values are packed two bits per entry (codes mu + 1), a quarter
byte each, so 10^9 fits comfortably in memory.  Reading goes through byte
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

from .dynamics import SkewSystem, build_joining
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
from .observables import Observable, fourier_mode
from .workspace import FRESH

MAX_SIEVE = 10**9
_BLOCK = 1 << 20


def sieve_mobius(n_max: int) -> "MobiusTable":
    """Sieve mu(n) for 1 <= n <= n_max into a packed table."""
    if not (1 <= n_max <= MAX_SIEVE):
        raise ValueError(f"sieve bound must be in [1, {MAX_SIEVE}]")
    base = _base_primes(math.isqrt(n_max))
    packed = np.zeros((n_max + 4) // 4 + 1, dtype=np.uint8)
    for lo in range(1, n_max + 1, _BLOCK):
        hi = min(lo + _BLOCK, n_max + 1)
        mu = _sieve_block(lo, hi, base)
        _pack_into(packed, lo, mu)
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


def _sieve_block(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """mu values for n in [lo, hi) given the primes up to sqrt(global bound).

    ``prod`` collects the signed product of the distinct base primes dividing
    n and is zeroed at the multiples of their squares.  Being a product of
    distinct primes dividing n, ``|prod|`` divides n <= MAX_SIEVE < 2^31, so
    int32 never overflows.  A squarefree n has at most one prime factor above
    sqrt(n_max); ``|prod| != n`` flags exactly that factor, which flips the sign.
    """
    prod = np.ones(hi - lo, dtype=np.int32)
    for p in base.tolist():
        w = prod[(-lo) % p :: p]
        np.multiply(w, -p, out=w)
        if p * p < hi:
            prod[(-lo) % (p * p) :: p * p] = 0
    mu = np.sign(prod).astype(np.int8)
    flip = (np.abs(prod) != np.arange(lo, hi, dtype=np.int32)).view(np.int8)
    mu *= 1 - 2 * flip
    return mu


def _pack_into(packed: np.ndarray, lo: int, mu: np.ndarray):
    """OR a block of codes into the 2-bit packed array (blocks never overlap
    except possibly at shared boundary bytes, where OR merges them)."""
    hi = lo + mu.size
    b0, b1 = lo // 4, (hi - 1) // 4
    span = np.zeros((b1 - b0 + 1) * 4, dtype=np.uint8)
    # codes mu + 1 in {0, 1, 2}, one per byte
    np.add(mu, 1, out=span[lo - b0 * 4 : hi - b0 * 4], casting="unsafe")
    # read four code bytes as one little-endian word and gather its codes
    # (bits 0, 8, 16, 24) into bits 0, 2, 4, 6 of the low byte
    word = span.view("<u4")
    word |= word >> 6
    word |= word >> 12
    packed[b0 : b1 + 1] |= word.astype(np.uint8)


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
    from .dynamics import BaseFunctionSpec

    alpha = FixedReal(alpha)
    checkpoints = check_checkpoints(checkpoints, table.n_max)
    plan = resize_plan(plan, checkpoints[-1])
    sys = SkewSystem(alpha.frac(), FixedReal(0), BaseFunctionSpec(0, 0))

    def wave(x, y, z, n, ws=FRESH):  # np.exp(2j pi x)
        return fourier_mode((1,), (x,), ws)

    wave.wants_ws = True

    sums = orbit_stream(sys, None, plan, wave, weights=table.mu_slice, checkpoints=checkpoints)
    meta = {
        "estimator": "davenport_baseline",
        "alpha": alpha.dyadic_str(),
        "segment_size": plan.segment_size,
    }
    return _normalize(sums, meta)
