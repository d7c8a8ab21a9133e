import hashlib
import math
import operator
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

from nillab import moebius
from nillab.engine import OrbitSegmentPlan, orbit_stream_naive
from nillab.fixedpoint import FixedReal, sqrt_q64
from nillab.moebius import (
    _base_primes,
    _log_weights,
    _sieve_block,
    _SieveWork,
    bilinear_sum,
    bilinear_sum_reduced,
    correlation_sum,
    davenport_baseline,
    sieve_mobius,
)
from nillab.observables import BumpProfile, Observable


def mu_bruteforce(n: int) -> int:
    val, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            val = -val
        d += 1
    return -val if m > 1 else val


@pytest.fixture(scope="module")
def table10k():
    return sieve_mobius(10**4)


def test_sieve_bounds():
    with pytest.raises(ValueError):
        sieve_mobius(0)
    with pytest.raises(ValueError):
        sieve_mobius(10**9 + 1)


def test_mu_small_values(table10k):
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0,
                10: 1, 12: 0, 30: -1, 210: 1}
    for n, mu in expected.items():
        assert table10k.mu(n) == mu


def test_sieve_matches_bruteforce(table10k):
    for n in range(1, 3001):
        assert table10k.mu(n) == mu_bruteforce(n)
    # and a spread of larger values incl. numbers with a large prime factor
    for n in (4999, 5000, 6011, 7919, 9973, 9998, 10000):
        assert table10k.mu(n) == mu_bruteforce(n)


def test_mu_of_primes(table10k):
    for p in (2, 3, 5, 7, 9973):
        assert table10k.mu(p) == -1
        if p * p <= 10**4:
            assert table10k.mu(p * p) == 0


def test_mertens_against_oracle(table10k):
    acc = 0
    marks = {}
    for n in range(1, 10**4 + 1):
        acc += mu_bruteforce(n)
        if n in (10**3, 10**4):
            marks[n] = acc
    assert table10k.mertens(10**3) == marks[10**3]
    assert table10k.mertens(10**4) == marks[10**4]


def test_mobius_inversion_identity(table10k):
    """sum_{d | n} mu(d) = [n == 1]."""
    bound = 2000
    sums = np.zeros(bound + 1, dtype=np.int64)
    mus = table10k.mu_slice(1, bound + 1)
    for d in range(1, bound + 1):
        sums[d::d] += mus[d - 1]
    assert sums[1] == 1
    assert not np.any(sums[2:])


def test_slice_block_boundaries():
    table = sieve_mobius(3 * 10**6)  # spans multiple sieve blocks
    for n in (2**20 - 1, 2**20, 2**20 + 1, 2 * 2**20 + 7):
        assert table.mu(n) == mu_bruteforce(n)


def test_packing_quarter_byte():
    table = sieve_mobius(10**5)
    assert table.packed.nbytes <= 10**5 // 4 + 8


def mu_reference(n_max: int) -> np.ndarray:
    """mu(n) for 0 <= n <= n_max by dividing out the primes up to sqrt(n_max):
    a squarefree n keeps at most one prime factor, which flips the sign."""
    root = int(n_max**0.5) + 1
    primes = [p for p in range(2, root + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]
    rest = np.arange(n_max + 1, dtype=np.int64)
    mu = np.ones(n_max + 1, dtype=np.int64)
    for p in primes:
        rest[::p] //= p
        mu[::p] *= -1
        mu[:: p * p] = 0
    mu[rest > 1] *= -1
    return mu


POWER_EDGES = sorted({2**k + d for k in range(1, 13) for d in (-1, 0, 1)})


@pytest.mark.parametrize(
    "n_max", sorted({1, 2, 3, 4, 8, 9, 24, 25, 168, 169, 170, 1000, 3 * 10**6, *POWER_EDGES})
)
def test_whole_table_matches_reference(n_max):
    """Every entry, across the 2^20 block edges at 3e6; n_max at 2^k - 1, 2^k
    and 2^k + 1 ends the table on either side of a step of the whole test's
    threshold."""
    ref = mu_reference(n_max)
    assert [int(v) for v in ref[1:2001]] == [mu_bruteforce(n) for n in range(1, min(n_max, 2000) + 1)]
    got = sieve_mobius(n_max).mu_slice(1, n_max + 1)
    assert got.dtype == np.int8
    assert np.array_equal(got, ref[1:])


@pytest.mark.parametrize("n_max, digest", [
    (10**6, "32d9cfdf2c8c11ea52660ea80df8edfae9edfd5eb35c659cc9175a709e8b1ea1"),
    (3 * 10**6, "2e8a8350e4673fc7d7e102fa23b3035eb01bd27dfa83cba900661cb7a09b75f1"),
    (10**8, "36fa5fb8edecf89ae5edfb49b5c91707618e024a8ec8bd1ffe3ed7f461b7746f"),
])
def test_packed_bytes_pinned(n_max, digest):
    assert hashlib.sha256(sieve_mobius(n_max).packed.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 64])
def test_packing_independent_of_block_alignment(monkeypatch, block):
    """Blocks starting at every residue mod 4 pack to the same bytes."""
    expected = sieve_mobius(1001).packed.tobytes()
    monkeypatch.setattr(moebius, "_BLOCK", block)
    assert sieve_mobius(1001).packed.tobytes() == expected


@pytest.mark.parametrize("block", [7, 4099, 30031, 2**16])
def test_blocks_at_many_wheel_residues(monkeypatch, block):
    """Blocks that start at many residues mod 30030, and whose length moves
    the split between strided and one-shot squares, sieve the same table."""
    n_max = 200_003
    expected = sieve_mobius(n_max).packed.tobytes()
    monkeypatch.setattr(moebius, "_BLOCK", block)
    table = sieve_mobius(n_max)
    assert np.array_equal(table.mu_slice(1, n_max + 1), mu_reference(n_max)[1:])
    assert table.packed.tobytes() == expected


def test_mu_slice_every_offset_and_edge():
    n_max = 1001
    table, ref = sieve_mobius(n_max), mu_reference(n_max)
    for lo in list(range(1, 13)) + list(range(n_max - 8, n_max + 2)):
        for hi in range(lo, min(lo + 13, n_max + 2)):
            assert np.array_equal(table.mu_slice(lo, hi), ref[lo:hi]), (lo, hi)
    assert table.mu_slice(n_max + 1, n_max + 1).size == 0
    for lo, hi in ((0, 5), (5, 4), (1, n_max + 2)):
        with pytest.raises(ValueError, match="outside table range"):
            table.mu_slice(lo, hi)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6, 9, 1000, 1001, 1002])
def test_mertens_every_residue(monkeypatch, n_max):
    """M(n) for every n <= n_max, including n_max % 4 != 3 (padding in the
    last byte), with whole-byte chunks of 5 bytes so chunk edges are crossed."""
    table = sieve_mobius(n_max)
    expected = np.cumsum(mu_reference(n_max))
    monkeypatch.setattr(moebius, "_SUM_CHUNK", 5)
    assert [table.mertens(n) for n in range(1, n_max + 1)] == expected[1:].tolist()
    with pytest.raises(ValueError):
        table.mertens(n_max + 1)


def test_mertens_allocates_under_a_mebibyte():
    """The byte sums go through np.take in chunks whose intp index copy stays
    at 512 KiB, however long the table."""
    n_max = 3 * 10**6
    table = sieve_mobius(n_max)
    expected = table.mertens(n_max)
    tracemalloc.start()
    try:
        assert table.mertens(n_max) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("bound", [moebius.MAX_SIEVE, 10**15])
def test_log_weights_keep_the_whole_test_exact(bound):
    """Both inequalities of the sieve's whole test, for the module's C, at
    every N <= bound where either side can move: N = p^2, where P_min, the
    least prime the sieve leaves out (> max(13, isqrt N)), moves on, and N a
    primorial, where k_max, the most primes in a product <= N, grows.  Each
    weight rounds to within 1 of 2C log2 p + 1, which the bounds assume."""
    c = moebius._LOG_SCALE
    root = math.isqrt(bound)
    primes = _base_primes(root + 1000)
    assert primes[-1] > root
    weights = _log_weights(primes).astype(np.float64)
    assert np.all(np.abs(weights - 1 - 2 * c * np.log2(primes)) <= 1)
    primorials = [q for q in accumulate(primes[:20].tolist(), operator.mul) if q <= bound]
    below = primes[primes <= root]
    n = np.concatenate([below**2, primorials, [1, bound]]).astype(np.float64)
    roots = np.concatenate([below, [math.isqrt(q) for q in primorials], [1, root]])
    p_min = primes[np.searchsorted(primes, np.maximum(roots, 13), side="right")]
    k_max = np.searchsorted(primorials, n, side="right")
    assert np.all(c * (np.log2(p_min) - 1) >= k_max)
    assert np.all(2 * c * np.log2(n) + 2 * k_max <= 255)


def test_sieve_block_at_max_sieve():
    """The last block below MAX_SIEVE, whose log sums come closest to a
    byte's 255, matches trial division."""
    hi = moebius.MAX_SIEVE + 1
    lo = hi - (1 << 20)
    base = _base_primes(31622)
    mu = _sieve_block(lo, hi, _SieveWork(base, hi - lo)).astype(np.int8) - 1
    primes = base.tolist()

    def mu_trial(n):
        val = 1
        for p in primes:
            if p * p > n:
                break
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                val = -val
        return -val if n > 1 else val

    picks = list(range(hi - 200, hi)) + list(range(lo, lo + 50))
    picks += np.random.default_rng(11).integers(lo, hi, size=100).tolist()
    assert {mu_trial(n) for n in picks} == {-1, 0, 1}
    for n in picks:
        assert mu[n - lo] == mu_trial(n), n


# -- estimators -------------------------------------------------------------------


def test_correlation_reduces_to_mertens(table10k, std_sys):
    obs = Observable(xi=0, base_mode=(0, 0))
    rep = correlation_sum(std_sys, obs, None, [100, 1000], table10k)
    for cp in rep.checkpoints:
        assert cp.value == table10k.mertens(cp.n) / cp.n
        assert cp.value.imag == 0.0


def test_correlation_naive_oracle(table10k, std_sys):
    obs = Observable(xi=1, bump=BumpProfile())
    rep = correlation_sum(
        std_sys, obs, None, [500, 1000], table10k, OrbitSegmentPlan(1000, 128, 4)
    )
    naive = orbit_stream_naive(std_sys, None, 1000, obs, table10k.mu_slice, [500, 1000])
    for cp, (n, s) in zip(rep.checkpoints, naive):
        assert cp.value == s / n


def test_correlation_modulus_bounded(table10k, std_sys):
    obs = Observable(xi=1, bump=BumpProfile())
    rep = correlation_sum(std_sys, obs, None, [100, 10**4], table10k)
    for cp in rep.checkpoints:  # |F| <= the bump's peak 1 times |e(xi z)| = 1
        assert cp.modulus <= 1.0 * (1 + 1e-12)


def test_correlation_checkpoint_validation(table10k, std_sys):
    obs = Observable(xi=1, bump=BumpProfile())
    with pytest.raises(ValueError):
        correlation_sum(std_sys, obs, None, [10**5], table10k)  # beyond sieve bound
    with pytest.raises(ValueError):
        correlation_sum(std_sys, obs, None, [100, 50], table10k)
    with pytest.raises(TypeError):
        correlation_sum(std_sys, object(), None, [100], table10k)


def test_birkhoff_vs_space_average(std_sys):
    """With all-ones weights the average tends to the space average of F
    (unique ergodicity consistency, two independent estimates)."""
    from nillab.engine import orbit_stream

    obs = Observable(xi=1, bump=BumpProfile())
    time_avg = orbit_stream(std_sys, None, OrbitSegmentPlan(10**5), obs, checkpoints=[10**5])
    time_avg = time_avg[0][1] / 10**5
    rng = np.random.default_rng(5)
    pts = rng.random((10**5, 3))
    space_avg = obs.eval_arrays(pts[:, 0], pts[:, 1], pts[:, 2]).mean()
    assert abs(time_avg - space_avg) <= 0.01


def test_bilinear_constant_is_one(std_sys):
    obs = Observable(xi=0, base_mode=(0, 0))
    rep = bilinear_sum(std_sys, obs, None, 3, 2, [10, 100])
    for cp in rep.checkpoints:
        assert cp.value == 1.0


def test_bilinear_rejects_bad_pair(std_sys):
    obs = Observable(xi=1, bump=BumpProfile())
    with pytest.raises(ValueError):
        bilinear_sum(std_sys, obs, None, 3, 3, [100])
    with pytest.raises(ValueError):
        bilinear_sum(std_sys, obs, None, 2, 3, [100])


def test_two_route_identity(std_sys):
    obs = Observable(xi=1, bump=BumpProfile())
    cps = [100, 1000, 10**4]
    direct = bilinear_sum(std_sys, obs, None, 3, 2, cps)
    reduced = bilinear_sum_reduced(std_sys, obs, 3, 2, cps)
    for a, b in zip(direct.checkpoints, reduced.checkpoints):
        assert abs(a.value - b.value) <= 1e-9


def test_davenport_alpha_zero(table10k):
    rep = davenport_baseline(FixedReal(0), [100, 1000], table10k)
    for cp in rep.checkpoints:
        assert cp.value == table10k.mertens(cp.n) / cp.n


def test_davenport_naive_oracle(table10k):
    alpha = (sqrt_q64(5) - 1).exact_div(2)
    rep = davenport_baseline(alpha, [1000], table10k, OrbitSegmentPlan(1000, 128, 2))
    from nillab.dynamics import BaseFunctionSpec, SkewSystem

    sys = SkewSystem(alpha, FixedReal(0), BaseFunctionSpec(0, 0))
    naive = orbit_stream_naive(
        sys, None, 1000,
        lambda x, y, z, n: np.exp(2j * np.pi * x), table10k.mu_slice, [1000],
    )
    assert rep.checkpoints[0].value == naive[0][1] / 1000


def test_report_metadata_and_lookup(table10k, std_sys):
    obs = Observable(xi=1, bump=BumpProfile())
    rep = correlation_sum(std_sys, obs, None, [100], table10k)
    assert rep.metadata["estimator"] == "correlation_sum"
    assert rep.value_at(100) == rep.checkpoints[0].value
    with pytest.raises(KeyError):
        rep.value_at(7)
