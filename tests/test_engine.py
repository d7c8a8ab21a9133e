import functools
import gc
import re
import threading
import time
import tracemalloc
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest

from nillab import engine
from nillab.dynamics import (
    BaseFunctionSpec, SkewSystem, TrigTerm, build_joining, cocycle_sum, iterate_T,
)
from nillab.engine import (
    MASK64,
    OrbitSegmentPlan,
    PairScan,
    StarDescentSink,
    _frac_int_parts,
    _make_stream,
    _LaneStream,
    _n_times_q128,
    _quantize,
    _scan_segments,
    checkpoint_sums,
    mulhi_u64,
    orbit_points,
    orbit_stream,
    orbit_stream_multi,
    orbit_stream_naive,
    pair_factor_values,
    resize_plan,
    u64c,
)
from nillab.fixedpoint import FixedReal, sqrt_q64
from nillab.heisenberg import GroupElement, GroupLaw, canonical_rep, identity
from nillab.diagnostics import weyl_sums
from nillab.moebius import (
    bilinear_sum_reduced, correlation_sum, davenport_baseline, sieve_mobius,
)
from nillab.observables import BumpProfile, Observable, eval_observable, fourier_value
from nillab.workspace import Workspace

ALPHA = sqrt_q64(2) - 1
BETA = sqrt_q64(3) - 1


def make_sys(terms=(TrigTerm(1, 0, 0.1, 0.0),), d1=1, d2=0):
    return SkewSystem(ALPHA, BETA, BaseFunctionSpec(d1, d2, terms))


# every stream must give the same bits for any segment size and worker count
SEGMENTATIONS = pytest.mark.parametrize(
    "segment_size, workers",
    [(s, w) for s in (16, 64, 4096) for w in (1, 3)],
)


# -- lane primitives vs big-int oracles ----------------------------------------


def test_mulhi_oracle(rng):
    a = rng.integers(0, 2**64 - 1, size=500, dtype=np.uint64, endpoint=True)
    b = rng.integers(0, 2**64 - 1, size=500, dtype=np.uint64, endpoint=True)
    hi = mulhi_u64(a, b)
    for i in range(500):
        assert int(hi[i]) == (int(a[i]) * int(b[i])) >> 64


def test_mulhi_two_product_forms_oracle(rng):
    """Scalars at and around 2**32 on either side of a full-range array, an
    array below 2**32 (two partial products) against a full-range array or
    scalar, and one straddling 2**32 (which must fall back to four); with
    and without output buffers."""
    full = rng.integers(0, 2**64 - 1, size=400, dtype=np.uint64, endpoint=True)
    full[:3] = (0, 2**64 - 1, 2**32)
    small = rng.integers(0, 2**32 - 1, size=400, dtype=np.uint64, endpoint=True)
    small[:2] = (0, 2**32 - 1)
    straddling = rng.integers(2**31, 2**33, size=400, dtype=np.uint64)
    assert (straddling < 2**32).any() and (straddling >= 2**32).any()
    cases = [(small, full), (straddling, full)]
    for c in (0, 1, 2**32 - 1, 2**32):
        cases += [(np.uint64(c), full), (full, np.uint64(c))]
    cases += [(small, np.uint64(c)) for c in (2**32, 2**64 - 1, 0x9E3779B97F4A7C15)]
    for a, b in cases:
        want = [(int(x) * int(y)) >> 64 for x, y in zip(*np.broadcast_arrays(a, b))]
        assert [int(v) for v in mulhi_u64(a, b)] == want
        out, tmp = np.empty(400, np.uint64), np.empty(400, np.uint64)
        assert mulhi_u64(a, b, out=out, tmp=tmp) is out
        assert [int(v) for v in out] == want


def test_frac_int_parts_oracle(rng):
    step = int(rng.integers(0, 2**64 - 1, dtype=np.uint64, endpoint=True))
    n = rng.integers(0, 10**7, size=300, dtype=np.uint64)
    for base in (int(rng.integers(0, 2**64 - 1, dtype=np.uint64, endpoint=True)), 0):
        frac, ip = _frac_int_parts(u64c(base), u64c(step), n)
        for i in range(300):
            full = base + int(n[i]) * step
            assert int(frac[i]) == full & MASK64
            assert int(ip[i]) == full >> 64


def test_n_times_q128_oracle(rng):
    c = int(rng.integers(0, 2**63, dtype=np.uint64)) * int(
        rng.integers(0, 2**63, dtype=np.uint64)
    )
    c %= 1 << 128
    n = rng.integers(0, 10**7, size=200, dtype=np.uint64)
    hi, lo = _n_times_q128(c, n)
    for i in range(200):
        full = (int(n[i]) * c) % (1 << 128)
        assert int(lo[i]) == full & MASK64
        assert int(hi[i]) == full >> 64


# -- engine contracts -----------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ValueError):
        OrbitSegmentPlan(0)
    with pytest.raises(ValueError):
        OrbitSegmentPlan(10, segment_size=100)
    with pytest.raises(ValueError):
        OrbitSegmentPlan(10, worker_count=0)
    with pytest.raises(ValueError):
        OrbitSegmentPlan(1 << 63)


@pytest.mark.parametrize("call, named", [
    (lambda: engine.check_checkpoints([1.5, 10]), "checkpoint = 1.5"),
    (lambda: correlation_sum(make_sys(), Observable(xi=1, bump=BumpProfile()), None,
                             [1500.7], sieve_mobius(2000)), "checkpoint = 1500.7"),
    (lambda: OrbitSegmentPlan(10.5), "n_total = 10.5"),
    (lambda: OrbitSegmentPlan(10, 16.0), "segment_size = 16.0"),
    (lambda: OrbitSegmentPlan(10, 16, "2"), "workers = '2'"),
], ids=["check_checkpoints", "correlation_sum", "n_total", "segment_size", "workers"])
def test_non_integer_counts_are_refused(call, named):
    """A float checkpoint or plan field is refused with its value named,
    not truncated to an integer (N = 1500.7 would report at 1500)."""
    with pytest.raises(TypeError, match=re.escape(named)):
        call()


def test_numpy_integer_counts_are_accepted():
    assert engine.check_checkpoints([np.int64(5), np.uint32(10)]) == [5, 10]
    assert OrbitSegmentPlan(np.int64(10), np.int32(4), np.int8(2)).segment_size == 4


def test_constant_sink_counts_steps():
    sys = make_sys()
    plan = OrbitSegmentPlan(1000, segment_size=128)
    out = orbit_stream(sys, None, plan, lambda x, y, z, n: np.ones_like(x), checkpoints=[1000])
    assert out[0] == (1000, complex(1000.0, 0.0))


def test_worker_count_invariance():
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    cps = [100, 1000, 4096]
    runs = [
        orbit_stream(sys, None, OrbitSegmentPlan(4096, 512, w), obs, checkpoints=cps)
        for w in (1, 2, 8)
    ]
    assert runs[0] == runs[1] == runs[2]


@pytest.fixture(scope="module")
def skew_oracle():
    sys = make_sys(terms=(TrigTerm(1, 0, 0.1, 0.0), TrigTerm(1, 1, 0.05, 0.3)), d2=1)
    obs = Observable(xi=2, bump=BumpProfile((0.4, 0.55), 0.2))
    start = canonical_rep(GroupElement.fixed(0.3, 0.8, 0.45))
    cps = [100, 777, 1000]
    return sys, obs, start, cps, orbit_stream_naive(sys, start, 1000, obs, checkpoints=cps)


@SEGMENTATIONS
def test_engine_equals_naive_loop(skew_oracle, segment_size, workers):
    sys, obs, start, cps, slow = skew_oracle
    plan = OrbitSegmentPlan(1000, segment_size, workers)
    assert orbit_stream(sys, start, plan, obs, checkpoints=cps) == slow


def _wave(x, y, z, n):
    return np.exp(2j * np.pi * (x - y + 3 * z))


@pytest.fixture(scope="module")
def joining_oracle():
    js = build_joining(make_sys(), 5, 3)
    start = (FixedReal(0.25), FixedReal(0.5), FixedReal(0.125))
    return js, start, orbit_stream_naive(js, start, 600, _wave, checkpoints=[300, 600])


@SEGMENTATIONS
def test_engine_equals_naive_loop_joining(joining_oracle, segment_size, workers):
    js, start, slow = joining_oracle
    plan = OrbitSegmentPlan(600, segment_size, workers)
    assert orbit_stream(js, start, plan, _wave, checkpoints=[300, 600]) == slow


@pytest.mark.parametrize("p, q", [(3, 2), (5, 3)])
@pytest.mark.parametrize(
    "h", [(1, 0, (TrigTerm(1, 0, 0.1, 0.0),)),
          (2, -1, (TrigTerm(1, 0, 0.1, 0.0), TrigTerm(1, 1, 0.05, 0.3)))],
    ids=["standard", "d2-1"],
)
def test_joining_lanes_equal_exact_stepping(p, q, h):
    """The joining lanes equal the exact torus model stepped from the origin:
    a check that shares no code with the lane stream."""
    d1, d2, terms = h
    js = build_joining(make_sys(terms=terms, d1=d1, d2=d2), p, q)
    n_max = 300
    stream = _make_stream(js, None)
    (lanes,) = _scan_segments(
        stream, OrbitSegmentPlan(n_max),
        lambda lo, hi, s, ws: stream.lanes(np.arange(lo + 1, hi + 1, dtype=np.uint64), s),
    )
    pt = (FixedReal(0), FixedReal(0), FixedReal(0))
    for k in range(n_max):
        pt = js.step_trivialized(pt)
        x, y, z = pt
        want = (x.frac_u64(), y.frac_u64(), *z.frac_lanes())
        assert tuple(int(lane[k]) for lane in lanes) == want, f"n={k + 1}"


def test_joining_lanes_carry_the_low_z_limb():
    """From a start whose z has a low 2**-128 limb just under 2**-64, that
    limb wraps on most steps: the lanes still equal exact stepping."""
    js = build_joining(make_sys(), 3, 2)
    start = (FixedReal(0.25), FixedReal(0.625), FixedReal.from_scaled((7 << 64) | (2**64 - 5)))
    n_max = 200
    stream = _make_stream(js, start)
    (lanes,) = _scan_segments(
        stream, OrbitSegmentPlan(n_max),
        lambda lo, hi, s, ws: stream.lanes(np.arange(lo + 1, hi + 1, dtype=np.uint64), s),
    )
    assert (lanes[3] < np.uint64(2**64 - 5)).mean() > 0.5  # the low limb carried
    pt = start
    for k in range(n_max):
        pt = js.step_trivialized(pt)
        x, y, z = pt
        want = (x.frac_u64(), y.frac_u64(), *z.frac_lanes())
        assert tuple(int(lane[k]) for lane in lanes) == want, f"n={k + 1}"


def test_weighted_stream_matches_naive():
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    weights = np.where(np.arange(2001) % 3 == 0, -1, 1).astype(np.int8)

    def wfn(lo, hi):
        return weights[lo:hi]

    fast = orbit_stream(sys, None, OrbitSegmentPlan(2000, 256, 2), obs, wfn, [2000])
    slow = orbit_stream_naive(sys, None, 2000, obs, wfn, [2000])
    assert fast == slow


def test_lanes_match_scalar_iterate():
    """Engine float coordinates equal the scalar closed-form iterate exactly."""
    sys = make_sys(terms=(TrigTerm(2, -1, 0.08, 0.15),), d1=2, d2=1)
    start = canonical_rep(GroupElement.fixed(0.1, 0.35, 0.7))
    pts = orbit_points(sys, start, [1, 17, 400, 1000])
    for n, x, y, z in pts:
        ref = iterate_T(sys, start, n)
        rx, ry, rz = (float(v) for v in ref.coords())
        assert (x, y, z) == (rx, ry, rz)


def test_multi_stream_consistency():
    """Each value function of a multi stream, a lane sink between two float
    functions among them, sums as it does alone."""
    js = build_joining(make_sys(), 3, 2)
    fns = [
        lambda x, y, z, n: np.exp(2j * np.pi * x),
        StarDescentSink(Observable(xi=1, bump=BumpProfile()), 3, 2),
        lambda x, y, z, n: np.exp(2j * np.pi * (y + z)),
    ]
    multi = orbit_stream_multi(js, None, OrbitSegmentPlan(500, 64), fns, checkpoints=[250, 500])
    for fn, got in zip(fns, multi):
        alone = orbit_stream(js, None, OrbitSegmentPlan(500, 64), fn, checkpoints=[250, 500])
        assert got == alone


def test_checkpoint_validation():
    sys = make_sys()
    with pytest.raises(ValueError):
        orbit_stream(sys, None, OrbitSegmentPlan(100), lambda x, y, z, n: x, checkpoints=[50, 200])
    with pytest.raises(ValueError):
        orbit_stream(sys, None, OrbitSegmentPlan(100), lambda x, y, z, n: x, checkpoints=[70, 30])
    with pytest.raises(ValueError):
        orbit_stream(sys, None, OrbitSegmentPlan(100), lambda x, y, z, n: x, checkpoints=[30, 30])


def test_value_bound_enforced():
    sys = make_sys()
    with pytest.raises(ValueError):
        orbit_stream(sys, None, OrbitSegmentPlan(64), lambda x, y, z, n: 100.0 * np.ones_like(x))
    # one value past the bound, in either part, or not finite in either part
    for bad in (2.0000000000000004, -2.5, np.nan, np.inf, -np.inf, 2.5j, -3j, complex(0, np.inf),
                complex(0, np.nan), complex(0.5, np.nan)):

        def fn(x, y, z, n, bad=bad):
            v = np.full(x.shape, 2.0 + 0j)
            v[-1] = bad
            return v

        with pytest.raises(ValueError, match="accumulation bound"):
            orbit_stream(sys, None, OrbitSegmentPlan(100, 32), fn)


def test_engine_requires_heisenberg_start():
    star = canonical_rep(GroupElement.fixed(0.25, 0.5, 0.75, GroupLaw.star(3, 2)))
    with pytest.raises(ValueError, match="Heisenberg"):
        orbit_stream(make_sys(), star, OrbitSegmentPlan(10), lambda x, y, z, n: np.ones_like(x))


def test_engine_requires_unit_interval_rotation():
    sys = SkewSystem(FixedReal(1.5), BETA, BaseFunctionSpec(1, 0))
    with pytest.raises(ValueError):
        orbit_stream(sys, None, OrbitSegmentPlan(10), lambda x, y, z, n: np.ones_like(x))


# -- pair streams ----------------------------------------------------------------


def test_pair_factor_values_match_iterates():
    """The pair sums at every n <= 50 equal, bit for bit, the checkpoint sums
    of the products of the observable at the scalar closed-form iterates, at
    the strides p = 3, 5 and 7 of the pair route's scan."""
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    start = canonical_rep(identity())
    cps = list(range(1, 51))
    for p, q, plan in [(3, 2, OrbitSegmentPlan(150, 32, 2)), (5, 3, OrbitSegmentPlan(250, 16, 2)),
                       (7, 2, OrbitSegmentPlan(350, 16))]:
        got = pair_factor_values(sys, start, p, q, 50, plan, obs, cps)
        fp, fq = (
            np.array([eval_observable(obs, iterate_T(sys, start, m * n)) for n in cps])
            for m in (p, q)
        )
        assert got == checkpoint_sums(np.conj(fq) * fp, cps), (p, q)


# every power-of-two segment size to 256, so that some chunk's support holds
# one point, at 1 and 3 workers
SMALL_SEGMENTATIONS = [(s, w) for s in (1 << k for k in range(9)) for w in (1, 3)]


def test_pair_sums_at_one_point_supports_keep_their_bits():
    """At (7, 2) the pair sums at every n <= 50 equal those of the products
    at the exact iterates for every segment size: where F(T^{2n} x0) is
    nonzero at one n of a chunk, the product of one element rounds as at any
    other length (an in-place one-element complex product would not)."""
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    start = canonical_rep(identity())
    cps = list(range(1, 51))
    fp, fq = (
        np.array([eval_observable(obs, iterate_T(sys, start, m * n)) for n in cps])
        for m in (7, 2)
    )
    want = checkpoint_sums(np.conj(fq) * fp, cps)
    wrong = [(size, workers) for size, workers in SMALL_SEGMENTATIONS
             if pair_factor_values(sys, start, 7, 2, 50, OrbitSegmentPlan(350, size, workers),
                                   obs, cps) != want]
    assert wrong == []


def test_reduced_route_equals_naive_loop_at_every_segment_size():
    """The (5, 3) descent over 200 steps equals the naive loop, which
    multiplies one point at a time, at every checkpoint and segment size."""
    js = build_joining(make_sys(), 5, 3)
    sink = StarDescentSink(Observable(xi=1, bump=BumpProfile()), 5, 3)
    cps = list(range(1, 201))
    want = orbit_stream_naive(js, None, 200, sink, checkpoints=cps)
    wrong = [(size, workers) for size, workers in SMALL_SEGMENTATIONS
             if orbit_stream(js, None, OrbitSegmentPlan(200, size, workers), sink,
                             checkpoints=cps) != want]
    assert wrong == []


# the standard bump, one touching the 1/8 margin, and a base mode (nowhere 0)
SKIP_OBSERVABLES = pytest.mark.parametrize("obs", [
    Observable(xi=1, bump=BumpProfile()),
    Observable(xi=2, bump=BumpProfile((0.375, 0.625), 0.25)),
    Observable(xi=0, base_mode=(2, -1)),
], ids=["standard", "margin", "base-mode"])


@SKIP_OBSERVABLES
def test_pair_skip_equals_the_full_product(obs):
    """F_p is evaluated only where F_q is nonzero; the sums at every n <= 60
    equal those of the full product of the observable at the exact iterates."""
    sys = make_sys()
    start = canonical_rep(identity())
    cps = list(range(1, 61))
    fp, fq = (
        np.array([eval_observable(obs, iterate_T(sys, start, m * n)) for n in cps])
        for m in (3, 2)
    )
    if obs.xi:
        assert 0 < np.count_nonzero(fq) < fq.size  # the skip is taken
    for plan in (OrbitSegmentPlan(180, 16, 2), OrbitSegmentPlan(180)):
        got = pair_factor_values(sys, start, 3, 2, 60, plan, obs, cps)
        assert got == checkpoint_sums(np.conj(fq) * fp, cps)


@pytest.mark.parametrize("obs", [
    Observable(xi=1, bump=BumpProfile()),
    Observable(xi=2, bump=BumpProfile((0.375, 0.625), 0.25)),
], ids=["standard", "margin"])
def test_star_sink_skip_equals_the_full_product(rng, obs):
    """The descent evaluates its q factor only where the p factor is nonzero:
    there the values are f_p conj(f_q) bit for bit, elsewhere +0, and both
    quantize as the full product does, in a workspace or fresh."""
    sink = StarDescentSink(obs, 3, 2)
    fx, fy, z_hi, z_lo = rng.integers(0, 2**64 - 1, size=(4, 4096), dtype=np.uint64,
                                      endpoint=True)
    zero = np.zeros_like(z_lo)
    f_p = sink._factor(3, fx, fy, z_hi, z_lo, Workspace())
    full = f_p * np.conj(sink._factor(2, fx, fy, zero, zero, Workspace()))
    on = f_p != 0
    assert 0 < on.mean() < 1
    for got in (sink(fx, fy, z_hi, z_lo, None), sink(fx, fy, z_hi, z_lo, None, Workspace(4096))):
        assert np.array_equal(got[on].view(np.uint64), full[on].view(np.uint64))
        assert not got[~on].view(np.uint64).any()
        for part in ("real", "imag"):
            assert np.array_equal(_quantize(getattr(got, part)), _quantize(getattr(full, part)))


PAIR_CHECKPOINTS = [1, 16, 17, 250, 499, 500]


@pytest.fixture(scope="module")
def pair_reference():
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    ref = pair_factor_values(sys, None, 3, 2, 500, OrbitSegmentPlan(1500), obs, PAIR_CHECKPOINTS)
    return sys, obs, ref


@SEGMENTATIONS
def test_pair_factor_values_segmentation_invariant(pair_reference, segment_size, workers):
    sys, obs, ref = pair_reference
    plan = OrbitSegmentPlan(1500, segment_size, workers)
    assert pair_factor_values(sys, None, 3, 2, 500, plan, obs, PAIR_CHECKPOINTS) == ref


# -- the joining cocycle read from the pair route's scan ----------------------------

WEYL_FREQS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2)]
SHARED_N = 300
SHARED_CHECKPOINTS = [1, 17, 150, SHARED_N]
SHARED_H = {
    "standard": (1, 0, (TrigTerm(1, 0, 0.1, 0.0),)),
    "d2-1": (2, -1, (TrigTerm(1, 0, 0.1, 0.0), TrigTerm(1, 1, 0.05, 0.3))),
}


def _weyl_fn(k):
    def fn(x, y, z, n):
        return np.exp(2j * np.pi * (k[0] * x + k[1] * y + k[2] * z))

    return fn


@functools.cache
def _shared_case(p, q, h_id):
    """The joining and its Weyl sums by the naive (p + q)-lift loop."""
    d1, d2, terms = SHARED_H[h_id]
    sys = make_sys(terms=terms, d1=d1, d2=d2)
    js = build_joining(sys, p, q)
    naive = [
        orbit_stream_naive(js, None, SHARED_N, _weyl_fn(k), checkpoints=SHARED_CHECKPOINTS)
        for k in WEYL_FREQS
    ]
    return sys, js, naive


def _filled_scan(sys, p, q, n_pairs, plan, start=None):
    scan = PairScan()
    pair_factor_values(
        sys, start, p, q, n_pairs, resize_plan(plan, p * n_pairs),
        Observable(xi=1, bump=BumpProfile()), pair_scan=scan,
    )
    return scan


@pytest.mark.parametrize("p, q", [(3, 2), (5, 3), (7, 2)])
@pytest.mark.parametrize("h_id", list(SHARED_H))
@SEGMENTATIONS
def test_joining_reads_pair_scan_bit_for_bit(monkeypatch, p, q, h_id, segment_size, workers):
    """S*_n = S_{pn} - S_{qn}: Weyl sums from the pair route's kept scan equal
    the (p + q)-lift stream and the naive loop, for any segmentation."""
    sys, js, naive = _shared_case(p, q, h_id)
    plan = OrbitSegmentPlan(SHARED_N, segment_size, workers)
    fns = [_weyl_fn(k) for k in WEYL_FREQS]
    own = orbit_stream_multi(js, None, plan, fns, checkpoints=SHARED_CHECKPOINTS)
    scan = _filled_scan(sys, p, q, SHARED_N, plan)

    def no_lifts(self, i):
        raise AssertionError("the joining scanned its own lifts")

    monkeypatch.setattr(_LaneStream, "u_values", no_lifts)
    shared = orbit_stream_multi(
        js, None, plan, fns, checkpoints=SHARED_CHECKPOINTS, pair_scan=scan
    )
    assert shared == own == naive


@pytest.mark.parametrize("segment_size, workers", [(64, 1), (64, 2), (1 << 16, 1), (1 << 16, 2)])
def test_weyl_sums_invariant_with_and_without_pair_scan(segment_size, workers):
    """weyl_sums, whose modes share one set of workspace buffers, gives the
    naive loop's bits at 1 and 2 workers and segment sizes 64 and 2**16,
    scanning its own lifts or reading the pair route's scan."""
    sys, js, naive = _shared_case(3, 2, "d2-1")
    plan = OrbitSegmentPlan(SHARED_N, segment_size, workers)
    scan = _filled_scan(sys, 3, 2, SHARED_N, plan)
    for pair_scan in (None, scan):
        reports = weyl_sums(js, None, WEYL_FREQS, SHARED_CHECKPOINTS, plan, pair_scan=pair_scan)
        got = [[(c.n, c.value) for c in r.checkpoints] for r in reports]
        assert got == [[(n, s / n) for n, s in sums] for sums in naive]


def test_pair_scan_holds_star_as_one_array():
    """A pair route from the origin leaves one array, S*_n = S_{pn} - S_{qn}
    mod 2**64, each term the exact cocycle sum from x = y = 0; a covered
    joining reads a view of it."""
    sys, js, _ = _shared_case(3, 2, "d2-1")
    scan = _filled_scan(sys, 3, 2, SHARED_N, OrbitSegmentPlan(SHARED_N, 64, 2))
    _, held = scan._kept
    star = scan.prefixes(_make_stream(js, None), SHARED_N)
    assert held.dtype == np.uint64 and held.shape == (SHARED_N,)
    assert np.shares_memory(star, held) and star.size == SHARED_N

    def s(m):
        return cocycle_sum(sys.h, FixedReal(0), FixedReal(0), m, sys.alpha, sys.beta).frac_u64()

    for n in (1, 2, 63, 64, 65, 150, SHARED_N):
        assert int(star[n - 1]) == (s(3 * n) - s(2 * n)) & MASK64


@pytest.mark.parametrize("workers", [1, 2])
def test_weyl_reads_the_held_array_without_writing_it(workers):
    """Weyl sums read from the held S* twice give the same bits, and the held
    array, made read-only, is unchanged: the kept path never writes into it."""
    sys, js, _ = _shared_case(3, 2, "d2-1")
    plan = OrbitSegmentPlan(SHARED_N, 64, workers)
    scan = _filled_scan(sys, 3, 2, SHARED_N, plan)
    held = scan._kept[1]
    before = held.copy()
    held.flags.writeable = False

    def bits():
        reports = weyl_sums(js, None, WEYL_FREQS, SHARED_CHECKPOINTS, plan, pair_scan=scan)
        return [(c.n, c.value.real.hex(), c.value.imag.hex())
                for r in reports for c in r.checkpoints]

    assert bits() == bits()
    assert np.array_equal(held, before)


def test_pair_scan_used_only_where_it_covers():
    """A held scan serves only a joining from the origin of the same rotation,
    h and pair, to at most the scan's N; anything else scans its own lifts."""
    sys, js, _ = _shared_case(3, 2, "standard")
    scan = _filled_scan(sys, 3, 2, 100, OrbitSegmentPlan(100, 64))
    assert scan.prefixes(_make_stream(js, None), 100) is not None
    assert scan.prefixes(_make_stream(js, None), 101) is None
    off_origin = (FixedReal(0.25), FixedReal(0), FixedReal(0))
    assert scan.prefixes(_make_stream(js, off_origin), 50) is None
    other_pair = build_joining(sys, 5, 3)
    assert scan.prefixes(_make_stream(other_pair, None), 50) is None
    other_h = build_joining(make_sys(d1=2), 3, 2)
    assert scan.prefixes(_make_stream(other_h, None), 50) is None
    # a pair route away from x = y = 0 keeps nothing
    start = canonical_rep(GroupElement.fixed(0.3, 0.8, 0.45))
    moved = _filled_scan(sys, 3, 2, 100, OrbitSegmentPlan(100, 64), start)
    assert moved.prefixes(_make_stream(js, None), 100) is None


def test_star_descent_exact_z_difference():
    """The descent factors differ from the direct pair factors by a common
    central shift: the pair and reduced routes agree on the product sums."""
    sys = make_sys()
    js = build_joining(sys, 3, 2)
    obs = Observable(xi=1, bump=BumpProfile())
    sink = StarDescentSink(obs, 3, 2)
    via_pairs = pair_factor_values(sys, None, 3, 2, 300, OrbitSegmentPlan(900, 64), obs, [300])
    via_star = orbit_stream(js, None, OrbitSegmentPlan(300, 64), sink, checkpoints=[300])
    assert abs(via_pairs[0][1] - via_star[0][1]) <= 1e-9 * 300


def test_chained_scan_under_thread_switching(skew_oracle):
    """More workers than cores, 16-step segments and a 1 us switch interval:
    a carry read before it is published would change the sums."""
    sys, obs, start, cps, slow = skew_oracle
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        fast = orbit_stream(sys, start, OrbitSegmentPlan(1000, 16, 6), obs, checkpoints=cps)
    finally:
        setswitchinterval(interval)
    assert fast == slow


def _pair_sums_and_star(plan):
    """The pair route's sums at PAIR_CHECKPOINTS and the S* it leaves."""
    scan, obs = PairScan(), Observable(xi=1, bump=BumpProfile())
    sums = pair_factor_values(make_sys(), None, 3, 2, 500, plan, obs, PAIR_CHECKPOINTS,
                              pair_scan=scan)
    return sums, scan._kept[1]


@pytest.fixture(scope="module")
def pair_star_reference():
    return _pair_sums_and_star(OrbitSegmentPlan(500))


def test_pair_scan_under_thread_switching(pair_star_reference):
    """The pair route's one pass with more workers than cores, 16-step
    n-chunks and a 1 us switch interval: an S_{qn} read before its chunk kept
    it, or a carry read before it is published, would change the sums."""
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        sums, star = _pair_sums_and_star(OrbitSegmentPlan(500, 16, 6))
    finally:
        setswitchinterval(interval)
    ref_sums, ref_star = pair_star_reference
    assert sums == ref_sums
    assert np.array_equal(star, ref_star)


def test_pair_scan_waits_for_a_slow_keep(monkeypatch, pair_star_reference):
    """One early chunk keeps its S_{qn} slowly: the chunks after it, which
    read those entries, must wait for them, so the sums do not change."""
    keep_multiples = engine._keep_multiples

    def slow(dst, stride, lo, hi, s):
        if lo == 3 * 16:  # the second 16-pair chunk, skew steps 49 .. 96
            time.sleep(0.2)
        keep_multiples(dst, stride, lo, hi, s)

    monkeypatch.setattr(engine, "_keep_multiples", slow)
    sums, star = _pair_sums_and_star(OrbitSegmentPlan(500, 16, 3))
    ref_sums, ref_star = pair_star_reference
    assert sums == ref_sums
    assert np.array_equal(star, ref_star)


def test_pair_streams_hold_one_n_long_array():
    """The pair route to N pairs holds one u64 array of N entries, and the
    PairScan keeps that array: numpy reports its buffers to tracemalloc, so
    the traced peak stays below 1.75 arrays (two arrays of S_{pn} and S_{qn}
    would pass 2) and about one array is held after the call."""
    n_pairs = 1 << 18
    one_array = 8 * n_pairs
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    scan = PairScan()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pair_factor_values(sys, None, 3, 2, n_pairs, OrbitSegmentPlan(n_pairs, 1024), obs,
                           pair_scan=scan)
        gc.collect()
        held, peak = (v - before for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * one_array, f"peak {peak / one_array:.2f} arrays"
    assert one_array <= held < 1.1 * one_array, f"held {held / one_array:.2f} arrays"
    assert scan._kept[1].nbytes == one_array


RING_PAIRS = [(3, 2), (5, 3), (7, 2), (5, 2), (13, 11)]
RING_N = 997


@pytest.mark.parametrize("turn, p, q", [(i, p, q) for i, (p, q) in enumerate(RING_PAIRS)])
def test_pair_ring_sums_equal_the_held_scan(turn, p, q):
    """Without a PairScan the route keeps S_{qn} in its ring; with one, in an
    N-long array.  The sums are the same bits at every segment size to 1024
    under a 1 us switch interval.  Each pair takes the sizes at 1, 3 and 6
    workers in turn, from its own offset, so the five pairs together run
    every size at every worker count."""
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    cps = [1, 2, 100, 500, 996, RING_N]
    scan = PairScan()
    want = pair_factor_values(sys, None, p, q, RING_N, OrbitSegmentPlan(RING_N), obs, cps,
                              pair_scan=scan)
    assert scan._kept[1].size == RING_N
    plans = [OrbitSegmentPlan(RING_N, 1 << k, (1, 3, 6)[(k + turn) % 3]) for k in range(11)]
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        wrong = [plan for plan in plans
                 if pair_factor_values(sys, None, p, q, RING_N, plan, obs, cps) != want]
    finally:
        setswitchinterval(interval)
    assert wrong == []


def test_ring_size_bounds_every_chunk():
    """The ring spans what each n-chunk (lo, hi] writes and then reads,
    min(N, p hi / q) - lo entries, in whole chunks, and at most N."""
    for p, q in RING_PAIRS:
        for n_pairs in (1, 2, 15, 16, 17, 100, RING_N, 4096):
            for size in (1, 2, 4, 16, 64, 1024):
                ring = engine._ring_size(p, q, n_pairs, size)
                need = max(min(n_pairs, p * min(n_pairs, lo + size) // q) - lo
                           for lo in range(0, n_pairs, size))
                assert need <= ring <= n_pairs, (p, q, n_pairs, size)
                assert ring == n_pairs or ring % size == 0
                assert ring < need + size


def test_pair_ring_survives_a_lagging_reader(monkeypatch, pair_star_reference):
    """The second 16-pair chunk sleeps before it builds its lanes, while the
    later chunks keep theirs and wrap the ring of about N / 3 slots over the
    slots it read its S_{qn} from; it copied them out first, so the sums do
    not change."""
    lanes = _LaneStream.lanes

    def lagging(self, n, s, *ws):
        if int(n[0]) == 2 * 17:  # the lanes at q n of the chunk n = 17 .. 32
            time.sleep(0.2)
        return lanes(self, n, s, *ws)

    monkeypatch.setattr(_LaneStream, "lanes", lagging)
    assert engine._ring_size(3, 2, 500, 16) < 200
    sums = pair_factor_values(make_sys(), None, 3, 2, 500, OrbitSegmentPlan(500, 16, 3),
                              Observable(xi=1, bump=BumpProfile()), PAIR_CHECKPOINTS)
    assert sums == pair_star_reference[0]


def test_pair_ring_peak_is_a_third_of_n():
    """Without a PairScan the (3, 2) route to N pairs holds a ring of about
    N / 3 u64 slots: the traced peak stays below the ring and 20 chunks of
    3 * 4096 u64 entries (the stride-3 workspace and the chunk bookkeeping),
    against more than N entries for an N-long array."""
    n_pairs, size = 1 << 19, 4096
    ring = engine._ring_size(3, 2, n_pairs, size)
    assert ring < n_pairs // 3 + 2 * size
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pair_factor_values(sys, None, 3, 2, n_pairs, OrbitSegmentPlan(n_pairs, size), obs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * (ring + 20 * 3 * size), f"peak {peak / (8 * n_pairs):.3f} N-long arrays"


def test_stride_pass_sizes_each_buffer_to_its_longest_request(monkeypatch):
    """In the stride-3 pass only the buffers the scan asks for are 3 segments
    long; every other buffer, support-sized or not, is one segment, made
    once on first use."""
    made = []

    class Recorded(Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(engine, "Workspace", Recorded)
    size = 1024
    pair_factor_values(make_sys(), None, 3, 2, 8 * size, OrbitSegmentPlan(8 * size, size),
                       Observable(xi=1, bump=BumpProfile()))
    (ws,) = made
    lengths = {name: buf.size for name, buf in ws._bufs.items()}
    scan = {"n", "u", "t1", "t2", "h.q", "h.t"}  # steps, cocycle, lifts, periodic_q53
    assert {name: n for name, n in lengths.items() if n != size} == dict.fromkeys(scan, 3 * size)


# -- the chained scan fails loudly ------------------------------------------------


class _Boom(Exception):
    pass


def _finishes(call, seconds=60.0):
    """What ``call()`` raised, run in a thread that must end within ``seconds``."""
    raised = []

    def target():
        try:
            call()
        except Exception as exc:  # handed back to the test
            raised.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "the segment scan deadlocked"
    return raised


def test_scan_value_failure_raises_without_deadlock():
    def fn(x, y, z, n):
        if n[0] == 513:  # the segment of steps 513 .. 528
            raise _Boom("value function failed")
        return np.ones_like(x)

    raised = _finishes(lambda: orbit_stream(make_sys(), None, OrbitSegmentPlan(1000, 16, 3), fn))
    assert len(raised) == 1 and isinstance(raised[0], _Boom)


def test_scan_cocycle_failure_raises_without_deadlock(monkeypatch):
    """A segment whose cocycle fails publishes no carry: the later segments,
    which wait for it, raise instead of hanging, and the first error surfaces."""
    u_values = _LaneStream.u_values

    def failing(self, i, *ws):
        if int(i[0]) == 512:
            raise _Boom("cocycle failed")
        return u_values(self, i, *ws)

    monkeypatch.setattr(_LaneStream, "u_values", failing)
    plan = OrbitSegmentPlan(1000, 16, 3)
    raised = _finishes(lambda: orbit_stream(make_sys(), None, plan, lambda x, y, z, n: x + 0j))
    assert len(raised) == 1 and isinstance(raised[0], _Boom)


def test_pair_keep_failure_raises_without_deadlock(monkeypatch):
    """A chunk whose keep fails publishes no carry: the later chunks raise
    instead of hanging, and the first error surfaces."""
    keep_multiples = engine._keep_multiples

    def failing(dst, stride, lo, hi, s):
        if lo == 3 * 32:  # the third 16-pair chunk
            raise _Boom("keep failed")
        keep_multiples(dst, stride, lo, hi, s)

    monkeypatch.setattr(engine, "_keep_multiples", failing)
    obs = Observable(xi=1, bump=BumpProfile())
    plan = OrbitSegmentPlan(500, 16, 3)
    raised = _finishes(lambda: pair_factor_values(make_sys(), None, 3, 2, 500, plan, obs))
    assert len(raised) == 1 and isinstance(raised[0], _Boom)


def test_one_worker_runs_every_chunk_on_the_callers_thread():
    threads = set()

    def fn(x, y, z, n):
        threads.add(threading.get_ident())
        return x + 0j

    orbit_stream(make_sys(), None, OrbitSegmentPlan(1000, 16, 1), fn)
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("fails", [False, True], ids=["passes", "raises"])
def test_no_worker_thread_outlives_its_pass(fails):
    """On 3 workers the chunks run off the caller's thread, on at most 3
    threads, and every one has ended when the pass returns or raises."""
    threads = set()

    def fn(x, y, z, n):
        threads.add(threading.get_ident())
        if fails and n[0] == 513:
            raise _Boom("value function failed")
        return x + 0j

    def call():
        caller.append(threading.get_ident())
        orbit_stream(make_sys(), None, OrbitSegmentPlan(1000, 16, 3), fn)

    caller = []
    before = threading.active_count()
    raised = _finishes(call)
    assert [type(exc) for exc in raised] == ([_Boom] if fails else [])
    assert threading.active_count() == before
    assert 1 <= len(threads) <= 3 and caller[0] not in threads


@pytest.mark.parametrize("workers", [1, 3])
def test_pass_bookkeeping_does_not_grow_with_its_chunks(workers):
    """2**16 steps in 16-step segments are 4096 chunks.  A pass keeps per
    chunk only its sums, a few hundred bytes, so the traced peak stays
    below 3 MiB; with a future and an event per chunk besides it reads
    6.5 MiB on 1 worker and 13.3 MiB on 3."""
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    plan = OrbitSegmentPlan(1 << 16, 16, workers)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        orbit_stream(sys, None, plan, obs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, f"peak {peak / (1 << 20):.1f} MiB"


@pytest.mark.parametrize("workers", [1, 3])
def test_short_last_segment_matches_naive(workers):
    """300 steps in 64-step segments end on a 44-step one, which takes the
    first entries of every workspace buffer: the sums equal the naive loop,
    for a weighted skew stream, a joining and a descended joining."""
    sys = make_sys(terms=(TrigTerm(1, 0, 0.1, 0.0), TrigTerm(1, 1, 0.05, 0.3)), d2=1)
    obs = Observable(xi=1, bump=BumpProfile())
    signs = np.where(np.arange(301) % 7 == 3, -1, 1).astype(np.int8)
    js = build_joining(sys, 3, 2)
    cases = [
        (sys, obs, lambda lo, hi: signs[lo:hi]),
        (js, _wave, None),
        (js, StarDescentSink(obs, 3, 2), None),
    ]
    cps = [1, 64, 299, 300]
    for system, fn, weights in cases:
        plan = OrbitSegmentPlan(300, 64, workers)
        got = orbit_stream(system, None, plan, fn, weights, cps)
        assert got == orbit_stream_naive(system, None, 300, fn, weights, cps)


@pytest.mark.parametrize("workers", [1, 3])
def test_nested_stream_has_its_own_workspace(workers):
    """A value function that runs a whole stream of another system, of the
    same segment size, between the outer segment's lanes and its use of them,
    leaves both sums equal to the two streams run apart; Weyl modes, which
    write into the workspace, run in both."""
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    inner_sys = build_joining(make_sys(d1=2), 5, 3)
    inner_sink = StarDescentSink(obs, 5, 3)
    inner_plan = OrbitSegmentPlan(300, 128)
    inner = []

    inner_fns = [inner_sink, fourier_value((1, -1, 2))]
    outer_mode = fourier_value((2, 1, -1))

    def nested(x, y, z, n):
        inner.append(orbit_stream_multi(inner_sys, None, inner_plan, inner_fns,
                                        checkpoints=[100, 300]))
        return _wave(x, y, z, n)

    plan = OrbitSegmentPlan(700, 128, workers)
    got = orbit_stream_multi(sys, None, plan, [outer_mode, nested, obs], checkpoints=[350, 700])
    assert got == orbit_stream_multi(sys, None, plan, [outer_mode, _wave, obs],
                                     checkpoints=[350, 700])
    alone = orbit_stream_multi(inner_sys, None, inner_plan, inner_fns, checkpoints=[100, 300])
    assert len(inner) == 6 and all(sums == alone for sums in inner)


def test_streams_keep_no_segment_buffers():
    """The workspaces of a stream go when it returns: traced memory after
    each stream is back near its level before the call (numpy reports its
    buffers to tracemalloc), below half of one 32 KB segment buffer."""
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    plan = OrbitSegmentPlan(3 * 4096 * 3, 4096, 2)
    js = build_joining(sys, 3, 2)
    table = sieve_mobius(4096 * 9)
    cps = [4096 * 9]
    streams = {
        "orbit_stream": lambda: orbit_stream(sys, None, plan, obs),
        "pair_factor_values": lambda: pair_factor_values(sys, None, 3, 2, 4096 * 3, plan, obs),
        "bilinear_sum_reduced": lambda: bilinear_sum_reduced(sys, obs, 3, 2, [4096 * 3], plan),
        "weyl_sums": lambda: weyl_sums(js, None, WEYL_FREQS, cps, plan),
        "davenport_baseline": lambda: davenport_baseline(ALPHA, cps, table, plan),
    }
    tracemalloc.start()
    try:
        for name, call in streams.items():
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            call()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
            assert kept < 16384, f"{name} kept {kept} bytes"
    finally:
        tracemalloc.stop()


def test_checkpoint_sums_helper():
    vals = np.array([1.0 + 0j, 0.5j, -1.0, 0.25])
    out = checkpoint_sums(vals, [2, 4])
    assert out[0] == (2, 1.0 + 0.5j)
    assert out[1] == (4, 0.25 + 0.5j)
    with pytest.raises(ValueError):
        checkpoint_sums(vals, [5])
    with pytest.raises(ValueError):
        checkpoint_sums(vals, [3, 2])
