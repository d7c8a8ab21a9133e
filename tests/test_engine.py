import functools
import gc
import re
import threading
import time
import tracemalloc
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nillab import engine, observables
from nillab.dynamics import (
    BaseFunctionSpec, SkewSystem, TrigTerm, build_joining, cocycle_sum, iterate_T, lift_fixed,
)
from nillab.engine import (
    MASK64,
    OrbitSegmentPlan,
    PairScan,
    StarDescentSink,
    _float_lanes,
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
from nillab.heisenberg import HEISENBERG, GroupElement, GroupLaw, canonical_rep, identity
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
    assert OrbitSegmentPlan(10, worker_count=engine.MAX_WORKERS).worker_count == 256
    with pytest.raises(ValueError, match="workers = 257"):
        OrbitSegmentPlan(10, worker_count=engine.MAX_WORKERS + 1)
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


@pytest.mark.parametrize("checkpoints", [[5, 20], [7, 5]], ids=["past-n", "unsorted"])
def test_naive_loop_checks_checkpoints_as_the_engine_does(checkpoints):
    """A checkpoint past the step count, or out of order, is refused by the
    naive loop with the engine's message, not dropped or sorted."""
    sys = make_sys()
    with pytest.raises(ValueError) as refused:
        orbit_stream(sys, None, OrbitSegmentPlan(10), _wave, checkpoints=checkpoints)
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        orbit_stream_naive(sys, None, 10, _wave, checkpoints=checkpoints)


# -- the evaluator against the naive loop, on drawn cases ------------------------


_OFF_CENTRE = [((0.4, 0.55), 0.2), ((0.62, 0.35), 0.15), ((0.3, 0.7), 0.17)]
_k = st.integers(-2, 2)


@st.composite
def _value_fn(draw, pair):
    """A value function of one of the kinds the evaluator tells apart: an
    observable on its support, a base mode, a Fourier mode without and with
    a z frequency (dense, it runs on sorted phases), a plain callable and,
    on a joining of the pair ``pair``, a descent sink."""
    # the support kinds twice, so that a dense function often follows one
    kinds = ["bump", "bump", "base", "mode", "z mode", "plain"] + (["sink"] * 2 if pair else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("bump", "sink"):
        obs = Observable(xi=draw(st.sampled_from([1, -1, 2])),
                         bump=BumpProfile(*draw(st.sampled_from(_OFF_CENTRE))))
        return obs if kind == "bump" else StarDescentSink(obs, *pair)
    k1, k2 = draw(_k), draw(_k)
    if kind == "base":
        return Observable(xi=0, base_mode=(k1, k2))
    if kind == "mode":
        return fourier_value((k1, k2)[: draw(st.integers(1, 2))])
    k3 = draw(st.sampled_from([-2, -1, 1, 2]))
    if kind == "z mode":
        return fourier_value((k1, k2, k3))
    return lambda x, y, z, n: np.exp(2j * np.pi * (k1 * x + k2 * y + k3 * z))


@st.composite
def _evaluator_case(draw):
    d1, d2, terms = SHARED_H[draw(st.sampled_from(sorted(SHARED_H)))]
    system = make_sys(terms=terms, d1=d1, d2=d2)
    pair = draw(st.sampled_from([None, (3, 2), (5, 3)]))
    grid = draw(st.none() | st.tuples(*[st.integers(1, 2**64 - 1)] * 3))
    if pair is not None:
        system = build_joining(system, *pair)
        start = grid and tuple(FixedReal.from_q64(c) for c in grid)
    else:
        start = grid and canonical_rep(GroupElement(*map(FixedReal.from_q64, grid), HEISENBERG))
    fns = [draw(_value_fn(pair)) for _ in range(draw(st.integers(1, 3)))]
    n = draw(st.integers(1, 300))
    cps = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=4)))
    weights = None
    if draw(st.booleans()):
        w = np.random.default_rng(draw(st.integers(0, 2**32))).integers(-1, 2, n + 1, np.int8)
        weights = lambda lo, hi: w[lo:hi]  # noqa: E731
    plan = OrbitSegmentPlan(n, 1 << draw(st.integers(0, 8)), draw(st.integers(1, 3)))
    return system, start or None, plan, fns, weights, cps


@settings(max_examples=60)
@given(_evaluator_case())
def test_evaluator_equals_the_naive_loop_on_drawn_cases(case):
    """Several value functions of one stream -- observables on their support,
    dense modes on sorted phases, plain callables and descent sinks, in any
    order, weighted or not -- each sum what the naive loop sums for it alone,
    bit for bit, from the identity or origin or a grid point with cross
    terms, at any checkpoints, segment size and worker count."""
    system, start, plan, fns, weights, cps = case
    got = orbit_stream_multi(system, start, plan, fns, weights, cps)
    assert got == [orbit_stream_naive(system, start, plan.n_total, fn, weights, cps)
                   for fn in fns]


def _quantized_checkpoint_sums(values, checkpoints):
    """(N, sum of the first N values) per checkpoint N: each part quantized
    to the 2**-53 grid (rint, half to even), summed as an exact integer and
    scaled back, as the engine sums."""
    q = [(round(v.real * 2.0**53), round(v.imag * 2.0**53)) for v in values]
    return [(n, complex(sum(re for re, _ in q[:n]) / 2.0**53, sum(im for _, im in q[:n]) / 2.0**53))
            for n in checkpoints]


# a nonzero multiple of 2**-64 in (0, 1), spread: times an odd constant mod
# 2**64, a bijection that sends the small integers a derandomized search
# favours all over (0, 1)
_spread = st.integers(1, 2**64 - 1).map(lambda k: k * 0x9E3779B97F4A7C15 % 2**64)
# wide off-centre boxes: both points of a pair lie in one at 6-24% of the steps
_WIDE_OFF_CENTRE = [((0.45, 0.55), 0.3), ((0.5, 0.48), 0.35), ((0.4, 0.6), 0.25)]


@st.composite
def _pair_case(draw):
    d1, d2, terms = SHARED_H[draw(st.sampled_from(sorted(SHARED_H)))]
    alpha, beta = (FixedReal.from_q64(draw(_spread)) for _ in range(2))
    system = SkewSystem(alpha, beta, BaseFunctionSpec(d1, d2, terms))
    p, q = draw(st.sampled_from([(3, 2), (5, 3), (7, 2)]))
    grid = draw(st.none() | st.tuples(_spread, _spread, _spread))
    start = canonical_rep(
        identity() if grid is None else GroupElement(*map(FixedReal.from_q64, grid), HEISENBERG))
    if draw(st.booleans()):
        obs = Observable(xi=draw(st.sampled_from([1, -1, 2])),
                         bump=BumpProfile(*draw(st.sampled_from(_WIDE_OFF_CENTRE))))
    else:
        obs = Observable(xi=0, base_mode=(draw(_k), draw(_k)))
    n = draw(st.integers(1, 60))
    cps = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=4)))
    plan = OrbitSegmentPlan(n, 1 << draw(st.integers(0, 8)), draw(st.integers(1, 3)))
    return system, start, p, q, obs, plan, cps


def _exact_factor(system, start, m, n_pairs, obs):
    """F at the exact iterates T^{m n} x0, n = 1 .. n_pairs, on the floats
    the engine makes of lanes: x and y round once, and z = hi 2**-64 +
    lo 2**-128 rounds each limb and their sum, which is one ulp off the
    correctly rounded float(z) where the cast of hi is a tie."""
    def floats(x, y, z):
        hi, lo = z.frac_lanes()
        return float(x), float(y), float(hi) * 2.0**-64 + float(lo) * 2.0**-128

    points = [floats(*iterate_T(system, start, m * n).coords()) for n in range(1, n_pairs + 1)]
    return obs.eval_arrays(*np.array(points).T)


@settings(max_examples=100)
@given(_pair_case())
def test_pair_route_equals_exact_iterates_on_drawn_cases(case):
    """The pair route's sums equal, bit for bit, the checkpoint sums of
    conj F(T^{qn} x0) F(T^{pn} x0) at the exact iterates, for drawn h,
    alpha and beta on the 2**-64 grid, pairs, starts, observables on their
    joint support or base modes, checkpoints, segment sizes and workers."""
    system, start, p, q, obs, plan, cps = case
    fp, fq = (_exact_factor(system, start, m, plan.n_total, obs) for m in (p, q))
    want = _quantized_checkpoint_sums(np.multiply(np.conj(fq), fp), cps)
    assert pair_factor_values(system, start, p, q, plan.n_total, plan, obs, cps) == want


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
    chunks = []
    _scan_segments(
        (stream,), OrbitSegmentPlan(n_max),
        lambda lo, hi, s, ws: stream.lanes(np.arange(lo + 1, hi + 1, dtype=np.uint64), s),
        chunks.append,
    )
    (lanes,) = chunks
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
    chunks = []
    _scan_segments(
        (stream,), OrbitSegmentPlan(n_max),
        lambda lo, hi, s, ws: stream.lanes(np.arange(lo + 1, hi + 1, dtype=np.uint64), s),
        chunks.append,
    )
    (lanes,) = chunks
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


@pytest.mark.parametrize("p, q", [(3, 2), (5, 3), (7, 2)])
def test_stride_prefixes_equal_exact_cocycle_sums(p, q):
    """A pass over the stride-p and stride-q streams carries one prefix per
    stream: the chunk (lo, hi] gives S_{pn} and S_{qn} for n in (lo, hi],
    each equal to exact ``cocycle_sum`` at m n from a start off the
    identity, at every segment size to 1024 on 1 and 3 workers."""
    sys = make_sys(terms=SHARED_H["d2-1"][2], d1=2, d2=-1)
    start = canonical_rep(GroupElement.fixed(0.3, 0.8, 0.45))
    x0, y0, _ = start.coords()
    n_pairs = 100
    want = [[cocycle_sum(sys.h, x0, y0, m * n, sys.alpha, sys.beta).frac_u64()
             for n in range(1, n_pairs + 1)] for m in (p, q)]
    streams = [_make_stream(sys, start, m) for m in (p, q)]

    def consume(lo, hi, s_p, s_q, ws):
        return s_p.tolist(), s_q.tolist()

    wrong = []
    for size in (1 << k for k in range(11)):
        for workers in (1, 3):
            plan = OrbitSegmentPlan(n_pairs, size, workers)
            chunks = []
            _scan_segments(streams, plan, consume, chunks.append)
            got = [[v for chunk in chunks for v in chunk[j]] for j in (0, 1)]
            if got != want:
                wrong.append((size, workers))
    assert wrong == []


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


def _reports(report):
    return [(c.n, c.value) for c in report.checkpoints]


def test_weighted_streams_equal_naive_loop_at_every_segment_size(skew_oracle):
    """The mu-weighted correlate stream, from an off-origin start with a
    d2 = 1 h and an off-centre bump, and Davenport's mu-weighted wave equal
    the naive loop at every checkpoint and every segment size to 256: chunks
    in which the support holds no step or one step of nonzero mu keep the
    bits, and each checkpoint's prefix ends at the right offset."""
    sys, obs, start, _, _ = skew_oracle
    n_total = 300
    cps = list(range(1, n_total + 1))
    table = sieve_mobius(n_total)
    rotation = SkewSystem(ALPHA, FixedReal(0), BaseFunctionSpec(0, 0))  # Davenport's
    want = {
        "correlate": orbit_stream_naive(sys, start, n_total, obs, table.mu_slice, cps),
        "davenport": orbit_stream_naive(rotation, None, n_total, fourier_value((1,)),
                                        table.mu_slice, cps),
    }
    want = {name: [(n, s / n) for n, s in sums] for name, sums in want.items()}
    wrong = []
    for size, workers in SMALL_SEGMENTATIONS:
        plan = OrbitSegmentPlan(n_total, size, workers)
        got = {
            "correlate": _reports(correlation_sum(sys, obs, start, cps, table, plan)),
            "davenport": _reports(davenport_baseline(ALPHA, cps, table, plan)),
        }
        wrong += [(name, size, workers) for name in want if got[name] != want[name]]
    assert wrong == []


def _in_box(bump, u: int, v: int) -> bool:
    """Whether the point of u64 lanes (u, v), as floats, lies in the bump's
    open box."""
    (cx, cy), r = bump.center, bump.radius
    return abs(float(u) * 2.0**-64 - cx) < r and abs(float(v) * 2.0**-64 - cy) < r


def test_z_lanes_are_built_only_on_the_support(monkeypatch):
    """One pass per stream builds its lanes, and so its z lane, only at the
    steps of its support, which the rotation lanes decide alone (worked out
    here in integers from the identity or the origin, where x = n alpha and
    y = n beta): the pair route where both T^{qn} x0 and T^{pn} x0 lie in
    the bump's box, at q n and then p n; the descent where both reductions
    (3 x, 3 y) and (2 x, 2 y) do; correlate where the box meets mu != 0;
    Davenport where mu != 0."""
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    n_total, size = 1000, 128
    a, b = ALPHA.frac_u64(), BETA.frac_u64()
    table = sieve_mobius(n_total)
    built = []
    lanes = _LaneStream.lanes

    def recording(self, n, s, *ws):
        built.append(n.tolist())
        return lanes(self, n, s, *ws)

    monkeypatch.setattr(_LaneStream, "lanes", recording)

    def box(n, m=1):
        return _in_box(obs.bump, n * m * a & MASK64, n * m * b & MASK64)

    def per_chunk(keep, strides=(1,)):
        """The steps m n of each chunk's kept n, per stride m in order."""
        out = []
        for lo in range(0, n_total, size):
            kept = [n for n in range(lo + 1, min(lo + size, n_total) + 1) if keep(n)]
            out += [[m * n for n in kept] for m in strides]
        return out

    plan = OrbitSegmentPlan(n_total, size)
    cases = {
        "pair": (lambda: pair_factor_values(sys, None, 3, 2, n_total, plan, obs),
                 per_chunk(lambda n: box(n, 2) and box(n, 3), (2, 3))),
        "descent": (lambda: bilinear_sum_reduced(sys, obs, 3, 2, [n_total], plan),
                    per_chunk(lambda n: box(n, 3) and box(n, 2))),
        "correlate": (lambda: correlation_sum(sys, obs, None, [n_total], table, plan),
                      per_chunk(lambda n: box(n) and table.mu(n) != 0)),
        "davenport": (lambda: davenport_baseline(ALPHA, [n_total], table, plan),
                      per_chunk(lambda n: table.mu(n) != 0)),
    }
    for name, (call, want) in cases.items():
        built.clear()
        call()
        assert 0 < sum(map(len, want)) < n_total  # the support leaves steps out
        assert built == want, name


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
    """The descent evaluates its factors only where both reductions lie in
    the bump's box: there the values are f_p conj(f_q) bit for bit, elsewhere
    +0, and both quantize as the full product does, in a workspace or fresh.
    The full product takes each factor from the reduced lanes, worked out
    here in integers, through the dense ``eval_arrays``."""
    sink = StarDescentSink(obs, 3, 2)
    fx, fy, z_hi, z_lo = rng.integers(0, 2**64 - 1, size=(4, 4096), dtype=np.uint64,
                                      endpoint=True)

    def factor(m, z_hi, z_lo):
        x, y, z = (v.astype(object) for v in (fx, fy, z_hi))
        za = [(zi - (xi * m & MASK64) * (yi * m >> 64) + (xi * m >> 64) * (yi * m & MASK64))
              & MASK64 for xi, yi, zi in zip(x, y, z)]
        lanes = (fx * np.uint64(m), fy * np.uint64(m), np.array(za, dtype=np.uint64))
        xf, yf, zf = (v * 2.0**-64 for v in lanes)
        return obs.eval_arrays(xf, yf, zf + z_lo * 2.0**-128)

    zero = np.zeros_like(z_lo)
    f_p, f_q = factor(3, z_hi, z_lo), factor(2, zero, zero)
    full = f_p * np.conj(f_q)
    on = (f_p != 0) & (f_q != 0)
    assert 0 < on.mean() < (f_p != 0).mean() < 1  # the q factor narrows the support
    for got in (sink(fx, fy, z_hi, z_lo, None), sink(fx, fy, z_hi, z_lo, None, Workspace(4096))):
        assert np.array_equal(got[on].view(np.uint64), full[on].view(np.uint64))
        assert not got[~on].view(np.uint64).any()
        for part in ("real", "imag"):
            assert np.array_equal(_quantize(getattr(got, part)), _quantize(getattr(full, part)))


@pytest.mark.parametrize("bump", [
    BumpProfile(), BumpProfile((0.3, 0.6), 0.15), BumpProfile((0.375, 0.625), 0.25),
    BumpProfile((0.61, 0.27), 0.1),
], ids=["standard", "off1", "margin", "off3"])
def test_descent_support_on_reduced_lanes_is_the_float_support(rng, bump):
    """The descent's support tests the bump's lane box on its reduced lanes
    (p x, p y) and (q x, q y): on 10**5 random lanes, with and without
    ``where``, fresh and in a workspace, the indices equal those of the
    float test that the dense call takes."""
    sink = StarDescentSink(Observable(xi=1, bump=bump), 3, 2)
    fx, fy = rng.integers(0, 2**64 - 1, size=(2, 10**5), dtype=np.uint64, endpoint=True)
    where = rng.random(fx.size) < 0.5
    inside = [bump.inside(fx * np.uint64(m) * 2.0**-64, fy * np.uint64(m) * 2.0**-64)
              for m in (3, 2)]
    for mask in (None, where):
        want = np.flatnonzero(inside[0] & inside[1] & (True if mask is None else mask))
        assert 0 < want.size < fx.size
        for ws in (Workspace(), Workspace(fx.size)):
            assert np.array_equal(sink.support((fx, 1, 0), (fy, 1, 0), ws, mask), want)


def test_streams_without_a_low_limb_skip_it():
    """From the origin, and from the identity, z has no low limb: the lanes
    give the read-only zeros of ``_zeros`` as z lo, and their floats, made
    without reading it, equal those of an explicit zero lane.  A start
    off the origin gives a low limb, which is read."""
    n = np.arange(1, 1001, dtype=np.uint64)
    s = np.cumsum(n * np.uint64(0x9E3779B97F4A7C15))
    js = build_joining(make_sys(), 3, 2)
    for system in (js, make_sys()):
        fx, fy, z_hi, z_lo = _make_stream(system, None).lanes(n, s)
        assert z_lo.base is engine._ZERO and not z_lo.flags.writeable
        ws = Workspace(n.size)
        got = _float_lanes(fx, fy, z_hi, z_lo, ws)
        assert "t1" not in ws._bufs  # the low limb's scratch
        want = _float_lanes(fx, fy, z_hi, np.zeros_like(z_hi))
        assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(got, want))
    start = (FixedReal(0.25), FixedReal(0.5), FixedReal(0.125))
    assert _make_stream(js, start).lanes(n, s)[3].any()


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


# -- the Weyl sums made in the pair route's pass ------------------------------------

WEYL_FREQS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2)]
SHARED_N = 300
SHARED_CHECKPOINTS = [1, 17, 150, SHARED_N]
# h shapes that take every branch of the lift kernel: d1 = 1 or not, the
# affine y part at d2 != 0, a term that reads y at d2 = 0, and Davenport's
# zero h
KERNEL_H = {
    "standard": (1, 0, (TrigTerm(1, 0, 0.1, 0.0),)),
    "d2-only": (1, 3, (TrigTerm(1, 0, 0.1, 0.0),)),
    "k2-only": (1, 0, (TrigTerm(1, 0, 0.1, 0.0), TrigTerm(2, -1, 0.05, 0.3))),
    "d1-2": (2, 0, (TrigTerm(1, 0, 0.1, 0.0),)),
    "d1-minus-1": (-1, 0, (TrigTerm(3, 0, 0.2, 0.7),)),
    "zero": (0, 0, ()),
}
KERNEL_STEPS = [0, 1, 2, 3, 1000, 65535, 2**33 + 7, 2**62 + 5, 2**64 - 1]


@pytest.mark.parametrize(
    "p, q, m", [(1, 0, 1), (3, 2, 1), (5, 3, 1), (1, 0, 2), (1, 0, 3), (1, 0, 7)],
    ids=["skew", "3-2", "5-3", "skew-stride2", "skew-stride3", "skew-stride7"],
)
@pytest.mark.parametrize("h_id", KERNEL_H)
def test_u_values_equal_exact_lifts(h_id, p, q, m):
    """``u_values``, in a workspace and in fresh arrays, equals the exact lift
    H = h_p(p x, p y) - h_q(q x, q y) at the base points (x0, y0) + i (alpha,
    beta) bit for bit: ``lift_fixed`` for the skew stream, exact
    ``cocycle_sum`` over the joining's p + q shifts.  At stride m the skew
    stream's value i equals exact ``cocycle_sum`` over the m steps from
    (x0, y0) + i m (alpha, beta).  Only ``periodic_q53`` is shared with the
    kernel, so the skipped multiplications and y lanes are checked against a
    model that makes them all."""
    d1, d2, terms = KERNEL_H[h_id]
    h = BaseFunctionSpec(d1, d2, terms)
    x0, y0 = FixedReal(0.3), FixedReal(0.8)
    stream = _LaneStream(ALPHA, BETA, h, (x0, y0, FixedReal(0.45)), p, q, m)
    assert stream.reads_y == (h_id == "k2-only")  # d2 y is in the closed-form affine part
    i = np.array(KERNEL_STEPS, dtype=np.uint64)
    want = []
    for k in KERNEL_STEPS:
        x, y = (x0 + k * m * ALPHA).frac(), (y0 + k * m * BETA).frac()
        if m > 1:
            value = cocycle_sum(h, x, y, m, ALPHA, BETA)
        elif p == 1:
            value = lift_fixed(h, x, y)
        else:
            value = (cocycle_sum(h, p * x, p * y, p, ALPHA, BETA)
                     - cocycle_sum(h, q * x, q * y, q, ALPHA, BETA))
        want.append(value.frac_u64())
    assert stream.u_values(i).tolist() == want
    assert stream.u_values(i, Workspace(i.size)).tolist() == want


# h shapes for the fused lift: d1 = 0, 1 and -2, each with d2 != 0; a term
# with k2 != 0, a phase, and two terms
FUSED_H = {
    "d1-0": (0, 2, (TrigTerm(1, 0, 0.1, 0.3),)),
    "d1-1": (1, -1, (TrigTerm(1, 2, 0.05, 0.0), TrigTerm(3, 0, 0.2, 0.7))),
    "d1-minus-2": (-2, 3, (TrigTerm(2, -1, 0.08, 0.15),)),
}
FUSED_BASES = [0, 2**63 - 5, 2**64 - 5]  # chunk bases near 2**63 and 2**64


def _u_values_per_shift(h, p, q, m, start, steps):
    """The cocycle at u64 ``steps`` as a loop over the p m + q m shifts of
    sides p and q, each lift made on its own: the shift's base points, its
    periodic part shifted into the 2**-64 scale plus d1 x + d2 y, added for
    side p and subtracted for side q."""
    (x0, y0), (a, b) = start, (ALPHA.frac_u64(), BETA.frac_u64())
    acc = np.zeros(steps.shape, np.uint64)
    for side, sign in ((p, 1), (q, -1)):
        for j in range(side * m):
            x = steps * u64c(side * m * a) + u64c(side * x0 + j * a)
            y = steps * u64c(side * m * b) + u64c(side * y0 + j * b)
            lift = h.periodic_q53(x, y).view(np.uint64) << np.uint64(11)
            lift += x * u64c(h.d1) + y * u64c(h.d2)
            acc = acc + lift if sign > 0 else acc - lift
    return acc


@pytest.mark.parametrize("p, q, m", [(1, 0, 1), (1, 0, 2), (1, 0, 3), (1, 0, 13), (3, 2, 1),
                                     (13, 11, 1)],
                         ids=["stride1", "stride2", "stride3", "stride13", "3-2", "13-11"])
@pytest.mark.parametrize("h_id", FUSED_H)
def test_fused_u_values_equal_the_per_shift_loop(h_id, p, q, m):
    """``u_values`` sums the shifts' periodic parts on u64, shifts the sum
    once and adds the affine part in closed form, from the shared offsets
    with the chunk base folded into its constants; at chunk bases near
    2**63 and 2**64, in a workspace and in fresh arrays, that equals a loop
    that makes each shift's lift on its own."""
    h = BaseFunctionSpec(*FUSED_H[h_id])
    x0, y0 = FixedReal(0.3), FixedReal(0.8)
    stream = _LaneStream(ALPHA, BETA, h, (x0, y0, FixedReal(0.45)), p, q, m)
    offsets = np.arange(8, dtype=np.uint64)
    for lo in FUSED_BASES:
        steps = offsets + u64c(lo)
        want = _u_values_per_shift(h, p, q, m, (x0.frac_u64(), y0.frac_u64()), steps)
        for ws in (Workspace(), Workspace(8)):
            assert stream.u_values(offsets, ws, "u", lo).tolist() == want.tolist(), lo


SHARED_H = {
    "standard": (1, 0, (TrigTerm(1, 0, 0.1, 0.0),)),
    "d2-1": (2, -1, (TrigTerm(1, 0, 0.1, 0.0), TrigTerm(1, 1, 0.05, 0.3))),
}


def _weyl_fn(k):
    def fn(x, y, z, n):
        return np.exp(2j * np.pi * (k[0] * x + k[1] * y + k[2] * z))

    return fn


def _weyl_modes(freqs=WEYL_FREQS):
    return [fourier_value(k) for k in freqs]


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


def _filled_scan(sys, p, q, n_pairs, plan, start=None, checkpoints=SHARED_CHECKPOINTS, js=None):
    """A PairScan of ``js`` (default: the joining of (sys, p, q)), WEYL_FREQS
    and ``checkpoints``, given to a pair route."""
    scan = PairScan(build_joining(sys, p, q) if js is None else js, WEYL_FREQS, checkpoints)
    pair_factor_values(
        sys, start, p, q, n_pairs, resize_plan(plan, p * n_pairs),
        Observable(xi=1, bump=BumpProfile()), pair_scan=scan,
    )
    return scan


def _refuse_streams(monkeypatch):
    """From here on, a stream that builds a lane or scans a lift fails."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a stream ran")

    for name in ("u_values", "lanes"):
        monkeypatch.setattr(_LaneStream, name, refuse)


@pytest.mark.parametrize("p, q", [(3, 2), (5, 3), (7, 2)])
@pytest.mark.parametrize("h_id", list(SHARED_H))
@SEGMENTATIONS
def test_joining_reads_pair_scan_bit_for_bit(monkeypatch, p, q, h_id, segment_size, workers):
    """S*_n = S_{pn} - S_{qn}: the Weyl sums the pair route's pass makes equal
    the joining's own (p + q)-lift stream and the naive loop, for any
    segmentation, and reading them streams nothing."""
    sys, js, naive = _shared_case(p, q, h_id)
    plan = OrbitSegmentPlan(SHARED_N, segment_size, workers)
    own = orbit_stream_multi(js, None, plan, [_weyl_fn(k) for k in WEYL_FREQS],
                             checkpoints=SHARED_CHECKPOINTS)
    scan = _filled_scan(sys, p, q, SHARED_N, plan)
    _refuse_streams(monkeypatch)
    held = orbit_stream_multi(js, None, plan, _weyl_modes(), checkpoints=SHARED_CHECKPOINTS,
                              pair_scan=scan)
    assert held == own == naive


@pytest.mark.parametrize("segment_size, workers", [(64, 1), (64, 2), (1 << 16, 1), (1 << 16, 2)])
def test_weyl_sums_invariant_with_and_without_pair_scan(segment_size, workers):
    """weyl_sums, whose modes share one set of workspace buffers, gives the
    naive loop's bits at 1 and 2 workers and segment sizes 64 and 2**16,
    scanning its own lifts or returning the sums the pair route's pass made."""
    sys, js, naive = _shared_case(3, 2, "d2-1")
    plan = OrbitSegmentPlan(SHARED_N, segment_size, workers)
    scan = _filled_scan(sys, 3, 2, SHARED_N, plan)
    for pair_scan in (None, scan):
        reports = weyl_sums(js, None, WEYL_FREQS, SHARED_CHECKPOINTS, plan, pair_scan=pair_scan)
        got = [[(c.n, c.value) for c in r.checkpoints] for r in reports]
        assert got == [[(n, s / n) for n, s in sums] for sums in naive]


SORT_N = 300
# a checkpoint on a chunk's first step and one on its last at every segment
# size from 2 to 256, and two in one chunk at every size from 2 on (at least
# 299 and 300)
SORT_CHECKPOINTS = [1, 17, 64, 65, 150, 151, 256, 257, 299, SORT_N]


def _mode_calls(monkeypatch):
    """The frequencies and the coordinates it reads, copied, of every call of
    ``fourier_mode`` from here on, by the engine or by a Fourier value
    function."""
    calls = []
    mode = observables.fourier_mode

    def recording(ks, coords, *args):
        calls.append((tuple(ks), [np.array(c) for c in coords[: len(ks)]]))
        return mode(ks, coords, *args)

    monkeypatch.setattr(observables, "fourier_mode", recording)
    monkeypatch.setattr(engine, "fourier_mode", recording)
    return calls


@pytest.mark.parametrize("route", ["pair pass", "own stream"])
def test_weyl_modes_that_read_z_run_on_sorted_phases(monkeypatch, route):
    """A Weyl mode that reads z is evaluated as the mode (1,) of its phases
    sorted within each checkpoint interval of a chunk: in the pair pass with
    a holder of Davenport's weights and in ``weyl_sums``' own stream, at
    every segment size to 256 on one worker, the phases the kernel receives
    are, interval by interval, the lane order's sorted, so non-decreasing.
    The x and y modes, and with them Davenport's twin, which weighs the
    (1, 0, 0) mode's values, receive the float lanes in lane order."""
    sys, js, _ = _shared_case(3, 2, "standard")
    xf, yf, zf = np.array([pt[1:] for pt in orbit_points(js, None, range(1, SORT_N + 1))]).T
    lane_phases = {(0, 0, 1): zf, (1, 1, 2): 1 * xf + 1 * yf + 2 * zf}
    table = sieve_mobius(SORT_N)
    calls = _mode_calls(monkeypatch)
    for size in sorted({size for size, _ in SMALL_SEGMENTATIONS}):
        plan = OrbitSegmentPlan(SORT_N, size)
        calls.clear()
        if route == "pair pass":
            scan = PairScan(js, WEYL_FREQS, SORT_CHECKPOINTS, table.mu_slice)
            pair_factor_values(sys, None, 3, 2, SORT_N, plan,
                               Observable(xi=1, bump=BumpProfile()), pair_scan=scan)
            assert scan.weighted_sums is not None
        else:
            weyl_sums(js, None, WEYL_FREQS, SORT_CHECKPOINTS, plan)
        chunks = [(lo, min(lo + size, SORT_N)) for lo in range(0, SORT_N, size)]
        assert len(calls) == len(WEYL_FREQS) * len(chunks)
        for j, (ks, coords) in enumerate(calls):
            k = WEYL_FREQS[j % len(WEYL_FREQS)]
            lo, hi = chunks[j // len(WEYL_FREQS)]
            if not k[2]:
                assert ks == k
                assert np.array_equal(coords[0], xf[lo:hi])
                assert np.array_equal(coords[1], yf[lo:hi])
                continue
            assert ks == (1,)
            (got,), want = coords, lane_phases[k][lo:hi]
            ends = [c - lo for c in SORT_CHECKPOINTS if lo < c <= hi]
            for a, b in zip([0, *ends], [*ends, hi - lo]):
                assert np.all(got[a:b][1:] >= got[a:b][:-1]), (route, size, lo, k)
                assert np.array_equal(got[a:b].view(np.uint64), np.sort(want[a:b]).view(np.uint64))


def test_sorted_weyl_sums_equal_the_naive_loop():
    """With the modes that read z on sorted phases, the Weyl sums of the pair
    pass's holder and of the joining's own stream equal the naive loop in
    lane order at every checkpoint, for every segment size to 256 at 1 and 3
    workers: a checkpoint on a chunk's first or last step, or two in one
    chunk, cut the sort where the sums are cut."""
    sys, js, _ = _shared_case(3, 2, "standard")
    naive = [orbit_stream_naive(js, None, SORT_N, fourier_value(k), checkpoints=SORT_CHECKPOINTS)
             for k in WEYL_FREQS]
    wrong = []
    for size, workers in SMALL_SEGMENTATIONS:
        plan = OrbitSegmentPlan(SORT_N, size, workers)
        scan = _filled_scan(sys, 3, 2, SORT_N, plan, checkpoints=SORT_CHECKPOINTS)
        own = orbit_stream_multi(js, None, plan, _weyl_modes(), checkpoints=SORT_CHECKPOINTS)
        wrong += [(route, size, workers) for route, sums in (("pair pass", scan.sums),
                                                             ("own stream", own))
                  if sums != naive]
    assert wrong == []


def test_pair_pass_builds_the_joining_from_exact_star(monkeypatch):
    """The pair route's pass builds the joining's lanes at every n from
    S*_n = S_{pn} - S_{qn} mod 2**64, each term the exact cocycle sum from
    x = y = 0, one segment at a time; the holder keeps no array."""
    sys, _, _ = _shared_case(3, 2, "d2-1")
    lanes = _LaneStream.lanes
    star, sizes = {}, set()

    def recording(self, n, s, *ws):
        if self.p != 1:  # the joining's lanes, not the skew ones at q n and p n
            star.update(zip(n.tolist(), s.tolist()))
            sizes.add(s.size)
        return lanes(self, n, s, *ws)

    monkeypatch.setattr(_LaneStream, "lanes", recording)
    scan = _filled_scan(sys, 3, 2, SHARED_N, OrbitSegmentPlan(SHARED_N, 64, 2))
    assert sorted(star) == list(range(1, SHARED_N + 1)) and max(sizes) == 64

    def s(m):
        return cocycle_sum(sys.h, FixedReal(0), FixedReal(0), m, sys.alpha, sys.beta).frac_u64()

    for n in (1, 2, 63, 64, 65, 150, SHARED_N):
        assert star[n] == (s(3 * n) - s(2 * n)) & MASK64
    assert not [v for v in vars(scan).values() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("holder, built", [
    (False, [(1, 0, 3), (1, 0, 2)]),
    (True, [(1, 0, 3), (1, 0, 2), (3, 2, 1)]),
])
def test_pair_pass_builds_only_its_strided_streams(monkeypatch, holder, built):
    """The (3, 2) pass builds its stride-3 and stride-2 skew streams, whose
    first also gives the lanes at 2 n and 3 n, and no stride-1 one; with a
    holder it builds the joining's stream too: (p, q, stride) per stream."""
    sys = make_sys()
    init = _LaneStream.__init__
    made = []

    def counting(self, alpha, beta, h, start, p, q, stride=1):
        made.append((p, q, stride))
        init(self, alpha, beta, h, start, p, q, stride)

    monkeypatch.setattr(_LaneStream, "__init__", counting)
    scan = PairScan(build_joining(sys, 3, 2), WEYL_FREQS, [100]) if holder else None
    pair_factor_values(sys, None, 3, 2, 100, OrbitSegmentPlan(100, 64),
                       Observable(xi=1, bump=BumpProfile()), pair_scan=scan)
    assert made == built


@pytest.mark.parametrize("workers", [1, 2])
def test_held_weyl_sums_read_again_stream_nothing(monkeypatch, workers):
    """Weyl sums read from a filled holder twice give the naive loop's bits
    both times, build no lane and scan no lift; a caller that changes what it
    was given does not change the holder."""
    sys, js, naive = _shared_case(3, 2, "d2-1")
    plan = OrbitSegmentPlan(SHARED_N, 64, workers)
    scan = _filled_scan(sys, 3, 2, SHARED_N, plan)
    _refuse_streams(monkeypatch)

    def read():
        return orbit_stream_multi(js, None, plan, _weyl_modes(), checkpoints=SHARED_CHECKPOINTS,
                                  pair_scan=scan)

    first = read()
    assert first == naive
    first[0].clear()
    assert read() == naive


def test_pair_scan_used_only_where_it_covers():
    """Held sums serve only a joining from the origin of the same rotation,
    h and pair, with the same frequencies and checkpoints, unweighted, after
    a pair route from x = y = 0 that reached the last checkpoint; any other
    stream scans its own lifts, to the same bits it would give alone."""
    sys, js, _ = _shared_case(3, 2, "standard")
    cps = [10, 100]
    plan = OrbitSegmentPlan(100, 64)
    scan = _filled_scan(sys, 3, 2, 100, plan, checkpoints=cps)

    def held(system=js, start=None, fns=None, checkpoints=cps, scan=scan):
        return scan.holds(system, start, _weyl_modes() if fns is None else fns, checkpoints)

    assert held()
    # an explicit origin triple reads the held sums, to the bits its stream gives
    origin = (FixedReal(0),) * 3
    assert held(start=origin)
    alone = orbit_stream_multi(js, None, plan, _weyl_modes(), checkpoints=cps)
    assert orbit_stream_multi(js, origin, plan, _weyl_modes(), checkpoints=cps,
                              pair_scan=scan) == scan.sums == alone
    assert not held(checkpoints=[10, 99]) and not held(checkpoints=[100])
    assert not held(fns=_weyl_modes([(1, 0, 0), (2, 0, 0), (0, 0, 1), (1, 1, 2)]))
    assert not held(fns=_weyl_modes(WEYL_FREQS[:3]))
    assert not held(fns=[_weyl_fn(k) for k in WEYL_FREQS])  # same values, no frequencies
    assert not held(start=(FixedReal(0.25), FixedReal(0), FixedReal(0)))
    assert not held(start=(FixedReal(0), FixedReal(0), FixedReal(0.5)))
    assert not held(build_joining(sys, 5, 3))
    assert not held(build_joining(make_sys(d1=2), 3, 2))
    # a holder of another joining, pair or h, given to this route stays empty
    for other in (build_joining(sys, 5, 3), build_joining(make_sys(d1=2), 3, 2)):
        assert _filled_scan(sys, 3, 2, 100, plan, checkpoints=cps, js=other).sums is None
    # a pair route short of the last checkpoint or away from x = y = 0 makes
    # none; a skew start at x = y = 0 with any z makes them
    assert not held(scan=_filled_scan(sys, 3, 2, 99, plan, checkpoints=cps))
    moved = canonical_rep(GroupElement.fixed(0.3, 0.8, 0.45))
    assert not held(scan=_filled_scan(sys, 3, 2, 100, plan, moved, checkpoints=cps))
    lifted = canonical_rep(GroupElement.fixed(0.0, 0.0, 0.45))
    assert held(scan=_filled_scan(sys, 3, 2, 100, plan, lifted, checkpoints=cps))
    # what the holder does not cover streams, to its own bits
    other_cps = [10, 99]
    other_freqs = _weyl_modes([(2, 0, 1), (0, 3, 0)])
    w = sieve_mobius(100).mu_slice
    for fns, checkpoints, weights in ((_weyl_modes(), other_cps, None),
                                      (other_freqs, cps, None),
                                      (_weyl_modes(), cps, w)):
        alone = orbit_stream_multi(js, None, plan, fns, weights, checkpoints)
        assert orbit_stream_multi(js, None, plan, fns, weights, checkpoints,
                                  pair_scan=scan) == alone


DAVENPORT_N = 256
DAVENPORT_CHECKPOINTS = list(range(1, DAVENPORT_N + 1))


def _davenport_scan(sys, plan, table, n_pairs=DAVENPORT_N, cps=DAVENPORT_CHECKPOINTS,
                    freqs=WEYL_FREQS):
    """A PairScan of the (3, 2) joining of ``sys`` with ``table``'s mu,
    filled by a pair route of ``n_pairs`` pairs."""
    scan = PairScan(build_joining(sys, 3, 2), freqs, cps, table.mu_slice)
    pair_factor_values(sys, None, 3, 2, n_pairs, plan, Observable(xi=1, bump=BumpProfile()),
                       pair_scan=scan)
    return scan


def test_davenport_reads_pair_scan_bit_for_bit():
    """Davenport's sums that the pair pass makes from the (1, 0, 0) mode's
    quantized values times mu equal its own mu-weighted stream and the naive
    loop at every checkpoint, for every segment size to 256 at 1 and 3
    workers: chunks whose mu is 0 throughout, or nonzero at one step, keep
    the bits, and so do the mode's other positions among the frequencies."""
    sys = make_sys()
    table = sieve_mobius(DAVENPORT_N)
    rotation = SkewSystem(ALPHA, FixedReal(0), BaseFunctionSpec(0, 0))
    naive = orbit_stream_naive(rotation, None, DAVENPORT_N, fourier_value((1,)),
                               table.mu_slice, DAVENPORT_CHECKPOINTS)
    wrong = []
    for turn, (size, workers) in enumerate(SMALL_SEGMENTATIONS):
        plan = OrbitSegmentPlan(DAVENPORT_N, size, workers)
        freqs = WEYL_FREQS[turn % 4:] + WEYL_FREQS[: turn % 4]  # (1, 0, 0) in each place
        scan = _davenport_scan(sys, plan, table, freqs=freqs)
        assert scan.holds(rotation, None, [fourier_value((1,))], DAVENPORT_CHECKPOINTS,
                          table.mu_slice)
        own = orbit_stream_multi(rotation, None, plan, [fourier_value((1,))], table.mu_slice,
                                 DAVENPORT_CHECKPOINTS)
        held = davenport_baseline(ALPHA, DAVENPORT_CHECKPOINTS, table, plan, pair_scan=scan)
        alone = davenport_baseline(ALPHA, DAVENPORT_CHECKPOINTS, table, plan)
        if not (scan.weighted_sums == own == [naive] and held == alone):
            wrong.append((size, workers))
    assert wrong == []


def test_held_davenport_sums_stream_nothing_and_cover_a_longer_pass(monkeypatch):
    """A pair pass that runs past the last checkpoint, and past the mu
    table's end, takes mu only up to that checkpoint and holds the same
    Davenport sums; reading them builds no lane and scans no lift."""
    sys = make_sys()
    table = sieve_mobius(200)
    cps = [1, 17, 150, 200]
    plan = OrbitSegmentPlan(300, 64, 2)
    scan = _davenport_scan(sys, plan, table, n_pairs=300, cps=cps)
    want = davenport_baseline(ALPHA, cps, table, plan)
    _refuse_streams(monkeypatch)
    assert davenport_baseline(ALPHA, cps, table, plan, pair_scan=scan) == want


def test_davenport_held_only_where_it_covers():
    """Held Davenport sums serve only the mu-weighted wave (1,) on a zero-h
    rotation of the joining's alpha from the identity, with the holder's
    checkpoints and weights; any other stream streams, to its own bits.  A
    holder without weights holds none, and weights need the (1, 0, 0) mode."""
    sys = make_sys()
    table = sieve_mobius(DAVENPORT_N)
    cps = [10, 100]
    plan = OrbitSegmentPlan(100, 64)
    scan = _davenport_scan(sys, plan, table, n_pairs=100, cps=cps)
    rotation = SkewSystem(ALPHA, FixedReal(0), BaseFunctionSpec(0, 0))

    def held(system=rotation, start=None, fns=None, checkpoints=cps, weights=table.mu_slice,
             scan=scan):
        fns = [fourier_value((1,))] if fns is None else fns
        return scan.holds(system, start, fns, checkpoints, weights)

    assert held() and held(start=canonical_rep(identity()))
    assert held(SkewSystem(ALPHA, BETA, BaseFunctionSpec(0, 0)))  # the wave reads x alone
    assert not held(SkewSystem(ALPHA + FixedReal(2.0**-64), FixedReal(0), BaseFunctionSpec(0, 0)))
    assert not held(SkewSystem(BETA, FixedReal(0), BaseFunctionSpec(0, 0)))
    assert not held(start=canonical_rep(GroupElement.fixed(0.25, 0, 0)))
    assert not held(start=canonical_rep(GroupElement.fixed(0, 0, 0.5)))
    assert not held(checkpoints=[10, 99]) and not held(checkpoints=[100])
    assert not held(weights=sieve_mobius(DAVENPORT_N).mu_slice)  # the same mu, another table
    assert not held(weights=lambda lo, hi: table.mu_slice(lo, hi))
    assert not held(fns=[fourier_value((1, 0, 0))]) and not held(fns=[_weyl_fn((1, 0, 0))])
    assert not held(sys) and not held(make_sys(d1=0))  # not the zero h
    assert not held(build_joining(sys, 3, 2))
    assert not held(scan=_filled_scan(sys, 3, 2, 100, plan, checkpoints=cps))
    assert scan.holds(build_joining(sys, 3, 2), None, _weyl_modes(), cps)
    # what the holder does not cover streams, to its own bits
    other = sieve_mobius(DAVENPORT_N)
    for alpha, checkpoints, tab in ((BETA, cps, table), (ALPHA, [10, 99], table),
                                    (ALPHA, cps, other)):
        alone = davenport_baseline(alpha, checkpoints, tab, plan)
        assert davenport_baseline(alpha, checkpoints, tab, plan, pair_scan=scan) == alone
    with pytest.raises(ValueError, match=r"\(1, 0, 0\)"):
        PairScan(build_joining(sys, 3, 2), WEYL_FREQS[1:], cps, table.mu_slice)


def test_standard_run_streams_two_passes(monkeypatch, tmp_path):
    """``nillab run`` of the standard config (cut to two checkpoints) makes
    two passes, correlate's and the pair route's, which makes the Weyl and
    Davenport sums too: it builds the joining's stream only for the pair
    pass's lanes, and no zero-h stream.  The ``davenport`` subcommand alone
    still streams its zero-h rotation: (p, q, stride) per stream built, then
    the number of streams per pass."""
    from nillab.cli import main

    init = _LaneStream.__init__
    scan = engine._scan_segments
    made, passes = [], []

    def counting(self, alpha, beta, h, start, p, q, stride=1):
        made.append((p, q, stride) if h.d1 or h.d2 or h.terms else "zero h")
        init(self, alpha, beta, h, start, p, q, stride)

    def counted(streams, *args):
        passes.append(len(streams))
        return scan(streams, *args)

    monkeypatch.setattr(_LaneStream, "__init__", counting)
    monkeypatch.setattr(engine, "_scan_segments", counted)
    common = ["--out", str(tmp_path), "--checkpoints", "1000,10000"]
    assert main(["run", *common]) == 0
    assert (made, passes) == ([(1, 0, 1), (1, 0, 3), (1, 0, 2), (3, 2, 1)], [1, 2])
    made.clear()
    passes.clear()
    assert main(["davenport", *common]) == 0
    assert (made, passes) == (["zero h"], [1])


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


def _pair_and_weyl_sums(plan, sys=None, p=3, q=2, n_pairs=500, cps=PAIR_CHECKPOINTS):
    """The pair route's sums at ``cps`` and the Weyl sums its pass makes."""
    sys = make_sys() if sys is None else sys
    js = build_joining(sys, p, q)
    scan = PairScan(js, WEYL_FREQS, cps)
    sums = pair_factor_values(sys, None, p, q, n_pairs, plan, Observable(xi=1, bump=BumpProfile()),
                              cps, pair_scan=scan)
    assert scan.holds(js, None, _weyl_modes(), cps)
    return sums, scan.sums


@pytest.fixture(scope="module")
def pair_weyl_reference():
    return _pair_and_weyl_sums(OrbitSegmentPlan(500))


def test_pair_scan_under_thread_switching(pair_weyl_reference):
    """The pair route's one pass with more workers than cores, 16-step
    n-chunks and a 1 us switch interval: a carry of either stream read
    before it is published would change the sums."""
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        got = _pair_and_weyl_sums(OrbitSegmentPlan(500, 16, 6))
    finally:
        setswitchinterval(interval)
    assert got == pair_weyl_reference


def test_pair_scan_waits_for_a_slow_stride_q_scan(monkeypatch, pair_weyl_reference):
    """One early chunk scans its stride-q stream slowly, on 3 workers: the
    chunks after it, which need its stride-q carry, must wait for it, so the
    sums do not change."""
    u_values = _LaneStream.u_values

    def slow(self, i, ws, name, lo):
        if len(self.shifts) == 2 and i.size == 16 and lo == 16:
            time.sleep(0.2)  # the stride-2 stream of the chunk n = 17 .. 32
        return u_values(self, i, ws, name, lo)

    monkeypatch.setattr(_LaneStream, "u_values", slow)
    assert _pair_and_weyl_sums(OrbitSegmentPlan(500, 16, 3)) == pair_weyl_reference


def _traced(call):
    """(peak, held after) of ``call()`` in traced bytes above the start;
    numpy reports its buffers to tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        gc.collect()
        held, peak = (v - before for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return peak, held


def _peak_growth(call, small=1 << 17, large=1 << 19, size=4096):
    """The traced peak of ``call(n_pairs, plan)`` at N = ``large`` over its
    peak at ``small``, in ``size``-pair chunks, and the bytes held after the
    larger call."""
    (peak_small, _), (peak_large, held) = (
        _traced(lambda: call(n, OrbitSegmentPlan(n, size))) for n in (small, large))
    return peak_large / peak_small, held


# a pass in O(segment) memory keeps its peak from 2**17 to 2**19 pairs within
# this ratio; a ring of about N / 3 u64 slots (and N-long arrays) grow past it
PEAK_GROWTH = 1.1


def test_pair_pass_with_weyl_sums_peak_does_not_grow_with_n():
    """Making the Weyl sums in the pair route's pass holds no array that
    grows with N: the traced peak at N = 2**19 is within 10% of the peak at
    2**17 (1.07x here, against 1.58x with a ring of about N / 3 slots), and
    the holder keeps sums, not arrays: after the call under 1% of one N-long
    u64 array is still held."""
    scans = []

    def call(n_pairs, plan):
        scans.append(PairScan(build_joining(make_sys(), 3, 2), WEYL_FREQS, [1000, n_pairs]))
        pair_factor_values(make_sys(), None, 3, 2, n_pairs, plan,
                           Observable(xi=1, bump=BumpProfile()), pair_scan=scans[-1])

    growth, held = _peak_growth(call)
    assert all(scan.sums is not None for scan in scans)
    assert growth < PEAK_GROWTH, f"peak grew {growth:.3f}x"
    assert held < 0.01 * 8 * (1 << 19), f"held {held} bytes"


SWEEP_PAIRS = [(3, 2), (5, 3), (7, 2), (5, 2), (13, 11)]
SWEEP_N = 997


@pytest.mark.parametrize("turn, p, q", [(i, p, q) for i, (p, q) in enumerate(SWEEP_PAIRS)])
def test_pair_route_sums_equal_the_held_scan(turn, p, q):
    """Without a PairScan the route gives the bits it gives while its pass
    makes the Weyl sums too, at every segment size to 1024 under a 1 us
    switch interval.  Each pair takes the sizes at 1, 3 and 6 workers in
    turn, from its own offset, so the five pairs together run every size at
    every worker count."""
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    cps = [1, 2, 100, 500, 996, SWEEP_N]
    want, _ = _pair_and_weyl_sums(OrbitSegmentPlan(SWEEP_N), sys, p, q, SWEEP_N, cps)
    plans = [OrbitSegmentPlan(SWEEP_N, 1 << k, (1, 3, 6)[(k + turn) % 3]) for k in range(11)]
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        wrong = [plan for plan in plans
                 if pair_factor_values(sys, None, p, q, SWEEP_N, plan, obs, cps) != want]
    finally:
        setswitchinterval(interval)
    assert wrong == []


def test_pair_route_survives_a_lagging_reader(monkeypatch, pair_weyl_reference):
    """The second 16-pair chunk sleeps before it builds its lanes, while the
    later chunks scan, publish their carries and build theirs on the other
    workers; its S_{qn} stay in its own workspace, so the sums do not
    change."""
    lanes_on = engine._lanes_on

    def lagging(stream, lo, hi, s, on, ws, m=1):
        if (lo, m) == (16, 2):  # the lanes at q n of the chunk n = 17 .. 32
            time.sleep(0.2)
        return lanes_on(stream, lo, hi, s, on, ws, m)

    monkeypatch.setattr(engine, "_lanes_on", lagging)
    sums = pair_factor_values(make_sys(), None, 3, 2, 500, OrbitSegmentPlan(500, 16, 3),
                              Observable(xi=1, bump=BumpProfile()), PAIR_CHECKPOINTS)
    assert sums == pair_weyl_reference[0]


def test_pair_route_peak_does_not_grow_with_n():
    """The (3, 2) route holds no array that grows with N: the traced peak at
    N = 2**19 is within 10% of the peak at 2**17 (1.02x here, against 1.57x
    with a ring of about N / 3 u64 slots)."""
    obs = Observable(xi=1, bump=BumpProfile())
    growth, _ = _peak_growth(
        lambda n_pairs, plan: pair_factor_values(make_sys(), None, 3, 2, n_pairs, plan, obs))
    assert growth < PEAK_GROWTH, f"peak grew {growth:.3f}x"


def test_pair_pass_buffers_are_one_segment_long(monkeypatch):
    """The (3, 2) pass that makes the Weyl sums too scans its strided streams
    one segment of n at a time: every buffer of its workspace, the scan's,
    the lanes' and the support-sized ones alike, is one segment long."""
    made = []

    class Recorded(Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(engine, "Workspace", Recorded)
    size = 1024
    scan = PairScan(build_joining(make_sys(), 3, 2), WEYL_FREQS, [8 * size])
    pair_factor_values(make_sys(), None, 3, 2, 8 * size, OrbitSegmentPlan(8 * size, size),
                       Observable(xi=1, bump=BumpProfile()), pair_scan=scan)
    assert scan.sums is not None
    (ws,) = made
    assert {name: buf.size for name, buf in ws._bufs.items() if buf.size != size} == {}


# bytes per segment step of each pass's workspace while the passes still
# evaluated their observables at every step (a Workspace.take name holds one
# segment-long buffer)
DENSE_WORKSPACE_BYTES = {"pair with the Weyl holder": 250, "pair": 226, "reduced": 242,
                         "correlate": 170, "davenport": 128}


def test_support_buffers_replace_dense_ones(monkeypatch):
    """At 2**16-step segments no pass's workspace holds more bytes than it
    did while the observables were evaluated at every step: the buffers of
    a support replace the dense ones rather than add to them."""
    made = []

    class Recorded(Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(engine, "Workspace", Recorded)
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    size = 1 << 16
    plan = OrbitSegmentPlan(size, size)
    table = sieve_mobius(size)
    passes = {
        "pair with the Weyl holder": lambda: pair_factor_values(
            sys, None, 3, 2, size, plan, obs,
            pair_scan=PairScan(build_joining(sys, 3, 2), WEYL_FREQS, [size])),
        "pair": lambda: pair_factor_values(sys, None, 3, 2, size, plan, obs),
        "reduced": lambda: bilinear_sum_reduced(sys, obs, 3, 2, [size], plan),
        "correlate": lambda: correlation_sum(sys, obs, None, [size], table, plan),
        "davenport": lambda: davenport_baseline(ALPHA, [size], table, plan),
    }
    held = {}
    for name, call in passes.items():
        made.clear()
        call()
        (ws,) = made
        held[name] = sum(buf.nbytes for buf in ws._bufs.values()) / size
    assert {name: b for name, b in held.items() if b > DENSE_WORKSPACE_BYTES[name]} == {}


# per pass, the names of the buffers it takes a whole 2**16-step segment
# long: those of 8-byte entries (the segment buffers), then the one-byte masks;
# the Weyl modes of the holder's pass are dense, and their sorted phases stay
# in the scratch t1
SEGMENT_BUFFERS = {
    "pair with the Weyl holder": ({"scan.0", "scan.1", "t1", "t2", "h.q", "n", "fx", "fy",
                                   "z_hi", "xf", "yf", "zf"},
                                  {"support.in", "bump.in", "bump.iny"}),
    "pair": ({"scan.0", "scan.1", "t1", "h.q"}, {"support.in", "bump.in", "bump.iny"}),
    "reduced": ({"scan.0", "t1", "h.q"}, {"support.in", "bump.in", "bump.iny"}),
    "correlate": ({"scan.0", "t1", "h.q"}, {"w.on", "bump.in", "bump.iny"}),
    "davenport": (set(), set()),
}


def test_passes_fill_few_segment_buffers(monkeypatch):
    """The longest take of each name of a pass's workspace, over two 2**16-step
    chunks of the standard h and bump: the lifts are summed into the prefix
    buffers with one x lane and one float, and the support is tested by one
    multiply-add per axis from the affine forms of the rotation (or reduced)
    u64 lanes, in that x lane's scratch, so a pair-pass worker fills 4
    segment buffers, a reduced-pass worker 3 and correlate 3; every other
    take is no longer than a support.  With the Weyl holder the pair pass
    also fills the joining's dense lanes, and sorts the phases of the modes
    that read z in scratch, with no buffer of their own.  Davenport's zero h
    fills none: its prefix is a broadcast 0, with no fill and no cumsum."""
    made = []

    class Recorded(Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            self.longest = {}
            made.append(self)

        def take(self, name, shape, dtype=np.uint64):
            if len(shape) == 1:
                self.longest[name] = max(self.longest.get(name, 0), shape[0])
            return super().take(name, shape, dtype)

    monkeypatch.setattr(engine, "Workspace", Recorded)
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    size = 1 << 16
    plan = OrbitSegmentPlan(2 * size, size)
    table = sieve_mobius(2 * size)
    passes = {
        "pair with the Weyl holder": lambda: pair_factor_values(
            sys, None, 3, 2, 2 * size, plan, obs,
            pair_scan=PairScan(build_joining(sys, 3, 2), WEYL_FREQS, [size, 2 * size])),
        "pair": lambda: pair_factor_values(sys, None, 3, 2, 2 * size, plan, obs),
        "reduced": lambda: bilinear_sum_reduced(sys, obs, 3, 2, [2 * size], plan),
        "correlate": lambda: correlation_sum(sys, obs, None, [2 * size], table, plan),
        "davenport": lambda: davenport_baseline(ALPHA, [2 * size], table, plan),
    }
    filled = {}
    for name, call in passes.items():
        made.clear()
        call()
        (ws,) = made
        full = [k for k, longest in ws.longest.items() if longest == size]
        filled[name] = ({k for k in full if ws._bufs[k].itemsize == 8},
                        {k for k in full if ws._bufs[k].itemsize == 1})
    assert filled == SEGMENT_BUFFERS
    assert [len(filled[name][0]) for name in ("pair", "reduced", "correlate")] == [4, 3, 3]


def test_zero_fiber_function_lifts_nothing(monkeypatch):
    """Davenport's h (d1 = d2 = 0, no terms) has no shift to lift: its
    cocycle values are the zeros that the lift's 0 periodic part times
    d1 = 0 gives, with no ``periodic_q53`` call, fresh or in a workspace."""
    stream = _make_stream(SkewSystem(ALPHA, FixedReal(0), BaseFunctionSpec(0, 0)), None)
    assert stream.shifts == []

    def refuse(*args):
        raise AssertionError("the zero h was lifted")

    monkeypatch.setattr(BaseFunctionSpec, "periodic_q53", refuse)
    i = np.array(KERNEL_STEPS, dtype=np.uint64)
    scratch = Workspace(i.size)
    scratch.take("u", i.shape).fill(7)  # a buffer that held earlier values
    for ws in (Workspace(), scratch):
        assert stream.u_values(i, ws).tolist() == [0] * i.size


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

    def failing(self, i, ws, name, lo):
        if lo == 512:
            raise _Boom("cocycle failed")
        return u_values(self, i, ws, name, lo)

    monkeypatch.setattr(_LaneStream, "u_values", failing)
    plan = OrbitSegmentPlan(1000, 16, 3)
    raised = _finishes(lambda: orbit_stream(make_sys(), None, plan, lambda x, y, z, n: x + 0j))
    assert len(raised) == 1 and isinstance(raised[0], _Boom)


def test_pair_stride_q_failure_raises_without_deadlock(monkeypatch):
    """A chunk whose stride-q cocycle fails publishes no carry: the later
    chunks raise instead of hanging, and the first error surfaces."""
    u_values = _LaneStream.u_values

    def failing(self, i, ws, name, lo):
        if len(self.shifts) == 2 and i.size == 16 and lo == 32:
            raise _Boom("stride-q cocycle failed")  # the chunk n = 33 .. 48
        return u_values(self, i, ws, name, lo)

    monkeypatch.setattr(_LaneStream, "u_values", failing)
    obs = Observable(xi=1, bump=BumpProfile())
    plan = OrbitSegmentPlan(500, 16, 3)
    raised = _finishes(lambda: pair_factor_values(make_sys(), None, 3, 2, 500, plan, obs))
    assert len(raised) == 1 and isinstance(raised[0], _Boom)


def test_a_stalled_chunk_holds_back_at_most_two_results_on_three_workers():
    """While one chunk's consume stalls on 3 workers, the others go on only
    to the two chunks after it: a worker holds its chunk's result until that
    chunk's turn to fold, so at most 2 results wait to be folded, however
    long the stall.  The fold still gets every chunk's result, in chunk
    order."""
    stream = _make_stream(make_sys(), None)
    done, folded, stalled = [], [], []

    def consume(lo, hi, s, ws):
        if lo == 16:
            time.sleep(0.3)
            stalled.extend(sorted(done))
        done.append(lo)
        return lo

    _scan_segments((stream,), OrbitSegmentPlan(1600, 16, 3), consume, folded.append)
    assert stalled == [0, 32, 48]
    assert folded == list(range(0, 1600, 16))


def test_one_worker_runs_every_chunk_on_the_callers_thread():
    threads = set()

    def fn(x, y, z, n):
        threads.add(threading.get_ident())
        return x + 0j

    orbit_stream(make_sys(), None, OrbitSegmentPlan(1000, 16, 1), fn)
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("fails", [False, True], ids=["passes", "raises"])
def test_no_worker_thread_outlives_its_pass(monkeypatch, fails):
    """A pass on 3 workers starts 2 threads, the caller being the third
    worker; the chunks run on at most 3 threads, and every thread the pass
    started has ended when it returns or raises."""
    threads, started = set(), []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def fn(x, y, z, n):
        threads.add(threading.get_ident())
        if fails and n[0] == 513:
            raise _Boom("value function failed")
        return x + 0j

    monkeypatch.setattr(engine, "Thread", Counted)
    before = threading.active_count()
    raised = _finishes(lambda: orbit_stream(make_sys(), None, OrbitSegmentPlan(1000, 16, 3), fn))
    assert [type(exc) for exc in raised] == ([_Boom] if fails else [])
    assert threading.active_count() == before
    assert 1 <= len(threads) <= 3 and len(started) == 2


@pytest.mark.parametrize("workers", [1, 3])
def test_failing_fold_raises_without_deadlock(workers):
    """A fold that raises on a middle chunk stops the pass: its error is
    raised, on 1 worker and on 3, and no later chunk is folded."""
    folded = []

    def fold(lo):
        if lo == 512:
            raise _Boom("fold failed")
        folded.append(lo)

    stream = _make_stream(make_sys(), None)
    plan = OrbitSegmentPlan(1000, 16, workers)
    raised = _finishes(lambda: _scan_segments((stream,), plan, lambda lo, hi, s, ws: lo, fold))
    assert len(raised) == 1 and isinstance(raised[0], _Boom)
    assert folded == list(range(0, 512, 16))


@pytest.mark.parametrize("workers", [1, 3])
def test_pass_bookkeeping_does_not_grow_with_its_chunks(workers):
    """2**16 steps in 16-step segments are 4096 chunks.  A pass folds each
    chunk's sums into running sums as it finishes and keeps none, so its
    traced peak is within 64 KiB of the same pass over 1024 chunks (2**14
    steps), and below 3 MiB.  Keeping every chunk's sums to the end reads
    about 0.9 MiB more at 4096 chunks; a future and an event per chunk
    besides read 6.5 MiB on 1 worker and 13.3 MiB on 3."""
    sys = make_sys()
    obs = Observable(xi=1, bump=BumpProfile())
    peaks = []
    for n_chunks in (1024, 4096):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            orbit_stream(sys, None, OrbitSegmentPlan(16 * n_chunks, 16, workers), obs)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 << 10, f"peaks {peaks}"
    assert peaks[1] < 3 << 20, f"peak {peaks[1] / (1 << 20):.1f} MiB"


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
