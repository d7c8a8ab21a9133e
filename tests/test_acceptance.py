"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 12 is a soft decay diagnostic by design: its values are computed,
printed, compared against the recorded thresholds and reported via warnings,
but threshold exceedance flags investigation rather than failing the build.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from nillab.config import SOFT_THRESHOLDS, standard_config
from nillab.dynamics import (
    BaseFunctionSpec,
    SkewSystem,
    TrigTerm,
    _iterate_float,
    build_joining,
    iterate_T,
    pair_orbit,
    rho,
    step_T,
)
from nillab.diagnostics import (
    boundary_increment_Fn,
    lipschitz_estimate,
    proof_constants,
    weyl_sums,
    winding_in_x,
)
from nillab.engine import OrbitSegmentPlan, StarDescentSink
from nillab.fixedpoint import FixedReal, sqrt_q64
from nillab.heisenberg import (
    HEISENBERG,
    GroupElement,
    GroupLaw,
    LatticeElement,
    canonical_rep,
    identity,
    inv,
    mul,
    project_pi,
)
from nillab.moebius import (
    bilinear_sum,
    bilinear_sum_reduced,
    correlation_sum,
    davenport_baseline,
    sieve_mobius,
)
from nillab.observables import BumpProfile, Observable, fiber_average
from nillab.reports import write_correlation_csv, write_weyl_csv

RNG_SEED = 20260811


def _report(num: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance criterion {num}: {detail}")
    assert ok, detail


def _random_q64(rng, span=4) -> FixedReal:
    frac = int(rng.integers(0, 2**64 - 1, dtype=np.uint64, endpoint=True))
    return FixedReal.from_q64((int(rng.integers(-span, span)) << 64) + frac)


def _random_element(rng, law) -> GroupElement:
    return GroupElement(_random_q64(rng), _random_q64(rng), _random_q64(rng), law)


@pytest.fixture(scope="module")
def table7():
    return sieve_mobius(10**7)


def test_criterion_01_exact_algebra():
    rng = np.random.default_rng(RNG_SEED)
    started = time.perf_counter()
    count = 10**5
    for law in (HEISENBERG, GroupLaw.star(3, 2)):
        # batch the randomness; the loop body is pure exact algebra
        fracs = rng.integers(0, 2**64 - 1, size=(count, 9), dtype=np.uint64,
                             endpoint=True).tolist()
        ips = rng.integers(-4, 4, size=(count, 9)).tolist()
        lattice_ints = rng.integers(-5, 6, size=(count, 6)).tolist()
        ident = identity(law).coords()
        for fr, ip, li in zip(fracs, ips, lattice_ints):
            coords = [FixedReal.from_q64((ip[j] << 64) + fr[j]) for j in range(9)]
            a = GroupElement(coords[0], coords[1], coords[2], law)
            b = GroupElement(coords[3], coords[4], coords[5], law)
            c = GroupElement(coords[6], coords[7], coords[8], law)
            assert mul(mul(a, b), c).coords() == mul(a, mul(b, c)).coords()
            assert mul(a, inv(a)).coords() == ident
            g1 = LatticeElement(li[0], li[1], li[2]).to_group(law)
            g2 = LatticeElement(li[3], li[4], li[5]).to_group(law)
            assert all(v.frac().scaled == 0 for v in mul(g1, g2).coords())
            assert canonical_rep(mul(a, g2)).coords() == canonical_rep(a).coords()
    elapsed = time.perf_counter() - started
    _report(
        1, elapsed < 10.0,
        f"associativity/inverse/closure/coset exact on {count} instances per law "
        f"in {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_02_iterate_oracle():
    rng = np.random.default_rng(RNG_SEED + 1)
    n_systems = 1000
    worst_float = 0.0
    for k in range(n_systems):
        alpha = FixedReal.from_q64(int(rng.integers(1, 2**64, dtype=np.uint64)))
        beta = FixedReal.from_q64(int(rng.integers(1, 2**64, dtype=np.uint64)))
        h = BaseFunctionSpec(
            int(rng.integers(-2, 3)), int(rng.integers(-2, 3)),
            (TrigTerm(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)),
                      float(rng.uniform(-0.2, 0.2)), float(rng.uniform(0, 1))),),
        )
        sys_ = SkewSystem(alpha, beta, h)
        # log-uniform depth, forced to the full 2**12 on the first system
        n = 4096 if k == 0 else int(4096 ** rng.uniform(0, 1))
        start = canonical_rep(
            GroupElement(_random_q64(rng, 1).frac(), _random_q64(rng, 1).frac(),
                         _random_q64(rng, 1).frac(), HEISENBERG)
        )
        stepped = start
        for _ in range(n):
            stepped = step_T(sys_, stepped)
        closed = iterate_T(sys_, start, n)
        assert closed.coords() == stepped.coords(), f"fixed-path mismatch at n={n}"
        # the float closed form's oracle is the exact orbit
        fclosed = _iterate_float(sys_, start, n)
        for a, b in zip(fclosed, closed.coords()):
            d = abs(a - float(b)) % 1.0
            worst_float = max(worst_float, min(d, 1.0 - d))
    assert worst_float <= 1e-9
    _report(
        2, True,
        f"closed-form iterate == stepping exactly on {n_systems} random systems "
        f"(n <= 4096); float closed form within {worst_float:.2e} of the exact orbit "
        f"(<= 1e-9)",
    )


def test_criterion_03_joining_commutation():
    cfg = standard_config()
    n_max = 1000
    for (p, q) in ((3, 2), (5, 2), (5, 3), (7, 5)):
        sys_ = cfg.system()
        js = build_joining(sys_, p, q)
        pt3 = (FixedReal(0), FixedReal(0), FixedReal(0))
        for n, (first, second) in enumerate(pair_orbit(sys_, p, q, n_max), start=1):
            star = canonical_rep(
                project_pi((first.x, first.y, first.z, second.x, second.y, second.z), p, q)
            )
            pt3 = js.step_trivialized(pt3)
            assert tuple(rho(star)) == tuple(pt3), f"diagram broke at (p,q)=({p},{q}), n={n}"
    _report(
        3, True,
        "rho . pi . (T^p x T^q)^n == (T*')^n . rho . pi exactly for "
        "n <= 1000 and (p,q) in {(3,2),(5,2),(5,3),(7,5)}",
    )


def test_criterion_04_degree_law():
    alpha, beta = sqrt_q64(2) - 1, sqrt_q64(3) - 1
    checked = 0
    for (p, q) in ((3, 2), (5, 3), (7, 2), (11, 7), (13, 11)):
        for d1 in (0, 1, 2, 3):
            h = BaseFunctionSpec(d1, 1, (TrigTerm(1, 1, 0.03, 0.2),))
            js = build_joining(SkewSystem(alpha, beta, h), p, q)
            for n in (1, 10, 100):
                w = winding_in_x(js.Hn_lift(n), 0.37, n * js.lipschitz_H)
                assert w == n * (p * p - q * q) * d1, (p, q, d1, n, w)
                checked += 1
    _report(4, True, f"winding of H_n equals n (p^2-q^2) d1 exactly on {checked} "
                     "(pair, degree, depth) combinations (primes <= 13, d1 <= 3, n <= 100)")


def test_criterion_05_lipschitz_law():
    alpha, beta = sqrt_q64(2) - 1, sqrt_q64(3) - 1
    checked = 0
    for (p, q) in ((3, 2), (7, 5), (13, 11)):
        for d1 in (1, 3):
            h = BaseFunctionSpec(d1, 0, (TrigTerm(1, 2, 0.1, 0.0),))
            js = build_joining(SkewSystem(alpha, beta, h), p, q)
            for n in (1, 10, 100):
                est = lipschitz_estimate(js.Hn_lift(n), 256)
                bound = n * (p * p + q * q) * h.L * (1 + 1e-6)
                assert est <= bound, (p, q, d1, n, est, bound)
                checked += 1
    _report(5, True, f"empirical Lip(H_n) <= n (p^2+q^2) L (1+1e-6) on {checked} combinations")


def test_criterion_06_boundary_increment():
    alpha, beta = sqrt_q64(2) - 1, sqrt_q64(3) - 1
    bf = float(beta)
    checked = 0
    for (p, q) in ((3, 2), (5, 3)):
        for k in (1, 2):
            for d1 in (0, 1, 2):
                h = BaseFunctionSpec(d1, 1, (TrigTerm(1, 0, 0.05, 0.1),))
                js = build_joining(SkewSystem(alpha, beta, h), p, q)
                for n in (1, 10, 100):
                    c = p * p - q * q
                    closed = n * k * c * d1 - n * k * c * bf - math.floor(n * bf)
                    vals = [boundary_increment_Fn(js, k, n, float(y))
                            for y in np.linspace(0.0, 0.9, 10)]
                    assert all(abs(v - closed) <= 1e-6 for v in vals)
                    assert max(vals) - min(vals) <= 1e-6  # y-independence
                    checked += 1
    _report(6, True, f"F_n(1,y) - F_n(0,y) matches n k (p^2-q^2) d1 - n k (p^2-q^2) b "
                     f"- floor(n b) within 1e-6, y-independent, on {checked} combinations")


def test_criterion_07_proof_constants():
    cfg = standard_config()
    L = cfg.base_function().L
    pc = proof_constants(1, cfg.p, cfg.q, cfg.d1, cfg.alpha, cfg.beta, L)
    # independent recomputation in exact rational arithmetic
    a, b = cfg.alpha.as_fraction(), cfg.beta.as_fraction()
    c = cfg.p**2 - cfg.q**2
    disc = abs(Fraction(c * cfg.d1) - c * b - b)
    delta1 = disc / (24 * (cfg.p**2 + cfg.q**2) * (Fraction(L) + abs(a) + abs(b)))
    nu = 6 / disc
    ok = (
        abs(pc.discriminant / float(disc) - 1) <= 1e-12
        and abs(pc.delta1 / float(delta1) - 1) <= 1e-12
        and abs(pc.nu / float(nu) - 1) <= 1e-12
        and pc.delta1 > 0
        and math.isfinite(pc.nu)
    )
    _report(7, ok, f"delta1={pc.delta1:.12e}, nu={pc.nu:.12e} match exact rational "
                   "recomputation to 12 significant digits; positivity holds")


def test_criterion_08_sieve(table7):
    def mu_brute(n):
        val, m, d = 1, n, 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                val = -val
            d += 1
        return -val if m > 1 else val

    mertens_oracle = {}
    acc = 0
    for n in range(1, 10**5 + 1):
        mu = mu_brute(n)
        acc += mu
        assert table7.mu(n) == mu, f"mu({n})"
        if n in (10**3, 10**4, 10**5):
            mertens_oracle[n] = acc
    for n, m in mertens_oracle.items():
        assert table7.mertens(n) == m
    started = time.perf_counter()
    big = sieve_mobius(10**8)
    elapsed = time.perf_counter() - started
    assert big.mu(99999989) == -1  # prime near the top
    assert elapsed < 60.0
    _report(8, True, f"sieve exact vs factorization oracle on [1, 1e5], Mertens "
                     f"checkpoints match; 1e8 sieve in {elapsed:.1f}s (< 60 s)")


def test_criterion_09_fiber_orthogonality():
    for xi in (1, 2, 3):
        obs = Observable(xi=xi, bump=BumpProfile())
        for base in ((0.5, 0.5), (0.37, 0.61)):
            assert abs(fiber_average(obs, base, 32)) <= 1e-10
    # Monte Carlo integral of f_star over the reduced space
    sink = StarDescentSink(Observable(xi=1, bump=BumpProfile()), 3, 2)
    rng = np.random.default_rng(RNG_SEED)
    pts = rng.random((10**6, 3))
    vals = sink.eval_star(pts[:, 0], pts[:, 1], pts[:, 2])
    mean = vals.mean()
    se = vals.std() / math.sqrt(len(vals))
    assert abs(mean) <= 3 * se, f"|mean|={abs(mean):.3e} > 3 se={3 * se:.3e}"
    _report(9, True, f"fiber averages <= 1e-10 for xi in {{1,2,3}} at m=32; "
                     f"MC integral |{abs(mean):.2e}| <= 3 x standard error {se:.2e}")


def test_criterion_10_two_route_identity():
    cfg = standard_config()
    obs = cfg.observable()
    cps = [10**3, 10**4, 10**5]
    direct = bilinear_sum(cfg.system(), obs, None, 3, 2, cps)
    reduced = bilinear_sum_reduced(cfg.system(), obs, 3, 2, cps)
    worst = max(abs(a.value - b.value)
                for a, b in zip(direct.checkpoints, reduced.checkpoints))
    _report(10, worst <= 1e-9,
            f"direct pair sum vs reduced-system sum agree to {worst:.2e} "
            "(<= 1e-9) at N = 1e3, 1e4, 1e5")


def test_criterion_11_determinism(tmp_path, table7):
    cfg = standard_config()
    sys_ = cfg.system()
    obs = cfg.observable()
    js = cfg.joining()
    outputs = {}
    for workers in (1, 8):
        cps = [10**5, 10**6]
        corr = correlation_sum(sys_, obs, None, cps, table7,
                               OrbitSegmentPlan(10**6, 1 << 16, workers))
        bil = bilinear_sum(sys_, obs, None, 3, 2, [10**4],
                           OrbitSegmentPlan(3 * 10**4, 1 << 12, workers))
        dav = davenport_baseline(cfg.alpha, cps, table7,
                                 OrbitSegmentPlan(10**6, 1 << 16, workers))
        weyl = weyl_sums(js, None, [(1, 0, 0), (0, 0, 1), (1, -1, 2)], [10**5],
                         OrbitSegmentPlan(10**5, 1 << 14, workers))
        base = tmp_path / f"w{workers}"
        base.mkdir()
        write_correlation_csv(base / "correlation.csv", corr)
        write_correlation_csv(base / "bilinear.csv", bil)
        write_correlation_csv(base / "davenport.csv", dav)
        write_weyl_csv(base / "weyl.csv", weyl)
        outputs[workers] = {
            name: (base / name).read_bytes()
            for name in ("correlation.csv", "bilinear.csv", "davenport.csv", "weyl.csv")
        }
    assert outputs[1] == outputs[8]
    _report(11, True, "correlation/bilinear/davenport/weyl reports byte-identical "
                      "for 1 vs 8 workers")


def test_criterion_12_soft_decay_diagnostics(table7):
    cfg = standard_config()
    sys_ = cfg.system()
    obs = cfg.observable()
    t0 = time.perf_counter()
    corr = correlation_sum(sys_, obs, None, [10**4, 10**7], table7,
                           cfg.plan(10**7))
    c4 = corr.value_at(10**4)
    c7 = corr.value_at(10**7)
    dav = davenport_baseline(cfg.alpha, [10**6], table7, cfg.plan(10**6))
    d6 = dav.checkpoints[-1].modulus
    freqs = [(k1, k2, k3)
             for k1 in range(-2, 3) for k2 in range(-2, 3) for k3 in range(-2, 3)
             if (k1, k2, k3) != (0, 0, 0)]
    weyl = weyl_sums(cfg.joining(), None, freqs, [10**6], cfg.plan(10**6))
    wmax = max(rep.checkpoints[-1].modulus for rep in weyl)
    elapsed = time.perf_counter() - t0

    checks = {
        "correlation |S(1e7)| <= 0.05": abs(c7) <= SOFT_THRESHOLDS["correlation_final_max"],
        "correlation |S(1e7)| <= 0.5 |S(1e4)|":
            abs(c7) <= SOFT_THRESHOLDS["correlation_decay_ratio"] * abs(c4),
        "davenport |S(1e6)| <= 0.01": d6 <= SOFT_THRESHOLDS["davenport_1e6_max"],
        "weyl max_{|k|<=2} |S(1e6)| <= 0.05": wmax <= SOFT_THRESHOLDS["weyl_1e6_max"],
    }
    detail = (
        f"|corr(1e4)|={abs(c4):.4g}, |corr(1e7)|={abs(c7):.4g}, "
        f"davenport(1e6)={d6:.4g}, weyl max={wmax:.4g} ({elapsed:.0f}s)"
    )
    for name, ok in checks.items():
        status = "ok" if ok else "INVESTIGATE"
        print(f"\n  [soft] {name}: {status}")
        if not ok:
            warnings.warn(f"soft decay diagnostic flagged: {name} ({detail})")
    _report(12, True, f"soft decay diagnostics recorded: {detail}")
