"""In-process invariant suites for the command-line ``verify`` entry point.

Each suite returns (name, ok, detail).  These are quick spot checks of the
same identities the test suite exercises exhaustively; ``fault`` injects a
deliberate corruption (currently ``"twist"``, which mismatches the star twist
inside the associativity suite) so the negative control proves the suites can
fail.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .dynamics import (
    SkewSystem,
    build_joining,
    iterate_T,
    pair_orbit,
    rho,
    step_T,
)
from .engine import OrbitSegmentPlan, orbit_stream, orbit_stream_naive
from .fixedpoint import FixedReal
from .heisenberg import (
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
from .moebius import bilinear_sum, bilinear_sum_reduced, sieve_mobius
from .observables import BumpProfile, Observable
from .diagnostics import winding_in_x


def _random_fixed(rng, span=4) -> FixedReal:
    frac = int(rng.integers(0, 2**64 - 1, dtype=np.uint64, endpoint=True))
    ip = int(rng.integers(-span, span))
    return FixedReal.from_q64((ip << 64) + frac)


def _random_element(rng, law) -> GroupElement:
    return GroupElement(_random_fixed(rng), _random_fixed(rng), _random_fixed(rng), law)


def _standard_system() -> SkewSystem:
    from .config import standard_config

    return standard_config().system()


def suite_group_laws(rng, fault=None, count=2000):
    laws = [HEISENBERG, GroupLaw.star(3, 2), GroupLaw.star(7, 5)]
    for law in laws:
        for _ in range(count // len(laws)):
            a, b, c = (_random_element(rng, law) for _ in range(3))
            lhs = mul(mul(a, b), c)
            if fault == "twist" and law.kind == "star":
                bad = dataclasses.replace(law, twist=law.twist + 1)
                wrong = mul(
                    GroupElement(b.x, b.y, b.z, bad), GroupElement(c.x, c.y, c.z, bad)
                )
                inner = GroupElement(wrong.x, wrong.y, wrong.z, law)
            else:
                inner = mul(b, c)
            rhs = mul(a, inner)
            if lhs.coords() != rhs.coords():
                return "group-laws", False, f"associativity broke under {law}"
            e = mul(a, inv(a))
            if e.coords() != (FixedReal(0), FixedReal(0), FixedReal(0)):
                return "group-laws", False, "inverse identity broke"
            g1 = LatticeElement(*(int(v) for v in rng.integers(-5, 6, size=3))).to_group(law)
            g2 = LatticeElement(*(int(v) for v in rng.integers(-5, 6, size=3))).to_group(law)
            prod = mul(g1, g2)
            if any(v.frac().scaled != 0 for v in prod.coords()):
                return "group-laws", False, "lattice not closed"
    return "group-laws", True, f"{count} random instances across {len(laws)} laws"


def suite_reduction(rng, fault=None, count=800):
    for law in (HEISENBERG, GroupLaw.star(5, 3)):
        for _ in range(count // 2):
            g = _random_element(rng, law)
            gamma = LatticeElement(*(int(v) for v in rng.integers(-4, 5, size=3))).to_group(law)
            a = canonical_rep(mul(g, gamma))
            b = canonical_rep(g)
            if a.coords() != b.coords():
                return "reduction", False, "coset invariance broke"
            again = canonical_rep(b.rep)
            if again.coords() != b.coords():
                return "reduction", False, "idempotence broke"
    return "reduction", True, f"{count} coset/idempotence instances"


def suite_iterate_oracle(rng, fault=None):
    sys = _standard_system()
    pt = canonical_rep(identity())
    for n in (1, 7, 32, 128):
        closed = iterate_T(sys, pt, n)
        stepped = pt
        for _ in range(n):
            stepped = step_T(sys, stepped)
        if closed.coords() != stepped.coords():
            return "iterate-oracle", False, f"closed form != stepping at n={n}"
    return "iterate-oracle", True, "closed form matches stepping to n=128"


def suite_commutation(rng, fault=None, n_max=100):
    sys = _standard_system()
    js = build_joining(sys, 3, 2)
    pt3 = (FixedReal(0), FixedReal(0), FixedReal(0))
    for n, (first, second) in enumerate(pair_orbit(sys, 3, 2, n_max), start=1):
        star = canonical_rep(
            project_pi((first.x, first.y, first.z, second.x, second.y, second.z), 3, 2)
        )
        pt3 = js.step_trivialized(pt3)
        if tuple(rho(star)) != tuple(pt3):
            return "commutation", False, f"joining diagram broke at n={n}"
    return "commutation", True, f"diagram commutes exactly to n={n_max}"


def suite_winding(rng, fault=None):
    sys = _standard_system()
    js = build_joining(sys, 3, 2)
    w = winding_in_x(js.H_lift(), 0.37, js.lipschitz_H)
    if w != 5 * sys.h.d1:
        return "winding", False, f"H winding {w} != 5"
    w7 = winding_in_x(js.Hn_lift(7), 0.11, 7 * js.lipschitz_H)
    if w7 != 35:
        return "winding", False, f"H_7 winding {w7} != 35"
    return "winding", True, "degree law holds for H and H_7"


def suite_sieve_oracle(rng, fault=None, bound=2000):
    table = sieve_mobius(bound)

    def mu_brute(n):
        val, m = 1, n
        d = 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                val = -val
            d += 1
        return -val if m > 1 else val

    for n in range(1, bound + 1):
        if table.mu(n) != mu_brute(n):
            return "sieve-oracle", False, f"mu({n}) mismatch"
    return "sieve-oracle", True, f"exact match with factorization oracle to {bound}"


def suite_determinism(rng, fault=None, n=2000):
    sys = _standard_system()
    obs = Observable(xi=1, bump=BumpProfile())
    cps = [n // 2, n]
    r1 = orbit_stream(sys, None, OrbitSegmentPlan(n, 256, 1), obs, checkpoints=cps)
    r8 = orbit_stream(sys, None, OrbitSegmentPlan(n, 256, 8), obs, checkpoints=cps)
    rn = orbit_stream_naive(sys, None, n, obs, checkpoints=cps)
    if r1 != r8:
        return "determinism", False, "worker counts disagree"
    if r1 != rn:
        return "determinism", False, "engine disagrees with naive loop"
    return "determinism", True, f"1 vs 8 workers vs naive loop identical at N={n}"


def suite_two_route(rng, fault=None, n=500):
    sys = _standard_system()
    obs = Observable(xi=1, bump=BumpProfile())
    ra = bilinear_sum(sys, obs, None, 3, 2, [n])
    rb = bilinear_sum_reduced(sys, obs, 3, 2, [n])
    diff = abs(ra.checkpoints[-1].value - rb.checkpoints[-1].value)
    if diff > 1e-9:
        return "two-route", False, f"routes differ by {diff}"
    return "two-route", True, f"pair orbit vs reduced orbit differ by {diff:.2e}"


ALL_SUITES = (
    suite_group_laws,
    suite_reduction,
    suite_iterate_oracle,
    suite_commutation,
    suite_winding,
    suite_sieve_oracle,
    suite_determinism,
    suite_two_route,
)


def run_verify(fault: str | None = None, seed: int = 20260811):
    """Run every suite; returns (results, all_ok)."""
    rng = np.random.default_rng(seed)
    results = [suite(rng, fault) for suite in ALL_SUITES]
    return results, all(ok for _, ok, _ in results)
