"""Exact arithmetic in the Heisenberg group and its prime-pair twist.

Every coordinate is a dyadic rational on the 2**-64 grid, stored with 128
fractional bits, so group products, inverses, and fundamental-domain
reduction are exact: the identities below hold bit for bit, not just to
floating-point accuracy.
"""

import numpy as np

from nillab import (
    GroupElement,
    GroupLaw,
    canonical_rep,
    identity,
    inv,
    lattice_floor,
    mul,
    project_pi,
)
from nillab.fixedpoint import FixedReal
from nillab.heisenberg import LatticeElement

star = GroupLaw.star(3, 2)
print(f"twisted law for the pair (3, 2): twist = 3^2 - 2^2 = {star.twist}")

a = GroupElement.fixed(1, 0, 0, star)
b = GroupElement.fixed(0, 1, 0, star)
print(f"(1,0,0) * (0,1,0)  ->  {[float(v) for v in mul(a, b).coords()]}")

g = GroupElement.fixed(1.5, 0.5, 0.25, star)
gamma = lattice_floor(g)
print(f"\nlattice floor of (1.5, 0.5, 0.25): {gamma}")
pt = canonical_rep(g)
print(f"canonical representative: {[float(v) for v in pt.coords()]}")

print("\ncoset invariance (exact, 1000 random lattice translates):")
rng = np.random.default_rng(0)
base = canonical_rep(g).coords()
ok = 0
for _ in range(1000):
    l = LatticeElement(*(int(v) for v in rng.integers(-50, 50, size=3)))
    moved = mul(g, l.to_group(star))
    ok += canonical_rep(moved).coords() == base
print(f"  identical representatives: {ok}/1000")

print("\nassociativity is bit-exact (the commutator identity is 2-step):")
els = [
    GroupElement(
        FixedReal.from_q64(int(rng.integers(0, 2**63))),
        FixedReal.from_q64(int(rng.integers(0, 2**63))),
        FixedReal.from_q64(int(rng.integers(0, 2**63))),
        star,
    )
    for _ in range(3)
]
lhs = mul(mul(els[0], els[1]), els[2])
rhs = mul(els[0], mul(els[1], els[2]))
print(f"  (ab)c == a(bc): {lhs.coords() == rhs.coords()}")
print(f"  g g^-1 == e   : {mul(els[0], inv(els[0])).coords() == identity(star).coords()}")

print("\nthe pair projection (p x, p y, z1, q x, q y, z2) -> (x, y, z1 - z2):")
# x = 1/4, y = 1/8: (3x, 3y, z1) and (2x, 2y, z2) meet the pair constraint exactly
g6 = tuple(FixedReal(v) for v in (0.75, 0.375, 0.625, 0.5, 0.25, 0.25))
out = project_pi(g6, 3, 2)
print(f"  pi(0.75, 0.375, 0.625, 0.5, 0.25, 0.25) = {[float(v) for v in out.coords()]}")
print(f"  carries the twisted law: {out.law}")
