"""Exact arithmetic for the Heisenberg group, its prime-pair twist and lattices.

The group is R^3 with multiplication

    (x, y, z) . (x', y', z') = (x + x', y + y', z + z' + c (x y' - x' y)),

where the twist c is 1 for the Heisenberg group G and c = p^2 - q^2 for the
quotient group carrying the joining of a prime pair p > q.  Coordinates are
exact: an element stores them as the scaled integers of
:class:`~nillab.fixedpoint.FixedReal` (value * 2**128), so ``mul``, ``inv``,
``canonical_rep``, ``lattice_floor`` and the lattice embedding are plain
integer arithmetic that never rounds; ``FixedReal`` views are built only when
a coordinate is read (``.x``, ``.y``, ``.z``, ``coords()``).  Float views of
points are the business of the callers that need them (the engine's lanes,
the observables).

The box [0, 1)^3 is used as a fundamental domain for both lattices; for the
twisted law that is the construction the reduction formula was designed for,
for c = 1 it is the identical derivation and is verified by the
coset-invariance tests rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .fixedpoint import FRAC_BITS as _FRAC_BITS
from .fixedpoint import FRAC_MASK as _FRAC_MASK
from .fixedpoint import SCALE as _SCALE
from .fixedpoint import FixedPointInexact, FixedReal


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime_pair(p: int, q: int) -> None:
    """Reject anything but a pair of primes p > q."""
    if not (is_prime(p) and is_prime(q) and p > q):
        raise ValueError(f"need primes p > q, got p={p}, q={q}")


class LawMismatch(ValueError):
    """Operands carry different group laws."""


@dataclass(frozen=True)
class GroupLaw:
    """Tag selecting the multiplication twist."""

    kind: str  # "heisenberg" | "star"
    twist: int

    def __post_init__(self):
        if self.kind not in ("heisenberg", "star"):
            raise ValueError(f"unknown group law kind {self.kind!r}")
        if self.twist == 0:
            raise ValueError("twist must be nonzero")
        if self.kind == "heisenberg" and self.twist != 1:
            raise ValueError("heisenberg law has twist 1")

    @staticmethod
    def star(p: int, q: int) -> "GroupLaw":
        """The twisted law of the prime-pair quotient, twist p^2 - q^2."""
        check_prime_pair(p, q)
        return GroupLaw("star", p * p - q * q)


HEISENBERG = GroupLaw("heisenberg", 1)


def _not_fixed(values) -> TypeError:
    """The error for coordinates of which one is not a FixedReal."""
    bad = next(v for v in values if type(v) is not FixedReal)
    return TypeError(f"coordinates must be FixedReal, got {type(bad).__name__}")


_tuple_new = tuple.__new__
_new = object.__new__
_fixed = FixedReal.from_scaled


class GroupElement(tuple):
    """A point of G or G_star with FixedReal coordinates.

    Tuple-backed as ``(x, y, z, law)``, so it is immutable and compares and
    hashes by value.  x, y and z are held as scaled integers (value * 2**128);
    ``.x``, ``.y``, ``.z`` and :meth:`coords` build :class:`FixedReal` views on
    access.  A coordinate of any other type (a float included) raises
    ``TypeError``, so no rounded value reaches a scaled-integer slot.
    """

    __slots__ = ()

    def __new__(cls, x: FixedReal, y: FixedReal, z: FixedReal, law: GroupLaw):
        if type(x) is FixedReal and type(y) is FixedReal and type(z) is FixedReal:
            return _tuple_new(cls, (x.scaled, y.scaled, z.scaled, law))
        raise _not_fixed((x, y, z))

    @staticmethod
    def from_scaled(x: int, y: int, z: int, law: GroupLaw) -> "GroupElement":
        """The element with coordinates x, y, z given as value * 2**128."""
        return _tuple_new(GroupElement, (x, y, z, law))

    @staticmethod
    def fixed(x, y, z, law: GroupLaw = HEISENBERG) -> "GroupElement":
        return GroupElement(FixedReal(x), FixedReal(y), FixedReal(z), law)

    law = property(itemgetter(3), doc="the group law")

    @property
    def x(self) -> FixedReal:
        return _fixed(self[0])

    @property
    def y(self) -> FixedReal:
        return _fixed(self[1])

    @property
    def z(self) -> FixedReal:
        return _fixed(self[2])

    def coords(self) -> tuple[FixedReal, FixedReal, FixedReal]:
        x, y, z, _ = self
        # three FixedReal.from_scaled calls, inlined: the identity checks read
        # coords() of every product they compare
        fx = _new(FixedReal)
        fx.scaled = x
        fy = _new(FixedReal)
        fy.scaled = y
        fz = _new(FixedReal)
        fz.scaled = z
        return fx, fy, fz

    def __repr__(self):
        x, y, z = self.coords()
        return f"GroupElement(x={x!r}, y={y!r}, z={z!r}, law={self[3]!r})"

    def __reduce__(self):
        return GroupElement, (*self.coords(), self[3])


def identity(law: GroupLaw = HEISENBERG) -> GroupElement:
    return _tuple_new(GroupElement, (0, 0, 0, law))


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product under the common law of ``a`` and ``b``."""
    ax, ay, az, law = a
    bx, by, bz, blaw = b
    if law is not blaw and law != blaw:
        raise LawMismatch(f"law mismatch: {law} vs {blaw}")
    comm = ax * by - bx * ay
    if comm & _FRAC_MASK:
        raise FixedPointInexact(
            "group commutator has more than 128 fractional bits; "
            "base coordinates must lie on the 2**-64 grid"
        )
    comm >>= _FRAC_BITS
    return _tuple_new(GroupElement, (ax + bx, ay + by, az + bz + comm * law.twist, law))


def inv(a: GroupElement) -> GroupElement:
    """Group inverse; (x, y, z)^-1 = (-x, -y, -z) under either law."""
    x, y, z, law = a
    return _tuple_new(GroupElement, (-x, -y, -z, law))


class LatticeElement(NamedTuple):
    """Integer point of Gamma (or Gamma_star)."""

    a: int
    b: int
    m: int

    def to_group(self, law: GroupLaw) -> GroupElement:
        a, b, m = self
        return _tuple_new(GroupElement, (a << _FRAC_BITS, b << _FRAC_BITS, m << _FRAC_BITS, law))


def lattice_floor(g: GroupElement) -> LatticeElement:
    """The unique lattice gamma with g . gamma^-1 in [0, 1)^3.

    Formula: (floor x, floor y, floor(z - c (x floor(y) - floor(x) y))).
    """
    x, y, z, law = g
    fx = x >> _FRAC_BITS
    fy = y >> _FRAC_BITS
    return LatticeElement(fx, fy, (z - (x * fy - y * fx) * law.twist) >> _FRAC_BITS)


class NilPoint:
    """Canonical fundamental-domain representative of a point of X or X_star.

    Immutable: ``rep`` is checked to lie in [0, 1)^3 once, at construction.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: GroupElement):
        if not all(0 <= v < _SCALE for v in rep[:3]):
            raise ValueError(f"NilPoint coordinates {rep.coords()!r} outside [0, 1)^3")
        _set_rep(self, rep)

    def __setattr__(self, name, value):
        raise AttributeError(f"NilPoint is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"NilPoint is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if type(other) is not NilPoint:
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self):
        return f"NilPoint(rep={self.rep!r})"

    def __reduce__(self):
        return NilPoint, (self.rep,)

    @property
    def law(self) -> GroupLaw:
        return self.rep.law

    def coords(self) -> tuple[FixedReal, FixedReal, FixedReal]:
        return self.rep.coords()


_set_rep = NilPoint.rep.__set__


def _trusted_point(rep: GroupElement) -> NilPoint:
    """A NilPoint whose coordinates are in [0, 1)^3 by construction."""
    out = _new(NilPoint)
    _set_rep(out, rep)
    return out


def canonical_rep(g: GroupElement) -> NilPoint:
    """Reduce to the canonical representative g . floor(g)^-1 in [0, 1)^3."""
    x, y, z, law = g
    # mul(g, inv(lattice_floor(g).to_group(law))) collapsed to scaled-integer
    # arithmetic: z' = frac(z - c (x floor(y) - floor(x) y)), which needs no
    # grid constraint
    a = x >> _FRAC_BITS
    b = y >> _FRAC_BITS
    w = z - (x * b - y * a) * law.twist
    return _trusted_point(_tuple_new(GroupElement, (
        x & _FRAC_MASK, y & _FRAC_MASK, w & _FRAC_MASK, law
    )))


def nil_point(x, y, z, law: GroupLaw = HEISENBERG) -> NilPoint:
    """Canonical point of the nilmanifold through the given group coordinates
    (anything :class:`FixedReal` accepts)."""
    return canonical_rep(GroupElement.fixed(x, y, z, law))


# -- prime-pair joining ------------------------------------------------------


def project_pi(g6: tuple[FixedReal, ...], p: int, q: int) -> GroupElement:
    """Project a G_1 point (p x, p y, z1, q x, q y, z2) to (x, y, z1 - z2).

    The result carries the star law with twist p^2 - q^2.  The six
    coordinates are FixedReals that satisfy the pair constraint exactly.
    """
    law = GroupLaw.star(p, q)  # validates the prime pair
    if any(type(v) is not FixedReal for v in g6):
        raise _not_fixed(g6)
    x1, y1, z1, x2, y2, z2 = g6
    if x1 * q != x2 * p or y1 * q != y2 * p:
        raise ValueError("input does not satisfy q(x1,y1) = p(x2,y2) exactly")
    return GroupElement(x1.exact_div(p), y1.exact_div(p), z1 - z2, law)
