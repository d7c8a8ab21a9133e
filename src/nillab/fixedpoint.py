"""Exact dyadic fixed-point reals.

A :class:`FixedReal` stores a real number as an integer multiple of 2**-128.
Constructors snap external values (floats, decimal strings, fractions) to the
coarser 2**-64 grid, so base coordinates carry at most 64 fractional bits and
the product of two such values is exactly representable in the 128 fractional
bits of storage.  This is what makes the group identities bit-testable:

* ``+``, ``-``, negation, multiplication by ``int`` and ``floor`` never round;
* ``FixedReal * FixedReal`` is exact whenever both factors live on the 2**-64
  grid, and raises :class:`FixedPointInexact` otherwise (there is no silent
  rounding path).

Integer parts are unbounded (Python ints), so long orbits never overflow.
"""

from __future__ import annotations

import math
from fractions import Fraction

FRAC_BITS = 128
INPUT_BITS = 64
SCALE = 1 << FRAC_BITS
INPUT_SCALE = 1 << INPUT_BITS
FRAC_MASK = SCALE - 1  # ``v & FRAC_MASK == v % SCALE`` for every int v
_U64 = (1 << 64) - 1
_Q64_SHIFT = FRAC_BITS - INPUT_BITS


class FixedPointInexact(ArithmeticError):
    """A fixed-point operation would have required rounding."""


def _snap(fr: Fraction) -> int:
    """Scaled integer of the nearest 2**-64 multiple of ``fr`` (ties to even)."""
    return round(fr * INPUT_SCALE) << (FRAC_BITS - INPUT_BITS)


class FixedReal:
    """An exact dyadic real: ``value = scaled / 2**128``."""

    __slots__ = ("scaled",)

    def __init__(self, value: "FixedReal | int | float | str | Fraction" = 0):
        if isinstance(value, FixedReal):
            self.scaled = value.scaled
        elif isinstance(value, int):
            self.scaled = value << FRAC_BITS
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"cannot represent {value!r} as FixedReal")
            self.scaled = _snap(Fraction(value))
        elif isinstance(value, (str, Fraction)):
            self.scaled = _snap(Fraction(value))
        else:
            raise TypeError(f"cannot build FixedReal from {type(value).__name__}")

    @staticmethod
    def from_scaled(scaled: int) -> "FixedReal":
        """Exact value ``scaled / 2**128``."""
        out = _new(FixedReal)
        out.scaled = scaled
        return out

    @staticmethod
    def from_q64(q: int) -> "FixedReal":
        """Exact value ``q / 2**64``."""
        out = _new(FixedReal)
        out.scaled = q << _Q64_SHIFT
        return out

    # -- arithmetic (all exact or raising) ---------------------------------

    def __add__(self, other):
        if isinstance(other, FixedReal):
            return _fixed(self.scaled + other.scaled)
        if isinstance(other, int):
            return _fixed(self.scaled + (other << FRAC_BITS))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, FixedReal):
            return _fixed(self.scaled - other.scaled)
        if isinstance(other, int):
            return _fixed(self.scaled - (other << FRAC_BITS))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return _fixed((other << FRAC_BITS) - self.scaled)
        return NotImplemented

    def __neg__(self):
        return _fixed(-self.scaled)

    def __mul__(self, other):
        if isinstance(other, int):
            return _fixed(self.scaled * other)
        if isinstance(other, FixedReal):
            prod = self.scaled * other.scaled
            if prod & FRAC_MASK:
                raise FixedPointInexact(
                    "product has more than 128 fractional bits; "
                    "operands must lie on the 2**-64 grid"
                )
            return _fixed(prod >> FRAC_BITS)
        return NotImplemented

    __rmul__ = __mul__

    def exact_div(self, n: int) -> "FixedReal":
        """Division by a nonzero integer, required to be exact."""
        q, r = divmod(self.scaled, n)
        if r:
            raise FixedPointInexact(f"value not divisible by {n}")
        return _fixed(q)

    def __floor__(self) -> int:
        return self.scaled >> FRAC_BITS

    def frac(self) -> "FixedReal":
        """Fractional part in [0, 1)."""
        return _fixed(self.scaled & FRAC_MASK)

    # -- conversions --------------------------------------------------------

    def __float__(self) -> float:
        return self.scaled / SCALE

    def as_fraction(self) -> Fraction:
        return Fraction(self.scaled, SCALE)

    def frac_u64(self) -> int:
        """Fractional part as an integer multiple of 2**-64 (requires Q64)."""
        return frac_u64(self.scaled)

    def frac_lanes(self) -> tuple[int, int]:
        """Fractional part as (hi, lo) 64-bit lanes: frac = hi/2**64 + lo/2**128."""
        f = self.scaled & FRAC_MASK
        return f >> 64, f & _U64

    def dyadic_str(self) -> str:
        """Shortest exact representation ``n/2^k`` (or a plain integer)."""
        t, k = self.scaled, FRAC_BITS
        while k > 0 and t % 2 == 0:
            t //= 2
            k -= 1
        return str(t) if k == 0 else f"{t}/2^{k}"

    # -- comparisons --------------------------------------------------------

    def _key(self, other):
        if isinstance(other, FixedReal):
            return other.scaled
        if isinstance(other, int):
            return other << FRAC_BITS
        return None

    def __eq__(self, other):
        if type(other) is FixedReal:
            return self.scaled == other.scaled
        k = self._key(other)
        return NotImplemented if k is None else self.scaled == k

    def __lt__(self, other):
        k = self._key(other)
        return NotImplemented if k is None else self.scaled < k

    def __le__(self, other):
        k = self._key(other)
        return NotImplemented if k is None else self.scaled <= k

    def __gt__(self, other):
        k = self._key(other)
        return NotImplemented if k is None else self.scaled > k

    def __ge__(self, other):
        k = self._key(other)
        return NotImplemented if k is None else self.scaled >= k

    def __hash__(self):
        return hash(self.as_fraction())

    def __repr__(self):
        return f"FixedReal('{self.dyadic_str()}')"

    def __abs__(self):
        return _fixed(abs(self.scaled))


_new = object.__new__
_fixed = FixedReal.from_scaled  # a plain function: no attribute lookup per call


def frac_u64(scaled: int) -> int:
    """Fractional part of ``scaled / 2**128`` as a multiple of 2**-64 (requires Q64)."""
    if scaled & _U64:
        raise FixedPointInexact("fractional part is finer than 2**-64")
    return (scaled & FRAC_MASK) >> 64


def parse_real(text: str) -> FixedReal:
    """Parse a decimal or dyadic string.

    Accepts decimal literals (``0.25``, ``-3``), plain fractions (``1/4``) and
    the exact dyadic form ``n/2^k``; everything is snapped to the 2**-64 grid
    (exact for dyadics with k <= 64).
    """
    text = text.strip()
    if "/2^" in text:
        num, _, exp = text.partition("/2^")
        return FixedReal(Fraction(int(num), 1 << int(exp)))
    return FixedReal(text)


def sqrt_q64(n: int) -> FixedReal:
    """Nearest 2**-64 multiple of sqrt(n), computed with integer arithmetic."""
    if n < 0:
        raise ValueError("sqrt of negative integer")
    target = n << (2 * INPUT_BITS)
    s = math.isqrt(target)
    if target - s * s > s:  # nearest rounding: go up when remainder > s
        s += 1
    return FixedReal.from_q64(s)
