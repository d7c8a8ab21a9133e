"""Skew products on the nilmanifold, their iterates, and the prime-pair joining.

The map under study is T(x, y, z) = (alpha, beta, h(x, y)) . (x, y, z) on
X = G/Gamma: an isometric circle extension of the torus rotation by
(alpha, beta).  Its n-th iterate is the left translation by
(n alpha, n beta, h_n(x, y)) with the Birkhoff cocycle

    h_n(x, y) = sum_{i<n} h(x + i alpha, y + i beta).

For a prime pair p > q the pair orbit (T^{pn} x0, T^{qn} x0) descends to a
skew product T_star with fiber function H(x, y) = h_p(px, py) - h_q(qx, qy)
over the twisted group with twist p^2 - q^2, and T_star is conjugate (by
fundamental-domain coordinates) to an explicit torus map

    (x, y, z) -> (x + alpha, y + beta, z + H'(x, y))

whose corrected cocycle H' carries the floor terms written out below.  With
(p, q) = (1, 0) the same formula gives H = h and twist 1, i.e. T itself; the
reindexing k = ip + j gives H_n(x, y) = h_{pn}(px, py) - h_{qn}(qx, qy), so
one Birkhoff sum ``cocycle_sum`` builds h_n, H = H_1 and H_n, and H' is H'_n
at n = 1.

Numeric paths.  Every scalar operation is duck-typed over FixedReal (exact)
and float (mirrored, ~1e-12/op).  On the exact path every Birkhoff sum, T's
step and iterate and the pair orbit included, is one scaled-integer sum that
quantizes the periodic part of h to 2**-53 at all base points in one array
call; the circle dynamics downstream is then pure integer arithmetic, so
closed-form iterates, stepping, and the orbit engine agree bit for bit.  The
float closed-form iterate uses the system's exact alpha and beta, reduces
every O(n^2) term exactly mod 1 and fsums only the periodic part, so it
agrees with the exact orbit to about 1e-12; n float steps drift from that
orbit by O(n^2 2**-53) in z.  Real-valued lifts used by the growth
diagnostics stay in plain floating point (compensated where it matters).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fixedpoint import FRAC_BITS, FixedReal, frac_u64
from .heisenberg import (
    HEISENBERG,
    GroupElement,
    GroupLaw,
    NilPoint,
    _below_one,
    canonical_rep,
    check_prime_pair,
    identity,
    mul,
)

TWO_PI = 2.0 * math.pi
Q53 = 2.0**53
_Q53_SHIFT = 128 - 53  # lift a 2**-53 quantum into the 2**-128 scale


def _frac(v):
    """Fractional part in [0, 1), duck-typed over FixedReal and float."""
    return v - math.floor(v)


# ---------------------------------------------------------------------------
# fiber functions h : T^2 -> T^1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrigTerm:
    """One oscillation amplitude * sin(2 pi (k1 x + k2 y + phase))."""

    k1: int
    k2: int
    amplitude: float
    phase: float = 0.0


@dataclass(frozen=True)
class BaseFunctionSpec:
    """The fiber function h: winding numbers plus a Z^2-periodic part.

    ``d1``/``d2`` are the integer degrees of h in x and y; the periodic part
    is a finite trigonometric sum.  ``L`` bounds the Lipschitz constant of the
    lift for the sup metric on T^2.
    """

    d1: int
    d2: int
    terms: tuple[TrigTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if not (math.isfinite(t.amplitude) and math.isfinite(t.phase)):
                raise ValueError(f"{t} needs a finite amplitude and phase")
        total = sum(abs(t.amplitude) for t in self.terms)
        if total * Q53 >= 2.0**63:  # periodic_q53's values must fit in int64
            raise ValueError(f"sum of |amplitude| = {total!r} must stay below 2**10")

    @property
    def L(self) -> float:
        lx = abs(self.d1) + sum(TWO_PI * abs(t.amplitude) * abs(t.k1) for t in self.terms)
        ly = abs(self.d2) + sum(TWO_PI * abs(t.amplitude) * abs(t.k2) for t in self.terms)
        return lx + ly

    # -- float path ---------------------------------------------------------

    def periodic_value(self, x, y):
        """Periodic part at real arguments (vectorized)."""
        out = 0.0
        for t in self.terms:
            out = out + t.amplitude * np.sin(TWO_PI * (t.k1 * x + t.k2 * y + t.phase))
        return out

    # -- canonical circle quantization (shared by scalar path and engine) ----

    def periodic_q53(self, xu: np.ndarray, yu: np.ndarray) -> np.ndarray:
        """Quantized periodic part at u64 torus coordinates (units 2**-53).

        This single function defines the circle value used by the exact
        dynamics, on the engine's lanes and on the base points of every
        exact Birkhoff sum alike.
        """
        if not self.terms:  # periodic_value would be the scalar 0.0
            return np.zeros(xu.shape, dtype=np.int64)
        xf = xu.astype(np.float64) * 2.0**-64
        yf = yu.astype(np.float64) * 2.0**-64
        return np.rint(self.periodic_value(xf, yf) * Q53).astype(np.int64)

    def as_lift(self) -> "AffineTrigLift":
        return AffineTrigLift(float(self.d1), float(self.d2), 0.0, self.terms)


def eval_h_lift(h: BaseFunctionSpec, x, y):
    """Real lift d1 x + d2 y + periodic(x, y) at real arguments (vectorized)."""
    return h.d1 * x + h.d2 * y + h.periodic_value(x, y)


def _cocycle_scaled(h: BaseFunctionSpec, x: int, y: int, m: int, a: int, b: int) -> int:
    """h_m(x, y) = sum_{i<m} h(x + i a, y + i b) exactly, on scaled integers
    (value * 2**128): the winding part in closed form, the periodic part by
    one :meth:`BaseFunctionSpec.periodic_q53` call on the m base points' u64
    lanes (its values are elementwise, so h_m is the sum of m one-point sums).
    A start off the 2**-64 grid, or for m > 1 a rotation, raises
    :class:`FixedPointInexact`."""
    tri = m * (m - 1) // 2
    total = h.d1 * (m * x + tri * a) + h.d2 * (m * y + tri * b)
    if m:
        xu = np.array([frac_u64(x)], dtype=np.uint64)
        yu = np.array([frac_u64(y)], dtype=np.uint64)
        if m > 1:
            i = np.arange(m, dtype=np.uint64)
            xu = xu + i * np.uint64(frac_u64(a))
            yu = yu + i * np.uint64(frac_u64(b))
        total += sum(h.periodic_q53(xu, yu).tolist()) << _Q53_SHIFT
    return total


def lift_fixed(h: BaseFunctionSpec, x: FixedReal, y: FixedReal) -> FixedReal:
    """Exact-path lift: winding part exact, periodic part 2**-53 quantized."""
    return FixedReal.from_scaled(_cocycle_scaled(h, x.scaled, y.scaled, 1, 0, 0))


def cocycle_sum(h: BaseFunctionSpec, x, y, n: int, alpha, beta):
    """The Birkhoff sum h_n(x, y) = sum_{i<n} h(x + i alpha, y + i beta); h_0 = 0.

    Exact on FixedReal arguments; on floats a compensated sum of the lift at
    x + i alpha, y + i beta.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if isinstance(x, FixedReal):
        return FixedReal.from_scaled(
            _cocycle_scaled(h, x.scaled, y.scaled, n, alpha.scaled, beta.scaled)
        )
    return math.fsum(float(eval_h_lift(h, x + i * alpha, y + i * beta)) for i in range(n))


# ---------------------------------------------------------------------------
# collapsed lifts (trig Birkhoff sums as single sinusoids per frequency)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineTrigLift:
    """A lift cx*x + cy*y + const + sum of trig terms, vectorized callable.

    Birkhoff sums of such lifts along a rotation collapse exactly: all shifts
    of one term share its frequency, so the sum is a single sinusoid with a
    geometric-series coefficient.  This keeps deep-iterate lift evaluation
    O(#terms) instead of O(n) per point.
    """

    cx: float
    cy: float
    const: float
    terms: tuple[TrigTerm, ...] = ()

    def __call__(self, x, y):
        out = self.cx * x + self.cy * y + self.const
        for t in self.terms:
            out = out + t.amplitude * np.sin(TWO_PI * (t.k1 * x + t.k2 * y + t.phase))
        return out

    def scale_args(self, s: int) -> "AffineTrigLift":
        """The lift of (x, y) -> f(s x, s y)."""
        terms = tuple(TrigTerm(t.k1 * s, t.k2 * s, t.amplitude, t.phase) for t in self.terms)
        return AffineTrigLift(self.cx * s, self.cy * s, self.const, terms)

    def plus(self, other: "AffineTrigLift", sign: int = 1) -> "AffineTrigLift":
        terms = tuple(
            TrigTerm(t.k1, t.k2, sign * t.amplitude, t.phase) for t in other.terms
        )
        return AffineTrigLift(
            self.cx + sign * other.cx,
            self.cy + sign * other.cy,
            self.const + sign * other.const,
            self.terms + terms,
        )


def collapse_birkhoff(lift: AffineTrigLift, alpha: float, beta: float, n: int) -> AffineTrigLift:
    """The lift of sum_{i<n} f(x + i alpha, y + i beta), collapsed per term."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tri = n * (n - 1) // 2
    const = n * lift.const + (lift.cx * alpha + lift.cy * beta) * tri
    terms = []
    for t in lift.terms:
        theta = t.k1 * alpha + t.k2 * beta
        c = np.exp(2j * math.pi * theta * np.arange(n)).sum() if n else 0.0
        amp = t.amplitude * abs(c)
        if amp != 0.0:
            terms.append(TrigTerm(t.k1, t.k2, amp, t.phase + cmath.phase(c) / TWO_PI))
    return AffineTrigLift(lift.cx * n, lift.cy * n, const, tuple(terms))


# ---------------------------------------------------------------------------
# the skew system T and the joining system T_star
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkewSystem:
    """T(x, y, z) = (alpha, beta, h(x, y)) . (x, y, z) on X = G/Gamma."""

    alpha: FixedReal
    beta: FixedReal
    h: BaseFunctionSpec

    def __post_init__(self):
        object.__setattr__(self, "alpha", FixedReal(self.alpha))
        object.__setattr__(self, "beta", FixedReal(self.beta))

    @property
    def alpha_f(self) -> float:
        return float(self.alpha)

    @property
    def beta_f(self) -> float:
        return float(self.beta)


def step_T(sys: SkewSystem, pt: NilPoint) -> NilPoint:
    """One application of T; exact on the fixed-point path."""
    if pt.law != HEISENBERG:
        raise ValueError("step_T acts on Heisenberg points")
    x, y, _, _, fixed = rep = pt.rep
    if fixed:
        g = _translation(sys, x, y, 1)
    else:
        g = GroupElement(sys.alpha_f, sys.beta_f, float(eval_h_lift(sys.h, x, y)), HEISENBERG)
    return canonical_rep(mul(g, rep))


def iterate_T(sys: SkewSystem, pt: NilPoint, n: int) -> NilPoint:
    """Closed-form n-th iterate via the Birkhoff cocycle.

    On the fixed-point path it agrees with n calls of :func:`step_T` bit for
    bit.  On the float path it is computed from the system's exact alpha and
    beta and the start point's exact dyadic value: every term that grows like
    n or n^2 (translation, winding part, Heisenberg commutator, floor
    correction) is reduced mod 1 exactly, and only the periodic part is summed
    in float.  The result is within about 1e-12 of the exact orbit; n float
    steps drift from it by about n 2**-53 in x and y and O(n^2 2**-53) in z.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if pt.law != HEISENBERG:
        raise ValueError("iterate_T acts on Heisenberg points")
    if not pt.is_fixed:
        return _iterate_float(sys, pt, n)
    rep = pt.rep
    return canonical_rep(mul(_translation(sys, rep[0], rep[1], n), rep))


def _translation(sys: SkewSystem, x: int, y: int, m: int) -> GroupElement:
    """The exact translation (m alpha, m beta, h_m(x, y)) by which T^m acts
    on points over the base point (x, y), all scaled by 2**128."""
    a, b = sys.alpha.scaled, sys.beta.scaled
    total = _cocycle_scaled(sys.h, x, y, m, a, b)
    return GroupElement.from_scaled(a * m, b * m, total, HEISENBERG)


def _iterate_float(sys: SkewSystem, pt: NilPoint, n: int) -> NilPoint:
    # Scaled-integer arithmetic at 2**-bits, fine enough to hold alpha, beta
    # and the float start point exactly.
    dyadic = [v.as_integer_ratio() for v in pt.coords()]
    bits = max(FRAC_BITS, *(den.bit_length() - 1 for _, den in dyadic))
    one = 1 << bits
    mask = one - 1
    x, y, z = (num * (one // den) for num, den in dyadic)
    a = sys.alpha.scaled << (bits - FRAC_BITS)
    b = sys.beta.scaled << (bits - FRAC_BITS)

    # periodic part at the orbit's base points, each reduced mod 1 exactly
    xs = np.array([((x + i * a) & mask) / one for i in range(n)], dtype=np.float64)
    ys = np.array([((y + i * b) & mask) / one for i in range(n)], dtype=np.float64)
    values = np.broadcast_to(np.asarray(sys.h.periodic_value(xs, ys), dtype=np.float64), (n,))
    periodic = math.fsum(values.tolist())

    # (n alpha, n beta, h_n) . (x, y, z), then canonical_rep, without the
    # periodic part; W is the fiber coordinate at scale 2**-(2 bits)
    X, Y = x + n * a, y + n * b
    tri = n * (n - 1) // 2
    winding = sys.h.d1 * (n * x + tri * a) + sys.h.d2 * (n * y + tri * b)
    floor_corr = (X >> bits) * Y - (Y >> bits) * X
    W = ((winding + z + floor_corr) << bits) + n * (a * y - x * b)
    fiber = Fraction(W & ((1 << 2 * bits) - 1), 1 << 2 * bits) + Fraction(periodic)
    fiber -= math.floor(fiber)
    rep = GroupElement(
        _below_one((X & mask) / one), _below_one((Y & mask) / one), _below_one(fiber),
        HEISENBERG,
    )
    return NilPoint(rep)


def _floor_correction(x, y, alpha, beta, floor):
    """(alpha y - beta x) - (x + alpha) floor(y + beta) + floor(x + alpha) (y + beta):
    the twist-1 term that carries a star-law cocycle to the torus chart."""
    return (alpha * y - beta * x) - (x + alpha) * floor(y + beta) + floor(x + alpha) * (y + beta)


@dataclass(frozen=True)
class JoiningSystem:
    """The reduced prime-pair dynamics T_star and its torus trivialization.

    The fiber function is H(x, y) = h_p(px, py) - h_q(qx, qy); the group
    twist is p^2 - q^2, and the degree of H in x is (p^2 - q^2) d1.
    """

    base: SkewSystem
    p: int
    q: int

    def __post_init__(self):
        check_prime_pair(self.p, self.q)

    @property
    def twist(self) -> int:
        return self.p * self.p - self.q * self.q

    @property
    def law(self) -> GroupLaw:
        return GroupLaw.star(self.p, self.q)

    @property
    def lipschitz_H(self) -> float:
        return (self.p * self.p + self.q * self.q) * self.base.h.L

    # -- scalar evaluation (duck-typed over FixedReal / float) --------------

    def _rotation(self, x, n: int = 1):
        """(n alpha, n beta) in the number type of x: exact for FixedReal."""
        if isinstance(x, FixedReal):
            return self.base.alpha * n, self.base.beta * n
        return n * self.base.alpha_f, n * self.base.beta_f

    def H_value(self, x, y):
        """Lift of H(x, y) = h_p(px, py) - h_q(qx, qy)."""
        return self.H_n_value(x, y, 1)

    def H_n_value(self, x, y, n: int):
        """Lift of the cocycle H_n(x, y) = sum_{i<n} H(x + i alpha, y + i beta),
        which the reindexing k = ip + j makes h_{pn}(px, py) - h_{qn}(qx, qy)."""
        alpha, beta = self._rotation(x)
        h, p, q = self.base.h, self.p, self.q
        return (cocycle_sum(h, x * p, y * p, n * p, alpha, beta)
                - cocycle_sum(h, x * q, y * q, n * q, alpha, beta))

    def H_prime(self, x, y):
        """The trivialized cocycle H'(x, y) = H'_1(x, y) on representatives in [0, 1)^2."""
        return self.Hn_prime(x, y, 1)

    def Hn_prime(self, x, y, n: int):
        """Lift of the n-step trivialized cocycle H'_n(x, y):

        H_n + (p^2-q^2) ((n alpha y - n beta x) - (x + n alpha) floor(y + n beta)
                          + floor(x + n alpha) (y + n beta)).
        """
        alpha, beta = self._rotation(x, n)
        corr = _floor_correction(x, y, alpha, beta, math.floor)
        return self.H_n_value(x, y, n) + corr * self.twist

    def step_trivialized(self, pt3):
        """One step of the torus model: (x, y, z) -> (x+a, y+b, z+H'(x, y)) mod 1."""
        x, y, z = pt3
        for v in (x, y, z):
            if not (0 <= v and v < 1):
                raise ValueError("trivialized point must lie in [0, 1)^3")
        alpha, beta = self._rotation(x)
        return (
            _frac(x + alpha),
            _frac(y + beta),
            _frac(z + self.H_prime(x, y)),
        )

    def step_star(self, pt: NilPoint) -> NilPoint:
        """One step of T_star on X_star via the group action."""
        if pt.law != self.law:
            raise ValueError("point does not carry this joining's star law")
        x, y, _ = pt.coords()
        alpha, beta = self._rotation(x)
        return canonical_rep(mul(GroupElement(alpha, beta, self.H_value(x, y), self.law), pt.rep))

    # -- vectorized float lifts for the growth diagnostics ------------------

    def H_lift(self) -> AffineTrigLift:
        """Vectorized float lift of H, collapsed per trigonometric term."""
        sys = self.base
        lift = sys.h.as_lift()
        hp = collapse_birkhoff(lift, sys.alpha_f, sys.beta_f, self.p)
        hq = collapse_birkhoff(lift, sys.alpha_f, sys.beta_f, self.q)
        return hp.scale_args(self.p).plus(hq.scale_args(self.q), sign=-1)

    def Hn_lift(self, n: int) -> AffineTrigLift:
        """Vectorized float lift of H_n."""
        return collapse_birkhoff(self.H_lift(), self.base.alpha_f, self.base.beta_f, n)

    def H_prime_arrays(self, x, y):
        """Float H' on arrays of representatives in [0, 1)^2."""
        af, bf = self.base.alpha_f, self.base.beta_f
        return self.H_lift()(x, y) + self.twist * _floor_correction(x, y, af, bf, np.floor)


def build_joining(sys: SkewSystem, p: int, q: int) -> JoiningSystem:
    """The joining system for the prime pair p > q (twist p^2 - q^2)."""
    return JoiningSystem(sys, p, q)


def rho(pt: NilPoint):
    """Fundamental-domain coordinates of a star point (the torus chart)."""
    return pt.coords()


def pair_orbit(sys: SkewSystem, p: int, q: int, n_max: int):
    """Yield the group-level pair (T^{pn} id, T^{qn} id) for n = 1..n_max.

    Incremental: each step left-multiplies by the p- (resp. q-) step
    translation element evaluated at the current base coordinates, costing
    p + q lift evaluations per n instead of n (p + q).
    """
    first = identity()
    second = identity()
    for _ in range(n_max):
        first = mul(_translation(sys, first[0], first[1], p), first)
        second = mul(_translation(sys, second[0], second[1], q), second)
        yield first, second
