"""Continuous test functions of prescribed vertical frequency.

An observable of vertical frequency xi transforms under the central circle
action by F((0,0,s) tau) = e(xi s) F(tau).  We construct such functions
explicitly as F = e(xi z) * bump(x, y) on canonical coordinates, with the
bump supported away from the fundamental-domain boundary (inside
(1/8, 7/8)^2) so F is continuous on the nilmanifold: the z chart jump across
the gluing is multiplied by zero.  Frequency-zero observables are plain base
torus Fourier modes.

F vanishes off its bump's open box.  :meth:`BumpProfile.support` finds the
points inside from x and y alone, and :meth:`BumpProfile.support_lanes`
finds the steps at which every one of several points lies inside from the
affine forms of their u64 lanes, without floats, by the box's exact
preimage on u64 (:attr:`BumpProfile.lane_box`).
:meth:`Observable.on_support` is the one formula of F there: the engine
evaluates it only on the support it takes on lanes, and the dense
:meth:`Observable.eval_arrays` scatters it on the support it takes on
floats.

The pair observable f(x1) conj(f(x2)) descends to the reduced joining space;
its one implementation is :class:`nillab.engine.StarDescentSink`, which
evaluates these observables on exactly reduced u64 lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .heisenberg import NilPoint
from .workspace import FRESH, Workspace

_MARGIN = 0.125  # bump supports stay inside (1/8, 7/8)^2


def _smoothstep(u, tmp=None):
    """Order-3 polynomial step: 0 below 0, 1 above 1, u^2(3-2u) between;
    written over ``u`` when ``tmp``, scratch of u's shape, is given."""
    u = np.clip(u, 0.0, 1.0, out=None if tmp is None else u)
    tmp = np.subtract(3.0, np.multiply(2.0, u, out=tmp), out=tmp)
    u *= u
    u *= tmp
    return u


def fourier_phase(ks, coords, ws: Workspace = FRESH):
    """The phase k1 c1 + k2 c2 + ... of :func:`fourier_mode`: None for no
    term, a coordinate itself for a lone k = 1, else in ``ws``'s scratch
    ``t1`` (and ``t2`` on the way)."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords[: len(ks)]))
    phase = None
    for k, c in zip(ks, coords):
        if k:
            if k != 1:
                c = np.multiply(c, k, out=ws.take("t1" if phase is None else "t2", shape,
                                                  np.float64))
            phase = c if phase is None else np.add(phase, c, out=ws.take("t1", shape, np.float64))
    return phase


def fourier_mode(ks, coords, ws: Workspace = FRESH, out=None):
    """exp(2j pi (k1 c1 + k2 c2 + ...)) elementwise (vectorized finite floats,
    c >= 0), into ``out``, by default ``ws``'s buffer ``mode.v``; the phase
    stops at ``len(ks)``, so coordinates past it are not read.

    The bits of the expression ``np.exp(2j * math.pi * (k1 * c1 + ...))``:
    the same operations in the same order, with the phase summed by
    :func:`fourier_phase`, less two exact no-ops.  A multiplication by k = 1
    is skipped, and so is a term of frequency 0: 0 * c is +0, and adding it
    changes at most the sign of a zero phase, whose product with 2j pi
    differs only in the sign of its zero real part, and exp(+-0 + 0j) =
    1 + 0j.  A phase of no term is +0.  Each value depends on its own phase
    alone, so the engine evaluates a mode that reads z as the mode (1,) of
    its phases, sorted (see :mod:`nillab.engine`)."""
    phase = fourier_phase(ks, coords, ws)
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords[: len(ks)]))
    out = ws.take("mode.v", shape, np.complex128) if out is None else out
    np.copyto(out, 0.0 if phase is None else phase)  # phase + 0j, as the product would cast it
    np.multiply(2j * math.pi, out, out=out)
    return np.exp(out, out=out)


def fourier_value(ks):
    """The engine value function e(k1 x + k2 y + k3 z) of the frequencies
    ``ks`` (one to three of them; Davenport's wave is ``(1,)``): the bits of
    ``np.exp(2j * math.pi * (k1 * x + ...))``, written into the workspace it
    is given.  ``fn.ks`` names the frequencies, by which
    :meth:`~nillab.engine.PairScan.holds` knows its Weyl and Davenport
    sums, and the engine the modes it evaluates on sorted phases."""

    def fn(x, y, z, n, ws=FRESH):
        return fourier_mode(ks, (x, y, z), ws)

    fn.wants_ws = True
    fn.ks = tuple(ks)
    return fn


def _lane_interval(c: float, r: float) -> tuple[int, int]:
    """The lanes u, lo <= u <= hi, whose float x = fl(u) 2**-64 passes
    |x - c| < r, that is -r < x - c < r; 0 < c - r and c + r < 1 keep lo
    above 0 and hi below 2**64 - 1."""

    def first(passes) -> int:
        """The least u at which ``passes``, monotone in u, holds: it holds
        at 2**64 - 1 and not at 0."""
        lo, hi = 0, (1 << 64) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if passes(mid) else (mid, hi)
        return hi

    def dx(u: int) -> float:
        return float(u) * 2.0**-64 - c

    return first(lambda u: dx(u) > -r), first(lambda u: dx(u) >= r) - 1


@dataclass(frozen=True)
class BumpProfile:
    """Product smoothstep bump on (0,1)^2, vanishing outside its support box.

    Support is [cx - r, cx + r] x [cy - r, cy + r], required to stay inside
    (1/8, 7/8)^2 so the induced observable is continuous on the nilmanifold.
    Peak value 1 at the center.
    """

    center: tuple[float, float] = (0.5, 0.5)
    radius: float = 0.25

    def __post_init__(self):
        cx, cy = self.center
        r, m = self.radius, _MARGIN
        if r <= 0:
            raise ValueError("bump radius must be positive")
        if not (m <= cx - r and cx + r <= 1 - m and m <= cy - r and cy + r <= 1 - m):
            raise ValueError(f"bump support must stay inside ({m}, {1 - m})^2")

    @cached_property
    def lane_box(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The open support box on u64 lanes: per axis the interval [lo, hi]
        of the lanes u whose float x = fl(u) 2**-64 passes |x - c| < r, as
        :meth:`inside` computes it.  x - c is monotone in u, so the lanes
        that pass form one interval; each end is found by bisection with
        the same IEEE operations (Python's float(int) rounds to nearest, as
        numpy's uint64 -> float64 cast does), so the interval is exact."""
        return tuple(_lane_interval(c, self.radius) for c in self.center)

    def inside_lanes(self, xu, yu, ws: Workspace = FRESH, out=None):
        """:meth:`inside` at the points of u64 lanes (xu, yu), standing for
        (xu 2**-64, yu 2**-64), bit for bit, without their floats.  Each lane
        is an affine form (i, step, base) of offsets i, standing for the lane
        i step + base mod 2**64 (an array u is (u, 1, 0)).  On each axis
        i step + (base - lo) <= hi - lo mod 2**64 for the :attr:`lane_box`
        [lo, hi], one multiply-add into the scratch ``t1``, as booleans in
        ``out``, by default ``ws``'s buffer ``bump.in``."""
        shape = np.broadcast_shapes(np.shape(xu[0]), np.shape(yu[0]))
        d = ws.take("t1", shape)
        tests = (ws.take("bump.in", shape, np.bool_) if out is None else out,
                 ws.take("bump.iny", shape, np.bool_))
        for (i, step, base), (lo, hi), test in zip((xu, yu), self.lane_box, tests):
            if step != 1:
                i = np.multiply(i, np.uint64(step), out=d)
            np.add(i, np.uint64((base - lo) % 2**64), out=d)
            np.less_equal(d, np.uint64(hi - lo), out=test)
        inside, inside_y = tests
        inside &= inside_y
        return inside

    def support_lanes(self, points, ws: Workspace = FRESH, where=None):
        """The joint support: the flat indices at which every point of
        ``points``, pairs (xu, yu) of lanes as :meth:`inside_lanes` takes
        them, lies in the open box, and ``where`` holds when it is given.
        Each point is tested by :meth:`inside_lanes`; a test that the next
        point's would overwrite is kept in ``ws``'s buffer ``support.in``."""
        joint = where
        for k, point in enumerate(points):
            keep = (ws.take("support.in", np.shape(point[0][0]), np.bool_)
                    if k < len(points) - 1 else None)
            inside = self.inside_lanes(*point, ws, out=keep if joint is None else None)
            if joint is not None:
                inside = np.logical_and(inside, joint, out=inside if keep is None else keep)
            joint = inside
        return np.flatnonzero(joint)

    def inside(self, x, y, ws: Workspace = FRESH, out=None):
        """Whether each point (x, y) lies in the open support box
        (vectorized), as booleans in ``out``, by default ``ws``'s buffer
        ``bump.in``."""
        cx, cy = self.center
        r = self.radius
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        dx = np.subtract(x, cx, out=ws.take("t1", shape, np.float64))
        dy = np.subtract(y, cy, out=ws.take("t2", shape, np.float64))
        np.abs(dx, out=dx)
        np.abs(dy, out=dy)
        inside = np.less(dx, r, out=ws.take("bump.in", shape, np.bool_) if out is None else out)
        inside &= np.less(dy, r, out=ws.take("bump.iny", shape, np.bool_))
        return inside

    def support(self, x, y, ws: Workspace = FRESH, where=None):
        """The flat indices of the points (x, y) inside the open support box,
        and where ``where`` holds when it is given (vectorized): the only
        points at which the bump, and any product with it, can be nonzero."""
        inside = self.inside(x, y, ws)
        if where is not None:
            inside &= where
        return np.flatnonzero(inside)

    def on_support(self, x, y, ws: Workspace = FRESH):
        """The bump's values at points (x, y) inside the open support box
        (vectorized), in ``ws``'s buffer ``bump.sx``; ``x`` may be that
        buffer and ``y`` ``bump.sy``.  Outside the box the smoothsteps clip
        the value to 0."""
        cx, cy = self.center
        r = self.radius
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        sx = np.subtract(x, cx, out=ws.take("bump.sx", shape, np.float64))
        sy = np.subtract(y, cy, out=ws.take("bump.sy", shape, np.float64))
        tmp = ws.take("t1", shape, np.float64)
        for s in (sx, sy):
            np.abs(s, out=s)
            s /= r
            np.subtract(1.0, s, out=s)
            _smoothstep(s, tmp)
        sx *= sy
        return sx

    def __call__(self, x, y):
        """Bump value at (x, y) (vectorized); the smoothsteps are evaluated
        only inside the open support box, and the value is +0 elsewhere."""
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        on = self.support(x, y)
        out = np.zeros(shape)
        np.put(out, on, self.on_support(*(np.broadcast_to(v, shape).take(on) for v in (x, y))))
        return out


@dataclass(frozen=True)
class Observable:
    """A vertical-frequency observable, or a base Fourier mode when xi = 0."""

    wants_ws = True  # as an engine value function, it writes into the workspace
    xi: int
    bump: BumpProfile | None = None
    base_mode: tuple[int, int] | None = None

    def __post_init__(self):
        if self.xi != 0:
            if self.bump is None or self.base_mode is not None:
                raise ValueError("nonzero frequency requires a bump profile (and no base mode)")
        else:
            if self.base_mode is None or self.bump is not None:
                raise ValueError("zero frequency requires a base mode (and no bump)")

    def on_support(self, x, y, z, ws: Workspace = FRESH, out=None):
        """F at points on its support (vectorized floats), into ``out``, by
        default ``ws``'s buffer ``obs.e``: with xi != 0, e(xi z) * bump at
        points inside the bump's open box (its support); a base mode is
        nowhere 0, so every point is on its support.

        This is the one formula of F; :meth:`eval_arrays` scatters it, and
        the engine evaluates it only at the points of an orbit that lie on
        the support.  It writes the bump into ``bump.sx`` and ``bump.sy``
        and uses the scratch ``t1``; ``z`` may be in ``t2``."""
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        out = ws.take("obs.e", shape, np.complex128) if out is None else out
        if self.xi == 0:
            return fourier_mode(self.base_mode, (x, y), ws, out)
        bump = self.bump.on_support(x, y, ws)
        np.copyto(out, z)
        np.multiply(2j * math.pi * self.xi, out, out=out)
        np.exp(out, out=out)
        # part by part, with no complex cast of the bump: only a zero's sign
        # can differ from e * bump, and the quantization drops it
        out.real *= bump
        out.imag *= bump
        return out

    def eval_arrays(self, x, y, z, ws: Workspace = FRESH, out=None):
        """Value at canonical coordinates (vectorized floats), into ``out``,
        by default ``ws``'s buffer ``obs.v``: :meth:`on_support` at the
        points on the support, +0 elsewhere (where e(xi z) * 0 gives +-0)."""
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        out = ws.take("obs.v", shape, np.complex128) if out is None else out
        if self.xi == 0:
            return self.on_support(x, y, z, ws, out)
        on = self.bump.support(x, y, ws)
        x, y, z = (np.take(np.broadcast_to(v, shape), on, out=ws.take(name, on.shape, np.float64),
                           mode="clip")
                   for v, name in ((x, "bump.sx"), (y, "bump.sy"), (z, "t2")))
        out.fill(0)
        np.put(out, on, self.on_support(x, y, z, ws))
        return out

    def __call__(self, x, y, z, n=None, ws: Workspace = FRESH):
        """Engine sink signature; the step index is ignored."""
        return self.eval_arrays(x, y, z, ws)


def eval_observable(obs: Observable, pt: NilPoint) -> complex:
    """Observable value at a canonical nilmanifold point."""
    x, y, z = (float(v) for v in pt.coords())
    return complex(obs.eval_arrays(x, y, z))


def fiber_average(obs: Observable, base: tuple[float, float], m: int) -> complex:
    """Equal-weight quadrature of F over the fiber above (x, y) at m nodes.

    Exactly zero (to roundoff) for xi != 0 by discrete orthogonality once
    m >= 2|xi| + 2, which is required.
    """
    if m < 2 * abs(obs.xi) + 2:
        raise ValueError(f"need m >= 2|xi|+2 = {2 * abs(obs.xi) + 2}, got {m}")
    x, y = base
    zs = np.arange(m, dtype=np.float64) / m
    vals = obs.eval_arrays(np.full(m, x), np.full(m, y), zs)
    return complex(vals.mean())
