"""Continuous test functions of prescribed vertical frequency.

An observable of vertical frequency xi transforms under the central circle
action by F((0,0,s) tau) = e(xi s) F(tau).  We construct such functions
explicitly as F = e(xi z) * bump(x, y) on canonical coordinates, with the
bump supported away from the fundamental-domain boundary (inside
(1/8, 7/8)^2) so F is continuous on the nilmanifold: the z chart jump across
the gluing is multiplied by zero.  Frequency-zero observables are plain base
torus Fourier modes.

The pair observable f(x1) conj(f(x2)) descends to the reduced joining space;
its one implementation is :class:`nillab.engine.StarDescentSink`, which
evaluates these observables on exactly reduced u64 lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heisenberg import NilPoint

TWO_PI = 2.0 * math.pi
_MARGIN = 0.125  # bump supports stay inside (1/8, 7/8)^2


def _smoothstep(u):
    """Order-3 polynomial step: 0 below 0, 1 above 1, u^2(3-2u) between."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


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

    @property
    def lipschitz(self) -> float:
        # |smoothstep'| <= 3/2, one factor per axis, product bounded by 1
        return 1.5 / self.radius

    def __call__(self, x, y):
        """Bump value at (x, y) (vectorized); the smoothsteps are evaluated
        only inside the open support box, and the value is +0 elsewhere."""
        cx, cy = self.center
        r = self.radius
        dx, dy = np.broadcast_arrays(
            np.abs(np.asarray(x, dtype=np.float64) - cx),
            np.abs(np.asarray(y, dtype=np.float64) - cy),
        )
        inside = np.flatnonzero((dx < r) & (dy < r))
        out = np.zeros(dx.shape)
        np.put(out, inside, _smoothstep(1.0 - dx.take(inside) / r)
               * _smoothstep(1.0 - dy.take(inside) / r))
        return out


@dataclass(frozen=True)
class Observable:
    """A vertical-frequency observable, or a base Fourier mode when xi = 0."""

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

    @property
    def sup(self) -> float:
        return 1.0

    def eval_arrays(self, x, y, z):
        """Value at canonical coordinates (vectorized floats).

        With xi != 0 the exponential is taken only where the bump is nonzero;
        elsewhere the value is +0 (where e(xi z) * 0 gives +-0)."""
        if self.xi == 0:
            k1, k2 = self.base_mode
            return np.exp(2j * math.pi * (k1 * np.asarray(x) + k2 * np.asarray(y)))
        bump = self.bump(x, y)
        on = np.flatnonzero(bump != 0)
        out = np.zeros(bump.shape, dtype=np.complex128)
        np.put(out, on, np.exp(2j * math.pi * self.xi * np.take(z, on)) * bump.take(on))
        return out

    def __call__(self, x, y, z, n=None):
        """Engine sink signature; the step index is ignored."""
        return self.eval_arrays(x, y, z)


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
