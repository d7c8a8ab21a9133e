"""Numerical interrogation of the reduced joining dynamics.

Four families of checks:

* Weyl sums along the trivialized joining orbit -- equidistribution evidence
  for the reduced system (decay of |(1/N) sum e(k . orbit_n)| for integer
  frequency triples k != 0).

* A coboundary search for the twisted cohomological equation
  R(x+a, y+b) = R(x, y) + k g(x, y): least squares in a finite Fourier box,
  dividing each solvable mode by e(m a + n b) - 1 and skipping near-resonant
  denominators.  The returned residual is evidence, never proof: the
  measurable statement is not decidable numerically.

* Growth laws of the iterated joining cocycle: the integer winding of
  H_n(., y0) (degree n (p^2-q^2) d1), an empirical Lipschitz lower bound
  (compared against the n (p^2+q^2) L growth bound), and the boundary
  increment of the assembled test function F_n, which has the closed form
  n k (p^2-q^2) d1 - n k (p^2-q^2) beta - floor(n beta).

* The proof constants delta_1 = |k(p^2-q^2)d1 - k(p^2-q^2)beta - beta| /
  (24 k (p^2+q^2)(L + |alpha| + |beta|)) and nu = 6 / |same numerator|,
  positive and finite exactly when the discriminant is nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import JoiningSystem
from .engine import OrbitSegmentPlan, PairScan, check_checkpoints, orbit_stream_multi, resize_plan
from .fixedpoint import FixedReal
from .heisenberg import check_prime_pair
from .moebius import CorrelationPoint
from .observables import fourier_value

_DENOM_FLOOR = 1e-9  # coboundary modes with |e(m alpha + n beta) - 1| below this are skipped
_GROWTH_TOL = 1e-6  # how far a float growth-law value may sit from its integer or closed form


# ---------------------------------------------------------------------------
# Weyl sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeylReport:
    freq: tuple[int, int, int]
    checkpoints: tuple[CorrelationPoint, ...]
    metadata: dict = field(default_factory=dict)


def weyl_sums(
    js: JoiningSystem,
    start,
    freqs,
    checkpoints,
    plan: OrbitSegmentPlan | None = None,
    *,
    pair_scan: PairScan | None = None,
) -> list[WeylReport]:
    """|(1/N) sum e(k1 x_n + k2 y_n + k3 z_n)| along the trivialized orbit.

    Each frequency is one :func:`~nillab.observables.fourier_value`.  From
    the origin, with a ``pair_scan`` of ``js``, these frequencies and
    checkpoints whose sums the pass of a pair route filled (as in ``nillab
    run``), the sums are copies of those; otherwise the stream scans its own
    p + q lifts per step.  The sums are the same bits either way: both are
    exact accumulations of the same values."""
    freqs = [tuple(int(k) for k in f) for f in freqs]
    if not freqs or (0, 0, 0) in freqs:
        raise ValueError("Weyl sums need one or more nonzero frequencies")
    checkpoints = check_checkpoints(checkpoints)
    plan = resize_plan(plan, checkpoints[-1])

    all_sums = orbit_stream_multi(
        js, start, plan, [fourier_value(k) for k in freqs], checkpoints=checkpoints,
        pair_scan=pair_scan,
    )
    reports = []
    for k, sums in zip(freqs, all_sums):
        pts = tuple(CorrelationPoint(n, s / n) for n, s in sums)
        reports.append(
            WeylReport(k, pts, {"p": js.p, "q": js.q, "segment_size": plan.segment_size})
        )
    return reports


# ---------------------------------------------------------------------------
# coboundary search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoboundaryReport:
    residual: float
    k: int
    cutoff: int
    grid: int
    solved_modes: int
    skipped_modes: tuple[tuple[int, int], ...]
    metadata: dict = field(default_factory=dict)


def _circle_dist(a: np.ndarray) -> np.ndarray:
    return np.abs(a - np.rint(a))


def coboundary_residual(
    g_fn,
    alpha: float,
    beta: float,
    k: int,
    cutoff: int,
) -> CoboundaryReport:
    """Fourier least-squares attack on R(T0 w) = R(w) + k g(w) for sampled g.

    ``g_fn(x, y)`` returns real lift values on arrays (winding and floor
    jumps allowed; the grid FFT simply periodizes them).  Fourier modes
    (m, n) with |m|, |n| <= cutoff are solved by dividing by
    e(m alpha + n beta) - 1 -- the least-squares solution on the solvable
    zero-winding subspace; near-resonant modes are skipped and reported, and
    the constant mode is never solvable.  The residual is the RMS circle
    distance of the defect R(T0 .) - R(.) - k g(.) over the grid, so any
    winding or obstruction of k g stays in the residual.
    """
    if cutoff < 1:
        raise ValueError("fourier cutoff must be >= 1")
    grid = max(64, 4 * cutoff)
    xs = np.arange(grid) / grid
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    g_c = np.asarray(g_fn(gx, gy), dtype=np.float64)

    coeffs = np.fft.fft2(k * g_c) / (grid * grid)
    freqs = np.fft.fftfreq(grid, d=1.0 / grid).astype(np.int64)
    m, n = np.meshgrid(freqs, freqs, indexing="ij")
    box = (np.abs(m) <= cutoff) & (np.abs(n) <= cutoff) & ((m != 0) | (n != 0))
    phase = np.exp(2j * math.pi * (freqs[:, None] * alpha + freqs[None, :] * beta))
    denom = phase - 1.0
    near = box & (np.abs(denom) < _DENOM_FLOOR)
    solve = box & ~near
    solved = np.zeros_like(coeffs)
    solved[solve] = coeffs[solve] / denom[solve]

    r_vals = np.fft.ifft2(solved) * (grid * grid)
    r_shift = np.fft.ifft2(solved * phase) * (grid * grid)
    defect = np.real(r_shift - r_vals) - k * g_c
    residual = float(np.sqrt(np.mean(_circle_dist(defect) ** 2)))
    return CoboundaryReport(
        residual=residual,
        k=k,
        cutoff=cutoff,
        grid=grid,
        solved_modes=int(solve.sum()),
        skipped_modes=tuple((int(a), int(b)) for a, b in zip(m[near], n[near])),
        metadata={"alpha": alpha, "beta": beta},
    )


def coboundary_search(js: JoiningSystem, k: int, fourier_cutoff: int) -> CoboundaryReport:
    """Residual of the cohomological equation for the trivialized cocycle k H'."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    report = coboundary_residual(
        lambda x, y: js.H_prime_arrays(x, y),
        js.base.alpha_f,
        js.base.beta_f,
        k,
        fourier_cutoff,
    )
    report.metadata.update({"p": js.p, "q": js.q, "twist": js.twist})
    return report


# ---------------------------------------------------------------------------
# growth laws
# ---------------------------------------------------------------------------


def winding_in_x(lift_fn, y0: float, lip_bound: float, max_refine: int = 24) -> int:
    """Integer winding of x -> lift(x, y0) over one period.

    The mesh is sized so single-interval increments stay below 1/2 (spacing
    <= 1/(4 lip_bound)); if an increment exceeds 1/2 the mesh is refined, and
    after ``max_refine`` doublings the lift is rejected as inconsistent.  A
    lift that is not finite on the mesh (as at a NaN y0) is rejected at once:
    no refinement would settle it.
    """
    m = max(8, int(math.ceil(4.0 * max(lip_bound, 1.0))))
    for _ in range(max_refine + 1):
        xs = np.linspace(0.0, 1.0, m + 1)
        vals = np.asarray(lift_fn(xs, np.full(m + 1, y0)), dtype=np.float64)
        if not np.isfinite(vals).all():
            raise ValueError(f"the lift is not finite on the mesh at y0 = {y0}")
        inc = np.diff(vals)
        if np.max(np.abs(inc)) < 0.5:
            total = float(vals[-1] - vals[0])
            w = round(total)
            if abs(total - w) > _GROWTH_TOL:
                raise ValueError(
                    f"winding increment {total} is not an integer within {_GROWTH_TOL}"
                )
            return int(w)
        m *= 2
    raise ValueError("mesh refinement exhausted; lift increments never settled")


def lipschitz_estimate(lift_fn, mesh: int) -> float:
    """Max axis-aligned finite-difference slope over a mesh (lower bound)."""
    if mesh < 2:
        raise ValueError("mesh must be >= 2")
    xs = np.linspace(0.0, 1.0, mesh + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vals = np.asarray(lift_fn(gx, gy), dtype=np.float64)
    sx = np.max(np.abs(np.diff(vals, axis=0))) * mesh
    sy = np.max(np.abs(np.diff(vals, axis=1))) * mesh
    return float(max(sx, sy))


def boundary_increment_Fn(js: JoiningSystem, k: int, n: int, y: float) -> float:
    """F_n(1, y) - F_n(0, y) from the assembled lift, checked against
    n k (p^2-q^2) d1 - n k (p^2-q^2) beta - floor(n beta).

    F_n(x, y) = k Hn(x, y) + n k (p^2-q^2)(alpha y - beta x)
                - floor(n beta)(x + n alpha) + floor(n alpha)(y + n beta),
    with the Hn lift normalized so Hn(0, 0) lies in [0, 1).
    """
    if not (0 <= y < 1):
        raise ValueError("y must lie in [0, 1)")
    c = js.twist
    af, bf = js.base.alpha_f, js.base.beta_f
    fna = math.floor(js.base.alpha * n)
    fnb = math.floor(js.base.beta * n)
    hn = js.Hn_lift(n)
    shift = math.floor(float(hn(0.0, 0.0)))

    def f_n(x, yy):
        return (
            k * (hn(x, yy) - shift)
            + n * k * c * (af * yy - bf * x)
            - fnb * (x + n * af)
            + fna * (yy + n * bf)
        )

    computed = float(f_n(1.0, y) - f_n(0.0, y))
    closed = n * k * c * js.base.h.d1 - n * k * c * bf - fnb
    if abs(computed - closed) > _GROWTH_TOL:
        raise ValueError(
            f"boundary increment {computed} disagrees with closed form {closed}"
        )
    return computed


# ---------------------------------------------------------------------------
# proof constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProofConstants:
    k: int
    p: int
    q: int
    d1: int
    alpha: float
    beta: float
    L: float
    discriminant: float
    delta1: float
    nu: float


def proof_constants(k: int, p: int, q: int, d1: int, alpha, beta, L: float) -> ProofConstants:
    """delta_1 and nu of the multiple-cocycle argument.

    discriminant = |k (p^2-q^2) d1 - k (p^2-q^2) beta - beta|;
    delta_1 = discriminant / (24 k (p^2+q^2) (L + |alpha| + |beta|));
    nu = 6 / discriminant.  A vanishing discriminant means the rational-beta
    resonance and is rejected (the construction assumes beta irrational).
    """
    check_prime_pair(p, q)
    if k < 1:
        raise ValueError("k must be a positive integer")
    alpha_f = float(FixedReal(alpha)) if not isinstance(alpha, float) else alpha
    beta_f = float(FixedReal(beta)) if not isinstance(beta, float) else beta
    c = p * p - q * q
    disc = abs(k * c * d1 - k * c * beta_f - beta_f)
    if disc == 0.0:
        raise ValueError(
            "zero discriminant: beta hits the rational resonance "
            "k(p^2-q^2)d1 = (k(p^2-q^2)+1) beta, violating beta irrationality"
        )
    delta1 = disc / (24.0 * k * (p * p + q * q) * (L + abs(alpha_f) + abs(beta_f)))
    nu = 6.0 / disc
    return ProofConstants(k, p, q, d1, alpha_f, beta_f, L, disc, delta1, nu)
