import cmath
import math
import tracemalloc

import numpy as np
import pytest

from nillab.dynamics import pair_orbit, rho
from nillab.engine import StarDescentSink, _quantize
from nillab.heisenberg import (
    GroupElement,
    LatticeElement,
    canonical_rep,
    mul,
    nil_point,
    project_pi,
)
from nillab.observables import (
    BumpProfile,
    Observable,
    _smoothstep,
    eval_observable,
    fiber_average,
    fourier_mode,
    fourier_value,
)
from nillab.workspace import Workspace


def test_bump_geometry_validation():
    BumpProfile((0.5, 0.5), 0.25)
    with pytest.raises(ValueError):
        BumpProfile((0.5, 0.5), 0.45)  # support leaks into the margin
    with pytest.raises(ValueError):
        BumpProfile((0.2, 0.5), 0.125)
    with pytest.raises(ValueError):
        BumpProfile((0.5, 0.5), -0.1)


def test_bump_peak_and_support():
    bump = BumpProfile((0.5, 0.5), 0.25)
    assert bump(0.5, 0.5) == 1.0
    assert bump(0.24, 0.5) == 0.0
    assert bump(0.5, 0.76) == 0.0
    assert 0.0 < bump(0.4, 0.55) < 1.0


@pytest.mark.parametrize("center, radius", [((0.5, 0.5), 0.25), ((0.4, 0.6), 0.2),
                                            ((0.3, 0.55), 0.17)])
def test_bump_inside_its_box_is_the_full_product_bit_for_bit(rng, center, radius):
    """The bump evaluates its smoothsteps only inside the support box; the
    values equal the product of both smoothsteps taken everywhere, +0 outside."""
    bump = BumpProfile(center, radius)
    (cx, cy), r = center, radius
    x, y = rng.random(5000), rng.random(5000)
    edges = [cx - r, cx + r, np.nextafter(cx - r, 1), np.nextafter(cx + r, 0), cx]
    x[:25] = np.repeat(edges, 5)
    y[:25] = np.tile([cy - r, cy + r, np.nextafter(cy - r, 1), np.nextafter(cy + r, 0), cy], 5)
    full = _smoothstep(1.0 - np.abs(x - cx) / r) * _smoothstep(1.0 - np.abs(y - cy) / r)
    got = bump(x, y)
    assert got.shape == x.shape
    assert np.array_equal(got.view(np.int64), full.view(np.int64))
    # no smoothstep rounds to 0 strictly inside the box, the nextafter edges included
    assert (got[(np.abs(x - cx) < r) & (np.abs(y - cy) < r)] > 0).all()
    assert 0.1 < (got != 0).mean() < 0.5
    assert bump(cx, cy) == 1.0 and bump(np.full((2, 3), cx), cy).shape == (2, 3)


def test_observable_validation():
    with pytest.raises(ValueError):
        Observable(xi=1)  # missing bump
    with pytest.raises(ValueError):
        Observable(xi=0)  # missing base mode
    with pytest.raises(ValueError):
        Observable(xi=0, bump=BumpProfile(), base_mode=(0, 0))


def test_eval_at_bump_center():
    obs = Observable(xi=1, bump=BumpProfile())
    pt = nil_point(0.5, 0.5, 0.25)
    val = eval_observable(obs, pt)
    assert abs(val - cmath.exp(2j * math.pi * 0.25)) < 1e-15


def test_vertical_equivariance_exact():
    obs = Observable(xi=3, bump=BumpProfile())
    for s in (0.5, 0.125, 0.8304):
        for coords in [(0.5, 0.5, 0.25), (0.41, 0.6, 0.9)]:
            pt = nil_point(*coords)
            shifted = canonical_rep(
                mul(GroupElement.fixed(0, 0, s), pt.rep)
            )
            lhs = eval_observable(obs, shifted)
            rhs = cmath.exp(2j * math.pi * obs.xi * s) * eval_observable(obs, pt)
            assert abs(lhs - rhs) < 1e-12


def test_half_turn_flips_sign():
    obs = Observable(xi=1, bump=BumpProfile())
    pt = nil_point(0.5, 0.5, 0.1)
    shifted = nil_point(0.5, 0.5, 0.6)
    assert abs(eval_observable(obs, shifted) + eval_observable(obs, pt)) < 1e-14


def test_outside_support_is_zero():
    obs = Observable(xi=1, bump=BumpProfile())
    assert eval_observable(obs, nil_point(0.1, 0.5, 0.3)) == 0.0


def test_eval_arrays_skips_the_bump_zero_set(rng):
    """On points straddling the support box the values are e(xi z) * bump bit
    for bit where the bump is nonzero and 0 elsewhere, and quantize alike."""
    bump = BumpProfile((0.5, 0.375), 0.25)
    obs = Observable(xi=2, bump=bump)
    x = rng.uniform(0.15, 0.85, size=2000)
    y = rng.uniform(0.05, 0.75, size=2000)
    z = rng.random(2000)
    x[:4] = (0.25, 0.75, 0.5, 0.2500001)  # the box edges, where the bump is exactly 0
    y[:4] = 0.375
    got = obs.eval_arrays(x, y, z)
    full = np.exp(2j * math.pi * obs.xi * z) * bump(x, y)
    on = bump(x, y) != 0
    assert 0.1 < on.mean() < 0.9 and not on[:2].any() and on[2:4].all()
    assert np.array_equal(got[on].view(np.int64), full[on].view(np.int64))
    assert not got[~on].view(np.int64).any()  # +0, where e(xi z) * 0 may give -0
    for part in ("real", "imag"):
        assert np.array_equal(_quantize(getattr(got, part)), _quantize(getattr(full, part)))
    # the scalar path: one point on the support, one off it
    assert eval_observable(obs, canonical_rep(GroupElement.fixed(0.45, 0.4, 0.3))) == complex(
        np.exp(2j * math.pi * obs.xi * 0.3) * bump(0.45, 0.4)
    )
    assert eval_observable(obs, canonical_rep(GroupElement.fixed(0.9, 0.5, 0.3))) == 0


def test_warm_eval_arrays_allocates_only_the_support_indices(rng):
    """Once its workspace is warm, eval_arrays on 2**16 points allocates
    little beyond the support's index array (np.flatnonzero): no complex cast
    of the bump and no temporary behind a gather, 128 KB each here (numpy
    reports its buffers to tracemalloc)."""
    obs = Observable(xi=1, bump=BumpProfile())
    x, y, z = rng.random((3, 1 << 16))
    ws = Workspace(1 << 16)
    obs.eval_arrays(x, y, z, ws)
    indices = 8 * np.count_nonzero((abs(x - 0.5) < 0.25) & (abs(y - 0.5) < 0.25))
    tracemalloc.start()
    try:
        obs.eval_arrays(x, y, z, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < indices + 32768, f"peak {peak} bytes, indices {indices}"


def _eval_arrays_reference(obs, x, y, z):
    """Observable.eval_arrays as it was written before it worked in place."""
    if obs.xi == 0:
        k1, k2 = obs.base_mode
        return np.exp(2j * math.pi * (k1 * np.asarray(x) + k2 * np.asarray(y)))
    cx, cy = obs.bump.center
    r = obs.bump.radius
    dx, dy = np.abs(x - cx), np.abs(y - cy)
    inside = np.flatnonzero((dx < r) & (dy < r))
    bump = np.zeros(dx.shape)
    np.put(bump, inside, _smoothstep(1.0 - dx.take(inside) / r)
           * _smoothstep(1.0 - dy.take(inside) / r))
    on = np.flatnonzero(bump != 0)
    out = np.zeros(bump.shape, dtype=np.complex128)
    np.put(out, on, np.exp(2j * math.pi * obs.xi * np.take(z, on)) * bump.take(on))
    return out


@pytest.mark.parametrize("obs", [
    Observable(xi=1, bump=BumpProfile()),
    Observable(xi=-3, bump=BumpProfile((0.4, 0.55), 0.2)),
    Observable(xi=2, bump=BumpProfile((0.375, 0.625), 0.25)),  # touches the 1/8 margin
    Observable(xi=0, base_mode=(2, -1)),
    Observable(xi=0, base_mode=(0, 3)),
], ids=["standard", "xi-3", "margin", "mode-2-1", "mode-0-3"])
def test_eval_arrays_in_place_equals_the_reference_formula(rng, obs):
    """In a workspace or in fresh arrays, the values keep the bits of the
    formula they replace, on points straddling the support box and on its
    edges; a second call through the same workspace gives the same bits."""
    ws = Workspace(4096)
    x, y, z = rng.random((3, 4096))
    if obs.bump is not None:
        (cx, cy), r = obs.bump.center, obs.bump.radius
        edges = [cx - r, cx + r, np.nextafter(cx - r, 1), np.nextafter(cx + r, 0), cx]
        x[:25] = np.repeat(edges, 5)
        y[:25] = np.tile([cy - r, cy + r, np.nextafter(cy - r, 1), np.nextafter(cy + r, 0), cy], 5)
    want = _eval_arrays_reference(obs, x, y, z).view(np.uint64)
    for size in (4096, 7, 1):
        assert np.array_equal(obs.eval_arrays(x[:size], y[:size], z[:size]).view(np.uint64),
                              want[: 2 * size])
    for _ in range(2):
        got = obs.eval_arrays(x, y, z, ws)
        assert np.array_equal(got.view(np.uint64), want)
    assert np.array_equal(obs(x, y, z, None, ws=ws).view(np.uint64), want)


@pytest.mark.parametrize("ks", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2), (-1, 2, 0),
                                (0, 0, -3), (2, -1, 1), (1,), (2, -1)])
def test_fourier_mode_equals_the_exponential(rng, ks):
    """fourier_mode, in a workspace or fresh, gives the bits of
    np.exp(2j pi (k1 x + k2 y + k3 z)), with negative and zero components;
    so does the engine value function fourier_value on (x, y, z), whose phase
    stops at len(ks) (Davenport's (1,) is np.exp(2j pi x))."""
    coords = tuple(rng.random((len(ks), 4096)))
    coords[0][:3] = (0.0, 0.5, np.nextafter(1.0, 0.0))
    phase = ks[0] * coords[0]
    for k, c in zip(ks[1:], coords[1:]):
        phase = phase + k * c
    want = np.exp(2j * math.pi * phase).view(np.uint64)
    ws = Workspace(4096)
    assert np.array_equal(fourier_mode(ks, coords).view(np.uint64), want)
    for _ in range(2):
        assert np.array_equal(fourier_mode(ks, coords, ws).view(np.uint64), want)
    xyz = coords + tuple(rng.random((3 - len(ks), 4096)))
    assert np.array_equal(fourier_value(ks)(*xyz, None, ws=ws).view(np.uint64), want)


@pytest.mark.parametrize("ks", [ks for ks in np.ndindex(5, 5, 5) if ks != (2, 2, 2)],
                         ids=lambda ks: ",".join(str(k - 2) for k in ks))
def test_fourier_mode_skips_only_exact_no_ops(rng, ks):
    """With the terms of frequency 0 and the multiplications by 1 skipped,
    fourier_mode still gives the bits of np.exp(2j pi (k1 x + k2 y + k3 z))
    at every ks in {-2..2}^3 but 0, on 0, 2**-60, 1 - 2**-53 and random
    floats in each coordinate, where a skipped +0 could change the sign of
    a zero phase."""
    k1, k2, k3 = (k - 2 for k in ks)
    special = np.array([0.0, 2.0**-60, 1.0 - 2.0**-53])
    grid = np.stack(np.meshgrid(special, special, special)).reshape(3, -1)
    x, y, z = np.concatenate([grid, rng.random((3, 256))], axis=1)
    want = np.exp(2j * math.pi * (k1 * x + k2 * y + k3 * z)).view(np.uint64)
    for ws in (Workspace(), Workspace(x.size)):
        assert np.array_equal(fourier_mode((k1, k2, k3), (x, y, z), ws).view(np.uint64), want)


# the standard bump and three off centre, one touching the 1/8 margin
LANE_BUMPS = [BumpProfile(), BumpProfile((0.3, 0.6), 0.15), BumpProfile((0.375, 0.625), 0.25),
              BumpProfile((0.61, 0.27), 0.1)]


@pytest.mark.parametrize("bump", LANE_BUMPS, ids=["standard", "off1", "margin", "off3"])
def test_lane_box_is_the_float_box(rng, bump):
    """The lane box is the exact u64 preimage of the float box: on each axis
    the lanes lo and hi pass the float test and lo - 1 and hi + 1 fail it,
    and inside_lanes and support_lanes agree with inside and support on the
    lanes' floats there, on 10**5 random lanes and on 10**4 lanes within
    2**12 of each end."""
    (xlo, xhi), (ylo, yhi) = bump.lane_box
    xc, yc = (xlo + xhi) // 2, (ylo + yhi) // 2  # inside on its axis
    ends = [(u, yc) for u in (xlo - 1, xlo, xhi, xhi + 1)] + [
        (xc, u) for u in (ylo - 1, ylo, yhi, yhi + 1)]
    xu, yu = np.array(ends, dtype=np.uint64).T
    lanes = lambda xu, yu: (xu * 2.0**-64, yu * 2.0**-64)  # noqa: E731 (the engine's floats)
    assert bump.inside(*lanes(xu, yu)).tolist() == [False, True, True, False] * 2
    near = [rng.integers(0, 1 << 13, 2500, np.uint64) + np.uint64(e - (1 << 12))
            for e in (xlo, xhi, ylo, yhi)]
    xu = np.concatenate([xu, rng.integers(0, 2**64 - 1, 10**5, np.uint64, endpoint=True),
                         *near[:2], np.full(5000, xc, np.uint64)])
    yu = np.concatenate([yu, rng.integers(0, 2**64 - 1, 10**5, np.uint64, endpoint=True),
                         np.full(5000, yc, np.uint64), *near[2:]])
    want = bump.inside(*lanes(xu, yu))
    assert 0 < want.mean() < 1
    ws = Workspace(xu.size)
    for got in (bump.inside_lanes(xu, yu), bump.inside_lanes(xu, yu, ws)):
        assert np.array_equal(got, want)
    where = rng.random(xu.size) < 0.5
    assert np.array_equal(bump.support_lanes(xu, yu, ws, where),
                          bump.support(*lanes(xu, yu), where=where))


@pytest.mark.parametrize("bump", LANE_BUMPS, ids=["standard", "off1", "margin", "off3"])
def test_lane_box_on_affine_forms_is_the_lane_box(rng, bump):
    """inside_lanes and support_lanes on affine forms (i, step, base) equal
    them on the lanes i step + base mod 2**64 that the forms stand for,
    fresh and in a workspace: for random steps and bases, and for steps 1
    (whose multiplication is skipped) and 2**64 - 1 from bases just outside
    the box, across its ends, where base - lo wraps."""
    (xlo, xhi), (ylo, yhi) = bump.lane_box
    i = np.arange(4096, dtype=np.uint64)
    where = rng.random(i.size) < 0.5
    cases = [((int(a), int(b)), (int(c), int(d))) for a, b, c, d in
             rng.integers(0, 2**64 - 1, (6, 4), np.uint64, endpoint=True)]
    cases += [((1, xlo - 2048), (2**64 - 1, yhi + 2048)),
              ((2**64 - 1, xhi + 2048), (1, ylo - 2048))]
    for (sx, bx), (sy, by) in cases:
        forms = (i, sx, bx), (i, sy, by)
        want = bump.inside_lanes(*(i * np.uint64(step) + np.uint64(base)
                                   for _, step, base in forms))
        assert 0 < want.sum() < i.size
        for ws in (Workspace(), Workspace(i.size)):
            assert np.array_equal(bump.inside_lanes(*forms, ws), want)
            assert np.array_equal(bump.support_lanes(*forms, ws, where),
                                  np.flatnonzero(want & where))


def test_continuity_across_gluing():
    """Approaching the fundamental-domain boundary, F -> 0: the jump of the
    z chart is killed by the vanishing bump."""
    obs = Observable(xi=1, bump=BumpProfile())
    eps = 1e-9
    for y in np.linspace(0.05, 0.95, 7):
        left = eval_observable(obs, nil_point(eps, float(y), 0.37))
        right = eval_observable(obs, nil_point(1 - eps, float(y), 0.37))
        assert abs(left) < 1e-8 and abs(right) < 1e-8


def test_fiber_average_orthogonality():
    for xi, m in ((1, 16), (2, 8), (3, 32)):
        obs = Observable(xi=xi, bump=BumpProfile())
        assert abs(fiber_average(obs, (0.5, 0.5), m)) <= 1e-12


def test_fiber_average_constant_mode():
    obs = Observable(xi=0, base_mode=(0, 0))
    assert fiber_average(obs, (0.3, 0.9), 4) == 1.0


def test_fiber_average_quadrature_precondition():
    obs = Observable(xi=3, bump=BumpProfile())
    with pytest.raises(ValueError):
        fiber_average(obs, (0.5, 0.5), 7)


def test_base_mode_values():
    obs = Observable(xi=0, base_mode=(2, -1))
    val = complex(obs.eval_arrays(0.25, 0.5, 0.9))
    assert abs(val - cmath.exp(2j * math.pi * (2 * 0.25 - 0.5))) < 1e-15


# -- the descended pair observable ----------------------------------------------


def _pair_value(obs, first, second):
    """f(first) conj f(second) on a pair of points of X."""
    return eval_observable(obs, first) * eval_observable(obs, second).conjugate()


def test_joining_observable_requires_nonzero_xi():
    with pytest.raises(ValueError, match="nonzero vertical frequency"):
        StarDescentSink(Observable(xi=0, base_mode=(0, 0)), 3, 2)
    obs = Observable(xi=1, bump=BumpProfile())
    for p, q in ((4, 3), (2, 3), (3, 3), (3, 1)):
        with pytest.raises(ValueError, match="need primes p > q"):
            StarDescentSink(obs, p, q)


def test_pair_value_at_identity():
    obs = Observable(xi=1, bump=BumpProfile())
    pt = nil_point(0.5, 0.5, 0.0)
    assert abs(_pair_value(obs, pt, pt) - abs(eval_observable(obs, pt)) ** 2) < 1e-15


def test_diagonal_central_invariance():
    obs = Observable(xi=2, bump=BumpProfile())
    a = nil_point(0.5, 0.5, 0.2)
    b = nil_point(0.45, 0.55, 0.7)
    base = _pair_value(obs, a, b)
    for s in (0.3, 0.77):
        sa = canonical_rep(mul(GroupElement.fixed(0, 0, s), a.rep))
        sb = canonical_rep(mul(GroupElement.fixed(0, 0, s), b.rep))
        assert abs(_pair_value(obs, sa, sb) - base) < 1e-12


def test_eval_star_is_the_lane_call(rng):
    """Float star coordinates on the lane grids reach the lane sink unchanged,
    z's low limb included."""
    sink = StarDescentSink(Observable(xi=2, bump=BumpProfile()), 5, 3)
    x, y, z = rng.random((3, 4096))
    z[:64] = rng.integers(1, 2**53, size=64) * 2.0**-120  # below 2**-64: low limb only
    z[64:128] = rng.random(64) * 2.0**-40  # both limbs
    fx, fy = ((v * 2.0**64).astype(np.uint64) for v in (x, y))
    s = z * 2.0**64
    z_hi = np.floor(s).astype(np.uint64)
    z_lo = ((s - np.floor(s)) * 2.0**64).astype(np.uint64)
    assert np.all(z_lo[:128] != 0) and np.all(z_hi[64:128] != 0)
    lanes = sink(fx, fy, z_hi, z_lo, None)
    stars = sink.eval_star(x, y, z)
    assert lanes.view(np.uint64).tolist() == stars.view(np.uint64).tolist()


def test_descent_agrees_with_pair_route(std_sys, std_js, rng):
    """f(x1) conj f(x2) on the lifted pair equals f_star at the projected star point."""
    obs = Observable(xi=1, bump=BumpProfile())
    sink = StarDescentSink(obs, 3, 2)
    wanted = set(int(n) for n in rng.integers(1, 400, size=12))
    for n, (first, second) in enumerate(pair_orbit(std_sys, 3, 2, max(wanted)), start=1):
        if n not in wanted:
            continue
        f1 = _pair_value(obs, canonical_rep(first), canonical_rep(second))
        star = canonical_rep(project_pi(
            (first.x, first.y, first.z, second.x, second.y, second.z), 3, 2
        ))
        fstar = complex(sink.eval_star(*(float(c) for c in rho(star))))
        assert abs(f1 - fstar) <= 1e-9


def test_descent_well_defined_under_star_lattice(std_js, rng):
    """f_star must not depend on the star-coset representative."""
    sink = StarDescentSink(Observable(xi=1, bump=BumpProfile()), 3, 2)
    for _ in range(20):
        x, y, z = (float(v) for v in rng.random(3))
        v1 = complex(sink.eval_star(x, y, z))
        ge = GroupElement.fixed(x, y, z, std_js.law)
        gamma = LatticeElement(
            int(rng.integers(-3, 4)), int(rng.integers(-3, 4)), int(rng.integers(-3, 4)),
        ).to_group(std_js.law)
        moved = canonical_rep(mul(ge, gamma))
        v2 = complex(sink.eval_star(*(float(c) for c in moved.coords())))
        assert abs(v1 - v2) < 1e-9
