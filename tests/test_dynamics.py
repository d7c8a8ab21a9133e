import math

import numpy as np
import pytest

from nillab.fixedpoint import FixedPointInexact, FixedReal, sqrt_q64
from nillab.dynamics import (
    BaseFunctionSpec,
    SkewSystem,
    TrigTerm,
    build_joining,
    cocycle_sum,
    collapse_birkhoff,
    eval_h_lift,
    iterate_T,
    lift_fixed,
    pair_orbit,
    rho,
    step_T,
)
from nillab.heisenberg import (
    HEISENBERG,
    GroupElement,
    canonical_rep,
    identity,
    mul,
    nil_point,
    project_pi,
)

ALPHA = sqrt_q64(2) - 1
BETA = sqrt_q64(3) - 1


def const_h(value: float) -> BaseFunctionSpec:
    """h identically equal to `value` (a frequency-zero oscillation at peak)."""
    return BaseFunctionSpec(0, 0, (TrigTerm(0, 0, value, 0.25),))


def circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


# -- lifts ---------------------------------------------------------------------


def test_eval_h_lift_examples():
    assert eval_h_lift(BaseFunctionSpec(1, 0), 0.25, 0.9) == 0.25
    assert eval_h_lift(BaseFunctionSpec(0, 0, (TrigTerm(1, 0, 0.0),)), 0.7, 0.1) == 0.0
    h = BaseFunctionSpec(1, 0, (TrigTerm(1, 0, 0.1, 0.0),))
    assert eval_h_lift(h, 0.0, 0.0) == 0.0
    # second implementation of the basis function
    x, y = 0.37, 0.81
    assert math.isclose(
        eval_h_lift(h, x, y), x + 0.1 * math.sin(2 * math.pi * x), rel_tol=1e-15
    )


def test_winding_periodicity_of_lift():
    h = BaseFunctionSpec(2, -1, (TrigTerm(1, 2, 0.05, 0.3),))
    for (x, y) in [(0.2, 0.7), (0.9, 0.05)]:
        assert math.isclose(eval_h_lift(h, x + 1, y), eval_h_lift(h, x, y) + 2, abs_tol=1e-12)
        assert math.isclose(eval_h_lift(h, x, y + 1), eval_h_lift(h, x, y) - 1, abs_tol=1e-12)


def test_lipschitz_constant_bounds_lift():
    h = BaseFunctionSpec(1, 2, (TrigTerm(3, -2, 0.07, 0.2), TrigTerm(0, 1, 0.02)))
    rng = np.random.default_rng(0)
    pts = rng.random((200, 2))
    deltas = rng.uniform(-0.02, 0.02, size=(200, 2))
    v0 = eval_h_lift(h, pts[:, 0], pts[:, 1])
    v1 = eval_h_lift(h, pts[:, 0] + deltas[:, 0], pts[:, 1] + deltas[:, 1])
    sup = np.abs(deltas).max(axis=1)
    assert np.all(np.abs(v1 - v0) <= h.L * sup * (1 + 1e-9) + 1e-12)


def test_cocycle_sum_examples():
    h = BaseFunctionSpec(1, 0)
    af = float(ALPHA)
    assert cocycle_sum(h, 0.3, 0.4, 0, af, 0.1) == 0.0
    assert cocycle_sum(h, 0.3, 0.4, 1, af, 0.1) == eval_h_lift(h, 0.3, 0.4)
    for n in (2, 17, 301):
        closed = n * (n - 1) * af / 2
        assert math.isclose(cocycle_sum(h, 0.0, 0.0, n, af, 0.1), closed, rel_tol=1e-12)


def test_collapsed_birkhoff_matches_direct():
    h = BaseFunctionSpec(1, 1, (TrigTerm(1, 0, 0.1, 0.0), TrigTerm(2, -1, 0.03, 0.4)))
    af, bf = float(ALPHA), float(BETA)
    lift = collapse_birkhoff(h.as_lift(), af, bf, 23)
    xs = np.linspace(0, 1, 17)
    ys = np.linspace(0, 1, 17)
    direct = sum(eval_h_lift(h, xs + i * af, ys + i * bf) for i in range(23))
    assert np.max(np.abs(lift(xs, ys) - direct)) < 1e-9


# -- the skew map --------------------------------------------------------------


def test_step_pure_translation():
    sys = SkewSystem(ALPHA, BETA, BaseFunctionSpec(0, 0))
    out = step_T(sys, canonical_rep(identity()))
    expect = canonical_rep(GroupElement(ALPHA, BETA, FixedReal(0), HEISENBERG))
    assert out.coords() == expect.coords()


def test_step_lift_independence():
    # two lifts of the same h differing by the integer 1: bit-identical steps
    sys_a = SkewSystem(ALPHA, BETA, const_h(0.5))
    sys_b = SkewSystem(ALPHA, BETA, const_h(1.5))
    pt = canonical_rep(GroupElement.fixed(0.2, 0.7, 0.1))
    for _ in range(5):
        a = step_T(sys_a, pt)
        b = step_T(sys_b, pt)
        assert a.coords() == b.coords()
        pt = a


def test_step_fiber_rotation_by_half():
    sys = SkewSystem(FixedReal(0), FixedReal(0), const_h(0.5))
    once = step_T(sys, canonical_rep(identity()))
    assert [float(v) for v in once.coords()] == [0.0, 0.0, 0.5]
    twice = step_T(sys, once)
    assert [float(v) for v in twice.coords()] == [0.0, 0.0, 0.0]


def test_iterate_zero_and_constant():
    sys = SkewSystem(ALPHA, BETA, const_h(0.3))
    pt = canonical_rep(GroupElement.fixed(0.1, 0.9, 0.5))
    assert iterate_T(sys, pt, 0).coords() == pt.coords()
    n = 37
    theta_hat = FixedReal.from_scaled(int(round(0.3 * 2**53)) << 75)
    expect = canonical_rep(
        mul(GroupElement(ALPHA * n, BETA * n, theta_hat * n, HEISENBERG), pt.rep)
    )
    assert iterate_T(sys, pt, n).coords() == expect.coords()


def test_iterate_matches_stepping_exact(std_sys):
    pt = canonical_rep(GroupElement.fixed(0.37, 0.81, 0.12))
    cur = pt
    for n in range(1, 65):
        cur = step_T(std_sys, cur)
        if n in (1, 7, 31, 64):
            assert iterate_T(std_sys, pt, n).coords() == cur.coords()


def test_iterate_float_path_close(std_sys):
    pt_f = canonical_rep(GroupElement.floating(0.37, 0.81, 0.12))
    cur = pt_f
    for _ in range(200):
        cur = step_T(std_sys, cur)
    closed = iterate_T(std_sys, pt_f, 200)
    for a, b in zip(cur.coords(), closed.coords()):
        assert circle_dist(a, b) <= 1e-9


# The two systems of acceptance criterion 2 on which the float closed form,
# built from the float alpha and an unreduced float cocycle, was furthest
# (1.73e-9 and 2.06e-9) from the exact orbit.
FLOAT_ITERATE_WORST = [
    pytest.param(
        18303495788208109074, 11538082280337060678,
        (-1, -2, 3, -3, 0.1856749551779746, 0.709947464509308), 3681,
        (928073917350293019, 14504818846498637136, 17533485789671689137),
        id="k306",
    ),
    pytest.param(
        11735542114188998054, 10006096381725686553,
        (-2, 1, 0, 3, -0.08607957473935653, 0.16533023026744154), 3713,
        (9927027484537671171, 3186942309933710784, 16422742232153133060),
        id="k564",
    ),
]


@pytest.mark.parametrize("alpha, beta, h, n, start", FLOAT_ITERATE_WORST)
def test_iterate_float_matches_exact_orbit(alpha, beta, h, n, start):
    d1, d2, k1, k2, amp, phase = h
    sys = SkewSystem(
        FixedReal.from_q64(alpha), FixedReal.from_q64(beta),
        BaseFunctionSpec(d1, d2, (TrigTerm(k1, k2, amp, phase),)),
    )
    pt = canonical_rep(GroupElement(*(FixedReal.from_q64(v) for v in start), HEISENBERG))
    exact = iterate_T(sys, pt, n)
    closed = iterate_T(sys, pt.to_float(), n)
    for a, b in zip(closed.coords(), exact.coords()):
        assert circle_dist(a, float(b)) <= 1e-9


def test_iterate_float_stays_in_box():
    # 1 - 2**-64 rounds to 1.0 in float; the closed form keeps it below 1
    sys = SkewSystem(FixedReal.from_q64(2**64 - 1), FixedReal(0), const_h(0.0))
    out = iterate_T(sys, canonical_rep(GroupElement.floating(0.0, 0.0, 0.0)), 1)
    assert 0.0 <= out.rep.x < 1.0
    assert circle_dist(out.rep.x, 1.0) <= 1e-15


def test_iterate_cocycle_identity(std_sys):
    pt = canonical_rep(identity())
    lhs = iterate_T(std_sys, pt, 40)
    rhs = iterate_T(std_sys, iterate_T(std_sys, pt, 15), 25)
    assert lhs.coords() == rhs.coords()


def test_iterate_base_factor_exact(std_sys):
    pt = canonical_rep(GroupElement.fixed(0.25, 0.75, 0.0))
    n = 123
    out = iterate_T(std_sys, pt, n)
    assert out.rep.x == (FixedReal(0.25) + std_sys.alpha * n).frac()
    assert out.rep.y == (FixedReal(0.75) + std_sys.beta * n).frac()


TWO_TERMS = SkewSystem(
    FixedReal.from_q64(0x9E3779B97F4A7C15), FixedReal.from_q64(0x6A09E667F3BCC909),
    BaseFunctionSpec(2, -3, (TrigTerm(1, 2, 0.13, 0.3), TrigTerm(-3, 1, 0.07, 0.85))),
)


@pytest.mark.parametrize("n", [0, 1, 2, 97, 300])
def test_iterate_matches_stepping_two_terms(n):
    """d2 != 0 and two trigonometric terms: the one-call periodic sum and the
    closed-form winding part give the bits of n single steps."""
    pt = canonical_rep(GroupElement.fixed(0.8125, 0.3, 0.6))
    stepped = pt
    for _ in range(n):
        stepped = step_T(TWO_TERMS, stepped)
    assert iterate_T(TWO_TERMS, pt, n) == stepped


def test_pair_orbit_matches_group_level_steps():
    """Each pair-orbit element is the product of single T translations, and
    its projection carries the star-law orbit of the trivialized joining."""
    sys, p, q = TWO_TERMS, 3, 2
    js = build_joining(sys, p, q)
    h = sys.h

    def steps(g, m):
        for _ in range(m):
            t = lift_fixed(h, g.x, g.y)
            g = mul(GroupElement(sys.alpha, sys.beta, t, HEISENBERG), g)
        return g

    first = second = identity()
    pt3 = (FixedReal(0), FixedReal(0), FixedReal(0))
    for a, b in pair_orbit(sys, p, q, 12):
        first, second = steps(first, p), steps(second, q)
        assert (a, b) == (first, second)
        star = canonical_rep(project_pi((*a.coords(), *b.coords()), p, q))
        assert star.law == js.law
        pt3 = js.step_trivialized(pt3)
        assert rho(star) == pt3


def test_iterate_rejects_off_grid_start():
    off = canonical_rep(GroupElement(FixedReal.from_scaled(1), FixedReal(0.5), FixedReal(0),
                                     HEISENBERG))
    for n in (1, 2, 97):
        with pytest.raises(FixedPointInexact):
            iterate_T(TWO_TERMS, off, n)
    with pytest.raises(FixedPointInexact):
        step_T(TWO_TERMS, off)
    assert iterate_T(TWO_TERMS, off, 0) == off


# -- the one Birkhoff sum ----------------------------------------------------------


@pytest.mark.parametrize("m", [0, 1, 2, 7, 300])
def test_cocycle_sum_is_the_sum_of_one_point_lifts(m):
    """The exact sum over m base points is the sum of m one-point lifts at the
    shifted points, and the float sum stays within 1e-12 m of it."""
    sys, (x, y) = TWO_TERMS, (FixedReal(0.8125), FixedReal(0.3))
    a, b = sys.alpha, sys.beta
    exact = cocycle_sum(sys.h, x, y, m, a, b)
    assert exact == sum((lift_fixed(sys.h, x + a * i, y + b * i) for i in range(m)), FixedReal(0))
    fl = cocycle_sum(sys.h, float(x), float(y), m, float(a), float(b))
    assert abs(fl - float(exact)) <= 1e-12 * max(m, 1)


@pytest.mark.parametrize("p, q", [(3, 2), (5, 3), (7, 2)])
def test_H_n_is_the_sum_of_shifted_H(p, q):
    js = build_joining(TWO_TERMS, p, q)
    a, b = TWO_TERMS.alpha, TWO_TERMS.beta
    x, y = FixedReal(0.40625), FixedReal(0.71875)
    for n in (0, 1, 2, 7):
        shifted = (js.H_value(x + a * i, y + b * i) for i in range(n))
        assert js.H_n_value(x, y, n) == sum(shifted, FixedReal(0))


def test_cocycle_sum_rejects_off_grid_points():
    h, a, b = TWO_TERMS.h, TWO_TERMS.alpha, TWO_TERMS.beta
    off, half = FixedReal.from_scaled(1), FixedReal(0.5)
    for m in (1, 2, 7):
        with pytest.raises(FixedPointInexact):
            cocycle_sum(h, off, half, m, a, b)
        with pytest.raises(FixedPointInexact):
            cocycle_sum(h, half, off, m, a, b)
    # the rotation enters the base points only from the second one on
    assert cocycle_sum(h, half, half, 1, off, b) == lift_fixed(h, half, half)
    for m in (2, 7):
        with pytest.raises(FixedPointInexact):
            cocycle_sum(h, half, half, m, off, b)
        with pytest.raises(FixedPointInexact):
            cocycle_sum(h, half, half, m, a, off)


@pytest.mark.parametrize("terms", [
    (TrigTerm(1, 0, float("nan"), 0.0),),
    (TrigTerm(1, 0, 0.1, float("inf")),),
    (TrigTerm(1, 0, float("-inf"), 0.0),),
    (TrigTerm(1, 0, 2000.0, 0.0),),
    (TrigTerm(1, 0, 600.0, 0.0), TrigTerm(0, 1, -600.0, 0.5)),
])
def test_periodic_part_must_fit_the_quantization(terms):
    with pytest.raises(ValueError):
        BaseFunctionSpec(1, 0, terms)


def test_periodic_part_without_terms_quantizes_to_int64_zeros():
    u = np.arange(5, dtype=np.uint64) << np.uint64(61)
    q = BaseFunctionSpec(1, 2).periodic_q53(u, u[::-1])
    assert q.dtype == np.int64 and q.tolist() == [0] * 5


def test_large_amplitude_quantizes_without_overflow():
    h = BaseFunctionSpec(0, 0, (TrigTerm(1, 0, 1000.0, 0.0), TrigTerm(0, 1, 23.0, 0.0)))
    u = np.array([1 << 62, 3 << 62], dtype=np.uint64)  # x = 1/4, 3/4
    assert h.periodic_q53(u, u).tolist() == [1023 << 53, -(1023 << 53)]


# -- the joining ---------------------------------------------------------------


def test_build_joining_validation(std_sys):
    with pytest.raises(ValueError):
        build_joining(std_sys, 2, 3)
    with pytest.raises(ValueError):
        build_joining(std_sys, 9, 2)
    js = build_joining(std_sys, 3, 2)
    assert js.twist == 5 and js.law.twist == 5


def test_H_for_linear_h_is_5x_plus_2alpha():
    sys = SkewSystem(ALPHA, BETA, BaseFunctionSpec(1, 0))
    js = build_joining(sys, 3, 2)
    af = float(ALPHA)
    for x, y in [(0.0, 0.0), (0.3, 0.8), (0.99, 0.01)]:
        assert math.isclose(float(js.H_value(x, y)), 5 * x + 2 * af, abs_tol=1e-12)
    lift = js.H_lift()
    xs = np.linspace(0, 1, 9)
    assert np.allclose(lift(xs, xs), 5 * xs + 2 * af, atol=1e-12)


def test_H_zero_for_zero_h():
    sys = SkewSystem(ALPHA, BETA, BaseFunctionSpec(0, 0))
    js = build_joining(sys, 3, 2)
    assert float(js.H_value(0.3, 0.7)) == 0.0
    assert float(js.H_prime(0.3, 0.7)) != 0.0  # the twist correction survives


def test_Hn_lift_matches_scalar(std_js):
    lift = std_js.Hn_lift(9)
    for x, y in [(0.1, 0.2), (0.7, 0.65)]:
        assert math.isclose(float(lift(x, y)), float(std_js.H_n_value(x, y, 9)), abs_tol=1e-9)


def test_trivialized_identity_when_trivial():
    sys = SkewSystem(FixedReal(0), FixedReal(0), BaseFunctionSpec(0, 0))
    js = build_joining(sys, 3, 2)
    pt3 = (FixedReal(0.3), FixedReal(0.6), FixedReal(0.9))
    assert js.step_trivialized(pt3) == pt3


def test_conjugacy_exact_and_float(std_js, rng):
    for _ in range(100):
        coords = rng.random(3)
        x, y, z = (FixedReal(float(v)).frac() for v in coords)
        pt = nil_point(x, y, z, std_js.law)
        lhs = rho(std_js.step_star(pt))
        rhs = std_js.step_trivialized(rho(pt))
        assert tuple(lhs) == tuple(rhs)
    for _ in range(200):
        x, y, z = (float(v) for v in rng.random(3))
        ptf = nil_point(x, y, z, std_js.law, fixed=False)
        lhs = rho(std_js.step_star(ptf))
        rhs = std_js.step_trivialized(rho(ptf))
        for a, b in zip(lhs, rhs):
            assert circle_dist(a, b) <= 1e-9


def test_Hn_prime_specializations(std_js):
    x, y = FixedReal(0.21), FixedReal(0.58)
    assert std_js.Hn_prime(x, y, 1) == std_js.H_prime(x, y)
    sys0 = SkewSystem(FixedReal(0), FixedReal(0), BaseFunctionSpec(0, 0))
    js0 = build_joining(sys0, 3, 2)
    for n in (1, 2, 5):
        assert float(js0.Hn_prime(FixedReal(0.4), FixedReal(0.9), n)) == 0.0


def test_Hn_prime_matches_step_accumulation(std_js, rng):
    for _ in range(10):
        x0, y0, z0 = (FixedReal(float(v)).frac() for v in rng.random(3))
        pt = (x0, y0, z0)
        for _ in range(10):
            pt = std_js.step_trivialized(pt)
        lift = std_js.Hn_prime(x0, y0, 10)
        expected_z = (z0 + lift).frac()
        assert pt[2] == expected_z  # exact on the fixed path


def test_commutation_with_projection(std_sys, std_js):
    pt3 = (FixedReal(0), FixedReal(0), FixedReal(0))
    for first, second in pair_orbit(std_sys, 3, 2, 32):
        g6 = (first.x, first.y, first.z, second.x, second.y, second.z)
        star = canonical_rep(project_pi(g6, 3, 2))
        pt3 = std_js.step_trivialized(pt3)
        assert tuple(rho(star)) == tuple(pt3)
