import math
from fractions import Fraction

import numpy as np
import pytest

from nillab.dynamics import BaseFunctionSpec, SkewSystem, TrigTerm, build_joining
from nillab.diagnostics import (
    boundary_increment_Fn,
    coboundary_residual,
    coboundary_search,
    lipschitz_estimate,
    proof_constants,
    weyl_sums,
    winding_in_x,
)
from nillab.fixedpoint import FixedReal, sqrt_q64

ALPHA = sqrt_q64(2) - 1
BETA = sqrt_q64(3) - 1
AF, BF = float(ALPHA), float(BETA)


def linear_system(d1=1, d2=0, terms=()):
    return SkewSystem(ALPHA, BETA, BaseFunctionSpec(d1, d2, terms))


# -- winding ---------------------------------------------------------------------


def test_winding_H_linear():
    js = build_joining(linear_system(), 3, 2)
    assert winding_in_x(js.H_lift(), 0.3, js.lipschitz_H) == 5


def test_winding_zero_degree():
    js = build_joining(linear_system(d1=0, terms=(TrigTerm(1, 0, 0.1),)), 3, 2)
    for n in (1, 3, 10):
        assert winding_in_x(js.Hn_lift(n), 0.5, n * js.lipschitz_H) == 0


def test_winding_deep_iterate():
    js = build_joining(linear_system(d1=2, d2=1), 5, 3)
    assert winding_in_x(js.Hn_lift(7), 0.123, 7 * js.lipschitz_H) == 7 * 16 * 2


def test_winding_law_sampled_pairs():
    for (p, q) in ((3, 2), (5, 2), (7, 5), (13, 11)):
        for d1 in (0, 1, 3):
            js = build_joining(linear_system(d1=d1, terms=(TrigTerm(1, 1, 0.02),)), p, q)
            for n in (1, 4):
                w = winding_in_x(js.Hn_lift(n), 0.37, n * js.lipschitz_H)
                assert w == n * (p * p - q * q) * d1


def test_winding_rejects_non_integer_increment():
    # a function that is not a closed loop: lift(1) - lift(0) = 0.5
    with pytest.raises(ValueError):
        winding_in_x(lambda x, y: 0.5 * np.asarray(x), 0.0, 1.0)


def test_winding_mesh_refinement_failure():
    # increments never settle below 1/2 on any mesh refinement
    rng = np.random.default_rng(0)

    def noisy(x, y):
        return rng.random(np.asarray(x).shape) * 10

    with pytest.raises(ValueError):
        winding_in_x(noisy, 0.0, 1.0, max_refine=3)


# -- lipschitz ---------------------------------------------------------------------


def test_lipschitz_linear_lift():
    js = build_joining(linear_system(), 3, 2)
    est = lipschitz_estimate(js.H_lift(), 64)
    assert abs(est - 5.0) <= 1e-9 * 5


def test_lipschitz_constant_zero():
    assert lipschitz_estimate(lambda x, y: np.zeros_like(np.asarray(x)), 32) == 0.0


def test_lipschitz_growth_law():
    h = BaseFunctionSpec(1, 0, (TrigTerm(1, 0, 0.1),))
    js = build_joining(SkewSystem(ALPHA, BETA, h), 3, 2)
    n = 20
    est = lipschitz_estimate(js.Hn_lift(n), 256)
    assert est <= n * (9 + 4) * h.L * (1 + 1e-6)


def test_lipschitz_requires_mesh():
    with pytest.raises(ValueError):
        lipschitz_estimate(lambda x, y: x, 1)


# -- boundary increment -------------------------------------------------------------


def test_boundary_increment_example():
    js = build_joining(linear_system(), 3, 2)
    inc = boundary_increment_Fn(js, 1, 10, 0.4)
    expect = 50 - 50 * BF - math.floor(10 * BF)
    assert abs(inc - expect) <= 1e-6
    assert abs(expect - 6.3975) < 1e-3  # beta ~ 0.7320508


def test_boundary_increment_trivial_system():
    sys0 = SkewSystem(FixedReal(0), FixedReal(0), BaseFunctionSpec(0, 0))
    js0 = build_joining(sys0, 3, 2)
    assert boundary_increment_Fn(js0, 1, 5, 0.2) == 0.0


def test_boundary_increment_y_independent():
    js = build_joining(linear_system(terms=(TrigTerm(1, 2, 0.07, 0.1),)), 5, 3)
    vals = [boundary_increment_Fn(js, 2, 11, float(y)) for y in np.linspace(0, 0.95, 10)]
    assert max(vals) - min(vals) <= 1e-6


def test_boundary_increment_rejects_bad_y():
    js = build_joining(linear_system(), 3, 2)
    with pytest.raises(ValueError):
        boundary_increment_Fn(js, 1, 5, 1.2)


# -- proof constants -----------------------------------------------------------------


def test_proof_constants_reference_values():
    pc = proof_constants(1, 3, 2, 1, AF, BF, 1.0)
    assert abs(pc.discriminant - 0.607695) < 1e-6
    assert abs(pc.delta1 - 9.075e-4) < 1e-6
    assert abs(pc.nu - 9.873) < 1e-3
    assert pc.delta1 > 0 and math.isfinite(pc.nu)


def test_proof_constants_exact_rational_recompute():
    """Independent recomputation in exact rational arithmetic to 12 digits."""
    k, p, q, d1, L = 1, 3, 2, 1, 1.0
    pc = proof_constants(k, p, q, d1, ALPHA, BETA, L)
    a = ALPHA.as_fraction()
    b = BETA.as_fraction()
    c = p * p - q * q
    disc = abs(Fraction(k * c * d1) - k * c * b - b)
    delta1 = disc / (24 * k * (p * p + q * q) * (Fraction(L) + abs(a) + abs(b)))
    nu = 6 / disc
    assert abs(pc.discriminant - float(disc)) <= 1e-12 * float(disc)
    assert abs(pc.delta1 - float(delta1)) <= 1e-12 * float(delta1)
    assert abs(pc.nu - float(nu)) <= 1e-12 * float(nu)


def test_proof_constants_scaling_in_k():
    pc2 = proof_constants(2, 3, 2, 1, AF, BF, 1.0)
    assert abs(pc2.discriminant - abs(10 - 10 * BF - BF)) < 1e-12


def test_proof_constants_zero_discriminant():
    # beta = k c d1 / (k c + 1) = 15/6 = 2.5 is dyadic: the resonance is exact
    with pytest.raises(ValueError):
        proof_constants(1, 3, 2, 3, 0.3, 2.5, 1.0)


def test_proof_constants_rejects_bad_pair():
    with pytest.raises(ValueError):
        proof_constants(1, 4, 2, 1, AF, BF, 1.0)
    with pytest.raises(ValueError):
        proof_constants(0, 3, 2, 1, AF, BF, 1.0)


# -- coboundary search ----------------------------------------------------------------


def test_coboundary_zero_cocycle():
    rep = coboundary_residual(lambda x, y: np.zeros_like(x), AF, BF, 1, 8)
    assert rep.residual == 0.0


def test_coboundary_recovers_synthesized():
    def r0(x, y):
        return (0.3 * np.sin(2 * np.pi * (x + 0.2))
                + 0.11 * np.cos(2 * np.pi * (2 * x - 3 * y)))

    def g(x, y):
        return r0(x + AF, y + BF) - r0(x, y)

    rep = coboundary_residual(g, AF, BF, 1, 16)
    assert rep.residual <= 1e-6
    assert rep.skipped_modes == ()


def test_coboundary_standard_config_obstructed(std_js):
    rep = coboundary_search(std_js, 1, 16)
    assert rep.residual >= 0.1


def test_coboundary_skips_resonant_modes():
    # alpha rational: the (q, 0) denominators vanish and must be skipped
    rep = coboundary_residual(
        lambda x, y: np.sin(2 * np.pi * x), 0.5, BF, 1, 4
    )
    assert (2, 0) in rep.skipped_modes


def _coboundary_by_mode_loop(g_fn, alpha, beta, k, cutoff):
    """Reference: the coboundary residual solved one Fourier mode at a time."""
    grid = max(64, 4 * cutoff)
    xs = np.arange(grid) / grid
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    g_c = np.asarray(g_fn(gx, gy), dtype=np.float64)
    coeffs = np.fft.fft2(k * g_c) / (grid * grid)
    freqs = np.fft.fftfreq(grid, d=1.0 / grid).astype(np.int64)
    solved = np.zeros_like(coeffs)
    skipped = []
    n_solved = 0
    for i, m in enumerate(freqs):
        for j, n in enumerate(freqs):
            if abs(m) > cutoff or abs(n) > cutoff or (m == 0 and n == 0):
                continue
            denom = np.exp(2j * math.pi * (m * alpha + n * beta)) - 1.0
            if abs(denom) < 1e-9:
                skipped.append((int(m), int(n)))
            else:
                solved[i, j] = coeffs[i, j] / denom
                n_solved += 1
    phase = np.exp(2j * math.pi * (freqs[:, None] * alpha + freqs[None, :] * beta))
    shifted = np.fft.ifft2(solved * phase) * (grid * grid)
    defect = np.real(shifted - np.fft.ifft2(solved) * (grid * grid)) - k * g_c
    residual = float(np.sqrt(np.mean(np.abs(defect - np.rint(defect)) ** 2)))
    return residual, n_solved, tuple(skipped)


@pytest.mark.parametrize("case", ["joining", "resonant", "winding"])
def test_coboundary_matches_the_mode_loop(std_js, case):
    """The array solve gives the mode loop's residual bits, solved count and
    skipped modes in loop order, also where near-resonant modes are skipped."""
    args = {
        "joining": (std_js.H_prime_arrays, std_js.base.alpha_f, std_js.base.beta_f, 1, 16),
        "resonant": (lambda x, y: x + 0.3 * np.sin(2 * np.pi * y)
                     + 0.1 * np.cos(2 * np.pi * (x - y)), 0.25, 0.5, 2, 8),
        "winding": (lambda x, y: 2 * x + 0.05 * np.sin(2 * np.pi * (3 * x + y)),
                    0.1234567, 0.7654321, 1, 20),
    }[case]
    rep = coboundary_residual(*args)
    residual, n_solved, skipped = _coboundary_by_mode_loop(*args)
    assert rep.residual.hex() == residual.hex()
    assert (rep.solved_modes, rep.skipped_modes) == (n_solved, skipped)
    assert (case == "resonant") == bool(skipped)


def test_coboundary_validation(std_js):
    with pytest.raises(ValueError):
        coboundary_search(std_js, 0, 8)
    with pytest.raises(ValueError):
        coboundary_search(std_js, 1, 0)


# -- weyl sums ----------------------------------------------------------------------


def test_weyl_geometric_oracle(std_js):
    reports = weyl_sums(std_js, None, [(1, 0, 0)], [10**4])
    got = reports[0].checkpoints[-1].modulus
    closed = abs(math.sin(math.pi * 10**4 * AF) / (10**4 * math.sin(math.pi * AF)))
    assert abs(got - closed) <= 1e-9
    assert got <= 1 / (2 * 10**4 * min(AF % 1, 1 - AF % 1)) + 1e-6


def test_weyl_fixed_point_of_trivial_system():
    sys0 = SkewSystem(FixedReal(0), FixedReal(0), BaseFunctionSpec(0, 0))
    js0 = build_joining(sys0, 3, 2)
    reports = weyl_sums(js0, None, [(1, 1, 1)], [10, 100])
    for cp in reports[0].checkpoints:
        assert abs(cp.modulus - 1.0) <= 1e-12


def test_weyl_rejects_zero_frequency(std_js):
    with pytest.raises(ValueError):
        weyl_sums(std_js, None, [(0, 0, 0)], [100])


def test_weyl_rejects_no_frequencies(std_js):
    with pytest.raises(ValueError, match="one or more nonzero frequencies"):
        weyl_sums(std_js, None, [], [100])


@pytest.mark.parametrize("checkpoints", [[1000, 100], [100, 100]])
def test_weyl_rejects_unordered_checkpoints(std_js, checkpoints):
    with pytest.raises(ValueError, match="strictly increasing"):
        weyl_sums(std_js, None, [(1, 0, 0)], checkpoints)


def test_weyl_values_in_unit_interval(std_js):
    reports = weyl_sums(std_js, None, [(1, 0, 0), (0, 0, 1)], [100, 1000])
    for rep in reports:
        for cp in rep.checkpoints:
            assert 0 <= cp.modulus <= 1 + 1e-12
