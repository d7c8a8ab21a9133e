import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nillab.fixedpoint import (
    FixedPointInexact,
    FixedReal,
    parse_real,
    sqrt_q64,
)

q64_scaled = st.integers(min_value=-(8 << 64), max_value=8 << 64)


def test_snapping_from_float():
    x = FixedReal(0.5)
    assert x.scaled == 1 << 127
    assert float(x) == 0.5
    assert FixedReal(2).scaled == 2 << 128


def test_snap_is_nearest_q64():
    # pi is irrational; the snap must land within half a quantum
    x = FixedReal(math.pi)
    assert abs(x.as_fraction() - Fraction(math.pi)) <= Fraction(1, 2**65)
    assert x.scaled % 2**64 == 0


@given(q64_scaled, q64_scaled)
def test_add_sub_exact(a, b):
    x, y = FixedReal.from_q64(a), FixedReal.from_q64(b)
    assert (x + y).as_fraction() == x.as_fraction() + y.as_fraction()
    assert (x - y).as_fraction() == x.as_fraction() - y.as_fraction()


@given(q64_scaled, q64_scaled)
def test_mul_exact_on_q64(a, b):
    x, y = FixedReal.from_q64(a), FixedReal.from_q64(b)
    assert (x * y).as_fraction() == x.as_fraction() * y.as_fraction()


def test_mul_raises_off_grid():
    fine = FixedReal.from_scaled(1)  # 2**-128, below the input grid
    with pytest.raises(FixedPointInexact):
        _ = fine * fine


def test_int_mul_always_exact():
    fine = FixedReal.from_scaled(3)
    assert (fine * 5).scaled == 15


@given(q64_scaled)
def test_floor_frac(a):
    x = FixedReal.from_q64(a)
    f = math.floor(x)
    assert f == math.floor(Fraction(a, 1 << 64))
    assert x.frac().as_fraction() == x.as_fraction() - f
    assert 0 <= x.frac() < 1


def test_floor_negative():
    assert math.floor(FixedReal(-0.25)) == -1
    assert float(FixedReal(-0.25).frac()) == 0.75


def test_exact_div():
    x = FixedReal(0.75)
    assert float(x.exact_div(3)) == 0.25
    with pytest.raises(FixedPointInexact):
        FixedReal.from_scaled(1).exact_div(3)


def test_sqrt_q64_nearest():
    for n in (2, 3, 5, 7):
        s = sqrt_q64(n)
        err = abs(s.as_fraction() ** 2 - n)
        # |s - sqrt(n)| <= 2**-65  =>  |s^2 - n| <= 2*sqrt(n)*2**-65 + 2**-130
        assert err <= Fraction(2 * 3, 1 << 65)


def test_parse_and_dyadic_roundtrip():
    for text in ("0.25", "-3", "1/4", "12345/2^30", "7640891576956012809/2^64"):
        v = parse_real(text)
        assert parse_real(v.dyadic_str()) == v
    assert parse_real("0.25").dyadic_str() == "1/2^2"


def test_comparisons_and_hash():
    assert FixedReal(1) == 1
    assert FixedReal(0.5) < 1
    assert FixedReal(0.5) == parse_real("1/2^1")
    assert hash(FixedReal(0.5)) == hash(FixedReal("0.5"))


def test_u64_lanes():
    v = FixedReal(0.5) + FixedReal.from_scaled(7)
    hi, lo = v.frac_lanes()
    assert hi == 1 << 63 and lo == 7
    with pytest.raises(FixedPointInexact):
        v.frac_u64()
    assert FixedReal(0.5).frac_u64() == 1 << 63
