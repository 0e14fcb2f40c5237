"""Unit tests for the bit-exact IEEE-754 binary32 helpers."""

import math

import numpy as np
import pytest

from repro.softfloat.ieee754 import (
    Float32,
    RoundingMode,
    bits_to_float,
    float_to_bits,
    next_after_bits,
    split_and_round,
    ulp,
)


class TestBitConversions:
    def test_float_to_bits_known_values(self):
        assert float_to_bits(0.0) == 0x00000000
        assert float_to_bits(1.0) == 0x3F800000
        assert float_to_bits(-2.0) == 0xC0000000
        assert float_to_bits(0.5) == 0x3F000000

    def test_bits_to_float_round_trip(self):
        for value in (0.0, 1.0, -1.0, 3.14159, 1e-30, -1e30, 65504.0):
            bits = float_to_bits(value)
            assert float_to_bits(bits_to_float(bits)) == bits

    def test_bits_to_float_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bits_to_float(1 << 32)

    def test_next_after_increments_magnitude(self):
        bits = float_to_bits(1.0)
        up = next_after_bits(bits, +1)
        assert bits_to_float(up) > 1.0
        down = next_after_bits(bits, -1)
        assert bits_to_float(down) < 1.0

    def test_next_after_from_zero(self):
        smallest = next_after_bits(float_to_bits(0.0), +1)
        assert bits_to_float(smallest) == 2.0**-149

    def test_ulp_of_one(self):
        assert ulp(1.0) == 2.0**-23

    def test_ulp_of_zero_is_smallest_subnormal(self):
        assert ulp(0.0) == 2.0**-149

    def test_ulp_of_inf(self):
        assert math.isinf(ulp(float("inf")))


class TestFloat32Fields:
    def test_parts_of_one(self):
        f = Float32.from_float(1.0)
        assert (f.sign, f.biased_exponent, f.mantissa) == (0, 127, 0)

    def test_from_parts_round_trip(self):
        f = Float32.from_parts(1, 130, 0x400000)
        assert f.to_float() == -12.0

    def test_classification(self):
        assert Float32.from_float(0.0).is_zero
        assert Float32.from_float(1.5).is_normal
        assert Float32(0x00000001).is_subnormal
        assert Float32.inf().is_inf
        assert Float32.nan().is_nan
        assert not Float32.nan().is_finite

    def test_significand_includes_hidden_bit(self):
        assert Float32.from_float(1.0).significand() == 1 << 23
        assert Float32.from_float(1.5).significand() == 3 << 22

    def test_value_reconstruction_from_fields(self, subtests=None):
        for value in (1.0, -3.25, 0.1, 1e-40, 123456.789):
            f = Float32.from_float(value)
            reconstructed = (
                (-1) ** f.sign * f.significand() * 2.0 ** f.unbiased_exponent()
            )
            assert reconstructed == f.to_float()

    def test_invalid_constructions(self):
        with pytest.raises(ValueError):
            Float32(-1)
        with pytest.raises(ValueError):
            Float32.from_parts(2, 0, 0)
        with pytest.raises(ValueError):
            Float32.from_parts(0, 256, 0)
        with pytest.raises(ValueError):
            Float32.from_parts(0, 0, 1 << 23)


class TestExactOperations:
    def test_mul_exact_simple(self):
        a = Float32.from_float(3.0)
        b = Float32.from_float(0.5)
        sig, exp = a.mul_exact(b)
        assert sig * 2.0**exp == 1.5

    def test_mul_exact_sign(self):
        a = Float32.from_float(-2.0)
        b = Float32.from_float(4.0)
        sig, exp = a.mul_exact(b)
        assert sig < 0
        assert sig * 2.0**exp == -8.0

    def test_mul_exact_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Float32.inf().mul_exact(Float32.from_float(1.0))

    def test_to_fixed_round_trip(self):
        f = Float32.from_float(5.75)
        assert f.to_fixed(-10) == int(5.75 * 2**10)

    def test_to_fixed_rejects_precision_loss(self):
        f = Float32.from_float(0.5)
        with pytest.raises(OverflowError):
            f.to_fixed(0)


class TestFromFixed:
    def test_exact_integers(self):
        for value in (1, 2, 3, 255, 1 << 20):
            assert Float32.from_fixed(value, 0).to_float() == float(value)

    def test_negative_values(self):
        assert Float32.from_fixed(-7, 0).to_float() == -7.0

    def test_rounding_to_nearest_even(self):
        # 2^24 + 1 is not representable; ties round to even (down here).
        assert Float32.from_fixed((1 << 24) + 1, 0).to_float() == float(1 << 24)
        # 2^24 + 3 rounds up to 2^24 + 4.
        assert Float32.from_fixed((1 << 24) + 3, 0).to_float() == float((1 << 24) + 4)

    def test_overflow_to_infinity(self):
        assert Float32.from_fixed(1, 200).is_inf

    def test_underflow_to_zero(self):
        assert Float32.from_fixed(1, -400).is_zero

    def test_subnormal_result(self):
        f = Float32.from_fixed(3, -149)
        assert f.is_subnormal
        assert f.to_float() == 3 * 2.0**-149

    def test_matches_numpy_rounding(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            value = float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))
            mine = Float32.round_exact(value).to_float()
            theirs = float(np.float32(value))
            assert mine == theirs or (math.isnan(mine) and math.isnan(theirs))

    def test_directed_rounding_modes(self):
        value = (1 << 24) + 1  # halfway between representables
        up = Float32.from_fixed(value, 0, RoundingMode.TOWARD_POSITIVE)
        down = Float32.from_fixed(value, 0, RoundingMode.TOWARD_ZERO)
        assert up.to_float() > down.to_float()


class TestSplitAndRound:
    def test_no_shift(self):
        assert split_and_round(10, 0, 0) == 10

    def test_exact_shift(self):
        assert split_and_round(8, 2, 0) == 2

    def test_round_half_to_even(self):
        assert split_and_round(0b110, 2, 0) == 0b10  # 1.5 -> 2 (even)
        assert split_and_round(0b1010, 2, 0) == 0b10  # 2.5 -> 2 (even)

    def test_directed_modes(self):
        assert split_and_round(5, 1, 0, RoundingMode.TOWARD_ZERO) == 2
        assert split_and_round(5, 1, 0, RoundingMode.TOWARD_POSITIVE) == 3
        assert split_and_round(5, 1, 1, RoundingMode.TOWARD_POSITIVE) == 2
        assert split_and_round(5, 1, 1, RoundingMode.TOWARD_NEGATIVE) == 3
