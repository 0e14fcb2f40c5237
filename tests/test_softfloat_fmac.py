"""Tests of the reference FMAC chains and the error metrics."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.softfloat import (
    Float32,
    dot_product_float32,
    dot_product_pcs,
    fmac_chain_exact,
    fmac_chain_float32,
    fmac_chain_pcs,
    max_abs_error,
    relative_rmse,
    rmse,
    ulp_error,
)
from repro.softfloat.fmac import exact_dot, fixed_to_float


class TestChains:
    def test_exact_chain_matches_fraction(self, rng):
        a = rng.standard_normal(50).astype(np.float32)
        b = rng.standard_normal(50).astype(np.float32)
        expected = sum(
            Fraction(float(x)) * Fraction(float(y)) for x, y in zip(a, b)
        )
        assert fmac_chain_exact(a, b) == expected

    def test_pcs_chain_is_correctly_rounded_exact_sum(self, rng):
        a = rng.standard_normal(100).astype(np.float32)
        b = rng.standard_normal(100).astype(np.float32)
        exact = fmac_chain_exact(a, b)
        assert fmac_chain_pcs(a, b) == float(np.float32(float(exact)))

    def test_float32_chain_error_at_least_as_large(self, rng):
        a = rng.standard_normal(500).astype(np.float32)
        b = rng.standard_normal(500).astype(np.float32)
        exact = float(fmac_chain_exact(a, b))
        err_f32 = abs(fmac_chain_float32(a, b) - exact)
        err_pcs = abs(fmac_chain_pcs(a, b) - exact)
        assert err_pcs <= err_f32 + 1e-12

    def test_chains_agree_on_short_exact_data(self):
        a = [1.0, 2.0, 3.0]
        b = [4.0, 5.0, 6.0]
        assert dot_product_float32(a, b) == 32.0
        assert dot_product_pcs(a, b) == 32.0

    def test_init_value_used(self):
        assert fmac_chain_pcs([1.0], [1.0], init=5.0) == 6.0
        assert fmac_chain_float32([1.0], [1.0], init=5.0) == 6.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fmac_chain_pcs([1.0, 2.0], [1.0])


# --------------------------------------------------------------------------- #
# Fraction oracle: the chains as they were written with rational arithmetic.  #
# --------------------------------------------------------------------------- #


def _oracle_pairs(a, b):
    av = np.asarray(a, dtype=np.float32).ravel()
    bv = np.asarray(b, dtype=np.float32).ravel()
    return [
        (Float32.from_float(float(x)), Float32.from_float(float(y)))
        for x, y in zip(av, bv)
    ]


def _oracle_round_to_float32(value: Fraction) -> float:
    """Round an exact rational to binary32 through a 64-bit sticky quotient."""
    if value == 0:
        return 0.0
    num, den = value.numerator, value.denominator
    negative = num < 0
    num = abs(num)
    precision = 64
    shift = precision - (num.bit_length() - den.bit_length())
    if shift > 0:
        num <<= shift
    else:
        den <<= -shift
    quotient, remainder = divmod(num, den)
    if remainder:
        quotient |= 1  # sticky bit
    fixed = -quotient if negative else quotient
    return Float32.from_fixed(fixed, -shift).to_float()


def oracle_chain_float32(a, b, init=0.0) -> float:
    acc = float(np.float32(init))
    for fa, fb in _oracle_pairs(a, b):
        exact_step = Fraction(acc) + Fraction(fa.to_float()) * Fraction(fb.to_float())
        acc = _oracle_round_to_float32(exact_step)
    return acc


def oracle_chain_exact(a, b, init=0.0) -> Fraction:
    total = Fraction(float(np.float32(init)))
    for fa, fb in _oracle_pairs(a, b):
        total += Fraction(fa.to_float()) * Fraction(fb.to_float())
    return total


def _bits(value: float) -> bytes:
    """The binary64 bit pattern, so ``-0.0`` and ``0.0`` differ."""
    return struct.pack("<d", value)


# Operands stay below 2**61 in magnitude, so no chain of up to 16 products
# overflows binary32 and the oracle (which cannot take infinities) applies.
_FINITE32 = st.floats(width=32, min_value=-(2.0**60), max_value=2.0**60)
# Full 24-bit significands at exponents 2**-83 … 2**60: products spread
# over roughly 2**-166 … 2**122.
_WIDE32 = st.builds(
    lambda m, e: math.ldexp(m, e - 23),
    st.integers(-(2**24 - 1), 2**24 - 1),
    st.integers(-60, 60),
)
# Small integers and signed zeros make exact (cancelling) sums likely.
_SMALL = st.one_of(st.integers(-8, 8).map(float), st.just(-0.0))
_OPERAND = st.one_of(_FINITE32, _WIDE32, _SMALL)
_INIT = st.one_of(st.just(0.0), st.just(-0.0), _OPERAND)


@st.composite
def _chains(draw):
    """(a, b, init): a plain chain, or one whose products cancel exactly."""
    pairs = draw(st.lists(st.tuples(_OPERAND, _OPERAND), max_size=8))
    if draw(st.booleans()):
        terms = pairs + [(-x, y) for x, y in pairs]
        order = draw(st.permutations(range(len(terms))))
        pairs = [terms[i] for i in order]
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    return a, b, draw(_INIT)


def _assert_matches_oracle(case):
    a, b, init = case
    assert _bits(fmac_chain_float32(a, b, init)) == _bits(
        oracle_chain_float32(a, b, init)
    )
    assert fmac_chain_exact(a, b, init) == oracle_chain_exact(a, b, init)


class TestIntegerChainAgainstFractionOracle:
    """The integer chains are bit-equal to the rational-arithmetic ones."""

    @seed(20190317)
    @settings(max_examples=300, deadline=None)
    @given(case=_chains())
    def test_differential_fuzz(self, case):
        _assert_matches_oracle(case)

    @pytest.mark.slow
    @seed(1719)
    @settings(max_examples=2500, deadline=None)
    @given(case=_chains())
    def test_differential_fuzz_deep(self, case):
        _assert_matches_oracle(case)

    def test_exact_cancellation_gives_positive_zero(self):
        a = [3.0, 1.5, -3.0, -1.5]
        b = [2.0, 4.0, 2.0, 4.0]
        for init in (0.0, -0.0):
            assert _bits(fmac_chain_float32(a, b, init)) == _bits(0.0)
            assert _bits(oracle_chain_float32(a, b, init)) == _bits(0.0)

    def test_underflow_keeps_the_sign(self):
        tiny = 2.0**-100
        assert _bits(fmac_chain_float32([-tiny], [tiny])) == _bits(-0.0)
        assert _bits(oracle_chain_float32([-tiny], [tiny])) == _bits(-0.0)

    def test_binary64_reference_is_correctly_rounded(self, rng):
        a = rng.standard_normal(40) * 10.0 ** rng.uniform(-30, 30, 40)
        b = rng.standard_normal(40) * 10.0 ** rng.uniform(-30, 30, 40)
        expected = float(sum(Fraction(x) * Fraction(y) for x, y in zip(a, b)))
        assert fixed_to_float(*exact_dot(a.tolist(), b.tolist())) == expected


class TestNonFiniteChains:
    """``fmac_chain_float32`` follows IEEE FMA rules for inf and NaN."""

    @pytest.mark.parametrize(
        "a, b, init, expected",
        [
            pytest.param([3e38, 3e38], [2.0, 2.0], 0.0, math.inf, id="overflow"),
            pytest.param([-3e38], [2.0], 0.0, -math.inf, id="negative-overflow"),
            pytest.param([math.inf, 1.0], [2.0, 1.0], 0.0, math.inf, id="inf-operand"),
            pytest.param([1.0, 2.0], [1.0, 1.0], -math.inf, -math.inf, id="inf-init"),
            pytest.param([1.0, math.nan], [1.0, 1.0], 0.0, math.nan, id="nan-operand"),
            pytest.param([1.0], [1.0], math.nan, math.nan, id="nan-init"),
            pytest.param([math.inf], [0.0], 0.0, math.nan, id="inf-times-zero"),
            pytest.param(
                [math.inf, -math.inf], [1.0, 1.0], 0.0, math.nan, id="inf-minus-inf"
            ),
        ],
    )
    def test_ieee_result_matches_pcs_chain(self, a, b, init, expected):
        result = fmac_chain_float32(a, b, init)
        pcs = fmac_chain_pcs(a, b, init)
        if math.isnan(expected):
            assert math.isnan(result) and math.isnan(pcs)
        else:
            assert result == expected == pcs

    def test_overflowed_accumulator_stays_infinite(self):
        """Once a step rounds to inf, later finite products cannot undo it;
        the PCS chain rounds the exact sum (zero) once instead."""
        a, b = [3e38, -3e38], [2.0, 2.0]
        assert fmac_chain_float32(a, b) == math.inf
        assert fmac_chain_pcs(a, b) == 0.0

    def test_overflow_then_opposite_infinity_is_nan(self):
        assert math.isnan(fmac_chain_float32([3e38, -math.inf], [2.0, 1.0]))


class TestErrorMetrics:
    def test_rmse_zero_for_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_rmse_known_value(self):
        assert rmse([1.0, 3.0], [0.0, 0.0]) == pytest.approx(math.sqrt(5.0))

    def test_relative_rmse(self):
        assert relative_rmse([2.0], [1.0]) == pytest.approx(1.0)

    def test_relative_rmse_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            relative_rmse([1.0], [0.0])

    def test_max_abs_error(self):
        assert max_abs_error([1.0, 5.0], [1.0, 2.0]) == 3.0

    def test_metrics_reject_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            max_abs_error([1.0], [1.0, 2.0])

    def test_metrics_reject_empty(self):
        with pytest.raises(ValueError):
            rmse([], [])

    def test_ulp_error(self):
        errors = ulp_error([1.0 + 2.0**-23], [1.0])
        assert errors[0] == pytest.approx(1.0)
