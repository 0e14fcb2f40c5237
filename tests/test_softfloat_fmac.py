"""Tests of the reference FMAC chains and the error metrics."""

import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.softfloat import (
    Float32,
    PcsAccumulator,
    PcsConfig,
    fmac_chain_exact,
    fmac_chain_float32,
    fmac_chain_pcs,
    fmac_chains_float32,
    fmac_chains_pcs,
    max_abs_error,
    relative_rmse,
    rmse,
    ulp_error,
)
import repro.softfloat.fmac as fmac_module
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
        assert fmac_chain_float32(a, b) == 32.0
        assert fmac_chain_pcs(a, b) == 32.0

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

    def test_out_of_range_operands_round_to_inf_silently(self):
        """Rounding a binary64 operand beyond the binary32 range gives the
        IEEE ±inf, with no NumPy overflow warning from the cast."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fmac_chain_float32([1e300], [1.0]) == math.inf
            assert fmac_chain_float32([1.0], [1.0], init=-1e300) == -math.inf
            assert fmac_chain_pcs([-1e300], [1.0]) == -math.inf
            assert fmac_chains_float32([[1e300], [1.0]], [[1.0], [1e300]]).tolist() == [
                math.inf, math.inf
            ]

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


def _same(x: float, y: float) -> bool:
    """Bit-equal binary64 patterns; any NaN equals any NaN."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return _bits(x) == _bits(y)


def _tie_factors(rng) -> tuple[int, int]:
    """Two integers below 2**24 whose product is an odd 25-bit integer: a
    product halfway between two adjacent binary32 values."""
    while True:
        m = (1 << 24) + 2 * int(rng.integers(0, 1 << 23)) + 1
        f = next((f for f in range(3, 4097, 2) if m % f == 0), None)
        if f is not None:
            return f, m // f


def _fuzz_rows(rng, rows: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Binary32 operands at decimal exponents ±30, each row one of five
    kinds: plain, exactly cancelling pairs, overflowing mid-chain, with
    inf/NaN operands, or starting with a tiny product and a product that
    lies exactly halfway between two binary32 values (the case that plain
    binary64 double rounding gets wrong)."""
    # Per-row decade spread: wide rows overflow binary32 on their own,
    # narrow ones mostly stay finite and exercise the rounding.
    spread = rng.choice([1.0, 10.0, 20.0, 30.0], (rows, 1))

    def draw():
        magnitude = 10.0 ** (spread * rng.uniform(-1, 1, (rows, steps)))
        return (rng.choice([-1.0, 1.0], (rows, steps)) * magnitude).astype(np.float32)

    a, b = draw(), draw()
    a[rng.random((rows, steps)) < 0.05] = 0.0
    b[rng.random((rows, steps)) < 0.05] = -0.0
    kind = rng.integers(0, 5, rows)
    # x[2k+1]*y[2k+1] == -x[2k]*y[2k]: the exact sum is init alone.
    pairs = steps // 2 * 2
    cancel = kind == 1
    a[cancel, 1:pairs:2] = -a[cancel, 0:pairs:2]
    b[cancel, 1:pairs:2] = b[cancel, 0:pairs:2]
    if steps:
        big = np.flatnonzero(kind == 2)
        at = rng.integers(0, steps, big.size)
        a[big, at] = np.float32(3e38) * rng.choice([-1, 1], big.size)
        b[big, at] = 2.0
        odd = np.flatnonzero(kind == 3)
        at = rng.integers(0, steps, odd.size)
        a[odd, at] = rng.choice([np.inf, -np.inf, np.nan], odd.size)
        times_zero = rng.random(odd.size) < 0.25
        b[odd[times_zero], at[times_zero]] = 0.0  # inf * 0 is NaN
    if steps >= 2:
        for row in np.flatnonzero(kind == 4):
            scale = int(rng.integers(-60, 40))
            a[row, 0] = math.ldexp(rng.choice([-1.0, 1.0]), scale - int(rng.integers(26, 80)))
            b[row, 0] = 1.0
            f, g = _tie_factors(rng)
            a[row, 1] = math.ldexp(f, scale - 24)
            b[row, 1] = g
    return a, b


def _assert_rows_match_scalar_chain(a, b, init):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = fmac_chains_float32(a, b, init)
        expected = [fmac_chain_float32(x, y, init) for x, y in zip(a, b)]
    assert batched.dtype == np.float32 and batched.shape == (a.shape[0],)
    for row, (got, want) in enumerate(zip(batched.tolist(), expected)):
        assert _same(got, want), (row, a[row].tolist(), b[row].tolist(), init)


class TestBatchedFloat32Chains:
    """``fmac_chains_float32`` is ``fmac_chain_float32`` on every row."""

    @pytest.mark.parametrize("steps", range(41))
    def test_fuzz_against_the_scalar_chain(self, steps):
        rng = np.random.default_rng(8000 + steps)
        for init in (0.0, -0.0, float(np.float32(10.0 ** rng.uniform(-30, 30)))):
            _assert_rows_match_scalar_chain(*_fuzz_rows(rng, 160, steps), init)

    @pytest.mark.slow
    @pytest.mark.parametrize("steps", range(41))
    def test_fuzz_against_the_scalar_chain_deep(self, steps):
        rng = np.random.default_rng(9000 + steps)
        for init in (0.0, -0.0, 1e-30, -3e38, math.inf, math.nan):
            _assert_rows_match_scalar_chain(*_fuzz_rows(rng, 512, steps), init)

    def test_empty_chain_returns_init(self):
        empty = np.zeros((3, 0), dtype=np.float32)
        for init in (0.0, -0.0, 1.5, -math.inf):
            result = fmac_chains_float32(empty, empty, init)
            assert all(_bits(v) == _bits(init) for v in result.tolist())

    def test_exact_zero_sum_is_positive(self):
        # Cancelling products, and -0 + (-0) (binary64 keeps that one -0).
        a = np.array([[3.0, -3.0], [-0.0, 0.0], [-0.0, -0.0]], dtype=np.float32)
        b = np.array([[2.0, 2.0], [1.0, 1.0], [1.0, 1.0]], dtype=np.float32)
        for init in (0.0, -0.0):
            assert [_bits(v) for v in fmac_chains_float32(a, b, init).tolist()] == [
                _bits(0.0)
            ] * 3

    def test_overflowed_row_stays_infinite_without_warnings(self):
        # float64 nextafter(inf) would be finite: the non-finite mask keeps
        # the IEEE sum instead.
        a = np.array([[3e38, -3e38, 1.0], [3e38, -np.inf, 1.0]], dtype=np.float32)
        b = np.array([[2.0, 1.0, 1.0], [2.0, 1.0, 1.0]], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fmac_chains_float32(a, b).tolist()
        assert result[0] == math.inf and math.isnan(result[1])

    def test_rejects_mismatched_or_flat_operands(self):
        with pytest.raises(ValueError):
            fmac_chains_float32(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            fmac_chains_float32(np.zeros(3), np.zeros(3))


def _pcs_walk(a, b, init=0.0, config=None) -> float:
    """The PCS chain step by step: one ``PcsAccumulator.fma`` per product."""
    acc = PcsAccumulator(config)
    acc.init_from(float(np.float32(init)))
    for x, y in zip(
        np.asarray(a, dtype=np.float32).tolist(),
        np.asarray(b, dtype=np.float32).tolist(),
    ):
        acc.fma(x, y)
    return acc.to_float()


@pytest.fixture
def walks(monkeypatch) -> list:
    """Counts the accumulators ``fmac_chain_pcs`` builds (one per walk)."""
    built = []

    class Counting(PcsAccumulator):
        def __init__(self, config=None):
            built.append(config)
            super().__init__(config)

    monkeypatch.setattr(fmac_module, "PcsAccumulator", Counting)
    return built


class TestPcsShortcut:
    """``fmac_chain_pcs`` rounds the exact sum once where the walk would,
    and walks the accumulator everywhere else."""

    @pytest.mark.parametrize("steps", [0, 1, 2, 9, 39])
    def test_fuzz_against_the_walk(self, steps, walks):
        rng = np.random.default_rng(7000 + steps)
        a, b = _fuzz_rows(rng, 96, steps)
        subnormal = np.float32(2.0**-140) * rng.integers(-(2**9), 2**9, (96, steps))
        a[::4] = subnormal[::4]
        for init in (0.0, -0.0, float(np.float32(rng.uniform(-1e20, 1e20)))):
            for x, y in zip(a, b):
                finite = bool(np.isfinite(x).all() and np.isfinite(y).all())
                before = len(walks)
                assert _same(fmac_chain_pcs(x, y, init), _pcs_walk(x, y, init))
                assert len(walks) - before == (0 if finite else 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_edge_case_fuzz_against_the_walk(self, seed, walks):
        """Rows built to hit each rounding edge of the one-rounding
        shortcut, each bit-equal to the walk without walking."""
        rng = np.random.default_rng(7100 + seed)
        flt_max = float(np.finfo(np.float32).max)
        half_ulp_max = 2.0**103  # FLT_MAX + this ties to 2**128: inf
        cases = []
        for _ in range(48):
            steps = int(rng.integers(1, 12))
            kind = int(rng.integers(0, 6))
            a = (rng.standard_normal(steps) * 10.0 ** rng.uniform(-3, 3, steps)).tolist()
            b = (rng.standard_normal(steps) * 10.0 ** rng.uniform(-3, 3, steps)).tolist()
            init = 0.0
            if kind == 0:  # subnormal operands, times subnormals and normals
                for k in range(steps):
                    a[k] = math.ldexp(float(rng.integers(-(2**23), 2**23)), -149)
                    if rng.random() < 0.5:
                        b[k] = math.ldexp(float(rng.integers(-(2**23), 2**23)), -149)
            elif kind == 1:  # ±0 operands: an exact zero sum is +0
                a = [float(rng.choice([0.0, -0.0])) for _ in range(steps)]
                init = float(rng.choice([0.0, -0.0]))
            elif kind == 2:  # exactly cancelling products and init
                m = [float(rng.integers(-4096, 4096)) for _ in range(steps)]
                a, b = m + [-x for x in m], [3.0] * (2 * steps)
                init = float(rng.choice([0.0, -0.0]))
            elif kind == 3:  # a sum halfway between two binary32 values
                f, g = _tie_factors(rng)
                scale = int(rng.integers(-100, 100))
                a = [math.ldexp(f, scale - 24)]
                b = [float(g)]
                if rng.random() < 0.5:  # a sticky bit far below the tie
                    a.append(math.ldexp(float(rng.choice([-1, 1])), scale - 90))
                    b.append(1.0)
            elif kind == 4:  # sums at and beyond FLT_MAX
                top = float(rng.choice([flt_max, 2.0**127, 1.5 * 2.0**127]))
                a = [top, 1.0]
                b = [1.0, float(rng.choice([half_ulp_max, -half_ulp_max, 2.0**102, 2.0**104]))]
                if rng.random() < 0.5:
                    a, b = [-x for x in a], b
            else:  # a non-zero init, on or off the products' scale
                init = float(np.float32(rng.standard_normal() * 10.0 ** rng.uniform(-30, 30)))
            cases.append((a, b, init))
        cases += [
            ([1.0, 2.0**-24], [1.0, 1.0], 0.0),  # tie to even: 1.0
            ([1.0, 2.0**-24, 2.0**-80], [1.0, 1.0, 1.0], 0.0),  # sticky: up
            ([1.0 + 2.0**-23, 2.0**-24], [1.0, 1.0], 0.0),  # tie to even: up
            ([flt_max, 1.0], [1.0, half_ulp_max], 0.0),  # inf
            ([flt_max, 1.0], [1.0, half_ulp_max - 2.0**80], 0.0),  # FLT_MAX
            ([2.0**-149], [2.0**-149], 0.0),  # below half the least subnormal
            ([2.0**-75], [-(2.0**-75)], 0.0),  # exactly half of it: -0
            ([3.0, -3.0], [2.0, 2.0], -6.0),  # init decides
            ([], [], -0.0),
        ]
        for a, b, init in cases:
            got = fmac_chain_pcs(a, b, init)
            assert _same(got, _pcs_walk(a, b, init)), (a, b, init)
        assert walks == []

    def test_subnormal_products_are_exact(self, walks):
        tiny = 2.0**-149
        a, b = [tiny, tiny, -tiny], [tiny, 1.0, 1.0]
        assert fmac_chain_pcs(a, b) == _pcs_walk(a, b) == 0.0
        assert fmac_chain_pcs([tiny, tiny], [0.75, 0.75]) == 2 * tiny
        assert walks == []

    def test_exact_zero_is_positive(self, walks):
        for init in (0.0, -0.0):
            for a, b in (([], []), ([-0.0], [1.0]), ([3.0, -3.0], [2.0, 2.0])):
                assert _bits(fmac_chain_pcs(a, b, init)) == _bits(0.0)
                assert _bits(_pcs_walk(a, b, init)) == _bits(0.0)
        assert walks == []

    def test_empty_chain_rounds_init(self, walks):
        assert fmac_chain_pcs([], [], 1.1) == _pcs_walk([], [], 1.1) == float(
            np.float32(1.1)
        )
        assert walks == []

    @pytest.mark.parametrize(
        "a, b, init",
        [
            ([1.0, math.inf], [1.0, 1.0], 0.0),
            ([math.inf, -math.inf], [1.0, 1.0], 0.0),
            ([math.inf], [0.0], 0.0),
            ([1.0, math.nan], [1.0, 1.0], 0.0),
            ([1.0], [1.0], math.nan),
            ([1.0], [1.0], -math.inf),
        ],
    )
    def test_non_finite_operands_take_the_walk(self, a, b, init, walks):
        assert _same(fmac_chain_pcs(a, b, init), _pcs_walk(a, b, init))
        assert len(walks) == 1

    def test_narrow_accumulator_keeps_overflowing(self, walks):
        narrow = PcsConfig(width=300)  # MSB at 2**2: |sum| >= 2 overflows
        assert fmac_chain_pcs([3.0], [1.0], config=narrow) == math.inf
        assert _pcs_walk([3.0], [1.0], config=narrow) == math.inf
        assert fmac_chain_pcs([0.75], [1.0], config=narrow) == 0.75
        assert walks == [narrow, narrow]

    def test_documented_truncating_geometry(self, walks):
        """The ``PcsConfig`` docstring's example: a 300-bit register over
        ``2**-150 … 2**150`` truncates tiny products and holds big sums."""
        truncating = PcsConfig(lsb_exponent=-150, width=300)
        a, b = [2.0**-75] * 4, [2.0**-76] * 4  # four products of 2**-151
        assert fmac_chain_pcs(a, b) == 2.0**-149
        assert fmac_chain_pcs(a, b, config=truncating) == 0.0
        assert fmac_chain_pcs([3.0], [1.0], config=truncating) == 3.0
        big = fmac_chain_pcs([3e30, 1.0], [1e7, 1.0], config=truncating)
        assert big == fmac_chain_pcs([3e30, 1.0], [1e7, 1.0]) < math.inf
        assert walks == [truncating] * 3

    def test_raised_lsb_keeps_truncating(self, walks):
        coarse = PcsConfig(lsb_exponent=-100)
        a, b = [2.0**-60, 2.0**-100], [2.0**-60, 1.0]
        # The product 2**-120 falls below the LSB and is dropped.
        assert fmac_chain_pcs(a, b, config=coarse) == 2.0**-100
        assert _pcs_walk(a, b, config=coarse) == 2.0**-100
        assert fmac_chain_pcs(a, b) == 2.0**-100 + 2.0**-120
        assert walks == [coarse]


def _assert_pcs_rows_match(a, b, init=0.0, config=None):
    """``fmac_chains_pcs`` equals ``fmac_chain_pcs`` and the step-by-step
    walk on every row, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = fmac_chains_pcs(a, b, init, config)
        per_row = [fmac_chain_pcs(x, y, init, config) for x, y in zip(a, b)]
    assert batched.dtype == np.float32 and batched.shape == (len(a),)
    for row, (got, one) in enumerate(zip(batched.tolist(), per_row)):
        walked = _pcs_walk(a[row], b[row], init, config)
        assert _same(got, one) and _same(got, walked), (row, a[row], b[row], init)


class TestBatchedPcsChains:
    """``fmac_chains_pcs`` is ``fmac_chain_pcs`` on every row."""

    @pytest.mark.parametrize("steps", [0, 1, 2, 9, 10, 39])
    def test_fuzz_rows_against_the_one_row_chain(self, steps, walks):
        """Plain, cancelling, overflowing, inf/NaN and tie rows; only the
        rows with a non-finite operand walk."""
        rng = np.random.default_rng(7200 + steps)
        a, b = _fuzz_rows(rng, 128, steps)
        non_finite = int((~(np.isfinite(a) & np.isfinite(b)).all(axis=1)).sum())
        for init in (0.0, -0.0, float(np.float32(rng.uniform(-1e20, 1e20)))):
            before = len(walks)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fmac_chains_pcs(a, b, init)
            assert len(walks) - before == non_finite
            _assert_pcs_rows_match(a, b, init)

    def test_finite_rows_that_overflow_binary32(self, walks):
        """Finite operands whose sum lies beyond FLT_MAX round to ±inf
        through the shortcut, not the walk."""
        a = np.array([[3e38, 3e38], [-3e38, -3e38], [3e38, -3e38]], dtype=np.float32)
        b = np.ones((3, 2), dtype=np.float32)
        result = fmac_chains_pcs(a, b).tolist()
        assert result == [math.inf, -math.inf, 0.0] and walks == []
        _assert_pcs_rows_match(a, b)

    def test_non_finite_operand_rows(self):
        a = np.array(
            [[1.0, np.inf], [np.inf, -np.inf], [np.inf, 1.0], [np.nan, 1.0], [1.0, 2.0]],
            dtype=np.float32,
        )
        b = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0], [1.0, 1.0], [3.0, 4.0]], dtype=np.float32)
        _assert_pcs_rows_match(a, b)
        for init in (math.inf, -math.inf, math.nan):
            _assert_pcs_rows_match(a, b, init)

    def test_narrow_accumulator_walks_every_row(self, walks):
        narrow = PcsConfig(width=300)  # MSB at 2**2: |sum| >= 2 overflows
        a = np.array([[3.0, 0.0], [0.5, 0.25], [-1.0, -1.5]], dtype=np.float32)
        b = np.ones((3, 2), dtype=np.float32)
        assert fmac_chains_pcs(a, b, config=narrow).tolist() == [math.inf, 0.75, -math.inf]
        assert walks == [narrow] * 3
        rng = np.random.default_rng(7300)
        _assert_pcs_rows_match(*_fuzz_rows(rng, 32, 9), config=narrow)

    def test_empty_shapes(self):
        assert fmac_chains_pcs(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0,)
        empty = np.zeros((3, 0), dtype=np.float32)
        for init in (0.0, -0.0, 1.1, -math.inf):
            want = _pcs_walk([], [], init)
            assert all(_same(v, want) for v in fmac_chains_pcs(empty, empty, init).tolist())

    def test_rejects_mismatched_or_flat_operands(self):
        with pytest.raises(ValueError):
            fmac_chains_pcs(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            fmac_chains_pcs(np.zeros(3), np.zeros(3))


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
