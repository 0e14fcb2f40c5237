"""Reference FMAC reduction chains used for the §II-C precision study.

The paper reports that on a DNN convolution layer the NTX accumulator
achieves a root-mean-squared error 1.7x lower than a conventional binary32
FPU that rounds after every fused multiply-add.  To reproduce that study we
need three reductions of the same data:

* :func:`fmac_chain_exact` — the infinitely precise reference;
* :func:`fmac_chain_float32` — a conventional FPU: every FMA result is
  rounded to binary32 before the next accumulation;
  :func:`fmac_chains_float32` runs many such chains at once;
* :func:`fmac_chain_pcs` — the NTX path: exact accumulation, one rounding at
  write-back.

Every finite binary32 or binary64 value is an integer times a power of two
(:meth:`float.as_integer_ratio`), so exact products and sums are plain
integer arithmetic on ``(integer, lsb_exponent)`` pairs: :func:`exact_dot`
forms them, :class:`~repro.softfloat.ieee754.Float32` rounds them to
binary32 and :func:`fixed_to_float` to binary64.

Two exact shortcuts keep the study at the cost of its arithmetic:

* A PCS accumulator that spans every binary32 product and has guard bits
  for the chain never truncates or overflows, so its write-back is the
  exact sum rounded once.  Every binary32 product is exact in binary64,
  so :func:`fmac_chain_pcs` forms the correctly rounded sum with
  :func:`math.fsum` (Shewchuk, "Adaptive Precision Floating-Point
  Arithmetic", 1997), rounds it to odd with a second ``fsum`` of the
  residual and casts that to binary32 (see below).  It walks the
  :class:`~repro.softfloat.pcs.PcsAccumulator` only for non-finite
  operands or a narrower geometry.
* :func:`fmac_chains_float32` takes each step in binary64: the product of
  two binary32 values is exact (48 ≤ 53 bits), and the sum is rounded to
  odd (a TwoSum residual says whether it was inexact) before the cast to
  binary32.  Rounding to odd at 53 ≥ 24 + 2 bits and then to nearest at
  24 bits equals one rounding to nearest (Boldo and Melquiond, "Emulation
  of FMA and correctly rounded sums: proved algorithms using rounding to
  odd", IEEE Trans. Computers, 2008), so every row is bit-equal to
  :func:`fmac_chain_float32`.  The PCS shortcut rounds its one sum to
  odd the same way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from repro.softfloat.ieee754 import Float32
from repro.softfloat.pcs import _PRODUCT_LSB_EXP, PcsAccumulator, PcsConfig

__all__ = [
    "fmac_chain_exact",
    "fmac_chain_float32",
    "fmac_chains_float32",
    "fmac_chain_pcs",
    "exact_dot",
    "fixed_to_float",
]

_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _binary32(a, b, init: float) -> tuple[np.ndarray, np.ndarray, np.float32]:
    """Both operand arrays and the init value rounded to binary32.

    A magnitude beyond the binary32 range rounds to ±inf, the IEEE result,
    without NumPy's overflow warning for the cast.
    """
    av, bv = np.asarray(a), np.asarray(b)
    if av.dtype == bv.dtype == np.float32 and abs(init) <= _FLOAT32_MAX:
        # Nothing can round out of range: skip the costly ``errstate``.
        return av, bv, np.float32(init)
    with np.errstate(over="ignore"):
        return (
            np.asarray(a, dtype=np.float32),
            np.asarray(b, dtype=np.float32),
            np.float32(init),
        )


def _as_float32_lists(
    a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray, init: float
) -> tuple[list[float], list[float], float]:
    """Both operand vectors and the init value rounded to binary32, as
    exact Python floats."""
    av, bv, init32 = _binary32(a, b, init)
    av, bv = av.ravel(), bv.ravel()
    if av.shape != bv.shape:
        raise ValueError(f"operand shapes differ: {av.shape} vs {bv.shape}")
    return av.tolist(), bv.tolist(), float(init32)


def _fixed(value: float) -> tuple[int, int]:
    """A finite float as an exact ``(integer, lsb_exponent)`` pair.

    Raises :class:`OverflowError` for infinities and :class:`ValueError`
    for NaN, like :meth:`float.as_integer_ratio`.
    """
    num, den = value.as_integer_ratio()
    return num, 1 - den.bit_length()


def _add(x: int, x_exp: int, y: int, y_exp: int) -> tuple[int, int]:
    """Exact sum of two fixed-point pairs, at the finer of their scales."""
    if x_exp > y_exp:
        return (x << (x_exp - y_exp)) + y, y_exp
    return x + (y << (y_exp - x_exp)), x_exp


def exact_dot(
    a: Iterable[float], b: Iterable[float], init: float = 0.0
) -> tuple[int, int]:
    """Exact ``init + sum(a[i] * b[i])`` of finite floats, unrounded.

    Returns ``(value, lsb_exponent)`` with the sum equal to
    ``value * 2**lsb_exponent``.  The operands are taken as they are
    (binary64); an infinity raises :class:`OverflowError` and a NaN
    :class:`ValueError`.
    """
    total, exp = _fixed(init)
    for x, y in zip(a, b):
        # _fixed and _add, inlined: this loop is the precision study's
        # hot path.  The denominators are powers of two.
        xm, xd = x.as_integer_ratio()
        ym, yd = y.as_integer_ratio()
        product_exp = 2 - xd.bit_length() - yd.bit_length()
        if exp > product_exp:
            total = (total << (exp - product_exp)) + xm * ym
            exp = product_exp
        else:
            total += (xm * ym) << (product_exp - exp)
    return total, exp


def fixed_to_float(value: int, lsb_exponent: int) -> float:
    """``value * 2**lsb_exponent`` correctly rounded to binary64.

    Integer true division rounds correctly, so this equals ``float`` of
    the same value held as a :class:`~fractions.Fraction`.
    """
    if lsb_exponent >= 0:
        return float(value << lsb_exponent)
    return value / (1 << -lsb_exponent)


def fmac_chain_exact(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    init: float = 0.0,
) -> Fraction:
    """Exact sum(a[i]*b[i]) + init over the binary32-rounded inputs.

    The inputs are first rounded to binary32 (they are stored as such in the
    TCDM) but the reduction itself is exact, providing the golden reference
    for error measurements.
    """
    av, bv, init32 = _as_float32_lists(a, b, init)
    value, exp = exact_dot(av, bv, init32)
    if exp >= 0:
        return Fraction(value << exp)
    return Fraction(value, 1 << -exp)


def fmac_chain_float32(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    init: float = 0.0,
) -> float:
    """Conventional FPU reduction: round to binary32 after every FMA.

    Each step computes ``acc = round32(acc + a[i]*b[i])`` where the product
    itself is exact (fused multiply-add), which is what a standard IEEE FMA
    unit does.  Only the per-step rounding differs from the NTX path.

    Non-finite values follow IEEE FMA semantics: a step that overflows
    rounds to ±inf and an infinite accumulator stays infinite, while a NaN
    operand, ``inf * 0`` or ``inf + (-inf)`` gives NaN.  An exact zero sum
    is ``+0``.
    """
    av, bv, acc = _as_float32_lists(a, b, init)
    for x, y in zip(av, bv):
        try:
            acc_m, acc_e = _fixed(acc)
            xm, xe = _fixed(x)
            ym, ye = _fixed(y)
        except (OverflowError, ValueError):
            # Binary64 arithmetic follows the same IEEE rules for inf/NaN,
            # and its result (±inf or NaN) is a binary32 value.
            acc += x * y
            continue
        total, exp = _add(acc_m, acc_e, xm * ym, xe + ye)
        acc = Float32.from_fixed(total, exp).to_float()
    return acc


def fmac_chain_pcs(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    init: float = 0.0,
    config: PcsConfig | None = None,
) -> float:
    """NTX reduction: exact wide accumulation, single rounding at write-back.

    When the geometry spans every binary32 product and has a guard bit per
    doubling of the chain length, no product is truncated and the register
    cannot overflow, so the result is the exact sum rounded once.  Chains
    with a non-finite operand, or a narrower (truncating) geometry, walk
    the :class:`~repro.softfloat.pcs.PcsAccumulator` step by step.
    """
    config = config or PcsConfig()
    av, bv, init32 = _as_float32_lists(a, b, init)
    # |init + sum(products)| < (len + 1) * 2**256 <= 2**(msb_exponent - 1).
    if (
        config.lsb_exponent <= _PRODUCT_LSB_EXP
        and config.guard_bits > 0
        and len(av) + 1 <= 1 << (config.guard_bits - 1)
    ):
        # Binary32 products are exact in binary64 (48 bits, 2**-298 …
        # 2**256); a non-finite operand makes a product, and so the sum,
        # non-finite, and fsum raises ValueError for inf - inf.
        terms = [x * y for x, y in zip(av, bv)]
        terms.append(init32)
        try:
            total = math.fsum(terms)
        except ValueError:
            total = math.nan
        if math.isfinite(total):
            return _round_to_float32(terms, total)
        # An inf or NaN operand: the walk's sticky flags decide.
    acc = PcsAccumulator(config)
    acc.init_from(init32)
    for x, y in zip(av, bv):
        acc.fma(x, y)
    return acc.to_float()


def _round_to_float32(terms: list[float], total: float) -> float:
    """The exact sum of ``terms`` rounded once to binary32.

    ``total`` is ``math.fsum(terms)``: the exact sum rounded to nearest in
    binary64.  Every term is a multiple of 2**-298, so the residual
    ``sum(terms) - total`` is either zero or at least that large, and its
    ``fsum`` has the residual's sign.  Stepping an even ``total`` one ulp
    toward a non-zero residual rounds the sum to odd, and the cast to
    binary32 then rounds it to nearest once.  An exact zero is ``+0``.
    ``terms`` is consumed.
    """
    if total == 0:
        return 0.0
    terms.append(-total)
    residual = math.fsum(terms)
    if residual and int(total / math.ulp(total)) % 2 == 0:
        total = math.nextafter(total, math.copysign(math.inf, residual))
    if abs(total) <= _FLOAT32_MAX:
        return float(np.float32(total))
    with np.errstate(over="ignore"):
        return float(np.float32(total))


def fmac_chains_float32(
    a: np.ndarray, b: np.ndarray, init: float = 0.0
) -> np.ndarray:
    """Row-wise :func:`fmac_chain_float32` of two ``(rows, steps)`` arrays.

    Returns one binary32 result per row, bit-equal to the scalar chain of
    that row (signed zeros, infinities and NaN included).  Each step forms
    ``s = acc + x*y`` in binary64, where the product is exact; when the
    TwoSum residual ``r`` is non-zero and ``s`` has an even last bit, ``s``
    steps one ulp toward ``r`` (round to odd).  An exact zero becomes
    ``+0`` and the cast to binary32 is then the correctly rounded FMA.  A
    row whose sum is not finite keeps the plain binary64 sum, whose IEEE
    inf/NaN is what the scalar chain returns.
    """
    x, y, init32 = _binary32(a, b, init)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(
            f"expected two (rows, steps) arrays of one shape: {x.shape} vs {y.shape}"
        )
    acc = np.full(x.shape[0], init32, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(x.shape[1]):
            p = x[:, k].astype(np.float64) * y[:, k]
            s = acc + p
            # Knuth's TwoSum: s + r == acc + p exactly, for finite s.
            t = s - acc
            r = (acc - (s - t)) + (p - t)
            to_odd = np.isfinite(s) & (r != 0) & ((s.view(np.int64) & 1) == 0)
            s[to_odd] = np.nextafter(s[to_odd], np.copysign(np.inf, r[to_odd]))
            s[s == 0] = 0.0
            acc = s.astype(np.float32).astype(np.float64)
    return acc.astype(np.float32)
