"""Partial-carry-save (PCS) wide fixed-point accumulator.

The NTX FMAC unit multiplies two binary32 operands exactly (a 48 bit
product) and adds the product into a roughly 300 bit fixed-point register
that covers the whole dynamic range of binary32 products.  Carries are kept
in a redundant (carry-save) form in hardware so the addition has
single-cycle throughput; the partial sums are only merged and rounded when
the accumulator is written back to memory.

The software model does not need the redundant representation to be fast —
Python integers are already exact — but it does reproduce the two
architecturally visible properties of the hardware accumulator:

* accumulation is *exact* (no intermediate rounding); and
* the register has a *finite range*: products whose bits fall outside the
  configured window are saturated / truncated the way the hardware would.

With the default configuration every product of two finite binary32 values
is representable exactly, matching the paper's claim that the wide
accumulator and deferred rounding give NTX higher precision than a
conventional FPU that rounds after every FMA.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.softfloat.ieee754 import Float32, RoundingMode

__all__ = ["PcsConfig", "PcsAccumulator"]

# Exponent range of binary32 significand-as-integer representations:
# smallest product LSB: 2 * (-149) = -298 for subnormal*subnormal
# largest product MSB:  2 * (127)  + 1 = 255 for max*max
_PRODUCT_LSB_EXP = -298
_PRODUCT_MSB_EXP = 256


@dataclass(frozen=True)
class PcsConfig:
    """Geometry of the partial-carry-save accumulator.

    Attributes:
        lsb_exponent: power of two of the accumulator's least significant
            bit.  The default anchors it at the smallest possible product
            LSB (subnormal times subnormal) so no product bit is ever lost.
        width: number of bits in the accumulator (including overflow guard
            bits).  The default of 584 bits spans the entire product range
            (2^-298 … 2^256) plus 30 guard bits, so accumulation is exact
            for any command.  The silicon implementation quotes "≈300 bit"
            because it flushes subnormal operands and truncates partial
            products far below the running sum.  To study that truncating
            behaviour, narrow the register from *both* ends: the MSB sits at
            ``2**(lsb_exponent + width)``, so ``width=300`` alone (with the
            default ``lsb_exponent=-298``) caps the register at ``2**2`` and
            overflows to ±inf for any sum of magnitude 2 or more.  Raise
            ``lsb_exponent`` with the width, e.g.
            ``PcsConfig(lsb_exponent=-150, width=300)``: the register then
            spans ``2**-150 … 2**150``, which holds every binary32 sum of
            normal products, and truncates product bits below ``2**-150``
            (four products of ``2**-151`` sum to ``0.0`` instead of the
            ``2**-149`` the default geometry returns).
        segments: number of pipelined reduction segments used when the
            partial sums are merged at write-back.  Purely informational for
            the cycle model (it contributes to write-back latency).
    """

    lsb_exponent: int = _PRODUCT_LSB_EXP
    width: int = 584
    segments: int = 4

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("accumulator width must be positive")
        if self.segments <= 0:
            raise ValueError("segment count must be positive")

    @property
    def msb_exponent(self) -> int:
        """Exponent of the accumulator MSB (exclusive upper bound)."""
        return self.lsb_exponent + self.width

    @property
    def guard_bits(self) -> int:
        """Bits above the largest representable binary32 product."""
        return self.msb_exponent - _PRODUCT_MSB_EXP

    @property
    def writeback_latency(self) -> int:
        """Cycles needed to merge the partial sums and round at write-back."""
        return self.segments + 1


class PcsAccumulator:
    """Exact wide fixed-point accumulator with deferred rounding.

    The accumulator mirrors the architectural state of the NTX FMAC:

    * an exact signed fixed-point value (``self._acc``) scaled by
      ``2**config.lsb_exponent``;
    * sticky flags for overflow, NaN and infinity propagation, because once
      a non-finite value has entered the accumulation the final result is
      non-finite no matter what follows.
    """

    def __init__(self, config: PcsConfig | None = None) -> None:
        self.config = config or PcsConfig()
        self._acc = 0
        self._inf_sign: int | None = None
        self._nan = False
        self._overflow = False
        self._mac_count = 0

    # -- state manipulation ------------------------------------------------

    def clear(self) -> None:
        """Reset to zero (the ``init level`` of the NTX loop nest)."""
        self._acc = 0
        self._inf_sign = None
        self._nan = False
        self._overflow = False
        self._mac_count = 0

    def init_from(self, value: Float32 | float) -> None:
        """Initialise the accumulator from a memory operand.

        The NTX loop nest can initialise the accumulator either to zero or
        to a value read through AGU2 (e.g. the running ``y`` of an AXPY).
        """
        self.clear()
        self.accumulate_value(value)

    @property
    def mac_count(self) -> int:
        """Number of products accumulated since the last clear."""
        return self._mac_count

    @property
    def is_exact(self) -> bool:
        """True when no overflow/NaN/infinity has poisoned the accumulation."""
        return not (self._overflow or self._nan or self._inf_sign is not None)

    # -- accumulation ------------------------------------------------------

    def accumulate_value(self, value: Float32 | float) -> None:
        """Add a single binary32 value (no multiplication) exactly."""
        f = value if isinstance(value, Float32) else Float32.from_float(value)
        if f.is_nan:
            self._nan = True
            return
        if f.is_inf:
            self._note_infinity(f.sign)
            return
        self._add_fixed(self._to_fixed(f))

    def fma(self, a: Float32 | float, b: Float32 | float) -> None:
        """Accumulate the exact product ``a * b``.

        This is one FMAC issue: a 48 bit exact product aligned into the wide
        register and added without rounding.
        """
        fa = a if isinstance(a, Float32) else Float32.from_float(a)
        fb = b if isinstance(b, Float32) else Float32.from_float(b)
        self._mac_count += 1
        if fa.is_nan or fb.is_nan:
            self._nan = True
            return
        if fa.is_inf or fb.is_inf:
            if fa.is_zero or fb.is_zero:
                # inf * 0 is an invalid operation -> NaN.
                self._nan = True
            else:
                self._note_infinity(fa.sign ^ fb.sign)
            return
        if fa.is_zero or fb.is_zero:
            return
        sig, exp = fa.mul_exact(fb)
        shift = exp - self.config.lsb_exponent
        if shift < 0:
            # Product has bits below the accumulator LSB. With the default
            # geometry this cannot happen; a narrower accumulator truncates
            # toward zero exactly like dropping the low partial products.
            sig = sig >> -shift if sig >= 0 else -((-sig) >> -shift)
            shift = 0
        self._add_fixed(sig << shift)

    # -- read-out ----------------------------------------------------------

    def value_exact(self) -> int:
        """The exact signed fixed-point content (scaled by 2**lsb_exponent)."""
        return self._acc

    def to_float32(self, mode: RoundingMode = RoundingMode.NEAREST_EVEN) -> Float32:
        """Merge, round once and return the binary32 write-back value."""
        if self._nan:
            return Float32.nan()
        if self._inf_sign is not None:
            return Float32.inf(self._inf_sign)
        if self._overflow:
            return Float32.inf(0 if self._acc >= 0 else 1)
        return Float32.from_fixed(self._acc, self.config.lsb_exponent, mode)

    def to_float(self, mode: RoundingMode = RoundingMode.NEAREST_EVEN) -> float:
        """Convenience wrapper returning a Python float."""
        return self.to_float32(mode).to_float()

    # -- internals ----------------------------------------------------------

    def _to_fixed(self, f: Float32) -> int:
        if f.is_zero:
            return 0
        shift = f.unbiased_exponent() - self.config.lsb_exponent
        sig = f.significand()
        if shift < 0:
            sig >>= -shift
            shift = 0
        value = sig << shift
        return -value if f.sign else value

    def _note_infinity(self, sign: int) -> None:
        if self._inf_sign is None:
            self._inf_sign = sign
        elif self._inf_sign != sign:
            # +inf + -inf is invalid -> NaN.
            self._nan = True

    def _add_fixed(self, value: int) -> None:
        self._acc += value
        limit = 1 << (self.config.width - 1)
        if not -limit <= self._acc < limit:
            self._overflow = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PcsAccumulator(value={self.to_float()!r}, macs={self._mac_count}, "
            f"exact={self.is_exact})"
        )
