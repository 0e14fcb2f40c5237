"""Bit-level IEEE-754 binary32 arithmetic and the NTX partial-carry-save
accumulator.

The NTX FPU aggregates the 48 bit product of two binary32 significands in a
wide (~300 bit) fixed-point accumulator at full precision and only rounds
once, when the accumulated value is written back to memory.  This package
provides:

* :class:`~repro.softfloat.ieee754.Float32` — a bit-exact binary32 value with
  pack/unpack, classification and rounding helpers.
* :class:`~repro.softfloat.pcs.PcsAccumulator` — the wide fixed-point
  accumulator with exact product accumulation and deferred rounding.
* :func:`~repro.softfloat.fmac.fmac_chain_float32` /
  :func:`~repro.softfloat.fmac.fmac_chain_pcs` — reference reduction
  implementations used for the precision (RMSE) study of §II-C, and
  :func:`~repro.softfloat.fmac.fmac_chains_float32` /
  :func:`~repro.softfloat.fmac.fmac_chains_pcs`, the same chains over every
  row of a ``(rows, steps)`` array at once.
* :mod:`~repro.softfloat.rmse` — error metrics against an exact reference.
"""

from repro.softfloat.ieee754 import (
    Float32,
    RoundingMode,
    float_to_bits,
    bits_to_float,
    next_after_bits,
    ulp,
)
from repro.softfloat.pcs import PcsAccumulator, PcsConfig
from repro.softfloat.fmac import (
    fmac_chain_float32,
    fmac_chains_float32,
    fmac_chain_pcs,
    fmac_chains_pcs,
    fmac_chain_exact,
)
from repro.softfloat.rmse import rmse, max_abs_error, relative_rmse, ulp_error

__all__ = [
    "Float32",
    "RoundingMode",
    "float_to_bits",
    "bits_to_float",
    "next_after_bits",
    "ulp",
    "PcsAccumulator",
    "PcsConfig",
    "fmac_chain_float32",
    "fmac_chains_float32",
    "fmac_chain_pcs",
    "fmac_chains_pcs",
    "fmac_chain_exact",
    "rmse",
    "max_abs_error",
    "relative_rmse",
    "ulp_error",
]
