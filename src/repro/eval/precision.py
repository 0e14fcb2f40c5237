"""§II-C precision claim — the PCS accumulator vs a conventional FP32 FPU.

The paper states that thanks to the wide partial-carry-save accumulator and
deferred rounding, NTX achieves a root-mean-squared error 1.7x lower than a
conventional 32 bit FPU on a DNN convolution layer.  The harness reproduces
the experiment: a convolution layer's output pixels are each a long FMAC
reduction; every output is computed (a) exactly, (b) with per-step binary32
rounding, and (c) with the PCS accumulator, and the two RMSEs are compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.softfloat import rmse
from repro.softfloat.fmac import (
    exact_dot,
    fixed_to_float,
    fmac_chains_float32,
    fmac_chains_pcs,
)

__all__ = ["PrecisionResult", "run", "PAPER_IMPROVEMENT"]

#: The paper's reported RMSE advantage of the PCS accumulator.
PAPER_IMPROVEMENT = 1.7

#: A sign draw of 0 or 1 picks ``-1.0`` or ``1.0``, as
#: ``rng.choice([-1.0, 1.0])`` does.
_SIGNS = np.array([-1.0, 1.0])

#: Dekker's split constant, 2**27 + 1.
_SPLITTER = 134217729.0


@dataclass(frozen=True)
class PrecisionResult:
    rmse_float32: float
    rmse_pcs: float

    @property
    def improvement(self) -> float:
        """How much lower the PCS accumulator's RMSE is (paper: 1.7x)."""
        if self.rmse_pcs == 0:
            return float("inf")
        return self.rmse_float32 / self.rmse_pcs


def run(
    outputs: int = 256,
    reduction_length: int = 9,
    seed: int = 2019,
    scale_spread: float = 1.0,
) -> PrecisionResult:
    """Compute the RMSE of both accumulation schemes on a conv-layer reduction.

    ``reduction_length`` defaults to the nine MACs of a 3x3 convolution
    window — the reduction one NTX command accumulates per output pixel
    before its (single) write-back rounding, which is the granularity at
    which the paper's conv-layer analysis compares the two FPUs.  Longer
    reductions (accumulating over input channels as well) increase the PCS
    advantage further.  The reference for each output is computed
    at full precision from the *original* (binary64) activations and
    weights, as the paper does: both accumulation schemes operate on the
    binary32-quantised operands, so they share the input-quantisation error
    floor and differ only in the error added by per-step rounding — which is
    why the reported advantage is a factor rather than orders of magnitude.

    Each output draws, in this order, two uniform exponent vectors and
    two sign vectors of ``reduction_length`` values from one PCG64
    stream.  All of them are taken in one ``random_raw`` call of
    ``3 * reduction_length`` 64-bit words per output and decoded as NumPy
    decodes them (:func:`_draws`): an exponent is ``low + (high - low) *
    ((w >> 11) * 2**-53)`` of one word, and a sign is bit 31 of a 32-bit
    half-word, low half first.  The bits equal those of four generator
    calls per output.
    """
    rng = np.random.default_rng(seed)
    exponents_a, exponents_b, signs_a, signs_b = _draws(
        rng, outputs, reduction_length, scale_spread
    )
    # Beyond the binary32 range the casts round to ±inf, as IEEE does.
    with np.errstate(over="ignore"):
        a64 = _SIGNS[signs_a] * 10.0**exponents_a
        b64 = _SIGNS[signs_b] * 10.0**exponents_b
        a32, b32 = a64.astype(np.float32), b64.astype(np.float32)
    exact_values = _exact_dots(a64, b64)
    return PrecisionResult(
        rmse_float32=rmse(fmac_chains_float32(a32, b32).tolist(), exact_values),
        rmse_pcs=rmse(fmac_chains_pcs(a32, b32).tolist(), exact_values),
    )


def _draws(
    rng: np.random.Generator, outputs: int, length: int, spread: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each output's two exponent and two sign vectors, decoded from one
    block of raw generator words.

    The draws equal, bit for bit, ``rng.uniform(-spread / 2, spread / 2,
    length)`` twice and then ``rng.integers(0, 2, length)`` twice per
    output.  A uniform draw takes one 64-bit word.  A draw below 2 takes
    one 32-bit half-word ``h`` as ``h >> 31`` (Lemire's method never
    rejects for a range of 2); PCG64 serves half-words low half first
    and keeps an unused high half across the uniform draws.  The
    ``2 * length`` sign draws of an output use up exactly ``length``
    words, so every output starts with that buffer empty and takes
    ``3 * length`` words: ``[0, 2L)`` the exponents, ``[2L, 3L)`` the
    signs.  The generator ends where the per-output calls leave it.
    """
    words = rng.bit_generator.random_raw(outputs * 3 * length).reshape(
        outputs, 3, length
    )
    low = -spread / 2
    exponents = low + (spread / 2 - low) * ((words[:, :2] >> np.uint64(11)) * 2.0**-53)
    sign_words = words[:, 2]
    signs = np.stack(
        [(sign_words >> np.uint64(31)) & np.uint64(1), sign_words >> np.uint64(63)],
        axis=-1,
    ).reshape(outputs, 2 * length)
    return exponents[:, 0], exponents[:, 1], signs[:, :length], signs[:, length:]


def _exact_dots(a: np.ndarray, b: np.ndarray) -> list[float]:
    """Row-wise exact dot products of two binary64 arrays, each rounded
    once to binary64.

    Dekker's TwoProduct splits every product into ``p + e`` exactly, and
    one :func:`math.fsum` per row rounds the sum of all those terms
    correctly.  A row where a split or a product could overflow or lose
    bits to underflow takes :func:`~repro.softfloat.fmac.exact_dot`
    instead, which equals it wherever both apply.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = a * b
        big_a, big_b = _SPLITTER * a, _SPLITTER * b
        a_hi = big_a - (big_a - a)
        b_hi = big_b - (big_b - b)
        a_lo, b_lo = a - a_hi, b - b_hi
        e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
        magnitude = np.abs(p)
        safe = (
            (magnitude >= 2.0**-900)
            & (magnitude <= 2.0**1000)
            & (np.abs(a) <= 2.0**995)
            & (np.abs(b) <= 2.0**995)
        ).all(axis=1)
    rows = np.concatenate([p, e], axis=1).tolist()
    return [
        math.fsum(row) if ok else fixed_to_float(*exact_dot(x.tolist(), y.tolist()))
        for row, ok, x, y in zip(rows, safe.tolist(), a, b)
    ]
