"""Workload builders for the scale-out simulator.

A system workload is a plain list of
:class:`~repro.cluster.tiling.TileSchedule` objects whose input transfers
pull from the shared HMC and whose output transfers push results back —
the same schedule format the single-cluster driver executes, which is what
lets the scheduler hand any tile to any cluster (every cluster's TCDM
lives at the same local address).

:func:`conv_tiled_workload` is the reference workload used by the eval
harness and the tests: every tile is one independent 2D convolution whose
output rows are banded across the cluster's NTX co-processors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.tiling import TileSchedule
from repro.kernels.conv import conv2d_commands, conv2d_reference
from repro.mem.dma import DmaTransfer
from repro.mem.hmc import Hmc
from repro.mem.tcdm import TcdmConfig

__all__ = ["ConvWorkload", "conv_tiled_workload", "verify_references"]

_WORD = 4


def verify_references(
    hmc: Hmc, references: Sequence[Tuple[int, np.ndarray]], rtol: float, atol: float
) -> None:
    """Assert every ``(hmc address, expected array)`` region of the HMC
    matches its float32 reference.

    References of one shape at uniformly strided addresses (every tile of
    a tiled workload) compare as one strided view of the HMC against
    their stack, and exact equality ends the check there.  Anything else —
    another layout, or any difference at all — takes the per-region
    path: exact equality first, then ``assert_allclose`` with its
    diagnostics for the first region that differs.
    """
    memory = hmc.memory
    if _equal_as_one_view(memory, references):
        memory.reads += len(references)
        return
    for address, expected in references:
        produced = memory.load_array(address, expected.shape)
        # Exact equality implies allclose; anything else (NaNs
        # included) gets the full check and its diagnostics.
        if not np.array_equal(produced, expected):
            np.testing.assert_allclose(produced, expected, rtol=rtol, atol=atol)


def _equal_as_one_view(memory, references: Sequence[Tuple[int, np.ndarray]]) -> bool:
    """Whether ``references`` lie uniformly strided in ``memory`` and all
    equal it exactly (``False`` for any other layout)."""
    if len(references) < 2:
        return False
    shape = references[0][1].shape
    addresses = np.fromiter((address for address, _ in references), dtype=np.int64)
    stride = int(addresses[1] - addresses[0])
    first = int(addresses[0])
    extent = int(addresses[-1]) - first + int(np.prod(shape)) * _WORD
    if (
        stride <= 0
        or np.any(np.diff(addresses) != stride)
        or any(expected.shape != shape for _, expected in references)
        or not memory.contains(first, extent)
    ):
        return False
    produced = np.ndarray(
        (len(references), *shape),
        dtype=np.float32,
        buffer=memory.data,
        offset=first - memory.base,
        strides=(stride, *np.empty(shape, dtype=np.float32).strides),
    )
    return np.array_equal(produced, np.stack([expected for _, expected in references]))


@dataclass
class ConvWorkload:
    """Tiles plus everything needed to verify the run end to end."""

    tiles: List[TileSchedule]
    #: ``(hmc_out_addr, expected)`` per tile, for output verification.
    references: List[Tuple[int, np.ndarray]]

    def verify(self, hmc: Hmc, rtol: float = 1e-5, atol: float = 1e-6) -> None:
        """Assert every tile's output in the HMC matches its reference."""
        verify_references(hmc, self.references, rtol, atol)


#: Bytes of float64 image data one build chunk of tiles spans: the stacked
#: golden model's working set then stays in a core's L2 cache.
_CHUNK_BYTES = 1 << 18


def _chunk_tiles(image_shape: Tuple[int, int]) -> int:
    """Tiles drawn, stored and correlated per pass of the build."""
    height, width = image_shape
    return max(1, _CHUNK_BYTES // (height * width * 8))


def conv_tiled_workload(
    hmc: Hmc,
    num_tiles: int,
    image_shape: Tuple[int, int] = (12, 14),
    kernel: int = 3,
    num_ntx: int = 8,
    tcdm: TcdmConfig | None = None,
    seed: int = 2019,
    draw: Optional[Callable[[np.random.Generator, Tuple[int, ...]], np.ndarray]] = None,
) -> ConvWorkload:
    """Build ``num_tiles`` independent convolution tiles staged in the HMC.

    Every tile stages one image and one kernel from the HMC into the TCDM,
    splits the output rows into up to ``num_ntx`` bands (one NTX command
    each, with the ``kernel - 1`` halo rows re-read from the shared input),
    and writes the full output back to a distinct HMC region.

    ``draw(rng, shape)`` generates the float32 operand arrays (default:
    standard normal); the scenario subsystem passes a lattice-valued
    generator so both cycle engines produce bit-identical results.  It
    must fill its array element by element in C order — as NumPy's
    generators do — because the build draws a chunk of tiles at once:
    one ``(tiles, image + kernel words)`` call equals each tile drawing
    its image, then its kernel.

    The HMC holds each tile's image, kernel and output region back to
    back.  A workload that does not fit raises :class:`MemoryError`
    before anything is written.
    """
    if draw is None:
        def draw(rng, shape):
            return rng.standard_normal(shape).astype(np.float32)
    if num_tiles < 0:
        raise ValueError("tile count must be non-negative")
    tcdm = tcdm or TcdmConfig()
    height, width = image_shape
    out_h, out_w = height - kernel + 1, width - kernel + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel larger than image")

    image_words = height * width
    operand_words = image_words + kernel * kernel
    image_bytes = image_words * _WORD
    weight_bytes = kernel * kernel * _WORD
    out_bytes = out_h * out_w * _WORD
    stride = image_bytes + weight_bytes + out_bytes

    # Per-cluster TCDM layout (identical on every cluster).
    tcdm_image = tcdm.base_address
    tcdm_weights = tcdm_image + image_bytes
    tcdm_out = tcdm_weights + weight_bytes
    if tcdm_out + out_bytes > tcdm.base_address + tcdm.size_bytes:
        raise MemoryError("one tile does not fit the TCDM")
    if num_tiles * stride > hmc.config.capacity_bytes:
        raise MemoryError("workload exceeds the HMC capacity")

    # The band commands depend only on the TCDM layout (and are frozen), so
    # every tile shares them; each tile still gets its own list.
    band_commands = []
    bands = min(num_ntx, out_h)
    rows_per_band = -(-out_h // bands)
    row_start = 0
    while row_start < out_h:
        band_rows = min(rows_per_band, out_h - row_start)
        band_commands.append(
            conv2d_commands(
                band_rows + kernel - 1,
                width,
                kernel,
                tcdm_image + row_start * width * _WORD,
                tcdm_weights,
                tcdm_out + row_start * out_w * _WORD,
            )[0]
        )
        row_start += band_rows

    # Every tile's operand words (image, then kernel) as one strided view.
    operands_in_hmc = np.ndarray(
        (num_tiles, operand_words),
        dtype=np.float32,
        buffer=hmc.memory.data,
        strides=(stride, _WORD),
    )
    rng = np.random.default_rng(seed)
    tiles: List[TileSchedule] = []
    references: List[Tuple[int, np.ndarray]] = []
    chunk = _chunk_tiles(image_shape)
    for first in range(0, num_tiles, chunk):
        count = min(chunk, num_tiles - first)
        operands = np.asarray(draw(rng, (count, operand_words)), dtype=np.float32)
        operands_in_hmc[first : first + count] = operands
        outputs = conv2d_reference(
            operands[:, :image_words].reshape(count, height, width),
            operands[:, image_words:].reshape(count, kernel, kernel),
        )
        for index in range(count):
            hmc_image = hmc.base + (first + index) * stride
            hmc_weights = hmc_image + image_bytes
            hmc_out = hmc_weights + weight_bytes
            tiles.append(
                TileSchedule(
                    transfers_in=[
                        DmaTransfer(src=hmc_image, dst=tcdm_image, row_bytes=image_bytes),
                        DmaTransfer(
                            src=hmc_weights, dst=tcdm_weights, row_bytes=weight_bytes
                        ),
                    ],
                    commands=list(band_commands),
                    transfers_out=[
                        DmaTransfer(src=tcdm_out, dst=hmc_out, row_bytes=out_bytes)
                    ],
                )
            )
            references.append((hmc_out, outputs[index]))
    # One store per image and per kernel, as a tile-by-tile build counts.
    hmc.memory.writes += 2 * num_tiles

    return ConvWorkload(tiles=tiles, references=references)
