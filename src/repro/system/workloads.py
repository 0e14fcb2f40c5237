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
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.cluster.tiling import TileSchedule
from repro.kernels.conv import conv2d_commands, conv2d_reference
from repro.mem.dma import DmaTransfer
from repro.mem.hmc import Hmc
from repro.mem.tcdm import TcdmConfig

__all__ = ["ConvWorkload", "conv_tiled_workload"]

_WORD = 4


@dataclass
class ConvWorkload:
    """Tiles plus everything needed to verify the run end to end."""

    tiles: List[TileSchedule]
    #: ``(hmc_out_addr, expected)`` per tile, for output verification.
    references: List[Tuple[int, np.ndarray]]

    def verify(self, hmc: Hmc, rtol: float = 1e-5, atol: float = 1e-6) -> None:
        """Assert every tile's output in the HMC matches its reference."""
        for address, expected in self.references:
            produced = hmc.memory.load_array(address, expected.shape)
            # Exact equality implies allclose; anything else (NaNs
            # included) gets the full check and its diagnostics.
            if not np.array_equal(produced, expected):
                np.testing.assert_allclose(produced, expected, rtol=rtol, atol=atol)


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
    generator so both cycle engines produce bit-identical results.
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

    image_bytes = height * width * _WORD
    weight_bytes = kernel * kernel * _WORD
    out_bytes = out_h * out_w * _WORD

    # Per-cluster TCDM layout (identical on every cluster).
    tcdm_image = tcdm.base_address
    tcdm_weights = tcdm_image + image_bytes
    tcdm_out = tcdm_weights + weight_bytes
    if tcdm_out + out_bytes > tcdm.base_address + tcdm.size_bytes:
        raise MemoryError("one tile does not fit the TCDM")

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

    rng = np.random.default_rng(seed)
    cursor = hmc.base
    tiles: List[TileSchedule] = []
    references: List[Tuple[int, np.ndarray]] = []
    for _ in range(num_tiles):
        image = draw(rng, image_shape)
        weights = draw(rng, (kernel, kernel))

        hmc_image, cursor = cursor, cursor + image_bytes
        hmc_weights, cursor = cursor, cursor + weight_bytes
        hmc_out, cursor = cursor, cursor + out_bytes
        if cursor > hmc.base + hmc.config.capacity_bytes:
            raise MemoryError("workload exceeds the HMC capacity")
        hmc.memory.store_array(hmc_image, image)
        hmc.memory.store_array(hmc_weights, weights)

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
        references.append((hmc_out, conv2d_reference(image, weights)))

    return ConvWorkload(tiles=tiles, references=references)
