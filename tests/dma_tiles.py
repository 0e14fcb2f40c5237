"""Tiles described by whole DMA transfers, the way the DMA engine sees them.

A :class:`~repro.cluster.tiling.TileSchedule` splits each transfer into
its TCDM side (on the tile's program) and its HMC side (on the tile);
tests that build or inspect one-off tiles by source, destination, rows
and pitches go through these helpers.  Inbound transfers read the HMC,
outbound ones write it.
"""

from typing import List, Optional, Sequence

from repro.cluster.tiling import TileProgram, TileSchedule
from repro.mem.dma import DmaTransfer


def tile_from_transfers(
    transfers_in: Sequence[DmaTransfer] = (),
    commands: Sequence[object] = (),
    transfers_out: Sequence[DmaTransfer] = (),
    placements: Optional[Sequence[int]] = None,
) -> TileSchedule:
    """A tile, and a program of its own, from whole DMA transfers."""
    program = TileProgram(
        commands,
        placements,
        dma_in=[(t.dst, t.row_bytes, t.rows, t.dst_pitch) for t in transfers_in],
        dma_out=[(t.src, t.row_bytes, t.rows, t.src_pitch) for t in transfers_out],
    )
    return TileSchedule(
        program,
        [(t.src, t.src_pitch) for t in transfers_in],
        [(t.dst, t.dst_pitch) for t in transfers_out],
    )


def transfers_in(tile: TileSchedule) -> List[DmaTransfer]:
    """``tile``'s DMA-in transfers, HMC to TCDM."""
    return [
        DmaTransfer(
            src=src, dst=rows.address, row_bytes=rows.row_bytes,
            rows=rows.rows, src_pitch=pitch, dst_pitch=rows.pitch,
        )
        for rows, (src, pitch) in zip(tile.program.dma_in, tile.hmc_in)
    ]


def transfers_out(tile: TileSchedule) -> List[DmaTransfer]:
    """``tile``'s DMA-out transfers, TCDM to HMC."""
    return [
        DmaTransfer(
            src=rows.address, dst=dst, row_bytes=rows.row_bytes,
            rows=rows.rows, src_pitch=rows.pitch, dst_pitch=pitch,
        )
        for rows, (dst, pitch) in zip(tile.program.dma_out, tile.hmc_out)
    ]
