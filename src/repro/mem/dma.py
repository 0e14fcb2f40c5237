"""The cluster DMA engine.

The DMA moves two-dimensional data planes between the TCDM and the HMC
address space (or any other memory reachable through the AXI port).  A
transfer is described by a source and destination base address, the number
of rows, the row length in bytes and independent source/destination row
pitches, which is exactly what is needed to move tiles of matrices, image
channels or stencil planes.

Functionally a transfer is performed immediately (the data lands in the
destination memory); for timing, the engine computes how many cycles the
transfer occupies the AXI port given the port's width and the per-burst
overhead, and the cluster simulator overlaps these cycles with NTX compute
exactly like the double-buffering scheme of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = ["DmaConfig", "DmaTransfer", "DmaEngine"]


@dataclass(frozen=True)
class DmaConfig:
    """Timing parameters of the DMA engine and its AXI master port."""

    #: Bytes moved per AXI beat (64 bit port).
    bus_width_bytes: int = 8
    #: Cycles of fixed overhead per burst (address phase, handshake).
    burst_overhead_cycles: int = 4
    #: Maximum burst length in beats.
    max_burst_beats: int = 16
    #: Cycles of overhead for programming one transfer from the core.
    setup_cycles: int = 10


@dataclass(frozen=True)
class DmaTransfer:
    """A two-dimensional copy: ``rows`` rows of ``row_bytes`` each."""

    src: int
    dst: int
    row_bytes: int
    rows: int = 1
    src_pitch: int = 0
    dst_pitch: int = 0

    def __post_init__(self) -> None:
        if self.row_bytes <= 0 or self.rows <= 0:
            raise ValueError("transfer dimensions must be positive")

    @property
    def total_bytes(self) -> int:
        return self.row_bytes * self.rows

    def row_addresses(self) -> List[tuple]:
        """(src, dst) base address of every row."""
        src_pitch = self.src_pitch if self.src_pitch else self.row_bytes
        dst_pitch = self.dst_pitch if self.dst_pitch else self.row_bytes
        return [
            (self.src + r * src_pitch, self.dst + r * dst_pitch)
            for r in range(self.rows)
        ]


@dataclass
class DmaStats:
    transfers: int = 0
    bytes_moved: int = 0
    busy_cycles: int = 0


class DmaEngine:
    """Functional + timing model of the cluster DMA."""

    def __init__(self, config: Optional[DmaConfig] = None) -> None:
        self.config = config or DmaConfig()
        self.stats = DmaStats()

    # -- timing -------------------------------------------------------------

    def transfer_cycles(self, transfer: DmaTransfer) -> int:
        """AXI-port cycles the transfer occupies (address + data beats)."""
        cfg = self.config
        cycles = cfg.setup_cycles
        for _ in range(transfer.rows):
            beats = -(-transfer.row_bytes // cfg.bus_width_bytes)  # ceil div
            bursts = -(-beats // cfg.max_burst_beats)
            cycles += beats + bursts * cfg.burst_overhead_cycles
        return cycles

    def bandwidth_bytes_per_cycle(self, transfer: DmaTransfer) -> float:
        """Effective bytes per AXI cycle achieved on this transfer."""
        return transfer.total_bytes / self.transfer_cycles(transfer)

    # -- functional execution ----------------------------------------------------

    def execute(self, transfer: DmaTransfer, src_mem, dst_mem) -> int:
        """Copy the data now and return the cycle cost of the transfer.

        ``src_mem`` and ``dst_mem`` must expose ``read_bytes``/``write_bytes``
        (both :class:`~repro.mem.memory.Memory` and the TCDM's backing memory
        do).  The copy is row-by-row so overlapping pitches behave like the
        hardware (each row is an independent burst).
        """
        for src_addr, dst_addr in transfer.row_addresses():
            payload = src_mem.read_bytes(src_addr, transfer.row_bytes)
            dst_mem.write_bytes(dst_addr, payload)
        cycles = self.transfer_cycles(transfer)
        self.stats.transfers += 1
        self.stats.bytes_moved += transfer.total_bytes
        self.stats.busy_cycles += cycles
        return cycles
