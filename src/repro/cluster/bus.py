"""The cluster bus.

Routes the RISC-V core's loads and stores to the TCDM, the NTX register
files (including the broadcast alias), the DMA configuration registers, the
L2 and the HMC window.  The bus is purely functional: NTX commands issued
through it execute immediately against the TCDM (the cycle-level interleaved
execution is the job of :mod:`repro.cluster.sim`), which matches how the
control program experiences the system — it writes a command register and
later polls a status register that eventually reads idle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.addressmap import AddressMap
from repro.mem.dma import DmaTransfer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.cluster.cluster import Cluster

__all__ = ["DmaRegisterMap", "ClusterBus"]


class DmaRegisterMap:
    """Offsets of the DMA configuration registers."""

    SRC = 0x00
    DST = 0x08
    ROW_BYTES = 0x10
    ROWS = 0x14
    SRC_PITCH = 0x18
    DST_PITCH = 0x1C
    START = 0x20
    STATUS = 0x24
    SIZE = 0x28


class ClusterBus:
    """Functional interconnect between the control core and the cluster devices."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.amap: AddressMap = cluster.amap
        self._dma_regs = {
            DmaRegisterMap.SRC: 0,
            DmaRegisterMap.DST: 0,
            DmaRegisterMap.ROW_BYTES: 0,
            DmaRegisterMap.ROWS: 1,
            DmaRegisterMap.SRC_PITCH: 0,
            DmaRegisterMap.DST_PITCH: 0,
        }
        self.dma_transfers_started = 0

    # -- word access (the CPU's primary access size) ---------------------------

    def read_u32(self, address: int) -> int:
        amap = self.amap
        cluster = self.cluster
        if amap.is_tcdm(address):
            return cluster.tcdm.read_u32(address)
        if amap.is_l2(address):
            return cluster.l2.read_u32(address)
        if amap.is_ntx_broadcast(address):
            # Broadcast reads return NTX 0's registers (all are programmed
            # identically through the broadcast window anyway).
            offset = address - amap.ntx_broadcast
            return cluster.ntx_regs[0].read(offset)
        if amap.is_ntx(address):
            ntx_id, offset = self._ntx_target(address)
            return cluster.ntx_regs[ntx_id].read(offset)
        if amap.is_dma(address):
            return self._dma_read(address - amap.dma_base)
        if amap.is_hmc(address):
            return cluster.hmc.memory.read_u32(address)
        raise IndexError(f"bus read from unmapped address {address:#010x}")

    def write_u32(self, address: int, value: int) -> None:
        amap = self.amap
        cluster = self.cluster
        if amap.is_tcdm(address):
            cluster.tcdm.write_u32(address, value)
            return
        if amap.is_l2(address):
            cluster.l2.write_u32(address, value)
            return
        if amap.is_ntx_broadcast(address):
            offset = address - amap.ntx_broadcast
            for regs in cluster.ntx_regs:
                regs.write(offset, value)
            cluster.drain_all_ntx()
            return
        if amap.is_ntx(address):
            ntx_id, offset = self._ntx_target(address)
            cluster.ntx_regs[ntx_id].write(offset, value)
            cluster.drain_ntx(ntx_id)
            return
        if amap.is_dma(address):
            self._dma_write(address - amap.dma_base, value)
            return
        if amap.is_hmc(address):
            cluster.hmc.memory.write_u32(address, value)
            return
        raise IndexError(f"bus write to unmapped address {address:#010x}")

    # -- narrow accesses -------------------------------------------------------

    def read_u8(self, address: int) -> int:
        word = self.read_u32(address & ~3)
        return (word >> (8 * (address & 3))) & 0xFF

    def write_u8(self, address: int, value: int) -> None:
        word = self.read_u32(address & ~3)
        shift = 8 * (address & 3)
        word = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        self.write_u32(address & ~3, word)

    def read_u16(self, address: int) -> int:
        word = self.read_u32(address & ~3)
        return (word >> (8 * (address & 2))) & 0xFFFF

    def write_u16(self, address: int, value: int) -> None:
        word = self.read_u32(address & ~3)
        shift = 8 * (address & 2)
        word = (word & ~(0xFFFF << shift)) | ((value & 0xFFFF) << shift)
        self.write_u32(address & ~3, word)

    # -- device helpers ------------------------------------------------------------

    def _ntx_target(self, address: int) -> tuple[int, int]:
        offset = address - self.amap.ntx_base
        ntx_id = offset // self.amap.ntx_stride
        if ntx_id >= self.cluster.config.num_ntx:
            raise IndexError(
                f"access to NTX {ntx_id} but the cluster has "
                f"{self.cluster.config.num_ntx} co-processors"
            )
        return ntx_id, offset % self.amap.ntx_stride

    def _dma_read(self, offset: int) -> int:
        if offset == DmaRegisterMap.STATUS:
            return 0  # functional DMA completes instantly: never busy
        if offset in self._dma_regs:
            return self._dma_regs[offset] & 0xFFFFFFFF
        raise IndexError(f"read from unmapped DMA register {offset:#x}")

    def _dma_write(self, offset: int, value: int) -> None:
        if offset == DmaRegisterMap.START:
            transfer = DmaTransfer(
                src=self._dma_regs[DmaRegisterMap.SRC],
                dst=self._dma_regs[DmaRegisterMap.DST],
                row_bytes=self._dma_regs[DmaRegisterMap.ROW_BYTES],
                rows=max(self._dma_regs[DmaRegisterMap.ROWS], 1),
                src_pitch=self._dma_regs[DmaRegisterMap.SRC_PITCH],
                dst_pitch=self._dma_regs[DmaRegisterMap.DST_PITCH],
            )
            self.cluster.run_dma(transfer)
            self.dma_transfers_started += 1
            return
        if offset in self._dma_regs:
            self._dma_regs[offset] = value & 0xFFFFFFFF
            return
        raise IndexError(f"write to unmapped DMA register {offset:#x}")
