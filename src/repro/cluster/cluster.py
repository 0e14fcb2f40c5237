"""The NTX processing cluster.

One cluster combines (Figure 1, right-hand side):

* one RV32IM control core (RI5CY in silicon, an ISS here) running at half
  the NTX frequency,
* eight NTX streaming co-processors,
* a 64 kB TCDM in 32 banks behind a logarithmic interconnect,
* a DMA engine for 2D transfers between TCDM and the HMC address space,
* a 2 kB instruction cache, and
* a 64 bit AXI master port into the HMC (5 GB/s at 625 MHz).

The cluster object is the main entry point of the library: it offloads
commands through the NTX register files (used by the kernel library, the
examples and the RISC-V control core on the embedded ISS) and executes them
on the cycle engines' shared data plane at ideal timing; the cycle-level
simulator (:mod:`repro.cluster.sim`) runs the same commands with TCDM
contention.  Every path holds to one command policy
(:func:`repro.cluster.vecsim.plans_per_ntx`): an NTX streams words of its
cluster's TCDM and nothing else, so a command that presents an address
off the TCDM or not word-aligned, or that reads an address it stored at
an earlier iteration, raises :class:`ValueError` naming its NTX before it
writes anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.addressmap import AddressMap
from repro.cluster.bus import ClusterBus
from repro.core.commands import NtxCommand
from repro.core.fpu import NtxFpu
from repro.core.ntx import ACTIVE_CYCLES, FLOPS, STAT_COLUMNS, NtxConfig
from repro.core.registers import NtxRegisterFile
from repro.mem.axi import AxiConfig, AxiPort
from repro.mem.dma import DmaConfig, DmaEngine, DmaTransfer
from repro.mem.hmc import Hmc, HmcConfig
from repro.mem.icache import ICacheConfig
from repro.mem.memory import Memory
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.riscv.cpu import Cpu, CpuConfig
from repro.riscv.assembler import assemble

__all__ = ["ClusterConfig", "Cluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of one processing cluster (defaults: the 22FDX tape-out)."""

    #: Number of NTX co-processors attached to the control core.
    num_ntx: int = 8
    #: NTX / TCDM clock frequency (worst-case corner of the tape-out).
    ntx_frequency_hz: float = 1.25e9
    #: Control-core / cluster-bus clock (half the NTX clock).
    core_frequency_hz: float = 625e6
    tcdm: TcdmConfig = field(default_factory=TcdmConfig)
    ntx: NtxConfig = field(default_factory=NtxConfig)
    dma: DmaConfig = field(default_factory=DmaConfig)
    axi: AxiConfig = field(default_factory=AxiConfig)
    icache: ICacheConfig = field(default_factory=ICacheConfig)
    hmc: HmcConfig = field(default_factory=HmcConfig)
    address_map: AddressMap = field(default_factory=AddressMap)

    def __post_init__(self) -> None:
        if self.num_ntx <= 0:
            raise ValueError("a cluster needs at least one NTX co-processor")

    # -- headline figures (Table I) -----------------------------------------------

    @property
    def peak_flops(self) -> float:
        """Peak floating-point performance: one FMAC (2 flop) per NTX per cycle."""
        return self.num_ntx * 2.0 * self.ntx_frequency_hz

    @property
    def peak_bandwidth_bytes_per_s(self) -> float:
        """Peak bandwidth of the AXI master port into the HMC."""
        return self.axi.peak_bandwidth_bytes_per_s

    @property
    def machine_balance_flop_per_byte(self) -> float:
        """Operational intensity at the roofline ridge point."""
        return self.peak_flops / self.peak_bandwidth_bytes_per_s


class Cluster:
    """One NTX processing cluster: memories, co-processors and control core.

    :meth:`offload` executes commands at conflict-free ideal timing;
    :class:`repro.cluster.sim.ClusterSimulator` times them cycle by cycle.
    """

    def __init__(
        self, config: Optional[ClusterConfig] = None, hmc: Optional[Hmc] = None
    ) -> None:
        self.config = config or ClusterConfig()
        self.amap = self.config.address_map
        self.tcdm = Tcdm(self.config.tcdm)
        # ``hmc`` may be shared: the scale-out simulator (:mod:`repro.system`)
        # places many clusters on the logic base of one cube, so they all see
        # the same DRAM contents and vault bandwidth accounting.
        self.hmc = hmc if hmc is not None else Hmc(self.config.hmc)
        self.dma = DmaEngine(self.config.dma)
        self.axi = AxiPort(self.config.axi)
        #: The statistics of the co-processors: one row per NTX, one
        #: column per counter (:data:`repro.core.ntx.STAT_COLUMNS`).
        self.ntx_stats = np.zeros(
            (self.config.num_ntx, len(STAT_COLUMNS)), dtype=np.int64
        )
        self.cpu: Optional[Cpu] = None

    # The L2, the cluster bus and the NTX register files serve the control
    # core and :meth:`offload` only, and the FPU the data plane's per-op
    # walk only; a cycle-engine run touches none of them unless a MAC
    # walks without the compiled library, so each is built on first use.

    @cached_property
    def bus(self) -> ClusterBus:
        """The cluster bus the control core loads and stores through."""
        return ClusterBus(self)

    @cached_property
    def fpu(self) -> NtxFpu:
        """The FPU the data plane's per-op walk
        (:func:`repro.core.vecops.execute_functional`) steps for every
        co-processor of the cluster; each command re-initialises it, and
        its counters are nobody's (the data plane credits
        :attr:`ntx_stats`)."""
        return NtxFpu(self.config.ntx.pcs)

    @cached_property
    def l2(self) -> Memory:
        """The cluster's L2 memory (the control core's program memory)."""
        return Memory(self.amap.l2_size, base=self.amap.l2_base, name="l2")

    @cached_property
    def ntx_regs(self) -> List[NtxRegisterFile]:
        """One memory-mapped register file per NTX."""
        return [NtxRegisterFile() for _ in range(self.config.num_ntx)]

    # ------------------------------------------------------------------ #
    # NTX offload                                                        #
    # ------------------------------------------------------------------ #

    def offload(self, command: NtxCommand, ntx_id: int = 0) -> None:
        """Issue ``command`` to NTX ``ntx_id`` through its register file
        and run it to completion (see :meth:`drain_ntx`); a refused
        command raises :class:`ValueError` and writes nothing."""
        if not 0 <= ntx_id < self.config.num_ntx:
            raise ValueError(f"NTX index {ntx_id} out of range")
        self.ntx_regs[ntx_id].issue(command)
        self.drain_ntx(ntx_id)

    def offload_round_robin(self, commands: Sequence[NtxCommand]) -> None:
        """Distribute ``commands`` across the co-processors round-robin."""
        for index, command in enumerate(commands):
            self.offload(command, index % self.config.num_ntx)

    def drain_ntx(self, ntx_id: int) -> None:
        """Execute every queued command of NTX ``ntx_id``, in queue order.

        Each command runs on the cycle engines' one data plane
        (:func:`repro.cluster.vecsim.run_data_plane`), which credits every
        statistic but the cycles; the command is credited its
        conflict-free ideal as active cycles.  Use the cluster simulator
        for contention effects.
        """
        from repro.cluster.vecsim import run_data_plane

        regs = self.ntx_regs[ntx_id]
        while (command := regs.next_command()) is not None:
            run_data_plane(self, [(ntx_id, command)])
            self.ntx_stats[ntx_id, ACTIVE_CYCLES] += self.config.ntx.ideal_cycles(command)

    def drain_all_ntx(self) -> None:
        for ntx_id in range(self.config.num_ntx):
            self.drain_ntx(ntx_id)

    # ------------------------------------------------------------------ #
    # DMA                                                                 #
    # ------------------------------------------------------------------ #

    def _memory_for(self, address: int):
        if self.amap.is_tcdm(address):
            return self.tcdm.memory
        if self.amap.is_hmc(address):
            return self.hmc.memory
        if self.amap.is_l2(address):
            return self.l2
        raise IndexError(f"DMA address {address:#010x} is not TCDM, L2 or HMC")

    def run_dma(self, transfer: DmaTransfer) -> int:
        """Execute a DMA transfer and account its AXI-port occupancy."""
        src_mem = self._memory_for(transfer.src)
        dst_mem = self._memory_for(transfer.dst)
        cycles = self.dma.execute(transfer, src_mem, dst_mem)
        crosses_axi = self.amap.is_hmc(transfer.src) or self.amap.is_hmc(transfer.dst)
        if crosses_axi:
            self.axi.record(transfer.total_bytes, cycles)
        return cycles

    # ------------------------------------------------------------------ #
    # Data staging helpers (host-side convenience)                        #
    # ------------------------------------------------------------------ #

    def stage_in(self, address: int, array: np.ndarray) -> None:
        """Place ``array`` (float32, row-major) at ``address`` (TCDM/HMC/L2)."""
        self._memory_for(address).store_array(address, array)

    def stage_out(self, address: int, shape: tuple) -> np.ndarray:
        """Read a float32 array of ``shape`` from ``address``."""
        return self._memory_for(address).load_array(address, shape)

    # ------------------------------------------------------------------ #
    # RISC-V control programs                                            #
    # ------------------------------------------------------------------ #

    def load_program(self, source: str, base_address: Optional[int] = None) -> Cpu:
        """Assemble ``source``, load it into the L2 and return a ready CPU."""
        base = self.amap.l2_base if base_address is None else base_address
        program = assemble(source, base_address=base)
        self.l2.write_bytes(base, program.to_bytes())
        cpu = Cpu(
            bus=self.bus,
            imem=self.l2,
            config=CpuConfig(reset_pc=base, icache=self.config.icache),
        )
        self.cpu = cpu
        return cpu

    def run_program(self, source: str, max_instructions: int = 1_000_000) -> int:
        """Assemble, load and run a control program; return its exit code (a0)."""
        cpu = self.load_program(source)
        return cpu.run(max_instructions=max_instructions)

    # ------------------------------------------------------------------ #
    # Aggregate statistics                                                #
    # ------------------------------------------------------------------ #

    @property
    def total_flops_executed(self) -> int:
        return int(self.ntx_stats[:, FLOPS].sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(num_ntx={self.config.num_ntx}, "
            f"peak={self.config.peak_flops / 1e9:.1f} Gflop/s)"
        )
