"""Memory substrate of the NTX processing cluster and its HMC host.

* :mod:`repro.mem.memory` — flat byte-addressable memory with word and
  float32/NumPy views (used for the TCDM data array, the L2 and the DRAM).
* :mod:`repro.mem.tcdm` — the 64 kB tightly-coupled data memory divided into
  32 word-interleaved banks.
* :mod:`repro.mem.interconnect` — the logarithmic interconnect that
  arbitrates per-bank, per-cycle access of the RISC-V core, the DMA and the
  eight NTX co-processors.
* :mod:`repro.mem.dma` — the DMA engine moving two-dimensional data planes
  between the TCDM and the HMC address space.
* :mod:`repro.mem.icache` — the 2 kB instruction cache with linear prefetch.
* :mod:`repro.mem.axi` — the cluster's 64 bit AXI master port bandwidth
  model (5 GB/s at 625 MHz).
* :mod:`repro.mem.hmc` — the Hybrid Memory Cube: vaults, banks, the LoB
  crossbar and the serial links.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.mem.axi import AxiConfig, AxiPort
    from repro.mem.dma import DmaConfig, DmaEngine, DmaTransfer
    from repro.mem.hmc import Hmc, HmcConfig, Vault
    from repro.mem.icache import ICacheConfig, InstructionCache
    from repro.mem.interconnect import TcdmInterconnect
    from repro.mem.memory import Memory
    from repro.mem.tcdm import Tcdm, TcdmConfig

__all__ = [
    "Memory",
    "Tcdm",
    "TcdmConfig",
    "TcdmInterconnect",
    "DmaEngine",
    "DmaTransfer",
    "DmaConfig",
    "InstructionCache",
    "ICacheConfig",
    "AxiPort",
    "AxiConfig",
    "Hmc",
    "HmcConfig",
    "Vault",
]

# Public name -> defining submodule, imported on first access (repro._lazy).
_EXPORTS = {
    "Memory": "memory",
    "Tcdm": "tcdm",
    "TcdmConfig": "tcdm",
    "TcdmInterconnect": "interconnect",
    "DmaEngine": "dma",
    "DmaTransfer": "dma",
    "DmaConfig": "dma",
    "InstructionCache": "icache",
    "ICacheConfig": "icache",
    "AxiPort": "axi",
    "AxiConfig": "axi",
    "Hmc": "hmc",
    "HmcConfig": "hmc",
    "Vault": "hmc",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
