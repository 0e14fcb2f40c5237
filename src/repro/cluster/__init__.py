"""The NTX processing cluster.

* :mod:`repro.cluster.addressmap` — the cluster address map (TCDM, NTX
  register files with broadcast alias, DMA registers, L2, HMC window).
* :mod:`repro.cluster.bus` — the cluster bus that routes RISC-V loads and
  stores to the mapped devices.
* :mod:`repro.cluster.cluster` — the cluster itself: one RV32IM core, eight
  NTX co-processors, 64 kB TCDM, DMA engine, 2 kB I-cache and L2.
* :mod:`repro.cluster.offload` — the NTX offload driver (the software the
  RISC-V core would run, expressed as a Python API).
* :mod:`repro.cluster.tiling` — tile-size selection and the double-buffering
  schedule that overlaps DMA and compute.
* :mod:`repro.cluster.sim` — the cycle-level simulator that contends all
  NTX streams (and the DMA) for TCDM banks.
* :mod:`repro.cluster.engine` — the two cycle engines (``"scalar"`` and
  ``"vectorized"``), timing models every layer resolves engine names
  through.
* :mod:`repro.cluster.vecsim` — the vectorized engine's NumPy
  precomputed request streams and integer-only timing core, and the one
  array data plane both engines replay through (see
  ``docs/performance.md``).
* :mod:`repro.cluster.timing_core` — builds, caches and calls that timing
  core's compiled C loop (``timing_core.c``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cluster.addressmap import AddressMap
    from repro.cluster.cluster import Cluster, ClusterConfig
    from repro.cluster.engine import (
        DEFAULT_ENGINE,
        Engine,
        available_engines,
        get_engine,
    )
    from repro.cluster.offload import NtxDriver
    from repro.cluster.sim import ClusterSimulator, SimulationResult
    from repro.cluster.tiling import DoubleBufferPlan, TileSchedule, plan_tiles

__all__ = [
    "AddressMap",
    "Cluster",
    "ClusterConfig",
    "DEFAULT_ENGINE",
    "Engine",
    "available_engines",
    "get_engine",
    "NtxDriver",
    "DoubleBufferPlan",
    "TileSchedule",
    "plan_tiles",
    "ClusterSimulator",
    "SimulationResult",
]

# Public name -> defining submodule, imported on first access (repro._lazy).
_EXPORTS = {
    "AddressMap": "addressmap",
    "Cluster": "cluster",
    "ClusterConfig": "cluster",
    "DEFAULT_ENGINE": "engine",
    "Engine": "engine",
    "available_engines": "engine",
    "get_engine": "engine",
    "NtxDriver": "offload",
    "DoubleBufferPlan": "tiling",
    "TileSchedule": "tiling",
    "plan_tiles": "tiling",
    "ClusterSimulator": "sim",
    "SimulationResult": "sim",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
