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
* :mod:`repro.cluster.engine` — the engine registry: the ``Engine``
  protocol plus the registered ``"scalar"`` and ``"vectorized"`` backends
  every layer resolves engine names through.
* :mod:`repro.cluster.vecsim` — the vectorized engine itself: NumPy
  precomputed request streams, an array data plane and an integer-only
  timing core (see ``docs/performance.md``).
* :mod:`repro.cluster.timing_core` — builds, caches and calls that timing
  core's compiled C loop (``timing_core.c``).
"""

from repro.cluster.addressmap import AddressMap
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.engine import (
    DEFAULT_ENGINE,
    Engine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.cluster.offload import NtxDriver
from repro.cluster.tiling import DoubleBufferPlan, TileSchedule, plan_tiles
from repro.cluster.sim import ClusterSimulator, SimulationResult

__all__ = [
    "AddressMap",
    "Cluster",
    "ClusterConfig",
    "DEFAULT_ENGINE",
    "Engine",
    "available_engines",
    "get_engine",
    "register_engine",
    "NtxDriver",
    "DoubleBufferPlan",
    "TileSchedule",
    "plan_tiles",
    "ClusterSimulator",
    "SimulationResult",
]
