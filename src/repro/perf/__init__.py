"""Performance, area and energy models.

* :mod:`repro.perf.roofline` — the roofline model of one cluster (Figure 5).
* :mod:`repro.perf.kernel_model` — the execution-time model of [12]: per-tile
  compute/DMA overlap, command setup overheads and the banking-conflict
  de-rating measured by the cycle simulator.
* :mod:`repro.perf.technology` — 22FDX / 14 nm technology parameters and
  scaling rules.
* :mod:`repro.perf.area` — area model of the cluster and of multi-cluster
  HMC configurations (Table I / Figure 7).
* :mod:`repro.perf.energy` — energy model (pJ/flop, DRAM energy, static
  power) calibrated against the 22FDX post-layout figures (Table I/II).
* :mod:`repro.perf.scaling` — multi-cluster NTX configurations on an HMC
  (NTX 16x … 512x), their frequency/thermal/bandwidth limits and peak
  throughput (Table II).
* :mod:`repro.perf.baselines` — literature figures of the GPUs and custom
  accelerators the paper compares against (Table II, Figures 6 and 7).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.perf.area import ClusterAreaModel, SystemAreaModel
    from repro.perf.baselines import (
        ACCELERATOR_BASELINES,
        Baseline,
        GPU_BASELINES,
        all_baselines,
    )
    from repro.perf.energy import EnergyBreakdown, EnergyModel
    from repro.perf.kernel_model import KernelExecutionModel, KernelPerformance
    from repro.perf.roofline import RooflineModel, RooflinePoint
    from repro.perf.scaling import NtxSystemConfig, build_ntx_configurations
    from repro.perf.technology import TECH_14NM, TECH_22FDX, Technology

__all__ = [
    "RooflineModel",
    "RooflinePoint",
    "KernelExecutionModel",
    "KernelPerformance",
    "Technology",
    "TECH_22FDX",
    "TECH_14NM",
    "ClusterAreaModel",
    "SystemAreaModel",
    "EnergyModel",
    "EnergyBreakdown",
    "NtxSystemConfig",
    "build_ntx_configurations",
    "Baseline",
    "GPU_BASELINES",
    "ACCELERATOR_BASELINES",
    "all_baselines",
]

# Public name -> defining submodule, imported on first access (repro._lazy).
_EXPORTS = {
    "RooflineModel": "roofline",
    "RooflinePoint": "roofline",
    "KernelExecutionModel": "kernel_model",
    "KernelPerformance": "kernel_model",
    "Technology": "technology",
    "TECH_22FDX": "technology",
    "TECH_14NM": "technology",
    "ClusterAreaModel": "area",
    "SystemAreaModel": "area",
    "EnergyModel": "energy",
    "EnergyBreakdown": "energy",
    "NtxSystemConfig": "scaling",
    "build_ntx_configurations": "scaling",
    "Baseline": "baselines",
    "GPU_BASELINES": "baselines",
    "ACCELERATOR_BASELINES": "baselines",
    "all_baselines": "baselines",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
