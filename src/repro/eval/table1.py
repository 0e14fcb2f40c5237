"""Table I — figures of merit of one NTX cluster in 22FDX.

The paper reports the post-layout figures of the taped-out cluster:
1 RISC-V core, 8 NTX, 64 kB TCDM, 2 kB I-cache, 1.25 GHz NTX / 625 MHz core,
0.51 mm^2 at 59 % density, 20 Gflop/s peak, 5 GB/s, 186 mW on a 3x3
convolution, 108 Gflop/s W, 9.3 pJ/flop.  We regenerate every derived row
from the cluster configuration, the area model and the energy model; the
area, power and energy entries are by construction anchored to the
published silicon values (they are the calibration points of the models).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.cluster import ClusterConfig
from repro.perf.area import ClusterAreaModel
from repro.perf.energy import EnergyModel

__all__ = ["PAPER_VALUES", "run"]

#: The figures of merit as printed in Table I of the paper.
PAPER_VALUES: Dict[str, float] = {
    "riscv_cores": 1,
    "ntx_coprocessors": 8,
    "tcdm_kib": 64,
    "icache_kib": 2,
    "ntx_frequency_ghz": 1.25,
    "core_frequency_mhz": 625,
    "area_mm2": 0.51,
    "placement_density": 0.59,
    "peak_gflops": 20.0,
    "peak_bandwidth_gbs": 5.0,
    "power_mw": 186.0,
    "efficiency_gflops_w": 108.0,
    "energy_per_flop_pj": 9.3,
}


def run(
    cluster_config: ClusterConfig | None = None,
    conv_utilization: float = 0.87,
) -> List[Tuple[str, float, float]]:
    """Return (metric, paper value, model value) rows for Table I."""
    config = cluster_config or ClusterConfig()
    area = ClusterAreaModel()
    energy = EnergyModel()

    model: Dict[str, float] = {
        "riscv_cores": 1,
        "ntx_coprocessors": config.num_ntx,
        "tcdm_kib": config.tcdm.size_bytes / 1024,
        "icache_kib": config.icache.size_bytes / 1024,
        "ntx_frequency_ghz": config.ntx_frequency_hz / 1e9,
        "core_frequency_mhz": config.core_frequency_hz / 1e6,
        "area_mm2": area.total_mm2,
        "placement_density": area.placement_density,
        "peak_gflops": config.peak_flops / 1e9,
        "peak_bandwidth_gbs": config.peak_bandwidth_bytes_per_s / 1e9,
        "power_mw": energy.cluster_power(utilization=conv_utilization) * 1e3,
        "efficiency_gflops_w": energy.cluster_efficiency(utilization=conv_utilization),
        "energy_per_flop_pj": energy.cluster_energy_per_flop() * 1e12,
    }
    return [(key, PAPER_VALUES[key], model[key]) for key in PAPER_VALUES]
