"""Multi-cluster NTX configurations on one HMC (Table II).

A configuration is ``NTX (n x)``: ``n`` processing clusters (each with eight
NTX and one RISC-V core) placed on the LoB — and, when the LoB runs out of
logic area, on additional Logic-in-Memory (LiM) dies.  Two constraints set
the operating frequency of the clusters:

* a **thermal/power budget** for the whole cube: cluster power grows roughly
  quadratically with frequency (voltage scales with frequency), so more
  clusters must run slower — this is what differentiates NTX 16x/32x/64x;
* the **internal bandwidth of the HMC** (about 320 GB/s across the 32 vault
  controllers): once the aggregate compute demand of the clusters would
  outrun the bandwidth available to DNN-training workloads, adding clusters
  no longer adds peak throughput — this is the 1.92 Top/s plateau of the
  128x/256x/512x rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.mem.hmc import HmcConfig
from repro.perf.area import SystemAreaModel
from repro.perf.technology import TECH_14NM, TECH_22FDX, Technology

__all__ = ["NtxSystemConfig", "build_ntx_configurations"]


@dataclass(frozen=True)
class NtxSystemConfig:
    """One NTX (n x) configuration of Table II.

    The operating point (the frequency and the peak it sets) and the area
    model are evaluated once per object, on first use: the fields are
    frozen, so they cannot go stale.
    """

    technology: Technology
    num_clusters: int
    #: NTX co-processors per cluster.
    ntx_per_cluster: int = 8
    #: Thermal/power budget available to the processing clusters in the cube.
    thermal_budget_w: float = 15.5
    #: Cluster power at the 22FDX reference point (1.25 GHz, typical corner).
    reference_cluster_power_w: float = 0.186
    #: Reference frequency of the power figure above.
    reference_frequency_hz: float = 1.25e9
    #: HMC internal (aggregate vault) bandwidth available to the clusters.
    hmc_bandwidth_bytes_per_s: float = field(default=HmcConfig().aggregate_vault_bandwidth)
    #: Operational intensity of the full-precision DNN-training workload mix
    #: used to translate the bandwidth limit into a compute plateau.
    training_intensity_flop_per_byte: float = 6.0

    # -- operating point -----------------------------------------------------------

    @property
    def name(self) -> str:
        return f"NTX ({self.num_clusters}x) {self.technology.name}"

    @property
    def reference_cluster_power_scaled(self) -> float:
        """Reference cluster power scaled to this technology node."""
        scale = self.technology.energy_per_flop_ref / TECH_22FDX.energy_per_flop_ref
        return self.reference_cluster_power_w * scale

    @property
    def thermal_frequency_hz(self) -> float:
        """Highest frequency at which ``num_clusters`` fit the power budget.

        Cluster power is modelled as quadratic in frequency (dynamic power
        with the supply voltage tracking frequency), so the admissible
        frequency falls with the square root of the cluster count.
        """
        ratio = self.thermal_budget_w / (
            self.num_clusters * self.reference_cluster_power_scaled
        )
        return self.reference_frequency_hz * math.sqrt(ratio)

    @property
    def bandwidth_frequency_hz(self) -> float:
        """Frequency beyond which the HMC bandwidth cannot feed the clusters."""
        plateau_flops = (
            self.hmc_bandwidth_bytes_per_s * self.training_intensity_flop_per_byte
        )
        return plateau_flops / (self.num_clusters * self.ntx_per_cluster * 2.0)

    @functools.cached_property
    def frequency_hz(self) -> float:
        """Operating frequency: the tightest of the three limits."""
        return min(
            self.technology.max_frequency_hz,
            self.thermal_frequency_hz,
            self.bandwidth_frequency_hz,
        )

    # -- headline figures ---------------------------------------------------------

    @functools.cached_property
    def peak_flops(self) -> float:
        return self.num_clusters * self.ntx_per_cluster * 2.0 * self.frequency_hz

    @property
    def peak_tops(self) -> float:
        return self.peak_flops / 1e12

    @functools.cached_property
    def area_model(self) -> SystemAreaModel:
        return SystemAreaModel(technology=self.technology, num_clusters=self.num_clusters)

    @functools.cached_property
    def area_mm2(self) -> float:
        return self.area_model.total_cluster_area_mm2

    @functools.cached_property
    def lim_dies(self) -> int:
        return self.area_model.lim_dies_required

    @property
    def area_efficiency_gops_per_mm2(self) -> float:
        return self.area_model.area_efficiency_gops_per_mm2(self.peak_tops)

    def summary(self) -> dict:
        """The platform-characteristics columns of Table II."""
        return {
            "name": self.name,
            "logic_nm": self.technology.feature_nm,
            "dram_nm": self.technology.dram_nm,
            "area_mm2": round(self.area_mm2, 1),
            "lim": self.lim_dies,
            "freq_ghz": round(self.frequency_hz / 1e9, 2),
            "peak_tops": round(self.peak_tops, 3),
        }


#: Cluster counts evaluated in Table II per technology.
TABLE_II_CLUSTER_COUNTS = {
    "22FDX": (16, 32, 64),
    "14nm": (16, 32, 64, 128, 256, 512),
}


def build_ntx_configurations() -> List[NtxSystemConfig]:
    """All nine NTX rows of Table II, in the paper's order."""
    configs: List[NtxSystemConfig] = []
    for count in TABLE_II_CLUSTER_COUNTS["22FDX"]:
        configs.append(NtxSystemConfig(technology=TECH_22FDX, num_clusters=count))
    for count in TABLE_II_CLUSTER_COUNTS["14nm"]:
        configs.append(NtxSystemConfig(technology=TECH_14NM, num_clusters=count))
    return configs


def largest_configuration_without_lim(technology: Technology) -> NtxSystemConfig:
    """The largest configuration that needs no extra LiM dies (Figures 6/7)."""
    counts = TABLE_II_CLUSTER_COUNTS[technology.name]
    best: Optional[NtxSystemConfig] = None
    for count in counts:
        config = NtxSystemConfig(technology=technology, num_clusters=count)
        if config.lim_dies == 0:
            best = config
    if best is None:
        raise ValueError(f"every {technology.name} configuration needs LiM dies")
    return best
