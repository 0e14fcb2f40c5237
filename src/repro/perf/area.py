"""Area model (Table I and Figure 7).

The 22FDX tape-out occupies 0.51 mm^2 as a standalone macro (Figure 4); when
many clusters tile the LoB of the HMC the per-cluster footprint drops to the
0.30 mm^2 implied by Table II because the pad ring, clock spine and test
infrastructure of the standalone macro are shared.  The component breakdown
below follows the floorplan of Figure 4: the TCDM banks and the eight NTX
co-processors dominate, the RISC-V core and the interconnect fill the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.perf.technology import TECH_22FDX, Technology, scale_area

__all__ = ["ClusterAreaModel", "SystemAreaModel"]


@dataclass(frozen=True)
class ClusterAreaModel:
    """Area of one cluster, broken down by component (22FDX reference)."""

    technology: Technology = TECH_22FDX
    #: Standalone macro area of the tape-out (Figure 4: 816 um x 624 um).
    macro_area_mm2: float = 0.816 * 0.624
    #: Placement density of the tape-out.
    placement_density: float = 0.59
    #: Fraction of the macro taken by each component (floorplan estimate).
    component_fractions: Dict[str, float] = field(
        default_factory=lambda: {
            "tcdm": 0.38,
            "ntx": 0.34,
            "interconnect": 0.08,
            "riscv_core": 0.10,
            "icache": 0.04,
            "dma_and_periphery": 0.06,
        }
    )

    def __post_init__(self) -> None:
        total = sum(self.component_fractions.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"component fractions sum to {total}, expected 1.0")

    @property
    def total_mm2(self) -> float:
        """Standalone cluster macro area in this technology."""
        return scale_area(self.macro_area_mm2, TECH_22FDX, self.technology)

    @property
    def lob_integrated_mm2(self) -> float:
        """Per-cluster area when tiled on the HMC LoB (shared periphery)."""
        return self.technology.cluster_area_mm2

    def component_area_mm2(self, component: str) -> float:
        if component not in self.component_fractions:
            raise KeyError(f"unknown component {component!r}")
        return self.total_mm2 * self.component_fractions[component]

    def breakdown(self) -> Dict[str, float]:
        return {
            name: self.component_area_mm2(name) for name in self.component_fractions
        }


@dataclass(frozen=True)
class SystemAreaModel:
    """Area of a multi-cluster NTX system on the LoB of one HMC."""

    technology: Technology
    num_clusters: int
    #: Logic area available on the LoB before extra LiM dies are needed.
    lob_logic_budget_mm2: float = 10.0
    #: Usable logic area of one additional Logic-in-Memory (LiM) die.
    lim_die_area_mm2: float = 20.0

    @property
    def cluster_area_mm2(self) -> float:
        return self.technology.cluster_area_mm2

    @property
    def total_cluster_area_mm2(self) -> float:
        """Silicon spent on processing clusters (the Table II 'Area' column)."""
        return self.num_clusters * self.cluster_area_mm2

    @property
    def lim_dies_required(self) -> int:
        """Additional LiM dies needed beyond the LoB's spare logic area."""
        overflow = self.total_cluster_area_mm2 - self.lob_logic_budget_mm2
        if overflow <= 0:
            return 0
        return int(-(-overflow // self.lim_die_area_mm2))

    def area_efficiency_gops_per_mm2(self, peak_tops: float) -> float:
        """Peak Gop/s per mm^2 of deployed cluster silicon (Figure 7)."""
        return peak_tops * 1e3 / self.total_cluster_area_mm2
