"""The roofline model of one NTX cluster (Figure 5).

The cluster's attainable performance for a kernel with operational intensity
``I`` is ``min(P_peak, I * B_peak)`` where the peak compute of the taped-out
cluster is 20 Gflop/s (8 NTX x 2 flop x 1.25 GHz) and the AXI port carries
5 GB/s (64 bit x 625 MHz).  In practice both roofs are de-rated by the TCDM
banking-conflict probability of ~13 % (§III-C), giving about 17.4 Gflop/s of
practically achievable compute and 4.35 GB/s of sustained bandwidth, and
small problems additionally pay per-command setup overheads — which is why
AXPY 16 sits well below AXPY 16384 at the same operational intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.cluster.cluster import ClusterConfig
from repro.kernels.specs import KernelSpec

__all__ = ["RooflinePoint", "RooflineModel"]


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel placed on the roofline."""

    name: str
    operational_intensity: float
    performance_flops: float
    bound: str  # "compute" or "memory"

    @property
    def performance_gflops(self) -> float:
        return self.performance_flops / 1e9


class RooflineModel:
    """Roofline of one processing cluster."""

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        conflict_probability: float = 0.13,
        command_overhead_cycles: int = 100,
    ) -> None:
        self.config = cluster_config or ClusterConfig()
        if not 0.0 <= conflict_probability < 1.0:
            raise ValueError("conflict probability must be in [0, 1)")
        self.conflict_probability = conflict_probability
        #: Cycles of per-command overhead (offload stores by the RISC-V core,
        #: pipeline fill and drain); only visible for very small commands.
        self.command_overhead_cycles = command_overhead_cycles

    # -- roofs ----------------------------------------------------------------

    @property
    def peak_flops(self) -> float:
        return self.config.peak_flops

    @property
    def peak_bandwidth(self) -> float:
        return self.config.peak_bandwidth_bytes_per_s

    @property
    def practical_flops(self) -> float:
        """Compute roof de-rated by the banking-conflict probability."""
        return self.peak_flops * (1.0 - self.conflict_probability)

    @property
    def practical_bandwidth(self) -> float:
        """Bandwidth roof de-rated by the same stall probability."""
        return self.peak_bandwidth * (1.0 - self.conflict_probability)

    @property
    def ridge_point(self) -> float:
        """Operational intensity at which the two roofs intersect."""
        return self.peak_flops / self.peak_bandwidth

    def attainable(self, operational_intensity: float, practical: bool = False) -> float:
        """Attainable flop/s at a given operational intensity."""
        if operational_intensity < 0:
            raise ValueError("operational intensity must be non-negative")
        if practical:
            return min(self.practical_flops, operational_intensity * self.practical_bandwidth)
        return min(self.peak_flops, operational_intensity * self.peak_bandwidth)

    def bound_of(self, operational_intensity: float) -> str:
        return "compute" if operational_intensity >= self.ridge_point else "memory"

    # -- placing kernels ------------------------------------------------------

    def place(self, spec: KernelSpec, practical: bool = True) -> RooflinePoint:
        """Place one kernel spec on the roofline.

        The attainable roofline value is additionally de-rated by the
        fraction of cycles lost to per-command overhead, which is what pulls
        the small AXPY/GEMV/GEMM instances below their larger siblings.
        """
        intensity = spec.operational_intensity
        roof = self.attainable(intensity, practical=practical)
        # Overhead de-rating: the kernel issues `num_commands` commands of
        # `effective_iterations / num_commands` cycles each.
        useful_cycles = spec.effective_iterations
        overhead_cycles = spec.num_commands * self.command_overhead_cycles
        efficiency = useful_cycles / (useful_cycles + overhead_cycles)
        performance = roof * efficiency
        return RooflinePoint(
            name=spec.name,
            operational_intensity=intensity,
            performance_flops=performance,
            bound=self.bound_of(intensity),
        )

    def place_all(self, specs: Iterable[KernelSpec], practical: bool = True) -> List[RooflinePoint]:
        return [self.place(spec, practical=practical) for spec in specs]

    # -- sweeps -----------------------------------------------------------------

    def bandwidth_sweep(self, axi_widths_bits: Iterable[int]) -> dict:
        """Memory-roof positions for alternative AXI port widths (§III-C).

        Returns a mapping of width -> (bandwidth GB/s, ridge point flop/B),
        reproducing the discussion that 128/256 bit ports move the ridge
        point down to 2 and 1 flop/B.
        """
        out = {}
        for width in axi_widths_bits:
            bandwidth = (width / 8) * self.config.axi.frequency_hz
            out[width] = {
                "bandwidth_gbs": bandwidth / 1e9,
                "ridge_flop_per_byte": self.peak_flops / bandwidth,
            }
        return out
