"""Multi-cluster scaling — the trend behind Table II's platform rows.

The paper scales NTX by instantiating more clusters on the HMC's logic
base; throughput grows with the cluster count until the DRAM bandwidth of
the cube (rather than compute) becomes the binding constraint.  This
harness reproduces that trend mechanistically with :mod:`repro.system`: a
fixed tiled convolution workload is sharded across systems of growing
size (vaults x clusters per vault), every tile runs through the
cycle-level cluster simulator on a shared HMC, and the sweep reports
throughput, parallel speedup and efficiency per configuration.

The workload is fixed, so the efficiency column is a strong-scaling
curve: it falls away from 1.0 as clusters idle at the tail of the work
queue or contend for vault bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.engine import DEFAULT_ENGINE
from repro.eval.report import format_table
from repro.options import ExecutionOptions
from repro.system import SystemConfig, SystemSimulator, conv_tiled_workload

__all__ = ["ScalingPoint", "run", "format_results"]

#: (vaults, clusters per vault) of each sweep point.
DEFAULT_SWEEP: Tuple[Tuple[int, int], ...] = ((1, 1), (1, 2), (2, 2), (2, 4))


@dataclass(frozen=True)
class ScalingPoint:
    """Measured outcome of one system size."""

    num_vaults: int
    clusters_per_vault: int
    num_clusters: int
    makespan_cycles: float
    gflops: float
    utilization: float
    conflict_probability: float
    dma_gbs: float
    contention_factor: float

    def speedup_over(self, baseline: "ScalingPoint") -> float:
        if self.makespan_cycles <= 0:
            return 0.0
        return baseline.makespan_cycles / self.makespan_cycles

    def efficiency_over(self, baseline: "ScalingPoint") -> float:
        return self.speedup_over(baseline) / max(self.num_clusters, 1)


def run(
    sweep: Sequence[Tuple[int, int]] = DEFAULT_SWEEP,
    num_tiles: int = 16,
    image_shape: Tuple[int, int] = (12, 14),
    engine: str = DEFAULT_ENGINE,
    options: Optional[ExecutionOptions] = None,
) -> List[ScalingPoint]:
    """Run the fixed workload on every system size of ``sweep``.

    ``options`` selects the system-scale execution (a non-``None``
    ``options.engine`` overrides ``engine``; ``options.memoize`` toggles
    the tile-timing cache); both are exact, so the reported cycle counts
    are identical whichever combination is chosen — only wall time
    changes.
    """
    options = options if options is not None else ExecutionOptions()
    if options.engine is not None:
        engine = options.engine
    points: List[ScalingPoint] = []
    for num_vaults, clusters_per_vault in sweep:
        config = SystemConfig(
            num_vaults=num_vaults,
            clusters_per_vault=clusters_per_vault,
            engine=engine,
        )
        simulator = SystemSimulator(config, options=options)
        workload = conv_tiled_workload(
            simulator.hmc, num_tiles=num_tiles, image_shape=image_shape
        )
        result = simulator.run(workload.tiles)
        workload.verify(simulator.hmc)
        points.append(
            ScalingPoint(
                num_vaults=num_vaults,
                clusters_per_vault=clusters_per_vault,
                num_clusters=config.num_clusters,
                makespan_cycles=result.makespan_cycles,
                gflops=result.throughput_flops_per_s / 1e9,
                utilization=result.utilization,
                conflict_probability=result.conflict_probability,
                dma_gbs=result.offered_dma_bandwidth_bytes_per_s / 1e9,
                contention_factor=result.contention_factor,
            )
        )
    return points


def format_results(
    points: Optional[List[ScalingPoint]] = None,
    options: Optional[ExecutionOptions] = None,
) -> str:
    """Render the scaling sweep with speedup/efficiency over the first point."""
    if points is None:
        points = run(options=options)
    baseline = points[0] if points else None
    rows = [
        (
            f"{p.num_vaults}x{p.clusters_per_vault}",
            p.num_clusters,
            int(p.makespan_cycles),
            p.gflops,
            p.speedup_over(baseline),
            p.efficiency_over(baseline),
            p.utilization,
            p.conflict_probability,
            p.dma_gbs,
            p.contention_factor,
        )
        for p in points
    ]
    return format_table(
        [
            "vaults x clusters",
            "clusters",
            "makespan",
            "Gflop/s",
            "speedup",
            "efficiency",
            "utilization",
            "conflict p",
            "DMA GB/s",
            "contention",
        ],
        rows,
    )
