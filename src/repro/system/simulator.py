"""Multi-cluster scale-out simulation on one HMC.

:class:`SystemSimulator` instantiates ``vaults x clusters_per_vault``
processing clusters on a shared :class:`~repro.mem.hmc.Hmc`, shards a
tiled workload across them through the work-queue scheduler, and runs
every tile end to end:

1. the tile's inputs are DMA-copied from the HMC into the assigned
   cluster's TCDM,
2. the tile's NTX commands execute through the cycle-level cluster
   simulator (bank conflicts included), and
3. the results are DMA-copied back into the HMC,

so after a run the HMC holds the bit-exact outputs of the whole workload.
Per cluster, DMA and compute overlap in the double-buffered fashion of
§II-E (:func:`repro.cluster.tiling.overlap_cycles`); across clusters, the
aggregate DMA traffic is checked against the bandwidth of the populated
vaults and, when the clusters collectively demand more than the DRAM can
deliver, every transfer is slowed by the resulting contention factor —
the mechanism behind the compute plateau of the paper's biggest
configurations (Table II).

Every run goes through one tile walker (:func:`repro.system.batch.walk_tiles`),
with two exact accelerations on top of it:

* **Tile-timing memoization** (on by default, ``memoize=False`` in
  :class:`~repro.options.ExecutionOptions` to disable): tiles whose
  engine/command-stream/cluster-configuration signature has been
  simulated before replay the cached timing and only re-execute the data
  plane, so the thousands of identical interior tiles of a big tiled
  workload pay for cycle simulation once (:mod:`repro.system.memo`).
* **Cross-tile batched replay**: when the timing cache is on and every
  tile passes a self-containment gate, cache-hit tiles of one tile
  program replay their data planes as a single
  stacked NumPy dispatch instead of one dispatch per tile
  (:mod:`repro.system.batch`).  Nothing selects it but those facts; a run
  the gate refuses walks every tile inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.engine import DEFAULT_ENGINE
from repro.cluster.sim import SimulationResult
from repro.cluster.tiling import TileProgram, TileSchedule, overlap_cycles, program_facts
from repro.core.vecops import publish_plan_cache_metrics
from repro.mem.hmc import Hmc
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.options import ExecutionOptions
from repro.system.batch import ClusterAssignment, walk_tiles
from repro.system.config import SystemConfig
from repro.system.memo import TileTimingCache
from repro.system.scheduler import ShardPlan, WorkQueueScheduler

# Registry instruments for the system layer.  The tile-timing cache is
# not touched per lookup — ``SystemSimulator.run`` already computes
# hit/miss deltas for :class:`SystemResult`, and publishes those same
# deltas here, so the memoization hot path stays uninstrumented.
_TILE_HITS = _metrics.counter(
    "repro_tile_cache_hits_total", "Tile-timing cache hits"
)
_TILE_MISSES = _metrics.counter(
    "repro_tile_cache_misses_total", "Tile-timing cache misses"
)
_TILE_ENTRIES = _metrics.gauge(
    "repro_tile_cache_entries", "Distinct timing signatures cached"
)

__all__ = [
    "ClusterReport",
    "SystemResult",
    "SystemSimulator",
]


@dataclass
class ClusterReport:
    """What one cluster did during a system run."""

    cluster_id: int
    vault_id: int
    tile_indices: List[int] = field(default_factory=list)
    compute_cycles_per_tile: List[float] = field(default_factory=list)
    dma_cycles_per_tile: List[float] = field(default_factory=list)
    results: List[SimulationResult] = field(default_factory=list)
    busy_cycles: float = 0.0
    dma_bytes: int = 0

    @property
    def flops(self) -> int:
        return sum(result.flops for result in self.results)

    @property
    def tcdm_requests(self) -> int:
        return sum(result.tcdm_requests for result in self.results)

    @property
    def tcdm_conflicts(self) -> int:
        return sum(result.tcdm_conflicts for result in self.results)


@dataclass
class SystemResult:
    """Aggregate outcome of one multi-cluster run."""

    config: SystemConfig
    reports: List[ClusterReport]
    makespan_cycles: float
    contention_factor: float
    #: Timing-cache accounting of this run (zero when memoization is off).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def num_tiles(self) -> int:
        return sum(len(report.tile_indices) for report in self.reports)

    @property
    def total_flops(self) -> int:
        return sum(report.flops for report in self.reports)

    @property
    def total_dma_bytes(self) -> int:
        return sum(report.dma_bytes for report in self.reports)

    @property
    def total_compute_cycles(self) -> float:
        """Cycle-simulated compute time summed over every tile (DMA excluded).

        For a single tile on a single co-processor this is exactly the
        cycle count of the streaming command itself, which is what the
        per-opcode throughput artifact (Figure 3b) reads off a campaign
        record.
        """
        return sum(
            sum(report.compute_cycles_per_tile) for report in self.reports
        )

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of tile simulations served from the timing cache."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def throughput_flops_per_s(self) -> float:
        """Achieved system throughput over the whole run."""
        if self.makespan_cycles <= 0:
            return 0.0
        seconds = self.makespan_cycles / self.config.cluster.ntx_frequency_hz
        return self.total_flops / seconds

    @property
    def utilization(self) -> float:
        """Mean busy fraction of the clusters over the makespan."""
        if self.makespan_cycles <= 0 or not self.reports:
            return 0.0
        busy = sum(report.busy_cycles for report in self.reports)
        return busy / (len(self.reports) * self.makespan_cycles)

    @property
    def conflict_probability(self) -> float:
        """Aggregate TCDM banking-conflict probability across all tiles."""
        requests = sum(report.tcdm_requests for report in self.reports)
        conflicts = sum(report.tcdm_conflicts for report in self.reports)
        return conflicts / requests if requests else 0.0

    @property
    def offered_dma_bandwidth_bytes_per_s(self) -> float:
        """Aggregate DRAM traffic rate the clusters asked for."""
        if self.makespan_cycles <= 0:
            return 0.0
        seconds = self.makespan_cycles / self.config.cluster.ntx_frequency_hz
        return self.total_dma_bytes / seconds

    def summary(self) -> Dict[str, object]:
        """Headline metrics of the run (int counts and float rates)."""
        return {
            "clusters": self.config.num_clusters,
            "vaults": self.config.num_vaults,
            "tiles": self.num_tiles,
            "makespan_cycles": self.makespan_cycles,
            "compute_cycles": self.total_compute_cycles,
            "gflops": self.throughput_flops_per_s / 1e9,
            "utilization": self.utilization,
            "conflict_probability": self.conflict_probability,
            "dma_gbs": self.offered_dma_bandwidth_bytes_per_s / 1e9,
            "contention_factor": self.contention_factor,
            "cache_hit_rate": self.cache_hit_rate,
        }


class SystemSimulator:
    """N clusters per vault, V vaults, one shared HMC, one work queue."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        timing_cache: Optional[TileTimingCache] = None,
        options: Optional[ExecutionOptions] = None,
    ) -> None:
        """``options`` selects the execution path; see :mod:`repro.options`.

        ``options.memoize`` toggles the tile timing cache (which persists
        across :meth:`run` calls); ``options.engine`` names the cycle
        engine every tile runs on (``None``: the default engine).

        A caller running many simulators over structurally similar
        workloads (the campaign runner, the perfbench harness) may pass a shared
        ``timing_cache`` so warm entries carry across simulator
        instances; signatures pin the full cluster configuration, so
        sharing is always exact.
        """
        options = options if options is not None else ExecutionOptions()
        self.options = options
        self.config = config or SystemConfig()
        #: Cycle engine of every cluster simulation this system runs.
        self.engine = options.engine or DEFAULT_ENGINE
        self.timing_cache = timing_cache if timing_cache is not None else TileTimingCache()
        self.hmc = Hmc(self.config.hmc)
        self.clusters: List[Cluster] = [
            Cluster(self.config.cluster, hmc=self.hmc)
            for _ in range(self.config.num_clusters)
        ]
        self.scheduler = WorkQueueScheduler()

    # -- scheduling -----------------------------------------------------------

    def _estimate_cost(self, program: TileProgram) -> float:
        """Scheduling estimate of a tile program's busy time in NTX cycles."""
        config = self.config.cluster
        per_ntx = [0.0] * config.num_ntx
        for ntx_id, command in program.jobs(config.num_ntx):
            per_ntx[ntx_id] += config.ntx.ideal_cycles(command)
        compute = max(per_ntx) if program.commands else 0.0
        dma_bytes = program.bytes_in + program.bytes_out
        dma_seconds = dma_bytes / config.axi.peak_bandwidth_bytes_per_s
        dma = dma_seconds * config.ntx_frequency_hz
        return max(compute, dma)

    def shard(self, tiles: Sequence[TileSchedule]) -> ShardPlan:
        """Work-queue assignment of ``tiles`` to this system's clusters
        (each program's cost is kept on it, per cluster configuration)."""
        costs = program_facts(tiles, ("cost", self.config.cluster), self._estimate_cost)
        return self.scheduler.assign(costs, self.config.num_clusters)

    # -- execution ------------------------------------------------------------

    def run(self, tiles: Sequence[TileSchedule]) -> SystemResult:
        """Execute ``tiles`` end to end and aggregate the outcome."""
        config = self.config
        with _trace.span("schedule", tiles=len(tiles)):
            plan = self.shard(tiles)
        cache = self.timing_cache if self.options.memoize else None
        hits_before = self.timing_cache.hits
        misses_before = self.timing_cache.misses
        vault_of = config.vault_of_cluster
        work = [
            ClusterAssignment(
                cluster_id=cluster_id,
                vault_id=vault_of[cluster_id],
                cluster=self.clusters[cluster_id],
                assigned=[(index, tiles[index]) for index in tile_indices],
            )
            for cluster_id, tile_indices in enumerate(plan.tiles_of)
        ]
        reports = walk_tiles(config, self.engine, work, cache)

        with _trace.span("merge"):
            # First pass: per-cluster double-buffered busy time without
            # memory contention, giving the uncontended makespan.
            for report in reports:
                report.busy_cycles = overlap_cycles(
                    report.compute_cycles_per_tile, report.dma_cycles_per_tile
                )
            makespan = max((r.busy_cycles for r in reports), default=0.0)

            # Second pass: if the clusters collectively offered more DRAM
            # traffic than the populated vaults can serve, stretch every
            # DMA phase by the contention factor and recompute the
            # timeline.
            contention = 1.0
            total_bytes = sum(report.dma_bytes for report in reports)
            if makespan > 0 and total_bytes > 0:
                seconds = makespan / config.cluster.ntx_frequency_hz
                offered = total_bytes / seconds
                limit = config.hmc_bandwidth_bytes_per_s
                if offered > limit:
                    contention = offered / limit
                    for report in reports:
                        report.dma_cycles_per_tile = [
                            cycles * contention
                            for cycles in report.dma_cycles_per_tile
                        ]
                        report.busy_cycles = overlap_cycles(
                            report.compute_cycles_per_tile, report.dma_cycles_per_tile
                        )
                    makespan = max((r.busy_cycles for r in reports), default=0.0)

        _TILE_HITS.inc(self.timing_cache.hits - hits_before)
        _TILE_MISSES.inc(self.timing_cache.misses - misses_before)
        _TILE_ENTRIES.set(len(self.timing_cache))
        publish_plan_cache_metrics()

        return SystemResult(
            config=config,
            reports=reports,
            makespan_cycles=makespan,
            contention_factor=contention,
            cache_hits=self.timing_cache.hits - hits_before,
            cache_misses=self.timing_cache.misses - misses_before,
        )
