"""Cycle-level simulation of the cluster's TCDM traffic.

The paper's §III-C observes that the practically achievable compute
performance of the cluster is limited by the probability of a banking
conflict in the TCDM interconnect (~13 %), which caps performance at about
17.4 Gflop/s out of the 20 Gflop/s peak and the usable AXI bandwidth at
about 4.35 GB/s for memory-bound kernels.  This module reproduces that
measurement mechanistically: all eight NTX co-processors stream their
micro-ops concurrently, every cycle their TCDM requests are arbitrated per
bank, and a request that loses arbitration stalls its co-processor for a
cycle.

The simulator is deliberately simple — one outstanding micro-op per NTX,
requests presented until granted — because that is how the real streamers
behave once their FIFOs are in steady state; its purpose is to measure
conflict probability and sustained utilization, not to be an RTL replica.

:class:`ClusterSimulator` resolves its cycle engine through the registry
(:mod:`repro.cluster.engine`): the ``"vectorized"`` default or the
``"scalar"`` golden reference, two timing models over one shared data
plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.engine import DEFAULT_ENGINE, get_engine
from repro.core.commands import NtxCommand
from repro.mem.interconnect import TcdmInterconnect

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

__all__ = ["SimulationResult", "ClusterSimulator"]


@dataclass
class SimulationResult:
    """Outcome of one cycle-level run."""

    cycles: int
    flops: int
    iterations: int
    tcdm_requests: int
    tcdm_conflicts: int
    per_ntx_active: List[int]
    per_ntx_stall: List[int]
    frequency_hz: float

    @property
    def conflict_probability(self) -> float:
        """Fraction of TCDM requests stalled by a bank conflict."""
        if self.tcdm_requests == 0:
            return 0.0
        return self.tcdm_conflicts / self.tcdm_requests

    @property
    def flops_per_cycle(self) -> float:
        return self.flops / self.cycles if self.cycles else 0.0

    @property
    def achieved_flops_per_s(self) -> float:
        return self.flops_per_cycle * self.frequency_hz

    @property
    def utilization(self) -> float:
        """Achieved fraction of the peak issue rate of the busy co-processors."""
        busy = [a + s for a, s in zip(self.per_ntx_active, self.per_ntx_stall)]
        active = sum(self.per_ntx_active)
        total = sum(busy)
        return active / total if total else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "flops": self.flops,
            "gflops": self.achieved_flops_per_s / 1e9,
            "conflict_probability": self.conflict_probability,
            "utilization": self.utilization,
        }


class ClusterSimulator:
    """Runs a set of per-NTX command queues cycle by cycle against the TCDM.

    The backend is resolved through the engine registry
    (:mod:`repro.cluster.engine`); both registered engines implement the
    same machine:

    * ``"vectorized"`` (the default) — precomputes every port's request
      stream with NumPy, replays the data plane as array operations and
      runs the cycle loop in compiled C (:mod:`repro.cluster.vecsim`);
      roughly two orders of magnitude faster.
    * ``"scalar"`` — the original per-micro-op interpreter, kept as the
      golden reference the vectorized engine is tested against.
    """

    #: Master indices: NTX co-processors first, then the DMA, then the core.
    DMA_MASTER_OFFSET = 0

    def __init__(self, cluster: Cluster, engine: str = DEFAULT_ENGINE) -> None:
        self._engine = get_engine(engine)
        self.engine = self._engine.name
        self.cluster = cluster
        num_masters = cluster.config.num_ntx + 2
        self.interconnect = TcdmInterconnect(cluster.tcdm, num_masters=num_masters)

    def run(
        self,
        jobs: Sequence[Tuple[int, NtxCommand]],
        max_cycles: int = 5_000_000,
        dma_requests_per_cycle: float = 0.0,
        stagger_cycles: int = 7,
    ) -> SimulationResult:
        """Simulate until every queued command has completed.

        Dispatches to the engine selected at construction; every engine
        accepts the same arguments and produces a :class:`SimulationResult`.
        """
        return self._engine.run(
            self, jobs, max_cycles, dma_requests_per_cycle, stagger_cycles
        )

    # -- timing-cache hooks (used by repro.system.memo) ---------------------

    def timing_signature(
        self,
        jobs: Sequence[Tuple[int, NtxCommand]],
        dma_requests_per_cycle: float = 0.0,
        stagger_cycles: int = 7,
    ) -> tuple:
        """Hashable key under which a run's *timing* may be memoized.

        Two :meth:`run` invocations with equal signatures produce identical
        :class:`SimulationResult` timing (cycles, conflicts, per-NTX
        active/stall): request streams are generated from command structure
        alone, each simulator starts from a fresh interconnect, and the
        cluster configuration pins every microarchitectural parameter.  The
        data flowing through the TCDM is deliberately absent from the key —
        it cannot influence arbitration.
        """
        return self._engine.timing_signature(
            self, jobs, dma_requests_per_cycle, stagger_cycles
        )

    def run_data_plane(
        self,
        jobs: Sequence[Tuple[int, NtxCommand]],
        stack: Optional[np.ndarray] = None,
        base: int = 0,
    ) -> None:
        """Execute ``jobs``' data effects only, skipping the cycle loop.

        This is the timing-cache *hit* path: the TCDM (or, with ``stack``,
        every tile image of a batched group's word-major stack whose row
        ``w`` holds address ``base + 4 * w``) ends up bit-identical to a
        full :meth:`run` of the same engine, while the (already cached)
        timing is not recomputed.  Both engines replay through the one
        data plane (:func:`repro.cluster.vecsim.run_data_plane`) in the
        mode their engine names: certified-exact for the scalar engine,
        the float64 running sum for the vectorized one.
        """
        from repro.cluster.vecsim import run_data_plane

        run_data_plane(self.cluster, jobs, self._engine.exact_replay, stack, base)
