"""Tile-timing memoization for system-scale runs.

A tiled workload at system scale is dominated by *identical* tiles: every
interior tile of :func:`~repro.system.workloads.conv_tiled_workload` stages
the same shapes to the same TCDM addresses and issues the same command
stream — only the data differs.  The cycle-level engines are data-oblivious
(request streams are generated from command structure alone, and every tile
gets a fresh interconnect), so all those tiles take exactly the same number
of cycles.  :class:`TileTimingCache` exploits that: the first tile of each
*timing class* pays for the cycle-level simulation, and every further tile
replays the cached :class:`~repro.cluster.sim.SimulationResult` while still
executing the data plane — bit-exactness is preserved because only the
timing is cached, never the data.

The cache key is produced by
:meth:`repro.cluster.sim.ClusterSimulator.timing_signature`, which
canonicalizes the engine, the stagger, the full cluster configuration and
each command's :attr:`~repro.core.commands.NtxCommand.timing_signature`
(loop nest, AGU bases/strides, init/store levels — everything but the data).

The per-lookup hot path is deliberately *not* instrumented: the cache
keeps its own plain-integer ``hits``/``misses`` and
:meth:`~repro.system.simulator.SystemSimulator.run` publishes the
per-run deltas into the :mod:`repro.obs` metrics registry
(``repro_tile_cache_hits_total`` / ``repro_tile_cache_misses_total`` /
``repro_tile_cache_entries``) once per system run.  :meth:`stats` is
the dict rendering of that accounting (the server's ``/healthz`` cache
block).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cluster.sim import SimulationResult

__all__ = ["CachedTiming", "TileTimingCache"]


@dataclass(frozen=True)
class CachedTiming:
    """The timing-only payload of one memoized cluster-simulator run."""

    cycles: int
    flops: int
    iterations: int
    tcdm_requests: int
    tcdm_conflicts: int
    per_ntx_active: Tuple[int, ...]
    per_ntx_stall: Tuple[int, ...]
    frequency_hz: float

    @classmethod
    def from_result(cls, result: SimulationResult) -> "CachedTiming":
        return cls(
            cycles=result.cycles,
            flops=result.flops,
            iterations=result.iterations,
            tcdm_requests=result.tcdm_requests,
            tcdm_conflicts=result.tcdm_conflicts,
            per_ntx_active=tuple(result.per_ntx_active),
            per_ntx_stall=tuple(result.per_ntx_stall),
            frequency_hz=result.frequency_hz,
        )

    def to_result(self) -> SimulationResult:
        """Materialise a fresh, independently mutable ``SimulationResult``."""
        return SimulationResult(
            cycles=self.cycles,
            flops=self.flops,
            iterations=self.iterations,
            tcdm_requests=self.tcdm_requests,
            tcdm_conflicts=self.tcdm_conflicts,
            per_ntx_active=list(self.per_ntx_active),
            per_ntx_stall=list(self.per_ntx_stall),
            frequency_hz=self.frequency_hz,
        )


class TileTimingCache:
    """Maps timing signatures to cached timings, with hit/miss accounting.

    ``gate_verdicts`` keeps, next to the timings, the TCDM-side verdict of
    batched replay's self-containment gate per batch key and TCDM geometry
    (:func:`repro.system.batch.passes_gate`), so a warm cache skips the
    gate's stream walk.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, CachedTiming] = {}
        self.gate_verdicts: Dict[tuple, bool] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[CachedTiming]:
        """Look up ``key``, counting the access as a hit or a miss."""
        timing = self._entries.get(key)
        if timing is None:
            self.misses += 1
        else:
            self.hits += 1
        return timing

    def put(self, key: tuple, timing: CachedTiming) -> None:
        self._entries[key] = timing

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, object]:
        """Accounting snapshot: entries, hits, misses, hit rate."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }

    def snapshot(self) -> Dict[tuple, CachedTiming]:
        """Copy of the entries: timing signature → cached timing."""
        return dict(self._entries)
