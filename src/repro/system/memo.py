"""Tile-timing memoization for system-scale runs.

A tiled workload at system scale is dominated by *identical* tiles: every
interior tile of :func:`~repro.scenarios.workloads.conv_workload` stages
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
:func:`repro.cluster.sim.timing_signature`, which canonicalizes the engine, the stagger, the full cluster configuration and
each command's :attr:`~repro.core.commands.NtxCommand.timing_signature`
(loop nest, AGU bases/strides, init/store levels — everything but the data).
Keys are values, so a cache shared across simulators hits for equal
programs from different builds; the walker signs each
:class:`~repro.cluster.tiling.TileProgram` once and keeps the signature on
it (:func:`repro.system.batch.plan_tiles`).

The per-lookup hot path is deliberately *not* instrumented: the cache
keeps its own plain-integer ``hits``/``misses`` and
:meth:`~repro.system.simulator.SystemSimulator.run` publishes the
per-run deltas into the :mod:`repro.obs` metrics registry
(``repro_tile_cache_hits_total`` / ``repro_tile_cache_misses_total`` /
``repro_tile_cache_entries``) once per system run.  :meth:`stats` is
the dict rendering of that accounting.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.sim import SimulationResult

__all__ = ["TileTimingCache"]


class TileTimingCache:
    """Maps timing signatures to the frozen
    :class:`~repro.cluster.sim.SimulationResult` of the run that first
    simulated them, with hit/miss accounting.

    It holds timings only.  Everything else a warm run would otherwise
    rederive — signatures, batched replay's gate verdict — is a function
    of the tile program and kept on the
    :class:`~repro.cluster.tiling.TileProgram`, so it survives a fresh
    cache.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, SimulationResult] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[SimulationResult]:
        """Look up ``key``, counting the access as a hit or a miss."""
        timing = self._entries.get(key)
        if timing is None:
            self.misses += 1
        else:
            self.hits += 1
        return timing

    def put(self, key: tuple, timing: SimulationResult) -> None:
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

    def snapshot(self) -> Dict[tuple, SimulationResult]:
        """Copy of the entries: timing signature → simulation result."""
        return dict(self._entries)
