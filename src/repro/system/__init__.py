"""Multi-cluster HMC scale-out (§V of the paper, Table II's scaling axis).

* :mod:`repro.system.config` — :class:`SystemConfig`: vaults x clusters
  per vault, the shared per-cluster configuration, and the system-level
  compute/bandwidth ceilings.
* :mod:`repro.system.scheduler` — the work-queue tile scheduler (and a
  static round-robin shard for comparison).
* :mod:`repro.system.simulator` — :class:`SystemSimulator`: runs a tiled
  workload end to end across all clusters on one shared HMC, with
  double-buffered DMA/compute overlap per cluster and a vault-bandwidth
  contention model across clusters.
* :mod:`repro.system.memo` — :class:`TileTimingCache`: tile-timing
  memoization so identical tiles pay for cycle simulation once (the data
  plane always re-executes — bit-exactness is never traded for speed).
* :mod:`repro.system.batch` — the one tile walker every run goes
  through, with cross-tile batched replay: cache-hit tiles sharing one
  timing signature execute their data planes as a single stacked NumPy
  dispatch, guarded by a self-containment gate.

Workloads come from :mod:`repro.scenarios` (tiles staged in the HMC,
verified against their golden models after the run).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.system.batch import ClusterAssignment, walk_tiles
    from repro.system.config import SystemConfig
    from repro.system.memo import CachedTiming, TileTimingCache
    from repro.system.scheduler import ShardPlan, WorkQueueScheduler, shard_round_robin
    from repro.system.simulator import ClusterReport, SystemResult, SystemSimulator

__all__ = [
    "ClusterAssignment",
    "walk_tiles",
    "SystemConfig",
    "CachedTiming",
    "TileTimingCache",
    "ShardPlan",
    "WorkQueueScheduler",
    "shard_round_robin",
    "ClusterReport",
    "SystemResult",
    "SystemSimulator",
]

# Public name -> defining submodule, imported on first access (repro._lazy).
_EXPORTS = {
    "ClusterAssignment": "batch",
    "walk_tiles": "batch",
    "SystemConfig": "config",
    "CachedTiming": "memo",
    "TileTimingCache": "memo",
    "ShardPlan": "scheduler",
    "WorkQueueScheduler": "scheduler",
    "shard_round_robin": "scheduler",
    "ClusterReport": "simulator",
    "SystemResult": "simulator",
    "SystemSimulator": "simulator",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
