"""Design-space exploration campaigns over the scenario subsystem.

The paper's headline results are *sweeps*, not single runs: Table II
walks NTX (n×) configurations until the HMC bandwidth plateau, and the
roofline/energy figures compare design points across geometries.
``repro.campaign`` makes that kind of exploration a first-class,
declarative object:

* :mod:`repro.campaign.spec` — :class:`SweepSpec`: a base
  :class:`~repro.scenarios.spec.ScenarioSpec` plus named axes over spec
  fields and family parameters, grid/zip expansion, constraint
  predicates that prune invalid points, and a dict/JSON round trip.
  Every expanded point carries a content hash of its scenario.
* :mod:`repro.campaign.store` — :class:`ResultStore`: an append-only
  JSONL file keyed by point hash; interrupted campaigns **resume** by
  skipping already-recorded points.
* :mod:`repro.campaign.cache` — :class:`GlobalResultCache`: the shared,
  content-addressed result database (``--cache-dir`` /
  ``$REPRO_CACHE_DIR``) every runner consults so no point is ever
  simulated twice, anywhere.
* :mod:`repro.campaign.runner` — :func:`run_campaign`: expand, skip the
  stored points, execute the rest through
  :func:`~repro.scenarios.runner.run_scenario` (every point verifies
  against its golden model) in-process with one shared
  :class:`~repro.system.memo.TileTimingCache`, streaming each completed
  point to the store.
* :mod:`repro.campaign.analysis` — scaling curves (speedup, parallel
  efficiency, plateau detection) overlaid with the :mod:`repro.perf`
  roofline and energy models, fed with *measured* operational intensity.
* :mod:`repro.campaign.registry` — named campaigns
  (``conv-geometry-sweep``, ``engine-shootout``, ``dnn-scaling``) the
  eval CLI and the ``campaigns`` benchmark suite iterate.

``python -m repro.eval campaign list|run|report`` is the command-line
surface.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.campaign.analysis import PointAnalysis, analyze_records, format_report
    from repro.campaign.cache import (
        CACHE_DIR_ENV,
        GlobalResultCache,
        resolve_cache,
        spec_schema_version,
    )
    from repro.campaign.registry import (
        get_campaign,
        iter_campaigns,
        register_campaign,
        registered_campaigns,
    )
    from repro.campaign.runner import (
        CampaignOutcome,
        default_store_path,
        point_record,
        run_campaign,
    )
    from repro.campaign.spec import CampaignPoint, SweepSpec, point_id
    from repro.campaign.store import ResultStore, ResultStoreError

__all__ = [
    "CACHE_DIR_ENV",
    "CampaignOutcome",
    "CampaignPoint",
    "GlobalResultCache",
    "PointAnalysis",
    "ResultStore",
    "ResultStoreError",
    "SweepSpec",
    "analyze_records",
    "default_store_path",
    "format_report",
    "get_campaign",
    "iter_campaigns",
    "point_id",
    "point_record",
    "register_campaign",
    "registered_campaigns",
    "resolve_cache",
    "run_campaign",
    "spec_schema_version",
]

# Public name -> defining submodule, imported on first access (repro._lazy).
_EXPORTS = {
    "CACHE_DIR_ENV": "cache",
    "CampaignOutcome": "runner",
    "CampaignPoint": "spec",
    "GlobalResultCache": "cache",
    "PointAnalysis": "analysis",
    "ResultStore": "store",
    "ResultStoreError": "store",
    "SweepSpec": "spec",
    "analyze_records": "analysis",
    "default_store_path": "runner",
    "format_report": "analysis",
    "get_campaign": "registry",
    "iter_campaigns": "registry",
    "point_id": "spec",
    "point_record": "runner",
    "register_campaign": "registry",
    "registered_campaigns": "registry",
    "resolve_cache": "cache",
    "run_campaign": "runner",
    "spec_schema_version": "cache",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
