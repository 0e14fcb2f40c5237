"""Execute a campaign: expand, skip what's stored, run and stream the rest.

:func:`run_campaign` is the one entry point the eval CLI, the benchmark
harness and the tests share.  It expands the sweep, loads the campaign's
JSONL result store, skips every point whose content hash is already
recorded (**resume**), and runs the remaining points through the ordinary
:func:`~repro.scenarios.runner.run_scenario` — every point is therefore
verified against its workload's golden model.  Each completed point is
appended to the store immediately, so a killed campaign loses at most the
point in flight.

Points run in-process, sequentially in expansion order, all sharing one
:class:`~repro.system.memo.TileTimingCache` — structurally identical
tiles across *different* points (same geometry, same shapes) pay for
cycle simulation once per campaign rather than once per point.

A :class:`~repro.campaign.cache.GlobalResultCache` (``options.cache_dir``
/ ``$REPRO_CACHE_DIR``) is consulted before any point simulates and
populated after every fresh execution — a point computed by *any* earlier
campaign, bench pass or report run is served from the cache and only
re-presented (name/axes/spec rewritten for the current sweep) into the
local store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.campaign.cache import GlobalResultCache, resolve_cache
from repro.campaign.registry import get_campaign
from repro.campaign.spec import CampaignPoint, SweepSpec
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.logs import get_logger
from repro.options import ExecutionOptions
from repro.scenarios.runner import ScenarioOutcome, run_scenario
from repro.system.memo import TileTimingCache

__all__ = [
    "CampaignOutcome",
    "default_store_path",
    "point_record",
    "run_campaign",
]

_LOG = get_logger("campaign")

_POINTS = _metrics.counter(
    "repro_campaign_points_total",
    "Campaign points accounted for, by outcome",
    labelnames=("outcome",),
)

#: Where ``python -m repro.eval campaign run`` keeps stores by default.
DEFAULT_STORE_DIR = Path("campaign-results")


def default_store_path(name: str, quick: bool) -> Path:
    """Deterministic per-campaign store location (quick and full differ)."""
    suffix = "-quick" if quick else ""
    return DEFAULT_STORE_DIR / f"{name}{suffix}.jsonl"


def point_record(
    point: CampaignPoint, outcome: ScenarioOutcome, wall_seconds: float
) -> Dict[str, Any]:
    """One store record: the point's identity, spec, and measured metrics.

    ``wall_seconds`` is the *simulation-only* time
    (:attr:`~repro.scenarios.runner.ScenarioOutcome.run_seconds`), the
    same convention the bench suites use — workload build and
    golden-model verification are not part of the measured hot path.
    """
    result = outcome.result
    metrics: Dict[str, Any] = dict(result.summary())
    metrics["total_flops"] = result.total_flops
    metrics["total_dma_bytes"] = result.total_dma_bytes
    metrics["cache_hits"] = result.cache_hits
    metrics["cache_misses"] = result.cache_misses
    return {
        "point_id": point.id,
        "name": point.spec.name,
        "axes": dict(point.axis_values),
        "spec": point.spec.to_dict(),
        "metrics": metrics,
        "wall_seconds": wall_seconds,
        "verified": outcome.verified,
    }


@dataclass
class CampaignOutcome:
    """What one ``run_campaign`` call did."""

    campaign: SweepSpec
    store_path: Path
    points: List[CampaignPoint]
    #: Records of every *current* point present in the store after the
    #: run (resumed and fresh alike), in expansion order.
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Points skipped because their id was already stored (resume).
    skipped_points: int = 0
    #: Points served from the global result cache (no simulation).
    cached_points: int = 0
    #: Points actually executed by this call.
    executed_points: int = 0
    #: Wall seconds of this call's executions (skipped points cost ~0).
    run_seconds: float = 0.0
    #: Directory of the global result cache consulted, if any.
    cache_dir: Optional[str] = None

    @property
    def complete(self) -> bool:
        """Whether every expanded point now has a record."""
        return len(self.records) == len(self.points)


def run_campaign(
    campaign: Union[str, SweepSpec],
    store_path: Optional[Path | str] = None,
    options: Optional[ExecutionOptions] = None,
    max_points: Optional[int] = None,
    on_point: Optional[Callable[[Dict[str, Any], bool], None]] = None,
    timing_cache: Optional[TileTimingCache] = None,
    cache: Optional[GlobalResultCache] = None,
) -> CampaignOutcome:
    """Run ``campaign`` (a registered name or a sweep spec) resumably.

    ``options`` is the unified :class:`~repro.options.ExecutionOptions`
    block: ``options.quick`` applies the campaign's ``quick_overrides``
    to the base scenario (axes are never shrunk), a non-``None``
    ``engine`` overrides the *base* scenario's engine before expansion —
    which changes the expanded point ids, exactly as editing the sweep
    definition would — and ``memoize`` toggles the tile-timing cache of
    the points this call executes without changing any id.

    ``max_points`` caps how many pending points this call executes (the
    rest stay pending for the next call).  ``on_point(record, fresh)``
    is invoked after every point is accounted for — with ``fresh=False``
    for skipped (resumed) points — which is how the CLI streams
    progress; an exception it raises aborts the run exactly like a kill,
    leaving the store resumable.  ``timing_cache`` lets a caller share
    one warm tile-timing cache across campaign runs; by default each
    call gets a fresh one.

    ``cache`` (or ``options.cache_dir``, or ``$REPRO_CACHE_DIR`` — see
    :func:`~repro.campaign.cache.resolve_cache`) enables the global
    result cache: points found there are served without simulation
    (``on_point(record, False)``, counted as ``cached_points``) and
    every freshly executed point is published back.
    """
    from repro.campaign.store import ResultStore

    options = options if options is not None else ExecutionOptions()
    sweep = get_campaign(campaign) if isinstance(campaign, str) else campaign
    if options.engine is not None:
        sweep = replace(sweep, base=sweep.base.with_overrides(engine=options.engine))
    if options.quick:
        sweep = sweep.for_quick()
    result_cache = resolve_cache(cache, options)
    points = sweep.expand()
    store = ResultStore(
        store_path
        if store_path is not None
        else default_store_path(sweep.name, options.quick)
    )
    # One parse of the store per call; fresh records join `stored` as
    # they are appended, so the final record list needs no re-read.
    stored = store.by_point()

    _LOG.debug(
        "campaign %s: %d points, store %s", sweep.name, len(points), store.path
    )
    pending: List[CampaignPoint] = []
    skipped = 0
    cached = 0
    for point in points:
        if point.id in stored:
            skipped += 1
            _POINTS.inc(outcome="resumed")
            if on_point is not None:
                on_point(stored[point.id], False)
            continue
        if result_cache is not None:
            hit = result_cache.get(point.id)
            if hit is not None:
                # The cached payload may carry another sweep's presentation
                # (a different campaign naming the same content-addressed
                # point); metrics and verification are identical, so only
                # name/axes/spec are re-presented for this sweep before the
                # record joins the local store.
                hit["name"] = point.spec.name
                hit["axes"] = dict(point.axis_values)
                hit["spec"] = point.spec.to_dict()
                record = store.append(hit)
                stored[record["point_id"]] = record
                cached += 1
                _POINTS.inc(outcome="cached")
                if on_point is not None:
                    on_point(record, False)
                continue
        pending.append(point)
    if max_points is not None:
        pending = pending[: max(0, max_points)]

    start = time.perf_counter()
    warm = timing_cache if timing_cache is not None else TileTimingCache()
    # The engine is already in the point specs (a sweep may set it per axis).
    point_options = ExecutionOptions(memoize=options.memoize)
    for point in pending:
        with _trace.span("point", name=point.spec.name):
            outcome = run_scenario(point.spec, options=point_options, timing_cache=warm)
        record = store.append(point_record(point, outcome, outcome.run_seconds))
        stored[record["point_id"]] = record
        if result_cache is not None:
            result_cache.put(record)
        _POINTS.inc(outcome="executed")
        if on_point is not None:
            on_point(record, True)

    run_seconds = time.perf_counter() - start
    _trace.TRACER.record(
        "campaign",
        _trace.TRACER.current_track(),
        time.time_ns() // 1000 - int(run_seconds * 1e6),
        run_seconds * 1e6,
        {
            "campaign": sweep.name,
            "points": len(points),
            "resumed": skipped,
            "cached": cached,
            "executed": len(pending),
        },
    )
    return CampaignOutcome(
        campaign=sweep,
        store_path=store.path,
        points=points,
        records=[stored[point.id] for point in points if point.id in stored],
        skipped_points=skipped,
        cached_points=cached,
        executed_points=len(pending),
        run_seconds=run_seconds,
        cache_dir=str(result_cache.root) if result_cache is not None else None,
    )

