"""Execute a campaign: expand, skip what's stored, run and stream the rest.

:func:`run_campaign` is the one entry point the eval CLI, the benchmark
harness and the tests share.  It expands the sweep, loads the campaign's
JSONL result store, skips every point whose content hash is already
recorded (**resume**), and runs the remaining points through the ordinary
:func:`~repro.scenarios.runner.run_scenario` — every point is therefore
verified against its workload's golden model.  Each completed point is
appended to the store immediately, so a killed campaign loses at most the
point in flight.

Two execution modes:

* **in-process** (``workers = 0``, the default): points run sequentially
  in expansion order, all sharing one
  :class:`~repro.system.memo.TileTimingCache` — structurally identical
  tiles across *different* points (same geometry, same shapes) pay for
  cycle simulation once per campaign rather than once per point.
* **process pool** (``workers >= 1``): uncached points are dispatched
  onto a bounded pool of that many worker processes (``workers=1``
  isolates every point in one subprocess); each worker keeps one
  process-local timing cache that warms over the points it executes.
  Dispatch is *cost-aware*: points are ordered longest-expected-first
  (costs estimated from the wall seconds of already-known records of
  neighboring points, falling back to a geometry weight) and workers
  steal the next point as they finish, so one skewed point no longer
  strands the rest of the pool behind round-robin placement.  Records
  stream back in completion order; the store keys by content hash, so
  the result set is identical to a sequential run.

Orthogonally to both modes, a :class:`~repro.campaign.cache.GlobalResultCache`
(``options.cache_dir`` / ``$REPRO_CACHE_DIR``) is consulted before any
point simulates and populated after every fresh execution — a point
computed by *any* earlier campaign, bench pass, report run or server job
is served from the cache and only re-presented (name/axes/spec rewritten
for the current sweep) into the local store.  ``options.shard = "i/N"``
deterministically restricts the run to the points whose id hashes into
shard ``i``, so independent hosts split a sweep and later merge their
stores with :func:`~repro.campaign.store.merge_stores`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.campaign.cache import GlobalResultCache, resolve_cache
from repro.campaign.registry import get_campaign
from repro.campaign.spec import CampaignPoint, SweepSpec, point_id
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.logs import get_logger
from repro.options import ExecutionOptions, parse_shard
from repro.scenarios.runner import ScenarioOutcome, run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.system.memo import TileTimingCache

__all__ = [
    "CampaignOutcome",
    "default_store_path",
    "order_longest_first",
    "point_record",
    "run_campaign",
]

_LOG = get_logger("campaign")

_POINTS = _metrics.counter(
    "repro_campaign_points_total",
    "Campaign points accounted for, by outcome",
    labelnames=("outcome",),
)
_STEALS = _metrics.counter(
    "repro_pool_steals_total",
    "Queued campaign points stolen by freed pool workers",
)
# The same instruments the simulator publishes into; the pool path folds
# each worker record's tile-cache accounting in here (workers run with a
# disabled process-local registry, so nothing is counted twice).
_TILE_HITS = _metrics.counter(
    "repro_tile_cache_hits_total", "Tile-timing cache hits"
)
_TILE_MISSES = _metrics.counter(
    "repro_tile_cache_misses_total", "Tile-timing cache misses"
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
    #: The ``i/N`` shard selector this run was restricted to, if any.
    shard: Optional[str] = None
    #: Directory of the global result cache consulted, if any.
    cache_dir: Optional[str] = None

    @property
    def complete(self) -> bool:
        """Whether every expanded (shard-local) point now has a record."""
        return len(self.records) == len(self.points)


# -- process-pool plumbing ----------------------------------------------------

#: Per-worker-process timing cache (created lazily after fork/spawn); one
#: worker executes many points, so the cache warms across them just like
#: the in-process path's shared cache.
_WORKER_CACHE: Optional[TileTimingCache] = None


def _execute_point_remote(spec_data: Dict[str, Any], trace: bool = False) -> Dict[str, Any]:
    """Worker entry point: run one point and return its picklable record.

    With ``trace`` the worker enables its process-local tracer and rides
    the serialized spans home under the transient ``_spans`` key, which
    the parent pops (and ingests) before the record touches the store —
    stores stay byte-identical to untraced runs.
    """
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = TileTimingCache()
    spec = ScenarioSpec.from_dict(spec_data)
    if trace:
        _trace.TRACER.set_enabled(True)
    track = f"campaign-worker-{os.getpid()}"
    with _trace.TRACER.track(track), _trace.span("point", name=spec.name):
        outcome = run_scenario(spec, timing_cache=_WORKER_CACHE)
    point = CampaignPoint(id=point_id(spec), axis_values={}, spec=spec)
    record = point_record(point, outcome, outcome.run_seconds)
    if trace:
        record["_spans"] = [
            span.to_dict() for span in _trace.TRACER.drain(track)
        ]
    return record


def _estimate_cost(
    point: CampaignPoint, known: Dict[str, Dict[str, Any]]
) -> float:
    """Expected wall seconds of ``point``, from neighbors' makespans.

    Every known record (resumed, cache-served, or completed earlier in
    this run) contributes a seconds-per-geometry-weight rate; the
    point's cost is the mean rate times its own weight.  With no known
    neighbors the weight alone orders points — bigger geometry first,
    which is the right prior for this simulator.  Estimates only order
    the pool queue; a wrong estimate costs schedule quality, never
    correctness.
    """
    rates = [
        record["wall_seconds"] / weight
        for record in known.values()
        if isinstance(record.get("wall_seconds"), (int, float))
        and record["wall_seconds"] > 0
        and (weight := _geometry_weight(record.get("spec") or {})) > 0
    ]
    rate = sum(rates) / len(rates) if rates else 1.0
    return rate * _geometry_weight(point.spec.to_dict())


def _geometry_weight(spec_data: Dict[str, Any]) -> float:
    """Relative size of a scenario: simulated compute units."""
    weight = 1.0
    for name in ("num_tiles", "num_vaults", "clusters_per_vault"):
        value = spec_data.get(name)
        if isinstance(value, (int, float)) and value > 0:
            weight *= value
    return weight


def order_longest_first(
    points: List[CampaignPoint], known: Dict[str, Dict[str, Any]]
) -> List[CampaignPoint]:
    """LPT order for the worker pool: longest expected point first.

    Deterministic: estimated cost descending, point id as the tie-break,
    so two runs over the same store state build identical queues.
    """
    return sorted(
        points, key=lambda point: (-_estimate_cost(point, known), point.id)
    )


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
    to the base scenario (axes are never shrunk), ``options.workers >=
    1`` dispatches points onto a bounded process pool of that many
    workers (``0``, the default, runs in-process), and non-default
    ``engine``/``memoize`` values override the *base* scenario before
    expansion — which changes the expanded point ids, exactly as editing
    the sweep definition would.

    ``max_points`` caps how many pending points this call executes (the
    rest stay pending for the next call).  ``on_point(record, fresh)``
    is invoked after every point is accounted for — with ``fresh=False``
    for skipped (resumed) points — which is how the CLI and the server
    stream progress; an exception it raises aborts the run exactly like
    a kill, leaving the store resumable.  ``timing_cache`` lets a
    long-lived caller (the server) share one warm tile-timing cache
    across campaign runs; in-process runs default to a fresh per-call
    cache.

    ``cache`` (or ``options.cache_dir``, or ``$REPRO_CACHE_DIR`` — see
    :func:`~repro.campaign.cache.resolve_cache`) enables the global
    result cache: points found there are served without simulation
    (``on_point(record, False)``, counted as ``cached_points``) and
    every freshly executed point is published back.  ``options.shard``
    (``"i/N"``) restricts the run to the deterministic subset of points
    whose id hashes into shard ``i`` — the outcome's ``points`` and
    ``complete`` are then shard-local, and sibling shards' stores merge
    with :func:`~repro.campaign.store.merge_stores`.
    """
    from repro.campaign.store import ResultStore

    options = options if options is not None else ExecutionOptions()
    sweep = get_campaign(campaign) if isinstance(campaign, str) else campaign
    base_overrides = options.spec_overrides()
    if base_overrides:
        sweep = replace(sweep, base=sweep.base.with_overrides(**base_overrides))
    if options.quick:
        sweep = sweep.for_quick()
    workers = options.workers
    result_cache = resolve_cache(cache, options)
    points = sweep.expand()
    if options.shard is not None:
        index, count = parse_shard(options.shard)
        points = [p for p in points if int(p.id, 16) % count == index]
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
    executed = 0
    if pending and workers >= 1:
        with _trace.span(
            "campaign-pool", campaign=sweep.name, points=len(pending)
        ):
            executed = _run_pool(
                pending, store, stored, workers, on_point, result_cache
            )
    else:
        warm = timing_cache if timing_cache is not None else TileTimingCache()
        for point in pending:
            with _trace.span("point", name=point.spec.name):
                outcome = run_scenario(point.spec, timing_cache=warm)
            record = store.append(
                point_record(point, outcome, outcome.run_seconds)
            )
            stored[record["point_id"]] = record
            if result_cache is not None:
                result_cache.put(record)
            executed += 1
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
            "executed": executed,
        },
    )
    return CampaignOutcome(
        campaign=sweep,
        store_path=store.path,
        points=points,
        records=[stored[point.id] for point in points if point.id in stored],
        skipped_points=skipped,
        cached_points=cached,
        executed_points=executed,
        run_seconds=run_seconds,
        shard=options.shard,
        cache_dir=str(result_cache.root) if result_cache is not None else None,
    )


def _run_pool(
    pending,
    store,
    stored,
    workers: int,
    on_point,
    result_cache: Optional[GlobalResultCache] = None,
) -> int:
    """Dispatch ``pending`` onto a bounded pool with dynamic work-stealing.

    Points are queued longest-expected-first (:func:`order_longest_first`,
    costs from the records already in ``stored``) and only ``pool_size``
    are in flight at once; each completion hands its worker the next
    queued point.  Compared to submitting everything upfront this is the
    classic LPT + work-stealing schedule: on skewed sweeps no worker
    idles behind a round-robin assignment while another drains a queue
    of long points.  The parent process owns every store append and
    cache publish, so workers stay pure compute.
    """
    executed = 0
    queue = iter(order_longest_first(pending, stored))
    by_future = {}
    pool_size = min(workers, len(pending))
    tracing = _trace.TRACER.enabled
    with ProcessPoolExecutor(max_workers=pool_size) as pool:

        def submit_next(steal: bool = False) -> None:
            point = next(queue, None)
            if point is not None:
                if steal:
                    _STEALS.inc()
                    _LOG.debug("pool: stealing next point %s", point.id[:12])
                by_future[
                    pool.submit(
                        _execute_point_remote, point.spec.to_dict(), tracing
                    )
                ] = point
        for _ in range(pool_size):
            submit_next()
        try:
            while by_future:
                done, _ = wait(set(by_future), return_when=FIRST_COMPLETED)
                for future in done:
                    record = future.result()
                    spans = record.pop("_spans", None)
                    if spans:
                        _trace.TRACER.ingest(spans)
                    record["axes"] = dict(by_future.pop(future).axis_values)
                    record = store.append(record)
                    stored[record["point_id"]] = record
                    if result_cache is not None:
                        result_cache.put(record)
                    executed += 1
                    _POINTS.inc(outcome="executed")
                    metrics = record.get("metrics") or {}
                    _TILE_HITS.inc(metrics.get("cache_hits", 0))
                    _TILE_MISSES.inc(metrics.get("cache_misses", 0))
                    if on_point is not None:
                        on_point(record, True)
                    submit_next(steal=True)
        except BaseException:
            for future in by_future:
                future.cancel()
            raise
    return executed
