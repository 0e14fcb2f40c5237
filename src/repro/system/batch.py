"""The tile walker of system runs, with cross-tile batched cache-hit replay.

:func:`walk_tiles` is the one execution path of
:meth:`~repro.system.simulator.SystemSimulator.run`.  It visits tiles in
(cluster, position) order and runs each one inline: the tile's DMA-in
transfers, then its commands — a full cycle simulation on a timing-cache
miss, only the data plane on a hit (:mod:`repro.system.memo`) — then its
DMA-out transfers.  Without a timing cache every tile is fully simulated
in that order, which is the reference every other configuration is
tested against.

A big tiled workload is dominated by *identical* tile programs: the
timing cache collapses their cycle simulation to one run per timing
class, but replaying hits inline still costs one small NumPy dispatch per
tile, all walking the same command streams.  So the walker defers hits
and stacks them — only when a timing cache is present, the engine
advertises ``supports_batched_replay``, and every tile of the run passes
the self-containment gate below:

1. every deferred hit is grouped under a **batch key** — its engine
   timing signature plus everything the signature deliberately leaves out
   but the data plane needs (per-command scalar immediates and the
   TCDM-side layout of its DMA transfers);
2. each group's data plane executes as **one stacked dispatch**: the HMC
   inputs of all member tiles are gathered into a ``(tiles, tcdm_words)``
   float32 image stack with one fancy-index per transfer row, the engine
   replays the shared command stream over the whole stack at once
   (:meth:`~repro.cluster.engine.Engine.run_data_plane_batched`), and the
   outputs scatter back to each member's HMC region; a group of one tile
   runs the ordinary inline hit path;
3. cache misses still run inline in walk order, so hit/miss accounting
   and cached timings are identical to a walk that defers nothing.

Bit-exactness rests on a conservative **self-containment gate** checked
per batch key, read-only, before anything executes: every word a tile's
commands read must be covered by its own DMA-in transfers or by stores of
earlier commands of the same tile (own-command RAW reads resolve like the
unbatched fast path), and every byte its DMA-out transfers push back must
be covered by its DMA-in data or its command stores.  A self-contained
tile computes the same result on a zero-initialised private image as on
the residue-carrying shared TCDM.  If *any* tile of a run fails the gate
(or stages outside the HMC↔TCDM address classes), the walk defers
nothing and runs every tile inline, so correctness never depends on the
gate being clever.

Statistics are mirrored so a batched run's reports equal the inline
walk's: DMA engine/AXI/memory counters are credited per member on its own
cluster from the shared transfer geometry, and cached per-NTX active/stall
cycles are credited exactly like the inline hit path.  Data-plane
access counters of a multi-cluster group are accounted wholesale on the
group's representative cluster — aggregate totals match exactly; nothing
in the system reports reads the per-cluster breakdown.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.engine import get_engine
from repro.cluster.sim import ClusterSimulator
from repro.cluster.tiling import TileSchedule
from repro.core.vecops import CommandStreams, command_streams
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.system.config import SystemConfig
from repro.system.memo import CachedTiming, TileTimingCache

__all__ = ["ClusterAssignment", "passes_gate", "plan_tiles", "walk_tiles"]

_BATCH_GROUPS = _metrics.counter(
    "repro_batched_groups_total", "Stacked cache-hit groups replayed"
)
_BATCH_TILES = _metrics.counter(
    "repro_batched_tiles_total", "Tiles replayed through stacked groups"
)
#: Wall time per system-run phase: ``schedule`` and ``merge`` are timed by
#: :meth:`~repro.system.simulator.SystemSimulator.run`, ``batched-replay``
#: and ``cycle-sim`` by :func:`walk_tiles`.
PHASE_SECONDS = _metrics.histogram(
    "repro_phase_seconds",
    "Wall seconds per system-run phase",
    labelnames=("phase",),
)

_WORD = 4


@dataclass
class ClusterAssignment:
    """One cluster's share of a system run."""

    cluster_id: int
    vault_id: int
    cluster: Cluster
    #: ``(workload tile index, tile)`` in execution order.
    assigned: List[Tuple[int, TileSchedule]]


@dataclass
class _TilePlan:
    """What the walk needs of one tile, derived read-only up front."""

    tile: TileSchedule
    jobs: List[Tuple[int, object]]
    #: Timing signature (``None`` without a cache or without commands).
    signature: Optional[tuple]
    #: Batch key (``None`` without a cache).
    key: Optional[tuple] = None


@dataclass
class _Member:
    """One cache-hit tile deferred into a batch group."""

    work_index: int
    position: int
    plan: _TilePlan


@dataclass
class _Group:
    """All deferred hit tiles sharing one batch key."""

    cached: CachedTiming
    members: List[_Member]


def _group_key(tile: TileSchedule, signature: tuple) -> tuple:
    """Batch key: timing signature + what the data plane additionally pins.

    The timing signature deliberately excludes the per-command ``scalar``
    immediate (it cannot influence arbitration) and knows nothing about the
    DMA transfers; both determine the replayed data, so they join the key.
    Only the TCDM-side layout of a transfer is pinned — the HMC-side
    addresses are exactly what varies across the members of a group.
    """
    in_layout = tuple(
        (t.dst, t.row_bytes, t.rows, t.dst_pitch or t.row_bytes)
        for t in tile.transfers_in
    )
    out_layout = tuple(
        (t.src, t.row_bytes, t.rows, t.src_pitch or t.row_bytes)
        for t in tile.transfers_out
    )
    scalars = tuple(command.scalar for command in tile.commands)
    return (signature, scalars, in_layout, out_layout)


# --------------------------------------------------------------------------- #
# Self-containment gate                                                       #
# --------------------------------------------------------------------------- #


def _reads_resolved(
    streams: CommandStreams, cov_words: np.ndarray, base: int, size: int
) -> bool:
    """Whether every read of one command has a deterministic in-image source.

    A read resolves if its word is covered in ``cov_words`` (one flag per
    TCDM word: fully written by DMA-in data or by an earlier command's
    store) *or* it observes an earlier store of the same command (the
    own-command RAW case the unbatched executor handles exactly).
    """
    store_addrs = streams.store_addrs
    unique_addrs: Optional[np.ndarray] = None
    first_ts: Optional[np.ndarray] = None
    if len(store_addrs):
        order = np.argsort(store_addrs, kind="stable")
        sorted_stores = store_addrs[order]
        unique_addrs, first_index = np.unique(sorted_stores, return_index=True)
        first_ts = np.minimum.reduceat(streams.store_ts[order], first_index)

    def resolved(addresses: Optional[np.ndarray], times: np.ndarray) -> bool:
        if addresses is None or len(addresses) == 0:
            return True
        if not (
            np.all((addresses >= base) & (addresses + _WORD <= base + size))
            and np.all((addresses - base) % _WORD == 0)
        ):
            return False
        from_image = cov_words[(addresses - base) >> 2]
        if from_image.all():
            return True
        if unique_addrs is None:
            return False
        rest = ~from_image
        addrs = addresses[rest]
        when = times[rest]
        slot = np.searchsorted(unique_addrs, addrs)
        slot = np.minimum(slot, len(unique_addrs) - 1)
        hit = unique_addrs[slot] == addrs
        return bool(np.all(hit & (when > first_ts[slot])))

    every = np.arange(streams.total, dtype=np.int64)
    return (
        resolved(streams.read0, every)
        and resolved(streams.read1, every)
        and resolved(streams.init_read_addrs, streams.init_ts)
    )


def _self_contained(
    config: SystemConfig, tile: TileSchedule, jobs: Sequence[Tuple[int, object]]
) -> bool:
    """Whether ``tile`` computes identically on a zeroed private image.

    Checked once per batch key (every member shares the command streams and
    the TCDM-side DMA layout).  Also rejects tiles staging outside the
    HMC↔TCDM address classes — those must run through the real DMA router.

    Coverage is kept twice and updated in place: ``covered`` per byte (for
    the DMA-out check, which may move partial words) and ``cov_words`` per
    word (for command reads), derived once from the DMA-in bytes.  Stores
    write whole words, so they set both.
    """
    tcdm_cfg = config.cluster.tcdm
    base = tcdm_cfg.base_address
    size = tcdm_cfg.size_bytes
    if size % _WORD:  # pragma: no cover - TCDM sizes are word multiples
        return False
    hmc_base = config.hmc.base_address
    hmc_top = hmc_base + config.hmc.capacity_bytes
    covered = np.zeros(size, dtype=bool)

    for transfer in tile.transfers_in:
        for src, dst in transfer.row_addresses():
            if not (base <= dst and dst + transfer.row_bytes <= base + size):
                return False
            if not (hmc_base <= src and src + transfer.row_bytes <= hmc_top):
                return False
            covered[dst - base : dst - base + transfer.row_bytes] = True

    num_ntx = config.cluster.num_ntx
    per_ntx: List[List[object]] = [[] for _ in range(num_ntx)]
    for ntx_id, command in jobs:
        per_ntx[ntx_id].append(command)
    cov_bytes = covered.reshape(-1, _WORD)
    cov_words = cov_bytes.all(axis=1)
    for commands in per_ntx:
        for command in commands:
            streams = command_streams(command)
            if not _reads_resolved(streams, cov_words, base, size):
                return False
            store_addrs = streams.store_addrs
            if len(store_addrs):
                if not (
                    np.all(
                        (store_addrs >= base)
                        & (store_addrs + _WORD <= base + size)
                    )
                    and np.all((store_addrs - base) % _WORD == 0)
                ):
                    return False
                stored = (store_addrs - base) >> 2
                cov_bytes[stored] = True
                cov_words[stored] = True

    for transfer in tile.transfers_out:
        for src, dst in transfer.row_addresses():
            if not (base <= src and src + transfer.row_bytes <= base + size):
                return False
            if not (hmc_base <= dst and dst + transfer.row_bytes <= hmc_top):
                return False
            if not covered[src - base : src - base + transfer.row_bytes].all():
                return False
    return True


# --------------------------------------------------------------------------- #
# The walker                                                                  #
# --------------------------------------------------------------------------- #


class _ReportSlots:
    """Position-indexed accumulators for one cluster's report."""

    __slots__ = ("report", "compute", "dma", "results_by_pos")

    def __init__(self, report, num_tiles: int) -> None:
        self.report = report
        self.compute = [0.0] * num_tiles
        self.dma = [0.0] * num_tiles
        self.results_by_pos: Dict[int, object] = {}

    def finish(self) -> None:
        self.report.compute_cycles_per_tile = self.compute
        self.report.dma_cycles_per_tile = self.dma
        self.report.results = [
            self.results_by_pos[position]
            for position in sorted(self.results_by_pos)
        ]


def plan_tiles(
    config: SystemConfig, work: Sequence[ClusterAssignment], signed: bool
) -> List[List[_TilePlan]]:
    """Jobs, timing signature and batch key of every tile — read-only.

    ``signed`` (the run has a cache) computes timing signatures and batch
    keys; without it both stay ``None``.
    """
    num_ntx = config.cluster.num_ntx
    plans: List[List[_TilePlan]] = []
    for item in work:
        signer = ClusterSimulator(item.cluster, engine=config.engine)
        infos = []
        for _, tile in item.assigned:
            jobs = tile.jobs(num_ntx) if tile.commands else []
            signature = key = None
            if signed:
                if tile.commands:
                    signature = signer.timing_signature(
                        jobs, stagger_cycles=config.stagger_cycles
                    )
                key = _group_key(tile, signature)
            infos.append(_TilePlan(tile, jobs, signature, key))
        plans.append(infos)
    return plans


def passes_gate(config: SystemConfig, plans: List[List[_TilePlan]]) -> bool:
    """Whether every tile of a signed plan is self-contained — read-only.

    Checks each distinct batch key once and stops at the first refusal,
    before any cluster, DMA or HMC state has been touched.
    """
    checked = set()
    for infos in plans:
        for plan in infos:
            if plan.key not in checked:
                if not _self_contained(config, plan.tile, plan.jobs):
                    return False
                checked.add(plan.key)
    return True


def walk_tiles(
    config: SystemConfig,
    work: Sequence[ClusterAssignment],
    cache: Optional[TileTimingCache],
) -> List["object"]:
    """Execute ``work`` and return one report per work item, in order.

    Returns :class:`~repro.system.simulator.ClusterReport` objects with
    ``busy_cycles`` left at zero; the caller derives it (and the
    bandwidth-contention stretch) from the per-tile cycle lists.

    With ``cache`` present, a batch-capable engine and every tile passing
    the self-containment gate, the walk runs inside a ``batched-replay``
    span and defers hits into stacked groups.  Otherwise every tile runs
    inline, each cluster inside a ``cluster-tiles`` span — after the
    ``batched-replay`` span of the gate when the gate refused.
    """
    engine = get_engine(config.engine)
    plans = None
    if cache is not None and getattr(engine, "supports_batched_replay", False):
        tiles = sum(len(item.assigned) for item in work)
        with PHASE_SECONDS.time(phase="batched-replay"), _trace.span(
            "batched-replay", tiles=tiles
        ):
            plans = plan_tiles(config, work, signed=True)
            if passes_gate(config, plans):
                return _walk(config, work, cache, plans, defer=True)
    with PHASE_SECONDS.time(phase="cycle-sim"):
        if plans is None:
            plans = plan_tiles(config, work, signed=cache is not None)
        return _walk(config, work, cache, plans, defer=False)


# Span factories of one walk; ``_walk`` picks its set once from ``defer``.


def _no_span(*_args: object) -> ContextManager[object]:
    return nullcontext()


@contextmanager
def _cluster_tiles_span(item: ClusterAssignment) -> Iterator[None]:
    with _trace.TRACER.track(f"cluster-{item.cluster_id}"), _trace.span(
        "cluster-tiles", cluster=item.cluster_id, tiles=len(item.assigned)
    ):
        yield


def _tile_span(item: ClusterAssignment, position: int) -> ContextManager[object]:
    return _trace.span("tile", index=item.assigned[position][0])


def _tile_miss_span(item: ClusterAssignment, position: int) -> ContextManager[object]:
    return _trace.span("tile-miss", cluster=item.cluster_id, position=position)


def _walk(
    config: SystemConfig,
    work: Sequence[ClusterAssignment],
    cache: Optional[TileTimingCache],
    plans: List[List[_TilePlan]],
    defer: bool,
) -> List["object"]:
    """Visit every tile in (cluster, position) order; see :func:`walk_tiles`."""
    from repro.system.simulator import ClusterReport

    cluster_cfg = config.cluster
    core_ratio = cluster_cfg.ntx_frequency_hz / cluster_cfg.core_frequency_hz
    # ``defer`` fixes the span shape of the whole walk: a deferring walk
    # (already inside ``batched-replay``) traces only its cycle-simulated
    # misses; an inline walk traces each cluster on its own track and
    # every tile.
    if defer:
        cluster_span, tile_span, miss_span = _no_span, _no_span, _tile_miss_span
    else:
        cluster_span, tile_span, miss_span = _cluster_tiles_span, _tile_span, _no_span
    slots: List[_ReportSlots] = []
    groups: Dict[tuple, _Group] = {}
    for work_index, item in enumerate(work):
        report = ClusterReport(
            cluster_id=item.cluster_id,
            vault_id=item.vault_id,
            tile_indices=[index for index, _ in item.assigned],
        )
        slot = _ReportSlots(report, len(item.assigned))
        slots.append(slot)
        with cluster_span(item):
            for position, plan in enumerate(plans[work_index]):
                cached = None if plan.signature is None else cache.get(plan.signature)
                if defer and cached is not None:
                    group = groups.get(plan.key)
                    if group is None:
                        group = groups[plan.key] = _Group(cached=cached, members=[])
                    group.members.append(_Member(work_index, position, plan))
                    continue
                with tile_span(item, position):
                    _run_tile(
                        config, item, slot, position, plan, cached, cache, core_ratio,
                        miss_span,
                    )

    for group in groups.values():
        if len(group.members) >= 2:
            _BATCH_GROUPS.inc()
            _BATCH_TILES.inc(len(group.members))
            with _trace.span("batched-group", tiles=len(group.members)):
                _replay_group_batched(config, work, slots, group, core_ratio)
        else:
            member = group.members[0]
            _run_tile(
                config,
                work[member.work_index],
                slots[member.work_index],
                member.position,
                member.plan,
                group.cached,
                cache,
                core_ratio,
                miss_span,
            )

    for slot in slots:
        slot.finish()
    return [slot.report for slot in slots]


def _run_tile(
    config: SystemConfig,
    item: ClusterAssignment,
    slot: _ReportSlots,
    position: int,
    plan: _TilePlan,
    cached: Optional[CachedTiming],
    cache: Optional[TileTimingCache],
    core_ratio: float,
    miss_span: Callable[[ClusterAssignment, int], ContextManager[object]],
) -> None:
    """One tile inline: DMA in, cycle simulation or cached replay, DMA out.

    A hit (``cached``) executes only the data plane and credits the cached
    per-NTX active/stall cycles, which keeps the HMC bit-identical to a
    full simulation; a miss simulates and, with a ``cache``, records the
    timing under the tile's signature.  ``miss_span`` wraps that cycle
    simulation (a ``tile-miss`` span in deferring walks).
    """
    tile = plan.tile
    report = slot.report
    dma_cycles = 0
    for transfer in tile.transfers_in:
        dma_cycles += item.cluster.run_dma(transfer)
        report.dma_bytes += transfer.total_bytes
    if tile.commands:
        simulator = ClusterSimulator(item.cluster, engine=config.engine)
        if cached is None:
            with miss_span(item, position):
                result = simulator.run(plan.jobs, stagger_cycles=config.stagger_cycles)
            if cache is not None:
                cache.put(plan.signature, CachedTiming.from_result(result))
        else:
            simulator.run_data_plane(plan.jobs)
            _credit_cached_stats(config, item.cluster, cached)
            result = cached.to_result()
        slot.results_by_pos[position] = result
        slot.compute[position] = float(result.cycles)
    for transfer in tile.transfers_out:
        dma_cycles += item.cluster.run_dma(transfer)
        report.dma_bytes += transfer.total_bytes
    # DMA cycles tick at the core/AXI clock; convert to NTX cycles.
    slot.dma[position] = dma_cycles * core_ratio


def _credit_cached_stats(
    config: SystemConfig, cluster: Cluster, cached: CachedTiming
) -> None:
    """Credit a replayed tile's cached per-NTX active/stall cycles."""
    for ntx_id in range(config.cluster.num_ntx):
        stats = cluster.ntx[ntx_id].stats
        stats.active_cycles += cached.per_ntx_active[ntx_id]
        stats.stall_cycles += cached.per_ntx_stall[ntx_id]


def _replay_group_batched(
    config: SystemConfig,
    work: Sequence[ClusterAssignment],
    slots: List[_ReportSlots],
    group: _Group,
    core_ratio: float,
) -> None:
    """Replay one hit group as a single stacked data-plane dispatch."""
    members = group.members
    num_tiles = len(members)
    cached = group.cached
    tile0 = members[0].plan.tile
    item0 = work[members[0].work_index]
    tcdm_cfg = config.cluster.tcdm
    tcdm_base = tcdm_cfg.base_address
    hmc = item0.cluster.hmc
    hmc_base = hmc.base
    hmc_u8 = np.frombuffer(hmc.memory.data, dtype=np.uint8)

    images = np.zeros((num_tiles, tcdm_cfg.size_bytes // _WORD), dtype=np.float32)
    images_u8 = images.view(np.uint8)
    dma_cycles = 0

    # Gather: one fancy-index per transfer row pulls that row of every
    # member from the HMC into its image (TCDM-side layout is shared).
    for index, transfer0 in enumerate(tile0.transfers_in):
        row_bytes = transfer0.row_bytes
        cycles = item0.cluster.dma.transfer_cycles(transfer0)
        dma_cycles += cycles
        span = np.arange(row_bytes)
        sources = np.array(
            [
                [src for src, _ in member.plan.tile.transfers_in[index].row_addresses()]
                for member in members
            ],
            dtype=np.int64,
        )
        for row, (_, dst) in enumerate(transfer0.row_addresses()):
            offset = dst - tcdm_base
            images_u8[:, offset : offset + row_bytes] = hmc_u8[
                (sources[:, row] - hmc_base)[:, None] + span
            ]
        _mirror_dma_stats(work, slots, members, transfer0, cycles, inbound=True)

    # Compute: the engine replays the shared command stream over the stack.
    # (Only reached for engines advertising ``supports_batched_replay``,
    # whose hook must execute the stack — the vectorized engine handles
    # per-command exactness fallbacks internally.)
    if tile0.commands:
        simulator = ClusterSimulator(item0.cluster, engine=config.engine)
        if not get_engine(config.engine).run_data_plane_batched(
            simulator, members[0].plan.jobs, images
        ):  # pragma: no cover - contract violation of a custom engine
            raise RuntimeError(
                f"engine {config.engine!r} advertises batched replay but "
                "refused a stacked group"
            )
        for member in members:
            _credit_cached_stats(config, work[member.work_index].cluster, cached)

    # Scatter: push every member's output rows back to its HMC region
    # (disjoint by the workload contract, so order cannot matter).
    for index, transfer0 in enumerate(tile0.transfers_out):
        row_bytes = transfer0.row_bytes
        cycles = item0.cluster.dma.transfer_cycles(transfer0)
        dma_cycles += cycles
        span = np.arange(row_bytes)
        destinations = np.array(
            [
                [dst for _, dst in member.plan.tile.transfers_out[index].row_addresses()]
                for member in members
            ],
            dtype=np.int64,
        )
        for row, (src, _) in enumerate(transfer0.row_addresses()):
            offset = src - tcdm_base
            hmc_u8[(destinations[:, row] - hmc_base)[:, None] + span] = images_u8[
                :, offset : offset + row_bytes
            ]
        _mirror_dma_stats(work, slots, members, transfer0, cycles, inbound=False)

    for member in members:
        slot = slots[member.work_index]
        slot.results_by_pos[member.position] = cached.to_result()
        slot.compute[member.position] = float(cached.cycles)
        slot.dma[member.position] = dma_cycles * core_ratio


def _mirror_dma_stats(
    work: Sequence[ClusterAssignment],
    slots: List[_ReportSlots],
    members: Sequence[_Member],
    transfer0,
    cycles: int,
    inbound: bool,
) -> None:
    """Credit one staged transfer's counters per member, like ``run_dma``."""
    hmc_memory = work[members[0].work_index].cluster.hmc.memory
    for member in members:
        cluster = work[member.work_index].cluster
        cluster.dma.stats.transfers += 1
        cluster.dma.stats.bytes_moved += transfer0.total_bytes
        cluster.dma.stats.busy_cycles += cycles
        cluster.axi.record(transfer0.total_bytes, cycles)
        if inbound:
            cluster.tcdm.memory.writes += transfer0.rows
        else:
            cluster.tcdm.memory.reads += transfer0.rows
        slots[member.work_index].report.dma_bytes += transfer0.total_bytes
    if inbound:
        hmc_memory.reads += transfer0.rows * len(members)
    else:
        hmc_memory.writes += transfer0.rows * len(members)
