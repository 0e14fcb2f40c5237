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
and stacks them — whenever a timing cache is present and every tile of
the run passes the self-containment gate below:

1. every deferred hit is grouped under a **batch key** — its engine
   timing signature plus everything the signature deliberately leaves out
   but the data plane needs (per-command scalar immediates and the
   TCDM-side layout of its DMA transfers).  Jobs, signature and key are
   functions of the tile's :class:`~repro.cluster.tiling.TileProgram` and
   the run's engine, stagger and cluster configuration, so the program
   keeps them: they are derived once per program, not once per tile or
   per run;
2. each group's data plane executes as **one stacked dispatch** on a
   zero-initialised word-major ``(words, tiles)`` float32 stack: row ``w``
   holds TCDM word ``w`` of every member, over the word span the tile
   program stages or touches, so each gather and reduction step moves
   contiguous rows of ``tiles`` floats.  Members are ordered by HMC
   address; each DMA-in row goes straight from the HMC into its rows of
   the stack — one strided view of the HMC copied 32 tiles at a time when
   the members sit one stride apart (a tiled workload), a gather through
   a window view of the HMC otherwise.  The one data plane of both
   engines replays the shared command stream over the stack in place
   (:meth:`~repro.cluster.sim.ClusterSimulator.run_data_plane`),
   bit-identically to the per-op walk — and the DMA-out rows go straight
   back to each member's HMC region the same way.  A group of one tile
   runs the ordinary inline hit path;
3. cache misses still run inline in walk order, so hit/miss accounting
   and cached timings are identical to a walk that defers nothing.

Bit-exactness rests on a conservative **self-containment gate** checked
per tile program, read-only, before anything executes: every word a tile's
commands read must be covered by its own DMA-in transfers or by stores of
earlier commands of the same tile (own-command RAW reads resolve like the
unbatched fast path), and every byte its DMA-out transfers push back must
be covered by its DMA-in data or its command stores.  A self-contained
tile computes the same result on a zero-initialised private image as on
the residue-carrying shared TCDM.  If *any* tile of a run fails the gate
(or stages outside the HMC↔TCDM address classes), the walk defers
nothing and runs every tile inline, so correctness never depends on the
gate being clever.  The gate reads each command's shared plan
(:func:`repro.core.vecops.command_plan`) — its address bounds and the
reads it records as observing the command's own stores — the same plan
the data plane and the timing core run from.  Its TCDM-side verdict is a
function of the program and the TCDM geometry, so the program keeps it
and a warm program is not walked again; the HMC-side rows of every tile
(what members of a program differ in) are checked on every run, as one
array computation per program over the tiles' HMC addresses.

Statistics are mirrored so a batched run's reports equal the inline
walk's: DMA engine/AXI/memory counters are credited per member on its own
cluster from the shared transfer geometry, and cached per-NTX active/stall
cycles are credited exactly like the inline hit path.  Data-plane
access counters of a multi-cluster group are accounted wholesale on the
group's representative cluster — aggregate totals match exactly; nothing
in the system reports reads the per-cluster breakdown.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.cluster.cluster import Cluster
from repro.cluster.sim import ClusterSimulator
from repro.cluster.tiling import (
    ProgramJobs,
    TcdmRows,
    TileProgram,
    TileSchedule,
    program_facts,
)
from repro.core.vecops import CommandPlan
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.system.config import SystemConfig
from repro.system.memo import CachedTiming, TileTimingCache

__all__ = [
    "ClusterAssignment",
    "passes_gate",
    "plan_tiles",
    "walk_tiles",
]

_BATCH_GROUPS = _metrics.counter(
    "repro_batched_groups_total", "Stacked cache-hit groups replayed"
)
_BATCH_TILES = _metrics.counter(
    "repro_batched_tiles_total", "Tiles replayed through stacked groups"
)

_WORD = 4
#: Four ``True`` byte flags read as one native-endian word.
_ALL_BYTES = np.frombuffer(np.ones(_WORD, dtype=bool), dtype=np.uint32)[0]


@dataclass
class ClusterAssignment:
    """One cluster's share of a system run."""

    cluster_id: int
    vault_id: int
    cluster: Cluster
    #: ``(workload tile index, tile)`` in execution order.
    assigned: List[Tuple[int, TileSchedule]]


class _ProgramPlan(NamedTuple):
    """What the walk needs of one tile program in one run context: its
    jobs, timing signature (``None`` without commands) and batch key.
    Kept on the program, shared by every tile of it."""

    program: TileProgram
    jobs: ProgramJobs
    signature: Optional[tuple]
    key: tuple


@dataclass
class _Member:
    """One cache-hit tile deferred into a batch group."""

    work_index: int
    position: int
    plan: _ProgramPlan
    tile: TileSchedule


@dataclass
class _Group:
    """All deferred hit tiles sharing one batch key."""

    cached: CachedTiming
    members: List[_Member]


class _HashedKey(tuple):
    """A tuple that computes its hash once.

    Timing signatures and batch keys nest the whole cluster configuration,
    and the walk looks each tile's keys up several times (timing cache,
    batch groups); equal to, and hashed like, the plain tuple.
    """

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash

    def __reduce__(self):
        # String hashes differ between processes: never ship the cached one.
        return (_HashedKey, (tuple(self),))


def _batch_key(program: TileProgram, signature: Optional[tuple]) -> tuple:
    """Batch key: timing signature + what the data plane additionally pins.

    The timing signature deliberately excludes the per-command ``scalar``
    immediate (it cannot influence arbitration) and knows nothing about the
    DMA transfers; both determine the replayed data, so they join the key.
    Only the TCDM-side layout of a transfer is pinned — the HMC-side
    addresses are exactly what varies across the members of a group.
    """
    scalars = tuple(command.scalar for command in program.commands)
    return (signature, scalars, program.dma_in, program.dma_out)


# --------------------------------------------------------------------------- #
# Self-containment gate                                                       #
# --------------------------------------------------------------------------- #


def _reads_resolved(plan: CommandPlan, cov_words: np.ndarray, base: int) -> bool:
    """Whether every read of one in-span command has a deterministic
    in-image source.

    A read resolves if its word is covered in ``cov_words`` (one flag per
    TCDM word: fully written by DMA-in data or by an earlier command's
    store) *or* it observes an earlier store of the same command (the
    own-command RAW case the unbatched executor handles exactly), which
    the plan records per read.
    """
    for addresses, own in zip(plan.read_ports, plan.own_reads):
        if addresses is None or len(addresses) == 0:
            continue
        resolved = cov_words[(addresses - base) >> 2]
        if own is not None:
            resolved |= own
        if not resolved.all():
            return False
    return True


def _row_span(start: int, pitch: int, transfer) -> Tuple[int, int]:
    """The ``[lo, hi)`` bytes that ``transfer``'s rows cover when they start
    at ``start``, ``pitch`` bytes apart."""
    last = start + (transfer.rows - 1) * (pitch or transfer.row_bytes)
    return min(start, last), max(start, last) + transfer.row_bytes


def _rows_within(start: int, pitch: int, transfer, lo: int, hi: int) -> bool:
    """Whether every row of ``transfer`` starting at ``start``, ``pitch``
    bytes apart, lies in ``[lo, hi)``."""
    first, end = _row_span(start, pitch, transfer)
    return lo <= first and end <= hi


def _stages_in_hmc(
    config: SystemConfig, program: TileProgram, tiles: Sequence[TileSchedule]
) -> bool:
    """Whether every HMC-side row of ``tiles``' transfers lies in the HMC.

    The only part of the gate a tile program does not pin (tiles of one
    program differ exactly in their HMC addresses), so it is checked on
    every run: one array computation per transfer side over the HMC
    regions of every tile of ``program``.
    """
    hmc_base = config.hmc.base_address
    hmc_top = hmc_base + config.hmc.capacity_bytes
    for side, regions_of in (
        (program.dma_in, lambda tile: tile.hmc_in),
        (program.dma_out, lambda tile: tile.hmc_out),
    ):
        if not side:
            continue
        regions = np.array([regions_of(tile) for tile in tiles], dtype=np.int64)
        starts, pitches = regions[..., 0], regions[..., 1]
        row_bytes = np.array([rows.row_bytes for rows in side], dtype=np.int64)
        spans = np.array([rows.rows - 1 for rows in side], dtype=np.int64)
        last = starts + spans * np.where(pitches == 0, row_bytes, pitches)
        if (np.minimum(starts, last) < hmc_base).any():
            return False
        if (np.maximum(starts, last) + row_bytes > hmc_top).any():
            return False
    return True


def _tcdm_self_contained(config: SystemConfig, program: TileProgram) -> bool:
    """The TCDM side of :func:`_self_contained`: a function of the program
    and the TCDM geometry alone.

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
    top = base + size
    covered = np.zeros(size, dtype=bool)

    for rows in program.dma_in:
        if not _rows_within(rows.address, rows.pitch, rows, base, top):
            return False
        for dst in rows.row_addresses():
            covered[dst - base : dst - base + rows.row_bytes] = True

    cov_bytes = covered.reshape(-1, _WORD)
    # A word is covered when all four of its byte flags are.
    cov_words = covered.view(np.uint32) == _ALL_BYTES
    words = size // _WORD
    for plans in program.plans(config.cluster.num_ntx):
        for _, plan in plans:
            if not (plan.in_span(base, words) and _reads_resolved(plan, cov_words, base)):
                return False
            if plan.num_stores:
                stored = (plan.store_addrs - base) >> 2
                cov_bytes[stored] = True
                cov_words[stored] = True

    for rows in program.dma_out:
        if not _rows_within(rows.address, rows.pitch, rows, base, top):
            return False
        for src in rows.row_addresses():
            if not covered[src - base : src - base + rows.row_bytes].all():
                return False
    return True


def _tcdm_verdict(config: SystemConfig, program: TileProgram) -> bool:
    """:func:`_tcdm_self_contained`, kept on the program per TCDM geometry."""
    cluster = config.cluster
    geometry = (cluster.tcdm.base_address, cluster.tcdm.size_bytes, cluster.num_ntx)
    return program.derived(
        ("tcdm-gate", *geometry), lambda: _tcdm_self_contained(config, program)
    )


def _self_contained(config: SystemConfig, tile: TileSchedule) -> bool:
    """Whether ``tile`` computes identically on a zeroed private image.

    Every tile of a program shares the command streams and the TCDM-side
    DMA layout, so :func:`passes_gate` walks one program once.  Also
    rejects tiles staging outside the HMC↔TCDM address classes — those
    must run through the real DMA router.
    """
    return _stages_in_hmc(config, tile.program, [tile]) and _tcdm_self_contained(
        config, tile.program
    )


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
    config: SystemConfig, engine: str, work: Sequence[ClusterAssignment]
) -> List[List[_ProgramPlan]]:
    """Jobs, timing signature and batch key of every tile — read-only.

    All three are functions of the tile's program and of the run's engine,
    stagger and cluster configuration, so the program keeps them
    (:func:`~repro.cluster.tiling.program_facts`): a warm program signs
    nothing again.
    """
    num_ntx = config.cluster.num_ntx

    def derive(program: TileProgram) -> _ProgramPlan:
        jobs = program.jobs(num_ntx)
        signature = None
        if program.commands:
            # Every cluster of a system shares one configuration, so any
            # of them signs for all.
            signer = ClusterSimulator(work[0].cluster, engine=engine)
            signature = _HashedKey(
                signer.timing_signature(jobs, stagger_cycles=config.stagger_cycles)
            )
        return _ProgramPlan(program, jobs, signature, _HashedKey(_batch_key(program, signature)))

    key = ("walk", engine, config.stagger_cycles, config.cluster)
    flat = program_facts((tile for item in work for _, tile in item.assigned), key, derive)
    plans, start = [], 0
    for item in work:
        plans.append(flat[start : start + len(item.assigned)])
        start += len(item.assigned)
    return plans


def passes_gate(
    config: SystemConfig,
    work: Sequence[ClusterAssignment],
    plans: List[List[_ProgramPlan]],
) -> bool:
    """Whether every tile of a planned run is self-contained — read-only.

    Checks the HMC side of every tile, then the TCDM side of each distinct
    program once (kept on the program, so a warm program is not walked
    again), and stops at the first refusal, before any cluster, DMA or
    HMC state has been touched.
    """
    tiles_of: Dict[TileProgram, List[TileSchedule]] = {}
    for item, item_plans in zip(work, plans):
        for (_, tile), plan in zip(item.assigned, item_plans):
            tiles_of.setdefault(plan.program, []).append(tile)
    return all(
        _stages_in_hmc(config, program, tiles) for program, tiles in tiles_of.items()
    ) and all(_tcdm_verdict(config, program) for program in tiles_of)


def walk_tiles(
    config: SystemConfig,
    engine: str,
    work: Sequence[ClusterAssignment],
    cache: Optional[TileTimingCache],
) -> List["object"]:
    """Execute ``work`` on the ``engine`` cycle engine and return one
    report per work item, in order.

    Returns :class:`~repro.system.simulator.ClusterReport` objects with
    ``busy_cycles`` left at zero; the caller derives it (and the
    bandwidth-contention stretch) from the per-tile cycle lists.

    With ``cache`` present and every tile passing the self-containment
    gate, the walk runs inside a ``batched-replay`` span and defers hits
    into stacked groups, whichever the engine.  Otherwise every tile runs
    inline, each cluster inside a ``cluster-tiles`` span — after the
    ``batched-replay`` span of the gate when the gate refused.
    """
    if cache is None:
        plans = plan_tiles(config, engine, work)
    else:
        tiles = sum(len(item.assigned) for item in work)
        with _trace.span("batched-replay", tiles=tiles):
            plans = plan_tiles(config, engine, work)
            if passes_gate(config, work, plans):
                return _walk(config, engine, work, cache, plans, defer=True)
    return _walk(config, engine, work, cache, plans, defer=False)


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
    engine: str,
    work: Sequence[ClusterAssignment],
    cache: Optional[TileTimingCache],
    plans: List[List[_ProgramPlan]],
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
                tile = item.assigned[position][1]
                cached = None
                if cache is not None and plan.signature is not None:
                    cached = cache.get(plan.signature)
                if defer and cached is not None:
                    group = groups.get(plan.key)
                    if group is None:
                        group = groups[plan.key] = _Group(cached=cached, members=[])
                    group.members.append(_Member(work_index, position, plan, tile))
                    continue
                with tile_span(item, position):
                    _run_tile(
                        config, engine, item, slot, position, tile, plan, cached,
                        cache, core_ratio, miss_span,
                    )

    for group in groups.values():
        if len(group.members) >= 2:
            _BATCH_GROUPS.inc()
            _BATCH_TILES.inc(len(group.members))
            with _trace.span("batched-group", tiles=len(group.members)):
                _replay_group_batched(config, engine, work, slots, group, core_ratio)
        else:
            member = group.members[0]
            _run_tile(
                config,
                engine,
                work[member.work_index],
                slots[member.work_index],
                member.position,
                member.tile,
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
    engine: str,
    item: ClusterAssignment,
    slot: _ReportSlots,
    position: int,
    tile: TileSchedule,
    plan: _ProgramPlan,
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
    report = slot.report
    dma_cycles = 0
    for transfer in tile.transfers_in:
        dma_cycles += item.cluster.run_dma(transfer)
        report.dma_bytes += transfer.total_bytes
    if tile.commands:
        simulator = ClusterSimulator(item.cluster, engine=engine)
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
    config: SystemConfig, cluster: Cluster, cached: CachedTiming, count: int = 1
) -> None:
    """Credit ``count`` replayed tiles' cached per-NTX active/stall cycles."""
    for ntx_id in range(config.cluster.num_ntx):
        stats = cluster.ntx[ntx_id].stats
        stats.active_cycles += cached.per_ntx_active[ntx_id] * count
        stats.stall_cycles += cached.per_ntx_stall[ntx_id] * count


def _replay_group_batched(
    config: SystemConfig,
    engine: str,
    work: Sequence[ClusterAssignment],
    slots: List[_ReportSlots],
    group: _Group,
    core_ratio: float,
) -> None:
    """Replay one hit group as a single stacked data-plane dispatch."""
    members = _in_hmc_order(group.members)
    num_tiles = len(members)
    # Counters are credited per work item: members times one tile's worth.
    per_item = Counter(member.work_index for member in members)
    cached = group.cached
    # Members share the batch key, so the first one's program stands for
    # the TCDM side of all of them.
    plan0 = members[0].plan
    program = plan0.program
    item0 = work[members[0].work_index]
    tcdm_base = config.cluster.tcdm.base_address
    hmc = item0.cluster.hmc
    hmc_u8 = np.frombuffer(hmc.memory.data, dtype=np.uint8)

    # The word-major stack: word ``w`` of every member's private image in
    # row ``w``, over the word span the tile program stages or touches.
    lo, hi = _stack_span(config, program)
    stack = np.zeros((hi - lo, num_tiles), dtype=np.float32)
    base = tcdm_base + lo * _WORD
    dma_cycles = 0

    # DMA-in: each transfer row of every member goes from the HMC straight
    # into its rows of the stack (the TCDM-side layout is shared).
    for index, rows0 in enumerate(program.dma_in):
        cycles = item0.cluster.dma.transfer_cycles(rows0)
        dma_cycles += cycles
        sources = _row_offsets([member.tile.hmc_in[index] for member in members], rows0, hmc.base)
        for row, dst in enumerate(rows0.row_addresses()):
            _stage_in(stack, dst - base, hmc_u8, sources[:, row], rows0.row_bytes)
        _mirror_dma_stats(work, slots, per_item, rows0, cycles, inbound=True)

    # Compute: the shared command stream replays over the stack; commands
    # the kernel refuses walk tile by tile.
    if program.commands:
        ClusterSimulator(item0.cluster, engine=engine).run_data_plane(
            plan0.jobs, stack, base
        )
        for work_index, count in per_item.items():
            _credit_cached_stats(config, work[work_index].cluster, cached, count)

    # DMA-out: every member's output rows go from the stack straight back
    # to its HMC region (disjoint by the workload contract, so order
    # cannot matter).
    for index, rows0 in enumerate(program.dma_out):
        cycles = item0.cluster.dma.transfer_cycles(rows0)
        dma_cycles += cycles
        destinations = _row_offsets(
            [member.tile.hmc_out[index] for member in members], rows0, hmc.base
        )
        for row, src in enumerate(rows0.row_addresses()):
            _stage_out(stack, src - base, hmc_u8, destinations[:, row], rows0.row_bytes)
        _mirror_dma_stats(work, slots, per_item, rows0, cycles, inbound=False)

    for member in members:
        slot = slots[member.work_index]
        slot.results_by_pos[member.position] = cached.to_result()
        slot.compute[member.position] = float(cached.cycles)
        slot.dma[member.position] = dma_cycles * core_ratio


def _in_hmc_order(members: List[_Member]) -> List[_Member]:
    """``members`` sorted by the HMC address of their first transfer, so a
    tiled workload's members sit one stride apart."""
    program = members[0].plan.program
    if program.dma_in:
        return sorted(members, key=lambda member: member.tile.hmc_in[0][0])
    if program.dma_out:
        return sorted(members, key=lambda member: member.tile.hmc_out[0][0])
    return members


def _stack_span(config: SystemConfig, program: TileProgram) -> Tuple[int, int]:
    """The ``[lo, hi)`` words, counted from the TCDM base, that cover every
    TCDM byte ``program`` stages or its commands touch (the gate has
    checked that all of them lie in the TCDM); kept on the program."""
    base = config.cluster.tcdm.base_address
    num_ntx = config.cluster.num_ntx

    def derive() -> Tuple[int, int]:
        spans = [_row_span(rows.address, rows.pitch, rows) for rows in program.dma_in]
        spans += [_row_span(rows.address, rows.pitch, rows) for rows in program.dma_out]
        for plans in program.plans(num_ntx):
            for _, plan in plans:
                if plan.lo is not None:
                    spans.append((plan.lo, plan.hi + _WORD))
        if not spans:
            return 0, 0
        lo = min(first for first, _ in spans)
        hi = max(end for _, end in spans)
        return (lo - base) // _WORD, -(-(hi - base) // _WORD)

    return program.derived(("stack-span", base, num_ntx), derive)


def _row_offsets(
    regions: Sequence[Tuple[int, int]], rows0: TcdmRows, origin: int
) -> np.ndarray:
    """``(members, rows)`` byte offsets from ``origin`` of every HMC-side
    row of each member's transfer, given its ``(start, pitch)`` region (the
    row count and size are pinned by the batch key, as in ``rows0``)."""
    regions = np.array(regions, dtype=np.int64)
    starts, pitches = regions[:, 0], regions[:, 1]
    pitches = np.where(pitches == 0, rows0.row_bytes, pitches)
    rows = np.arange(rows0.rows, dtype=np.int64)
    return (starts - origin)[:, None] + pitches[:, None] * rows


#: Tiles per block of a copy between tile-major rows and the word-major
#: stack: one whole-stack transposing copy strides across every member's
#: rows at once and thrashes the cache; 32 tiles at a time do not.
_BLOCK_TILES = 32


def _strided_rows(
    hmc_u8: np.ndarray, starts: np.ndarray, row_bytes: int
) -> Optional[np.ndarray]:
    """The ``(members, row_bytes)`` HMC rows at byte offsets ``starts`` as
    one strided view, or ``None`` unless the starts lie one stride apart.
    (The gate has checked that every row lies in the HMC; NumPy checks the
    view's extent against the buffer again.)"""
    steps = np.diff(starts)
    if not steps.size or np.any(steps != steps[0]):
        return None
    return np.ndarray(
        (len(starts), row_bytes),
        dtype=np.uint8,
        buffer=hmc_u8,
        offset=int(starts[0]),
        strides=(int(steps[0]), 1),
    )


def _stage_in(
    stack: np.ndarray, offset: int, hmc_u8: np.ndarray, starts: np.ndarray, row_bytes: int
) -> None:
    """Copy each member's HMC row at ``starts`` to byte ``offset`` of its
    column of ``stack``."""
    rows = _strided_rows(hmc_u8, starts, row_bytes)
    if rows is None:
        rows = sliding_window_view(hmc_u8, row_bytes)[starts]
    if offset % _WORD or row_bytes % _WORD:
        images, skip = _partial_words(stack, offset, row_bytes)
        images.view(np.uint8)[:, skip : skip + row_bytes] = rows
        stack[offset // _WORD : offset // _WORD + images.shape[1]] = images.T
        return
    words = stack[offset // _WORD : (offset + row_bytes) // _WORD]
    rows = rows.view(np.float32)
    for first in range(0, len(starts), _BLOCK_TILES):
        words[:, first : first + _BLOCK_TILES] = rows[first : first + _BLOCK_TILES].T


def _stage_out(
    stack: np.ndarray, offset: int, hmc_u8: np.ndarray, starts: np.ndarray, row_bytes: int
) -> None:
    """Copy ``row_bytes`` from byte ``offset`` of each member's column of
    ``stack`` to its HMC row at ``starts``."""
    rows = _strided_rows(hmc_u8, starts, row_bytes)
    target = np.empty((len(starts), row_bytes), np.uint8) if rows is None else rows
    if offset % _WORD or row_bytes % _WORD:
        images, skip = _partial_words(stack, offset, row_bytes)
        target[...] = images.view(np.uint8)[:, skip : skip + row_bytes]
    else:
        words = stack[offset // _WORD : (offset + row_bytes) // _WORD]
        out = target.view(np.float32)
        for first in range(0, len(starts), _BLOCK_TILES):
            out[first : first + _BLOCK_TILES] = words[:, first : first + _BLOCK_TILES].T
    if rows is None:
        sliding_window_view(hmc_u8, row_bytes, writeable=True)[starts] = target


def _partial_words(stack: np.ndarray, offset: int, row_bytes: int) -> Tuple[np.ndarray, int]:
    """A tile-major copy of the words holding bytes ``[offset, offset +
    row_bytes)`` of every column, and the offset of the first byte in it
    (rows that start or end inside a word)."""
    first, end = offset // _WORD, -(-(offset + row_bytes) // _WORD)
    return np.ascontiguousarray(stack[first:end].T), offset - first * _WORD


def _mirror_dma_stats(
    work: Sequence[ClusterAssignment],
    slots: List[_ReportSlots],
    per_item: Dict[int, int],
    transfer0,
    cycles: int,
    inbound: bool,
) -> None:
    """Credit one staged transfer's counters per member, like ``run_dma``;
    ``per_item`` counts the group's members per work item."""
    hmc_memory = work[next(iter(per_item))].cluster.hmc.memory
    total_bytes = transfer0.total_bytes
    for work_index, count in per_item.items():
        cluster = work[work_index].cluster
        cluster.dma.stats.transfers += count
        cluster.dma.stats.bytes_moved += total_bytes * count
        cluster.dma.stats.busy_cycles += cycles * count
        cluster.axi.record(total_bytes * count, cycles * count)
        if inbound:
            cluster.tcdm.memory.writes += transfer0.rows * count
        else:
            cluster.tcdm.memory.reads += transfer0.rows * count
        slots[work_index].report.dma_bytes += total_bytes * count
    members = sum(per_item.values())
    if inbound:
        hmc_memory.reads += transfer0.rows * members
    else:
        hmc_memory.writes += transfer0.rows * members
