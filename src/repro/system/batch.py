"""The tile walker of system runs, with cross-tile batched cache-hit replay.

:func:`walk_tiles` is the one execution path of
:meth:`~repro.system.simulator.SystemSimulator.run`.  It visits tiles in
(cluster, position) order and runs every tile through one routine
(:meth:`_Walk.run_tiles`) over a word-major ``(words, tiles)`` float32
stack, whose row ``w`` holds TCDM word ``w`` of each of its tiles:

1. DMA-in: each transfer of every tile on the stack is copied from the
   HMC into the stack at once (:func:`_stage`);
2. compute: a full cycle simulation on a timing-cache miss; on a hit
   (:mod:`repro.system.memo`) the one data plane of both engines
   (:meth:`~repro.cluster.sim.ClusterSimulator.run_data_plane`) replays
   the command stream over the stack in place, bit-identically to the
   per-op walk, and the cached per-NTX active/stall cycles are credited;
3. DMA-out: each transfer is copied back to the HMC the same way.

A tile that runs *inline* — a miss, or any tile of a walk that defers
nothing — runs on its cluster's live TCDM, viewed as a stack one tile
high (:func:`~repro.cluster.vecsim.live_stack`).  Without a timing cache
every tile is fully simulated inline in walk order, which is the
reference every other configuration is tested against.

A big tiled workload is dominated by *identical* tile programs: the
timing cache collapses their cycle simulation to one run per timing
class, and replaying the hits one by one would still cost one small
NumPy dispatch per command and tile.  So, whenever a timing cache is
present and every tile of the run passes the self-containment gate below,
the walker defers hits and stacks them:

1. every deferred hit is grouped under its
   :class:`~repro.cluster.tiling.TileProgram`.  Within one walk (one
   engine, stagger and cluster configuration) equal programs have equal
   timing signatures, so a group shares one cached timing.  Jobs and
   signature are functions of the program and that context, so the
   program keeps them: they are derived once per program, not once per
   tile or per run;
2. each group — of any size, one included — runs once, after the walk,
   on a zero-initialised stack over the word span the program stages or
   touches, one column per member.  Members are ordered by HMC address,
   so a tiled workload's members sit one stride apart and each transfer
   is one strided view of the HMC on that side, copied 32 members at a
   time; other layouts gather and scatter;
3. cache misses still run inline in walk order, so hit/miss accounting
   and cached timings are identical to a walk that defers nothing.

Before any state changes, every tile's DMA rows must lie in the HMC on
one side and in the TCDM on the other (:func:`_check_staging`); a tile
that stages elsewhere raises :class:`IndexError` naming it, and a
command with a read-after-write hazard :class:`ValueError`.

Bit-exactness of deferring rests on a conservative **self-containment
gate** checked per tile program, read-only, before anything executes:
every word a tile's commands read must be covered by its own DMA-in
transfers or by stores of earlier commands of the same tile, and every
byte its DMA-out transfers push back must be covered by its DMA-in data
or its command stores.  A self-contained tile computes the same result on a
zero-initialised private image as on the residue-carrying shared TCDM.
If *any* tile of a run fails the gate, the walk defers nothing and runs
every tile inline, so correctness never depends on the gate being clever.
The gate reads each command's shared plan
(:func:`repro.core.vecops.command_plan`) — its address bounds and
streams — the same plan the data plane and the timing core run from.
Its verdict is a function of the program and the TCDM geometry, so the
program keeps it and a warm program is not walked again.

Statistics are mirrored so every run reports what the cluster DMA engine
would have: its transfer, byte and busy-cycle counters, the AXI port and
one TCDM and one HMC access per row are credited per member on its own
cluster from the shared transfer geometry, and cached per-NTX
active/stall cycles per member too.  The data plane credits each
member's NTX and TCDM counters on its own cluster as well, so deferring
moves no counter between clusters: every cluster reports what the inline
walk leaves on it.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import (
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
from repro.cluster.sim import ClusterSimulator, SimulationResult, timing_signature
from repro.cluster.tiling import (
    HmcRows,
    ProgramJobs,
    TcdmRows,
    TileProgram,
    TileSchedule,
    program_facts,
)
from repro.cluster.vecsim import live_stack, plans_per_ntx
from repro.core.ntx import ACTIVE_CYCLES, STALL_CYCLES
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.system.config import SystemConfig
from repro.system.memo import TileTimingCache

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
    jobs and timing signature (``None`` without commands: never
    memoized).  Kept on the program, shared by every tile of it."""

    program: TileProgram
    jobs: ProgramJobs
    signature: Optional[tuple]


class _Member(NamedTuple):
    """One tile of a walk: where its report goes, its plan and itself."""

    work_index: int
    position: int
    plan: _ProgramPlan
    tile: TileSchedule


@dataclass
class _Group:
    """All deferred hit tiles of one program."""

    timing: SimulationResult
    members: List[_Member]


class _HashedKey(tuple):
    """A tuple that computes its hash once.

    Timing signatures nest the whole cluster configuration, and every
    run looks each tile's signature up in the timing cache; equal to, and
    hashed like, the plain tuple.
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


# --------------------------------------------------------------------------- #
# Staging bounds and the self-containment gate                                #
# --------------------------------------------------------------------------- #


def _row_span(start: int, pitch: int, transfer) -> Tuple[int, int]:
    """The ``[lo, hi)`` bytes that ``transfer``'s rows cover when they start
    at ``start``, ``pitch`` bytes apart."""
    last = start + (transfer.rows - 1) * (pitch or transfer.row_bytes)
    return min(start, last), max(start, last) + transfer.row_bytes


def _tcdm_rows_within(program: TileProgram, lo: int, hi: int) -> bool:
    """Whether every TCDM-side row of ``program``'s transfers lies in
    ``[lo, hi)``."""
    for rows in program.dma_in + program.dma_out:
        first, end = _row_span(rows.address, rows.pitch, rows)
        if first < lo or end > hi:
            return False
    return True


def _check_staging(config: SystemConfig, work: Sequence[ClusterAssignment]) -> None:
    """Raise :class:`IndexError` naming a tile whose DMA rows leave the
    TCDM on one side or the HMC on the other — read-only, before any
    cluster, DMA or HMC state changes.

    The TCDM side is a function of the program, kept on it; the HMC side
    (what the tiles of a program differ in) is one array computation per
    program and transfer side over its tiles' HMC regions.
    """
    tcdm = config.cluster.tcdm
    tcdm_lo, tcdm_hi = tcdm.base_address, tcdm.base_address + tcdm.size_bytes
    hmc_lo = config.hmc.base_address
    hmc_hi = hmc_lo + config.hmc.capacity_bytes
    tiles_of: Dict[TileProgram, List[Tuple[int, TileSchedule]]] = {}
    for item in work:
        for index, tile in item.assigned:
            tiles_of.setdefault(tile.program, []).append((index, tile))
    for program, tiles in tiles_of.items():
        within = program.derived(
            ("tcdm-rows", tcdm_lo, tcdm_hi),
            lambda: _tcdm_rows_within(program, tcdm_lo, tcdm_hi),
        )
        if not within:
            raise IndexError(
                f"tile {tiles[0][0]} stages TCDM rows outside "
                f"[{tcdm_lo:#010x}, {tcdm_hi:#010x})"
            )
        for side, regions_of in (
            (program.dma_in, lambda tile: tile.hmc_in),
            (program.dma_out, lambda tile: tile.hmc_out),
        ):
            if not side:
                continue
            regions = np.array([regions_of(tile) for _, tile in tiles], dtype=np.int64)
            starts, pitches = regions[..., 0], regions[..., 1]
            row_bytes = np.array([rows.row_bytes for rows in side], dtype=np.int64)
            spans = np.array([rows.rows - 1 for rows in side], dtype=np.int64)
            last = starts + spans * np.where(pitches == 0, row_bytes, pitches)
            outside = (np.minimum(starts, last) < hmc_lo) | (
                np.maximum(starts, last) + row_bytes > hmc_hi
            )
            if outside.any():
                index = tiles[int(outside.any(axis=1).argmax())][0]
                raise IndexError(
                    f"tile {index} stages HMC rows outside "
                    f"[{hmc_lo:#010x}, {hmc_hi:#010x})"
                )


def _tcdm_self_contained(config: SystemConfig, program: TileProgram) -> bool:
    """Whether every tile of ``program`` computes identically on a zeroed
    private image: a function of the program and the TCDM geometry alone
    (its DMA rows lie in the TCDM, :func:`_check_staging`).

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
    covered = np.zeros(size, dtype=bool)

    for rows in program.dma_in:
        for dst in rows.row_addresses():
            covered[dst - base : dst - base + rows.row_bytes] = True

    cov_bytes = covered.reshape(-1, _WORD)
    # A word is covered when all four of its byte flags are.
    cov_words = covered.view(np.uint32) == _ALL_BYTES
    words = size // _WORD
    for plans in program.plans(config.cluster.num_ntx):
        for _, plan in plans:
            if not plan.in_span(base, words) or not all(
                cov_words[(addresses - base) >> 2].all()
                for addresses in plan.read_ports if addresses is not None
            ):
                return False
            if plan.num_stores:
                stored = (plan.store_addrs - base) >> 2
                cov_bytes[stored] = True
                cov_words[stored] = True

    for rows in program.dma_out:
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
        self.results_by_pos: Dict[int, SimulationResult] = {}

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
    """Jobs and timing signature of every tile — read-only.

    Both are functions of the tile's program and of the run's engine,
    stagger and cluster configuration, so the program keeps them
    (:func:`~repro.cluster.tiling.program_facts`): a warm program signs
    nothing again.
    """
    num_ntx = config.cluster.num_ntx

    def derive(program: TileProgram) -> _ProgramPlan:
        jobs = program.jobs(num_ntx)
        plans_per_ntx(num_ntx, jobs)
        signature = None
        if program.commands:
            signature = _HashedKey(timing_signature(
                engine, config.cluster, jobs, stagger_cycles=config.stagger_cycles
            ))
        return _ProgramPlan(program, jobs, signature)

    key = ("walk", engine, config.stagger_cycles, config.cluster)
    flat = program_facts((tile for item in work for _, tile in item.assigned), key, derive)
    plans, start = [], 0
    for item in work:
        plans.append(flat[start : start + len(item.assigned)])
        start += len(item.assigned)
    return plans


def passes_gate(config: SystemConfig, plans: List[List[_ProgramPlan]]) -> bool:
    """Whether every tile of a planned run is self-contained — read-only.

    Checks each distinct program once (the verdict is kept on the
    program, so a warm program is not walked again) and stops at the
    first refusal.
    """
    programs = dict.fromkeys(plan.program for item_plans in plans for plan in item_plans)
    return all(_tcdm_verdict(config, program) for program in programs)


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

    Raises :class:`IndexError` naming a tile that stages outside the HMC
    or the TCDM, and :class:`ValueError` naming a command with a
    read-after-write hazard, before anything runs.  With ``cache``
    present and every tile passing the self-containment gate, the walk runs inside a
    ``batched-replay`` span and defers hits into stacked groups, whichever
    the engine.  Otherwise every tile runs inline, each cluster inside a
    ``cluster-tiles`` span — after the ``batched-replay`` span of the gate
    when the gate refused.
    """
    tiles = sum(len(item.assigned) for item in work)
    with nullcontext() if cache is None else _trace.span("batched-replay", tiles=tiles):
        _check_staging(config, work)
        plans = plan_tiles(config, engine, work)
        if cache is not None and passes_gate(config, plans):
            return _Walk(config, engine, work, cache, defer=True).run(plans)
    return _Walk(config, engine, work, cache, defer=False).run(plans)


# Span factories of one walk; ``_Walk`` picks its set once from ``defer``.


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


class _Walk:
    """One walk over planned work; see :func:`walk_tiles`."""

    def __init__(
        self,
        config: SystemConfig,
        engine: str,
        work: Sequence[ClusterAssignment],
        cache: Optional[TileTimingCache],
        defer: bool,
    ) -> None:
        self.config = config
        self.engine = engine
        self.work = work
        self.cache = cache
        self.defer = defer
        cluster = config.cluster
        # DMA cycles tick at the core/AXI clock; tiles report NTX cycles.
        self.core_ratio = cluster.ntx_frequency_hz / cluster.core_frequency_hz
        self.slots: List[_ReportSlots] = []
        # Every cluster of a system shares one HMC.
        self.hmc_u8 = (
            np.frombuffer(work[0].cluster.hmc.memory.data, dtype=np.uint8) if work else None
        )
        # ``defer`` fixes the span shape of the whole walk: a deferring walk
        # (already inside ``batched-replay``) traces only its cycle-simulated
        # misses and its groups; an inline walk traces each cluster on its
        # own track and every tile.
        if defer:
            self.cluster_span, self.tile_span, self.miss_span = (
                _no_span, _no_span, _tile_miss_span
            )
        else:
            self.cluster_span, self.tile_span, self.miss_span = (
                _cluster_tiles_span, _tile_span, _no_span
            )

    def run(self, plans: List[List[_ProgramPlan]]) -> List["object"]:
        """Visit every tile in (cluster, position) order, then every
        deferred group; return one report per work item."""
        from repro.system.simulator import ClusterReport

        cache = self.cache
        groups: Dict[TileProgram, _Group] = {}
        for work_index, item in enumerate(self.work):
            report = ClusterReport(
                cluster_id=item.cluster_id,
                vault_id=item.vault_id,
                tile_indices=[index for index, _ in item.assigned],
            )
            self.slots.append(_ReportSlots(report, len(item.assigned)))
            with self.cluster_span(item):
                for position, plan in enumerate(plans[work_index]):
                    member = _Member(work_index, position, plan, item.assigned[position][1])
                    timing = None
                    if cache is not None and plan.signature is not None:
                        timing = cache.get(plan.signature)
                    if self.defer and timing is not None:
                        group = groups.get(plan.program)
                        if group is None:
                            group = groups[plan.program] = _Group(timing, [])
                        group.members.append(member)
                        continue
                    with self.tile_span(item, position):
                        self.run_tiles([member], timing, live=True)

        for group in groups.values():
            _BATCH_GROUPS.inc()
            _BATCH_TILES.inc(len(group.members))
            with _trace.span("batched-group", tiles=len(group.members)):
                self.run_tiles(_in_hmc_order(group.members), group.timing, live=False)

        for slot in self.slots:
            slot.finish()
        return [slot.report for slot in self.slots]

    def run_tiles(
        self, members: List[_Member], timing: Optional[SimulationResult], live: bool
    ) -> None:
        """Run ``members`` — tiles of one program — over one word-major stack.

        ``live``: one tile on its cluster's live TCDM, a stack one tile
        high; a miss (``timing`` is ``None``) only runs so.  Otherwise a
        fresh zeroed stack over the program's word span, one column per
        member.  Each transfer is staged for every member at once and
        credited per member.  Compute is an engine run on a miss, recorded
        in the cache; on a hit the data plane over the stack, crediting
        each member on its own cluster, plus the cached per-NTX
        active/stall cycles.
        """
        config = self.config
        first = members[0]
        plan = first.plan
        program = plan.program
        cluster = self.work[first.work_index].cluster
        if live:
            stack, base = live_stack(cluster.tcdm)
        else:
            lo, hi = _stack_span(config, program)
            stack = np.zeros((hi - lo, len(members)), dtype=np.float32)
            base = config.cluster.tcdm.base_address + lo * _WORD
        hmc = cluster.hmc
        hmc_u8 = self.hmc_u8
        per_item = Counter(member.work_index for member in members)
        dma_cycles = 0

        for index, rows in enumerate(program.dma_in):
            regions = [member.tile.hmc_in[index] for member in members]
            _stage(stack, base, hmc_u8, hmc.base, regions, rows, inbound=True)
            dma_cycles += self._mirror_dma_stats(per_item, rows, inbound=True)

        if program.commands:
            simulator = ClusterSimulator(cluster, engine=self.engine)
            if timing is None:
                with self.miss_span(self.work[first.work_index], first.position):
                    timing = simulator.run(plan.jobs, stagger_cycles=config.stagger_cycles)
                if self.cache is not None and plan.signature is not None:
                    self.cache.put(plan.signature, timing)
            else:
                owners = None if live else [
                    self.work[member.work_index].cluster for member in members
                ]
                simulator.run_data_plane(plan.jobs, None if live else stack, base, owners)
                cycles = np.array((timing.per_ntx_active, timing.per_ntx_stall)).T
                for work_index, count in per_item.items():
                    stats = self.work[work_index].cluster.ntx_stats
                    stats[:, [ACTIVE_CYCLES, STALL_CYCLES]] += cycles * count

        # Members' DMA-out regions are disjoint by the workload contract,
        # so the order they are written in cannot matter.
        for index, rows in enumerate(program.dma_out):
            regions = [member.tile.hmc_out[index] for member in members]
            _stage(stack, base, hmc_u8, hmc.base, regions, rows, inbound=False)
            dma_cycles += self._mirror_dma_stats(per_item, rows, inbound=False)

        for member in members:
            slot = self.slots[member.work_index]
            if program.commands:
                slot.results_by_pos[member.position] = timing
                slot.compute[member.position] = float(timing.cycles)
            slot.dma[member.position] = dma_cycles * self.core_ratio

    def _mirror_dma_stats(
        self, per_item: Dict[int, int], rows: TcdmRows, inbound: bool
    ) -> int:
        """Credit one staged transfer's DMA, AXI, TCDM and HMC counters and
        DMA bytes per member, as the cluster DMA engine would, and return its
        cycles; ``per_item`` counts the members per work item."""
        work = self.work
        cluster0 = work[next(iter(per_item))].cluster
        cycles = cluster0.dma.transfer_cycles(rows)
        total_bytes = rows.total_bytes
        for work_index, count in per_item.items():
            cluster = work[work_index].cluster
            cluster.dma.stats.transfers += count
            cluster.dma.stats.bytes_moved += total_bytes * count
            cluster.dma.stats.busy_cycles += cycles * count
            cluster.axi.record(total_bytes * count, cycles * count)
            if inbound:
                cluster.tcdm.memory.writes += rows.rows * count
            else:
                cluster.tcdm.memory.reads += rows.rows * count
            self.slots[work_index].report.dma_bytes += total_bytes * count
        members = sum(per_item.values())
        if inbound:
            cluster0.hmc.memory.reads += rows.rows * members
        else:
            cluster0.hmc.memory.writes += rows.rows * members
        return cycles


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


# --------------------------------------------------------------------------- #
# Staging between the HMC and a stack                                         #
# --------------------------------------------------------------------------- #

#: The element a copy moves: a word where the TCDM side of a transfer is
#: word-aligned, a byte otherwise.
_UNIT_DTYPES = {_WORD: np.dtype(np.uint32), 1: np.dtype(np.uint8)}

#: Members per block of a copy between the HMC and a stack many tiles
#: wide: one whole-stack copy strides across every member's rows at once
#: and thrashes the cache; 32 members at a time do not.
_BLOCK_TILES = 32


def _stage(
    stack: np.ndarray,
    base: int,
    hmc_u8: np.ndarray,
    hmc_base: int,
    regions: List[HmcRows],
    rows: TcdmRows,
    inbound: bool,
) -> None:
    """Copy one transfer of every member between its HMC rows and its
    column of the word-major ``stack``.

    Row ``w`` of ``stack`` holds the TCDM word at ``base + 4 * w`` of each
    member, in ``regions`` order; ``regions`` holds each member's HMC
    ``(start, pitch)``.  Each side is one ``(members, rows, row units)``
    view — a unit is a word when the TCDM side of the transfer is
    word-aligned, a byte otherwise — so one member is the case of a stack
    one tile high and a member stride of zero.  A stack more than one tile
    high is not byte-addressable, so partial-word rows are staged through a
    tile-major copy of the words they touch.
    """
    offset = rows.address - base
    pitch = rows.pitch or rows.row_bytes
    unit = _WORD if (offset | pitch | rows.row_bytes) % _WORD == 0 else 1
    shape = (len(regions), rows.rows, rows.row_bytes // unit)
    dtype = _UNIT_DTYPES[unit]
    tiles = stack.shape[1]
    # Byte ``b`` of a column sits ``tiles * b`` bytes past the column's
    # start: exact for whole words, and for every byte one tile high.
    images, first, member_stride, scale = stack, 0, _WORD, tiles
    if unit < _WORD and tiles > 1:
        first = offset // _WORD
        end = -(-(offset + (rows.rows - 1) * pitch + rows.row_bytes) // _WORD)
        images = np.ascontiguousarray(stack[first:end].T)
        member_stride, scale = images.shape[1] * _WORD, 1
        offset -= first * _WORD
    tcdm = np.ndarray(
        shape, dtype, buffer=images, offset=offset * scale,
        strides=(member_stride, pitch * scale, unit * scale),
    )
    hmc, offsets = _hmc_rows(hmc_u8, hmc_base, regions, rows, shape, dtype)
    if inbound:
        if hmc is None:
            hmc = sliding_window_view(hmc_u8, rows.row_bytes)[offsets].view(dtype)
        _blocked_copy(tcdm, hmc)
        if images is not stack:
            stack[first : first + images.shape[1]] = images.T
    elif hmc is not None:
        _blocked_copy(hmc, tcdm)
    else:
        rows_out = np.ascontiguousarray(tcdm).view(np.uint8)
        sliding_window_view(hmc_u8, rows.row_bytes, writeable=True)[offsets] = rows_out


def _hmc_rows(
    hmc_u8: np.ndarray,
    hmc_base: int,
    regions: List[HmcRows],
    rows: TcdmRows,
    shape: Tuple[int, int, int],
    dtype: np.dtype,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """The HMC side of one transfer of every member.

    ``(view, None)``: a ``shape`` view of ``dtype`` units when the members
    sit one stride apart with one pitch (one member always does).
    ``(None, offsets)`` otherwise: the ``(members, rows)`` byte offsets of
    every row, to gather or scatter.  (Every row lies in the HMC,
    :func:`_check_staging`; NumPy checks the view's extent again.)
    """
    (start, pitch), *others = regions
    pitch = pitch or rows.row_bytes
    step = others[0][0] - start if others else 0
    if all(
        other == start + number * step and (other_pitch or rows.row_bytes) == pitch
        for number, (other, other_pitch) in enumerate(others, 1)
    ):
        view = np.ndarray(
            shape, dtype, buffer=hmc_u8, offset=start - hmc_base,
            strides=(step, pitch, dtype.itemsize),
        )
        return view, None
    regions = np.array(regions, dtype=np.int64)
    pitches = np.where(regions[:, 1] == 0, rows.row_bytes, regions[:, 1])
    starts = regions[:, 0] - hmc_base
    return None, starts[:, None] + pitches[:, None] * np.arange(rows.rows)


def _blocked_copy(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src`` over the leading (member) axis, in blocks of
    :data:`_BLOCK_TILES`."""
    if len(dst) <= _BLOCK_TILES:
        dst[...] = src
        return
    for first in range(0, len(dst), _BLOCK_TILES):
        dst[first : first + _BLOCK_TILES] = src[first : first + _BLOCK_TILES]
