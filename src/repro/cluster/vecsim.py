"""Vectorized cycle-level engine for the cluster simulator.

The scalar engine (:mod:`repro.cluster.sim`) interprets every micro-op
through Python objects — controller steps, operand FIFOs, soft-float FPU
issues — inside the cycle loop.  This engine splits that work into three
phases so the per-cycle loop touches almost nothing:

1. **Command plans** (:func:`repro.core.vecops.command_plan`): the
   complete address stream of every TCDM port of every command, its
   read-after-write verdict and its bank projection are compiled once per
   distinct command and shared read-only by every run of the process.
   Request generation inside the cycle loop reduces to indexing the plan's
   int32 bank streams (:class:`~repro.core.vecops.BankStreams`).
2. **Data plane** (:func:`run_data_plane`, shared with the scalar
   engine): reads, FPU issues and write-backs are replayed as array
   gathers, segmented reductions and scatters
   (:func:`repro.core.vecops.execute_streams_batched`) — once per command
   instead of once per cycle — and MACs as one call of the compiled MAC
   kernel, which reproduces the partial-carry-save register.  The driver
   works on a word-major ``(words, tiles)`` stack: the live TCDM is a
   stack of one, and a batched replay group a stack of many, which the
   system walker stages straight from and back to the HMC and the kernel
   updates in place.  There is one mode: every store is bit-identical to
   the soft-float reference on every input.  Commands the kernel refuses
   (a read-after-write hazard, an address off the stack, a MAC without
   the compiled library) run through the exact per-op executor.
3. **Timing core**: a lean per-cycle loop that models exactly the same
   machine as the scalar engine — per-port head-of-line requests, the
   operand-FIFO run-ahead window, one retirement per cycle, write-back
   backpressure, rotating-priority bank arbitration, command setup/drain —
   but over precomputed int32 bank arrays and integer state only.  The
   loop is compiled C (``timing_core.c``), built with the system ``cc`` on
   the first :func:`run_vectorized` call of a process, cached per user and
   loaded with :mod:`ctypes` (see :mod:`repro.cluster.timing_core`); one C
   call runs every cycle of a run.  Where it cannot be built or loaded,
   the same loop runs in Python (:func:`_reference_loop`) with identical
   results, and each such run is counted in
   ``repro_timing_core_fallbacks_total{reason}``.

The timing core is behaviourally equivalent to the scalar engine except
for two deliberately dropped micro-behaviours (store-to-load forwarding
across the write-back FIFO, and the shared-grant case where two ports of
one NTX present the same address in the same cycle), both of which are
vanishingly rare for streaming kernels.  ``tests/test_vecsim.py`` pins the
resulting conflict-probability and cycle-count agreement on golden
workloads, and fuzzes the compiled loop against the Python loop.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.cluster import timing_core
from repro.cluster.tiling import ProgramJobs
from repro.cluster.timing_core import TimingCounters, TimingInput, TimingParams
from repro.core.commands import NtxCommand, NtxOpcode
from repro.core.vecops import (
    BankStreams,
    CommandPlan,
    _account_accesses,
    command_plan,
    execute_functional,
    execute_streams_batched,
)


__all__ = ["run_vectorized", "run_data_plane", "live_stack"]

_IDLE, _SETUP, _RUN = 0, 1, 2

T = TypeVar("T")

#: One NTX's queue: each command with its shared plan, in issue order.
_Queue = List[Tuple[NtxCommand, CommandPlan]]


class _NtxState:
    """Integer-only cycle state of one co-processor (reference loop).

    ``p0``/``p1``/``init``/``init_ts``/``store`` are the current command's
    bank streams as Python lists: indexing a list is what keeps the reference
    loop tolerable, so the conversion happens once per command here.
    """

    __slots__ = (
        "queue", "next_command", "start_cycle", "phase", "setup_left",
        "drain_left", "plan", "p0", "p1", "init", "init_ts", "store",
        "pos0", "pos1", "rpos", "wpos", "retired", "active", "stall",
    )

    def __init__(self, queue: List[BankStreams], start_cycle: int) -> None:
        self.queue = queue
        self.next_command = 0
        self.start_cycle = start_cycle
        self.phase = _IDLE
        self.setup_left = 0
        self.drain_left = 0
        self.plan: BankStreams | None = None
        self.p0 = self.p1 = self.init = self.init_ts = self.store = None
        self.pos0 = 0
        self.pos1 = 0
        self.rpos = 0
        self.wpos = 0
        self.retired = 0
        self.active = 0
        self.stall = 0


def _as_list(stream):
    return None if stream is None else stream.tolist()


def _plans_per_ntx(cluster, jobs: Sequence[Tuple[int, NtxCommand]]) -> Sequence[_Queue]:
    """Each NTX's commands with their plans, in issue order.

    Jobs of a :class:`~repro.cluster.tiling.TileProgram` carry it, and
    the program keeps its plans; any other job list is planned here.
    """
    num_ntx = cluster.config.num_ntx
    if isinstance(jobs, ProgramJobs) and jobs.num_ntx == num_ntx:
        return jobs.program.plans(num_ntx)
    jobs_per_ntx: List[_Queue] = [[] for _ in range(num_ntx)]
    for ntx_id, command in jobs:
        if not 0 <= ntx_id < num_ntx:
            raise ValueError(f"NTX index {ntx_id} out of range")
        jobs_per_ntx[ntx_id].append((command, command_plan(command)))
    return jobs_per_ntx


def _program_fact(jobs, key: tuple, derive: Callable[[], T]) -> T:
    """``derive()``, kept on the jobs' program under ``key`` when the jobs
    come from one (``key`` pins everything else it depends on)."""
    if isinstance(jobs, ProgramJobs):
        return jobs.program.derived(key, derive)
    return derive()


_COMPARISONS = frozenset((
    NtxOpcode.MAX, NtxOpcode.MIN, NtxOpcode.ARGMAX,
    NtxOpcode.ARGMIN, NtxOpcode.RELU, NtxOpcode.THRESHOLD,
))


def _fpu_counts(command: NtxCommand, plan: CommandPlan) -> Tuple[int, int, int, int]:
    """FPU issues, write-backs, MACs and comparisons of one command: what
    the per-op walk's real FPU counts itself, and the array data plane
    accounts wholesale."""
    macs = plan.total if command.opcode is NtxOpcode.MAC else 0
    comparisons = plan.total if command.opcode in _COMPARISONS else 0
    return plan.total, plan.num_stores, macs, comparisons


class _Accounts:
    """What one data-plane execution of a job list credits.

    ``per_ntx`` holds, per NTX, the command, iteration, flop, TCDM read
    and write and ideal-cycle totals, and then the FPU totals; ``accesses``
    / ``reads`` / ``writes`` are the TCDM bank-access and memory counts of
    every command.  The FPU and TCDM totals assume the array data plane
    ran every command; :meth:`credit` takes back the share of the commands
    the per-op walk ran (it counts its own).  A function of the job list
    and the cluster configuration alone, so a program keeps it.
    """

    __slots__ = ("per_ntx", "accesses", "reads", "writes")

    def __init__(self, config, queues: Sequence[_Queue]) -> None:
        base, num_banks = config.tcdm.base_address, config.tcdm.num_banks
        ideal_cycles = config.ntx.ideal_cycles
        accesses = np.zeros(num_banks, dtype=np.int64)
        self.per_ntx = []
        for plans in queues:
            totals = [len(plans), 0, 0, 0, 0, 0, 0, 0, 0, 0]
            for command, plan in plans:
                counts = (
                    plan.total, command.flops, plan.num_reads, plan.num_stores,
                    ideal_cycles(command), *_fpu_counts(command, plan),
                )
                for index, count in enumerate(counts, start=1):
                    totals[index] += count
                accesses += plan.banks(base, num_banks).accesses
            self.per_ntx.append(tuple(totals))
        accesses.flags.writeable = False
        self.accesses = accesses
        self.reads = sum(totals[3] for totals in self.per_ntx)
        self.writes = sum(totals[4] for totals in self.per_ntx)

    def credit(self, cluster, count: int, walked: Sequence[tuple]) -> None:
        """Credit ``count`` executions to ``cluster``; ``walked`` lists the
        ``(ntx, command, plan)`` of every command the per-op walk ran."""
        for ntx, totals in zip(cluster.ntx, self.per_ntx):
            if not totals[0]:
                continue
            stats, fpu_stats = ntx.stats, ntx.fpu_stats
            stats.commands += totals[0] * count
            stats.iterations += totals[1] * count
            stats.flops += totals[2] * count
            stats.tcdm_reads += totals[3] * count
            stats.tcdm_writes += totals[4] * count
            stats.ideal_cycles += totals[5] * count
            fpu_stats.issues += totals[6] * count
            fpu_stats.writebacks += totals[7] * count
            fpu_stats.macs += totals[8] * count
            fpu_stats.comparisons += totals[9] * count
        tcdm = cluster.tcdm
        tcdm.bank_accesses += self.accesses * count
        tcdm.memory.reads += self.reads * count
        tcdm.memory.writes += self.writes * count
        for ntx, command, plan in walked:
            # The per-op walk counted its own FPU issues and TCDM accesses.
            issues, writebacks, macs, comparisons = _fpu_counts(command, plan)
            fpu_stats = ntx.fpu_stats
            fpu_stats.issues -= issues * count
            fpu_stats.writebacks -= writebacks * count
            fpu_stats.macs -= macs * count
            fpu_stats.comparisons -= comparisons * count
            _account_accesses(tcdm, plan, count=-count)


class _ImageTcdm:
    """Adapter presenting one tile's private TCDM image as a scratchpad.

    The per-op fallback executor reads and writes through ``read_f32`` /
    ``write_f32``; this adapter serves those from the tile's column of the
    word-major stack (word 0 at address ``base``) while mirroring the
    access counters onto the real TCDM, so a command of a batched group
    that falls back per tile accounts exactly like the unbatched path.
    """

    __slots__ = ("_view", "_base", "_tcdm")

    def __init__(self, view: np.ndarray, base: int, tcdm) -> None:
        self._view = view
        self._base = base
        self._tcdm = tcdm

    def read_f32(self, address: int) -> float:
        tcdm = self._tcdm
        tcdm.bank_accesses[tcdm.bank_of(address)] += 1
        tcdm.memory.reads += 1
        return float(self._view[(address - self._base) >> 2])

    def write_f32(self, address: int, value: float) -> None:
        tcdm = self._tcdm
        tcdm.bank_accesses[tcdm.bank_of(address)] += 1
        tcdm.memory.writes += 1
        self._view[(address - self._base) >> 2] = np.float32(value)


def _mac_write_back() -> Union[Callable, str]:
    """The compiled MAC write-back, or the reason it is unavailable (under
    which the data plane refuses MACs and walks them per op)."""
    kernel = timing_core.mac_kernel()
    return timing_core.unavailable_reason() if kernel is None else kernel


def live_stack(tcdm) -> Tuple[np.ndarray, int]:
    """The live TCDM as a word-major stack one tile high, and the address
    of its row 0.

    A backing that is not a writable buffer raises here instead of
    degrading to the per-op path.
    """
    return np.frombuffer(tcdm.memory.data, dtype="<f4")[:, None], tcdm.base


def run_data_plane(
    cluster,
    jobs: Sequence[Tuple[int, NtxCommand]],
    stack: Optional[np.ndarray] = None,
    base: int = 0,
) -> None:
    """Apply ``jobs``' data effects, in issue order, without the cycle loop.

    The one data plane of both engines: the vectorized engine's cycle run,
    every timing-cache hit (:mod:`repro.system.memo`) and every stacked
    batch group (:mod:`repro.system.batch`) replay through it, and every
    store is bit-identical to the per-op soft-float walk.

    ``stack`` is a word-major ``(words, tiles)`` float32 stack of private
    TCDM images whose row ``w`` holds the word at byte address
    ``base + 4 * w`` of every tile, covering every word the commands
    touch; every tile executes the same ``jobs``, so each command is one
    stacked dispatch (:func:`repro.core.vecops.execute_streams_batched`)
    updating the stack in place, MACs as registers of their NTX's
    accumulator geometry.  Without ``stack`` the live TCDM is the stack,
    one tile high (:func:`live_stack`).

    A command the kernel refuses (see :mod:`repro.core.vecops`) runs
    through the exact per-op executor instead: on the live TCDM, or tile
    by tile through :class:`_ImageTcdm` on each tile's column of the
    stack.

    Statistics are accounted wholesale — the job list's totals times the
    stack height (kept on its program, see :class:`_Accounts`) — onto
    ``cluster``; the caller credits the cycles.  A
    multi-cluster group's counters land on its representative cluster,
    which keeps aggregate system totals exact.
    """
    tcdm = cluster.tcdm
    live = stack is None
    if live:
        stack, base = live_stack(tcdm)
    num_tiles = stack.shape[1]
    mac = _mac_write_back()
    queues = _plans_per_ntx(cluster, jobs)
    walked = []
    for ntx, plans in zip(cluster.ntx, queues):
        pcs = ntx.config.pcs
        for command, plan in plans:
            if execute_streams_batched(command, plan, stack, base, pcs, mac):
                continue
            images = [tcdm] if live else (
                _ImageTcdm(stack[:, tile], base, tcdm) for tile in range(num_tiles)
            )
            for image in images:
                execute_functional(ntx, command, image)
            walked.append((ntx, command, plan))
    accounts = _program_fact(
        jobs, ("accounts", cluster.config), lambda: _Accounts(cluster.config, queues)
    )
    accounts.credit(cluster, num_tiles, walked)


def _reference_loop(timing_input: TimingInput, params: TimingParams) -> TimingCounters:
    """The per-cycle loop in Python: the reference the compiled core
    (``timing_core.c``) transcribes and is fuzzed against."""
    jobs_per_ntx = timing_input.queues
    num_ntx = len(jobs_per_ntx)
    num_banks = params.num_banks
    num_masters = params.num_masters
    window = params.window
    wb_depth = params.wb_depth
    setup_cycles = params.setup_cycles
    drain_cycles = params.drain_cycles
    max_cycles = params.max_cycles
    dma_requests_per_cycle = params.dma_requests_per_cycle
    tcdm_words = params.tcdm_words

    states = [
        _NtxState(plans, ntx_id * params.stagger)
        for ntx_id, plans in enumerate(jobs_per_ntx)
    ]

    # Arbitration scratch: per-bank best priority / request slot, reset via
    # the list of touched banks only.
    best_prio = [num_masters + 1] * num_banks
    best_slot = [0] * num_banks
    req_banks: List[int] = []
    req_slots: List[int] = []
    touched: List[int] = []

    rr_offset = params.rr_offset
    requests = 0
    grants = 0
    conflicts = 0
    conflict_cycles = 0

    dma_master = num_ntx
    dma_accumulator = 0.0
    dma_word = 0

    cycles = 0
    while cycles < max_cycles:
        req_banks.clear()
        req_slots.clear()
        any_busy = False

        for ntx_id in range(num_ntx):
            state = states[ntx_id]
            phase = state.phase
            if phase == _IDLE:
                if state.next_command >= len(state.queue):
                    continue
                if cycles < state.start_cycle:
                    any_busy = True  # staggered start still pending
                    continue
                plan = state.plan = state.queue[state.next_command]
                state.next_command += 1
                state.p0 = _as_list(plan.p0_banks)
                state.p1 = _as_list(plan.p1_banks)
                state.init = _as_list(plan.init_banks)
                state.init_ts = _as_list(plan.init_ts)
                state.store = _as_list(plan.store_banks)
                # A zero-cycle setup phase starts streaming immediately,
                # exactly like the scalar engine's setup guard.
                state.phase = _SETUP if setup_cycles > 0 else _RUN
                state.setup_left = setup_cycles
                state.pos0 = state.pos1 = state.rpos = state.wpos = 0
                state.retired = 0
                phase = state.phase
            any_busy = True
            if phase != _RUN:
                continue

            plan = state.plan
            limit = state.retired + window
            slot_base = ntx_id << 2
            pos0 = state.pos0
            if state.p0 is not None and pos0 < plan.total and pos0 < limit:
                req_banks.append(state.p0[pos0])
                req_slots.append(slot_base)
            pos1 = state.pos1
            if state.p1 is not None and pos1 < plan.total and pos1 < limit:
                req_banks.append(state.p1[pos1])
                req_slots.append(slot_base | 1)
            rpos = state.rpos
            if state.init is not None and rpos < plan.num_init_reads and (
                state.init_ts[rpos] < limit
            ):
                req_banks.append(state.init[rpos])
                req_slots.append(slot_base | 2)
            elif plan.has_store and (
                min(state.retired, plan.total) // plan.period_store > state.wpos
            ):
                req_banks.append(state.store[state.wpos])
                req_slots.append(slot_base | 3)

        if not any_busy:
            break

        # Background DMA traffic: fire-and-forget requests, like the scalar
        # engine's (a stalled DMA beat is not retried).
        dma_accumulator += dma_requests_per_cycle
        while dma_accumulator >= 1.0:
            req_banks.append(dma_word % num_banks)
            req_slots.append(-1)
            dma_word = (dma_word + 1) % tcdm_words
            dma_accumulator -= 1.0

        # Rotating-priority arbitration: at most one grant per bank.
        num_requests = len(req_banks)
        requests += num_requests
        if num_requests:
            for index in range(num_requests):
                bank = req_banks[index]
                slot = req_slots[index]
                master = dma_master if slot < 0 else (slot >> 2)
                prio = (master - rr_offset) % num_masters
                if best_prio[bank] > prio:
                    if best_prio[bank] > num_masters:
                        touched.append(bank)
                    best_prio[bank] = prio
                    best_slot[bank] = slot
            granted_here = len(touched)
            grants += granted_here
            if granted_here != num_requests:
                conflicts += num_requests - granted_here
                conflict_cycles += 1
            for bank in touched:
                slot = best_slot[bank]
                best_prio[bank] = num_masters + 1
                if slot < 0:
                    continue
                state = states[slot >> 2]
                port = slot & 3
                if port == 0:
                    state.pos0 += 1
                elif port == 1:
                    state.pos1 += 1
                elif port == 2:
                    state.rpos += 1
                else:
                    state.wpos += 1
            touched.clear()
        rr_offset = (rr_offset + 1) % num_masters

        # Commit: setup/drain phases, one retirement per co-processor.
        for ntx_id in range(num_ntx):
            state = states[ntx_id]
            phase = state.phase
            if phase == _IDLE:
                continue
            if phase == _SETUP:
                state.setup_left -= 1
                state.active += 1
                if state.setup_left == 0:
                    state.phase = _RUN
                continue
            plan = state.plan
            retired = state.retired
            if retired < plan.total:
                k = retired
                ready = True
                if state.p0 is not None and state.pos0 <= k:
                    ready = False
                elif state.p1 is not None and state.pos1 <= k:
                    ready = False
                elif state.init is not None and (
                    state.rpos <= k // plan.period_init
                ):
                    ready = False
                if ready and plan.has_store and (
                    k % plan.period_store == plan.period_store - 1
                ):
                    if k // plan.period_store - state.wpos >= wb_depth:
                        ready = False  # write-back FIFO full
                if ready:
                    state.retired = k + 1
                    state.active += 1
                    if state.retired == plan.total:
                        state.drain_left = drain_cycles
                        if drain_cycles == 0 and state.wpos == plan.num_stores:
                            state.phase = _IDLE
                            state.plan = None
                    continue
                state.stall += 1
                continue
            # All micro-ops retired: drain the write-back FIFO, then the
            # fixed pipeline-drain cycles.
            if state.wpos == plan.num_stores:
                if state.drain_left > 0:
                    state.drain_left -= 1
                    state.active += 1
                if state.drain_left <= 0:
                    state.phase = _IDLE
                    state.plan = None
                continue
            state.stall += 1

        cycles += 1
    else:
        raise RuntimeError(f"simulation did not finish within {max_cycles} cycles")

    return TimingCounters(
        cycles, requests, grants, conflicts, conflict_cycles, rr_offset,
        [state.active for state in states], [state.stall for state in states],
    )


def run_vectorized(
    simulator,
    jobs: Sequence[Tuple[int, NtxCommand]],
    max_cycles: int,
    dma_requests_per_cycle: float,
    stagger_cycles: int,
):
    """Cycle-level run over precomputed streams; see module docstring.

    The cycle loop runs in the compiled timing core, built on the first
    call; without it (counted, see :mod:`repro.cluster.timing_core`) the
    Python reference loop runs instead, with identical results.
    """
    from repro.cluster.sim import SimulationResult

    cluster = simulator.cluster
    config = cluster.config
    num_ntx = config.num_ntx
    tcdm = cluster.tcdm
    interconnect = simulator.interconnect

    start_flops = [n.stats.flops for n in cluster.ntx]
    start_iterations = [n.stats.iterations for n in cluster.ntx]
    simulator.run_data_plane(jobs)

    base, num_banks = tcdm.base, tcdm.config.num_banks
    timing_input = _program_fact(
        jobs,
        ("timing-input", num_ntx, base, num_banks),
        lambda: TimingInput([
            [plan.banks(base, num_banks) for _, plan in plans]
            for plans in _plans_per_ntx(cluster, jobs)
        ]),
    )
    loop = timing_core.load() or _reference_loop
    counters = loop(
        timing_input,
        TimingParams(
            num_banks=tcdm.config.num_banks,
            num_masters=interconnect.num_masters,
            window=config.ntx.data_fifo_depth,
            wb_depth=config.ntx.writeback_fifo_depth,
            setup_cycles=config.ntx.command_setup_cycles,
            drain_cycles=config.ntx.writeback_drain_cycles,
            stagger=max(stagger_cycles, 0),
            max_cycles=max_cycles,
            dma_requests_per_cycle=float(dma_requests_per_cycle),
            tcdm_words=tcdm.size // 4,
            rr_offset=interconnect._rr_offset,
        ),
    )

    interconnect.cycles += counters.cycles
    interconnect.requests += counters.requests
    interconnect.grants += counters.grants
    interconnect.conflicts += counters.conflicts
    interconnect.conflict_cycles += counters.conflict_cycles
    interconnect._rr_offset = counters.rr_offset

    for ntx_id in range(num_ntx):
        stats = cluster.ntx[ntx_id].stats
        stats.active_cycles += counters.active[ntx_id]
        stats.stall_cycles += counters.stall[ntx_id]

    return SimulationResult(
        cycles=counters.cycles,
        flops=sum(n.stats.flops - start_flops[i] for i, n in enumerate(cluster.ntx)),
        iterations=sum(
            n.stats.iterations - start_iterations[i]
            for i, n in enumerate(cluster.ntx)
        ),
        tcdm_requests=counters.requests,
        tcdm_conflicts=counters.conflicts,
        per_ntx_active=tuple(counters.active),
        per_ntx_stall=tuple(counters.stall),
        frequency_hz=config.ntx_frequency_hz,
    )
