"""The run routine of both cycle engines, its data plane and the
vectorized engine's compiled timing.

Every cycle-level run, whichever engine times it, goes through
:func:`run_cycles`: the data plane writes the run's data and credits
every statistic but the cycles, then a cycle loop that sees addresses
only returns its :class:`~repro.cluster.timing_core.TimingCounters`.  The
scalar engine's loop (:func:`repro.cluster.engine.scalar_loop`) steps
controller, AGUs and operand FIFOs per micro-op; the vectorized engine
splits the work into phases so the per-cycle loop touches almost nothing:

1. **Command plans** (:func:`repro.core.vecops.command_plan`): the
   complete address stream of every TCDM port of every command, its
   hazard verdicts and its bank projection are compiled once per
   distinct command and shared read-only by every run of the process.
   Request generation inside the cycle loop reduces to indexing the plan's
   int32 bank streams (:class:`~repro.core.vecops.BankStreams`).
2. **Data plane** (:func:`run_data_plane`, the one writer of both
   engines): reads, FPU issues and write-backs are replayed as array
   gathers, segmented reductions and scatters
   (:func:`repro.core.vecops.execute_streams_batched`) — once per command
   instead of once per cycle — and MACs as one call of the compiled MAC
   kernel, which reproduces the partial-carry-save register.  The driver
   works on a word-major ``(words, tiles)`` stack: the live TCDM is a
   stack of one, and a batched replay group a stack of many, which the
   system walker stages straight from and back to the HMC and the kernel
   updates in place.  There is one mode: every store is bit-identical to
   the soft-float reference on every input, in program order.  Commands
   the kernel refuses (a read-after-write hazard, an address off the
   stack, a MAC without the compiled library) run through the exact
   per-op executor.
3. **Timing core**: a lean per-cycle loop that models the same machine
   as the scalar loop — per-port head-of-line requests, the
   operand-FIFO run-ahead window, one retirement per cycle, write-back
   backpressure, rotating-priority bank arbitration, command setup/drain —
   but over precomputed int32 bank arrays and integer state only.  The
   loop is compiled C (``timing_core.c``), built with the system ``cc`` on
   the first vectorized run of a process, cached per user and loaded
   with :mod:`ctypes` (see :mod:`repro.cluster.timing_core`); one C call
   runs every cycle of a run.

The compiled loop leaves out two behaviours of the scalar loop:
store-to-load forwarding across the write-back FIFO, and the shared grant
when two ports of one NTX present the same address in one cycle.  A run
that could meet either — a command with a read-after-write hazard
(``raw_hazard``) or with two read ports sharing an address
(``shared_reads``) — and every run without the compiled library are timed
by the scalar loop instead, and counted in
``repro_timing_core_fallbacks_total{reason}``.  So the timing is
cycle-exact against the scalar engine on every input, and
``tests/test_vecsim.py`` fuzzes the compiled loop against it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import astuple
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.cluster import timing_core
from repro.cluster.tiling import ProgramJobs
from repro.cluster.timing_core import TimingInput, TimingParams
from repro.core.commands import NtxCommand, NtxOpcode
from repro.core.fpu import FpuStats
from repro.core.ntx import (
    ACTIVE_CYCLES,
    FLOPS,
    ITERATIONS,
    STALL_CYCLES,
    STAT_COLUMNS,
    TCDM_READS,
    TCDM_WRITES,
    NtxStats,
)
from repro.core.vecops import (
    CommandPlan,
    _account_accesses,
    command_plan,
    execute_functional,
    execute_streams_batched,
)
from repro.obs import metrics as _metrics


__all__ = ["run_cycles", "run_data_plane", "live_stack"]

T = TypeVar("T")

_FALLBACKS = _metrics.counter(
    "repro_timing_core_fallbacks_total",
    "Cycle-loop runs the scalar engine timed instead of the compiled timing core",
    labelnames=("reason",),
)

#: One NTX's queue: each command with its shared plan, in issue order.
_Queue = List[Tuple[NtxCommand, CommandPlan]]


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


def _fpu_stats(command: NtxCommand, plan: CommandPlan) -> FpuStats:
    """The FPU counters of one command: functions of its structure alone,
    whichever path ran it."""
    return FpuStats(
        issues=plan.total,
        macs=plan.total if command.opcode is NtxOpcode.MAC else 0,
        comparisons=plan.total if command.opcode in _COMPARISONS else 0,
        writebacks=plan.num_stores,
    )


class _Accounts:
    """What one data-plane execution of a job list credits.

    ``per_ntx`` is the per-NTX counter array of one execution (rows and
    columns as :attr:`~repro.cluster.cluster.Cluster.ntx_stats`, cycles
    left at zero); ``accesses`` / ``reads`` / ``writes`` are the TCDM
    bank-access and memory counts of every command.  The TCDM totals
    assume the array data plane ran every command; :meth:`credit` takes
    back the share of the commands the per-op walk ran (it counts its
    own).  A function of the job list and the cluster configuration
    alone, so a program keeps it.
    """

    __slots__ = ("per_ntx", "accesses", "reads", "writes")

    def __init__(self, config, queues: Sequence[_Queue]) -> None:
        base, num_banks = config.tcdm.base_address, config.tcdm.num_banks
        ideal_cycles = config.ntx.ideal_cycles
        accesses = np.zeros(num_banks, dtype=np.int64)
        per_ntx = np.zeros((len(queues), len(STAT_COLUMNS)), dtype=np.int64)
        for row, plans in zip(per_ntx, queues):
            for command, plan in plans:
                stats = NtxStats(
                    commands=1,
                    iterations=plan.total,
                    flops=command.flops,
                    tcdm_reads=plan.num_reads,
                    tcdm_writes=plan.num_stores,
                    ideal_cycles=ideal_cycles(command),
                )
                row += (*astuple(stats), *astuple(_fpu_stats(command, plan)))
                accesses += plan.banks(base, num_banks).accesses
        for array in (per_ntx, accesses):
            array.flags.writeable = False
        self.per_ntx = per_ntx
        self.accesses = accesses
        self.reads = int(per_ntx[:, TCDM_READS].sum())
        self.writes = int(per_ntx[:, TCDM_WRITES].sum())

    def credit(self, cluster, count: int, walked: Sequence[CommandPlan]) -> None:
        """Credit ``count`` executions to ``cluster``; ``walked`` lists the
        plan of every command the per-op walk ran on it."""
        cluster.ntx_stats += self.per_ntx * count
        tcdm = cluster.tcdm
        tcdm.bank_accesses += self.accesses * count
        tcdm.memory.reads += self.reads * count
        tcdm.memory.writes += self.writes * count
        for plan in walked:
            # The per-op walk counted its own TCDM accesses.
            _account_accesses(tcdm, plan, count=-count)


class _ImageTcdm:
    """Adapter presenting one tile's private TCDM image as a scratchpad.

    The per-op fallback executor reads and writes through ``read_f32`` /
    ``write_f32``; this adapter serves those from the tile's column of the
    word-major stack (word 0 at address ``base``) while mirroring the
    access counters onto its cluster's TCDM, so a command of a batched
    group that falls back per tile accounts exactly like the unbatched
    path.
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
    owners: Optional[Sequence] = None,
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
    updating the stack in place, MACs as registers of the NTX
    accumulator geometry.  Without ``stack`` the live TCDM is the stack,
    one tile high (:func:`live_stack`).

    ``owners`` names the cluster each tile of ``stack`` belongs to (by
    default ``cluster``, whose configuration every owner shares).  A
    command the kernel refuses (see :mod:`repro.core.vecops`) runs
    through the exact per-op executor instead: on the live TCDM, or tile
    by tile through :class:`_ImageTcdm` on each tile's column of the
    stack, mirroring its accesses on its owner's TCDM.

    Statistics are accounted wholesale — the job list's totals (kept on
    its program, see :class:`_Accounts`) times the number of tiles each
    owner has on the stack — onto each owner; the caller credits the
    cycles.
    """
    live = stack is None
    if live:
        stack, base = live_stack(cluster.tcdm)
    num_tiles = stack.shape[1]
    if owners is None:
        owners = [cluster] * num_tiles
    mac = _mac_write_back()
    queues = _plans_per_ntx(cluster, jobs)
    pcs = cluster.config.ntx.pcs
    walked = []
    for plans in queues:
        for command, plan in plans:
            if execute_streams_batched(command, plan, stack, base, pcs, mac):
                continue
            for tile, owner in enumerate(owners):
                image = owner.tcdm if live else _ImageTcdm(stack[:, tile], base, owner.tcdm)
                execute_functional(owner.fpu, command, image)
            walked.append(plan)
    accounts = _program_fact(
        jobs, ("accounts", cluster.config), lambda: _Accounts(cluster.config, queues)
    )
    for owner, count in Counter(owners).items():
        accounts.credit(owner, count, walked)


def _timing_hazard(queues: Sequence[_Queue]) -> Optional[str]:
    """The first verdict, if any, under which a command of ``queues`` may
    meet a behaviour the compiled loop does not model."""
    plans = [plan for queue in queues for _, plan in queue]
    if any(plan.raw_hazard for plan in plans):
        return "raw_hazard"
    if any(plan.shared_reads for plan in plans):
        return "shared_reads"
    return None


def _compiled_timing(jobs, queues: Sequence[_Queue], params: TimingParams):
    """``jobs``' counters from the compiled loop, or ``None`` where it
    cannot time them (counted by reason): a command with a hazard verdict
    it does not model, or no compiled library."""
    hazard = _program_fact(jobs, ("timing-hazard",), lambda: _timing_hazard(queues))
    loop = None if hazard else timing_core.load()
    if loop is None:
        _FALLBACKS.inc(reason=hazard or timing_core.unavailable_reason())
        return None
    base, num_banks = params.tcdm_base, params.num_banks
    timing_input = _program_fact(
        jobs,
        ("timing-input", len(queues), base, num_banks),
        lambda: TimingInput([
            [plan.banks(base, num_banks) for _, plan in plans] for plans in queues
        ]),
    )
    return loop(timing_input, params)


def timing_params(
    simulator, max_cycles: int, dma_requests_per_cycle: float, stagger_cycles: int
) -> TimingParams:
    """The parameters of a cycle loop over ``simulator``'s cluster,
    starting from its interconnect's round-robin offset."""
    config = simulator.cluster.config
    tcdm = simulator.cluster.tcdm
    return TimingParams(
        num_banks=tcdm.config.num_banks,
        num_masters=simulator.interconnect.num_masters,
        window=config.ntx.data_fifo_depth,
        wb_depth=config.ntx.writeback_fifo_depth,
        setup_cycles=config.ntx.command_setup_cycles,
        drain_cycles=config.ntx.writeback_drain_cycles,
        stagger=max(stagger_cycles, 0),
        max_cycles=max_cycles,
        dma_requests_per_cycle=float(dma_requests_per_cycle),
        tcdm_words=tcdm.size // 4,
        rr_offset=simulator.interconnect._rr_offset,
        tcdm_base=tcdm.base,
    )


def run_cycles(
    simulator,
    jobs: Sequence[Tuple[int, NtxCommand]],
    max_cycles: int,
    dma_requests_per_cycle: float,
    stagger_cycles: int,
    compiled: bool,
):
    """The run routine of both engines (see ``ClusterSimulator.run``).

    The data plane writes ``jobs``' data and credits every statistic but
    the cycles; then a cycle loop times the run over addresses only, and
    its counters are credited to the interconnect and the co-processors.
    With ``compiled``, the compiled loop times every run it models; the
    rest, and every run without ``compiled``, are timed by
    :func:`repro.cluster.engine.scalar_loop`, to the same counters.
    """
    from repro.cluster.engine import scalar_loop
    from repro.cluster.sim import SimulationResult

    cluster = simulator.cluster
    interconnect = simulator.interconnect
    stats = cluster.ntx_stats
    before = stats[:, (FLOPS, ITERATIONS)].sum(axis=0)
    simulator.run_data_plane(jobs)
    flops, iterations = (stats[:, (FLOPS, ITERATIONS)].sum(axis=0) - before).tolist()

    queues = _plans_per_ntx(cluster, jobs)
    params = timing_params(simulator, max_cycles, dma_requests_per_cycle, stagger_cycles)
    counters = _compiled_timing(jobs, queues, params) if compiled else None
    if counters is None:
        counters = scalar_loop(
            [[command for command, _ in plans] for plans in queues], params
        )

    interconnect.cycles += counters.cycles
    interconnect.requests += counters.requests
    interconnect.grants += counters.grants
    interconnect.conflicts += counters.conflicts
    interconnect.conflict_cycles += counters.conflict_cycles
    interconnect._rr_offset = counters.rr_offset
    stats[:, ACTIVE_CYCLES] += counters.active
    stats[:, STALL_CYCLES] += counters.stall

    return SimulationResult(
        cycles=counters.cycles,
        flops=flops,
        iterations=iterations,
        tcdm_requests=counters.requests,
        tcdm_conflicts=counters.conflicts,
        per_ntx_active=tuple(counters.active),
        per_ntx_stall=tuple(counters.stall),
        frequency_hz=cluster.config.ntx_frequency_hz,
    )
