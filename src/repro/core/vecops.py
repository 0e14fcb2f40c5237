"""Vectorized micro-op stream generation and functional execution.

The scalar cycle engine regenerates every micro-op through
:class:`~repro.core.controller.NtxController` — one Python call per
innermost iteration — and issues every operand through the soft-float FPU.
Both are deterministic functions of the command alone, so they can be
hoisted out of the cycle loop entirely:

* :func:`command_plan` compiles a command into a :class:`CommandPlan`
  once per distinct command value and shares it through a bounded,
  process-wide cache (:data:`PLAN_CACHE_SIZE` entries), so every array it
  holds is read-only.  The plan reproduces the controller's address/flag
  stream for the whole command as NumPy arrays — the hardware-loop
  cascade has a closed form: loop ``k`` advances exactly when ``(t+1)``
  is divisible by the product of the inner loop counts, so the wrap level
  of every cycle, and from it every AGU address, falls out of a handful
  of vector operations.  It also carries what every consumer used to
  rederive from those streams: the address bounds behind the span check,
  the read-after-write verdict (a read observing an *earlier* store of the
  same command), the access counts and, per TCDM geometry, the int32 bank
  streams the timing core reads (:class:`BankStreams`).  The data plane,
  the timing engine (:mod:`repro.cluster.vecsim`) and the batched-replay
  gate (:mod:`repro.system.batch`) all read the same plan.  The cache's
  hits, misses and size are published once per system run
  (:func:`publish_plan_cache_metrics`).
* :func:`execute_streams_batched` replays the command's data effects
  (reads, FPU issues, write-backs) as array gathers, segmented reductions
  and scatters over a word-major ``(words, tiles)`` stack of TCDM images —
  the tile axis innermost, so every gather copies and every reduction step
  adds whole contiguous rows.  The one data-plane driver of both engines
  (:func:`repro.cluster.vecsim.run_data_plane`) runs it on the live TCDM
  viewed as a stack of one or on a batched group's stack.  Commands whose
  plan records a read-after-write hazard are executed through the exact
  per-op path (:func:`execute_functional`) instead; every such fallback
  is counted in ``repro_dataplane_fallbacks_total{reason}``.

The kernel has two modes; each engine names one
(:attr:`~repro.cluster.engine.Engine.exact_replay`):

* ``exact=False`` (the vectorized engine).  MAC keeps a per-step float64
  running sum of exact float64 products where the partial-carry-save
  register adds them exactly and rounds once at write-back, so a partial
  sum may differ from the scalar engine by a final-ulp rounding (bounded
  by the parity tests at ``rtol=1e-6``).  The other opcodes match the
  soft-float FPU except in the sign of a zero that MAX/MIN pick among
  ``±0`` ties, and in which NaN payload COPY/MASK/MAX/MIN pass on.
* ``exact=True`` (the scalar engine's timing-cache hits and batched
  groups) checks every addition of that running sum, and of the AGU2
  init value, with a Knuth TwoSum residual.  When every residual is zero
  and the sums are finite, the float64 sum *is* the exact accumulator
  content, and its single float32 conversion is the accumulator's
  round-to-nearest-even write-back — bit-identical to
  :class:`~repro.softfloat.pcs.PcsAccumulator`.  Any
  other MAC, and any COPY/MASK/MAX/MIN whose operands hit the cases
  above, takes the per-op path, so every store is bit-identical.

Fallback reasons: ``outside_tcdm`` (an address off the stack or
unaligned), ``raw_hazard``, ``nan_compare`` (a NaN input to a comparator
reduction), and in exact mode only ``inexact_mac`` (a MAC sum the
certificate cannot vouch for), ``nan_operand`` (a NaN that COPY/MASK
would move, or MAX/MIN seed with, unlike the per-op FPU), ``signed_zero``
(a ``-0.0`` input to MAX/MIN, whose ``±0`` ties NumPy breaks differently)
and, in both modes, ``pcs_config`` (a MAC on an NTX with a non-default
accumulator geometry, which may truncate or saturate; counted by the
driver in :mod:`repro.cluster.vecsim`).

The plans built here drive the shared data plane, the vectorized timing
engine (:mod:`repro.cluster.vecsim`) and the self-containment gate of
batched replay.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.commands import NUM_LOOPS, InitSource, NtxCommand, NtxOpcode
from repro.core.controller import NtxController
from repro.obs import metrics as _metrics

__all__ = [
    "BankStreams",
    "CommandPlan",
    "PLAN_CACHE_SIZE",
    "command_plan",
    "execute_streams_batched",
    "publish_plan_cache_metrics",
]

_ADDRESS_MASK = (1 << 32) - 1
_WORD = 4

_FALLBACKS = _metrics.counter(
    "repro_dataplane_fallbacks_total",
    "Commands the array data plane handed to the exact per-op executor",
    labelnames=("reason",),
)


# Like the tile-timing cache, the plan cache is not instrumented per
# lookup: ``publish_plan_cache_metrics`` publishes the deltas of the
# cache's own counters once per system run.
_PLAN_HITS = _metrics.counter(
    "repro_command_plan_cache_hits_total", "Command-plan cache hits"
)
_PLAN_MISSES = _metrics.counter(
    "repro_command_plan_cache_misses_total", "Command plans built"
)
_PLAN_ENTRIES = _metrics.gauge(
    "repro_command_plan_cache_entries", "Distinct command plans cached"
)
_PUBLISH_LOCK = threading.Lock()
#: The cache's ``(hits, misses)`` as last published.
_published = [0, 0]


def _fall_back(reason: str) -> bool:
    """Count one fast-path refusal under ``reason``; always ``False``."""
    _FALLBACKS.inc(reason=reason)
    return False


#: Distinct commands whose plans stay cached (least recently used go
#: first).  A cold ``report --all --quick`` plans 69 distinct commands,
#: 0.66 MB of arrays in all; the bound keeps a long-running process from
#: holding the streams of every command it saw.
PLAN_CACHE_SIZE = 128


class BankStreams:
    """One plan's port streams projected onto the banks of one TCDM.

    The bank streams are contiguous int32 arrays (``None`` for an absent
    or empty port), the layout the compiled timing core reads directly;
    ``accesses`` is the command's access count per bank, which the data
    plane credits to the TCDM counters.  Every array is read-only.
    """

    __slots__ = (
        "total", "period_init", "period_store", "num_init_reads",
        "num_stores", "has_store", "p0_banks", "p1_banks", "init_banks",
        "init_ts", "store_banks", "accesses",
    )

    def __init__(self, plan: "CommandPlan", base: int, num_banks: int) -> None:
        accesses = np.zeros(num_banks, dtype=np.int64)

        def to_banks(addresses: Optional[np.ndarray]) -> Optional[np.ndarray]:
            if addresses is None or len(addresses) == 0:
                return None
            banks = ((addresses - base) >> 2) % num_banks
            accesses[:] += np.bincount(banks, minlength=num_banks)
            return _frozen(banks.astype(np.int32))

        self.total = plan.total
        self.period_init = plan.period_init
        self.period_store = plan.period_store
        self.p0_banks = to_banks(plan.read0)
        self.p1_banks = to_banks(plan.read1)
        self.init_banks = to_banks(plan.init_read_addrs)
        has_init = self.init_banks is not None
        self.init_ts = _frozen(plan.init_ts.astype(np.int32)) if has_init else None
        self.num_init_reads = len(plan.init_ts) if has_init else 0
        self.store_banks = to_banks(plan.store_addrs)
        self.num_stores = plan.num_stores
        self.has_store = self.num_stores > 0
        self.accesses = _frozen(accesses)


class CommandPlan:
    """Everything the engines derive from one command's value, computed once.

    An NTX command is a static register-interface configuration, so its
    micro-op stream and every verdict about it are pure functions of the
    command.  :func:`command_plan` builds one plan per distinct command and
    shares it, so every array here is read-only.

    The streams: ``read0``/``read1`` hold one byte address per innermost
    iteration (or ``None`` when the opcode does not stream that operand);
    ``agu2`` is the output AGU's address at every iteration.  ``init_ts``
    / ``store_ts`` are the iteration indices at which the accumulator is
    (re)initialised / written back; ``init_read_addrs`` is only present for
    ``InitSource.AGU2`` commands.  ``period_init`` / ``period_store`` are
    the block lengths implied by the loop nest — inits fire every
    ``period_init`` iterations, stores at the end of every ``period_store``
    block — which is what lets the data plane use uniform reshapes instead
    of ragged segment bookkeeping; ``store_columns`` are the store
    positions within one init block, and ``read1_periodic`` is whether
    operand 1 presents the same addresses in every init block (a conv's
    weights), which lets a MAC gather them once.

    The verdicts: ``lo``/``hi`` bound every address the command presents
    (``None`` when it presents none) and ``residue`` is their common
    ``address % 4`` (``-1`` when they differ), which together answer
    :meth:`in_span`.  ``own_reads`` holds, per read port (operand 0,
    operand 1, init), a mask of the reads that observe an earlier store
    of the same command, or ``None`` when no read does; ``raw_hazard`` is
    whether any does.  :meth:`banks` projects the streams onto one TCDM's
    banks, lazily and once per ``(base, num_banks)``.
    """

    __slots__ = (
        "total", "read0", "read1", "agu2", "init_ts", "init_read_addrs",
        "store_ts", "store_addrs", "period_init", "period_store",
        "store_columns", "read1_periodic", "num_reads", "num_stores", "lo",
        "hi", "residue", "own_reads", "raw_hazard", "_banks",
    )

    def __init__(self, command: NtxCommand) -> None:
        counts = command.loops.enabled_counts
        levels = len(counts)
        total = command.total_iterations

        # Wrap level of iteration t: the number of loops whose counters wrap
        # when advancing past t, i.e. the number of levels k with
        # (t+1) % prod(counts[:k+1]) == 0.
        t_next = np.arange(1, total + 1, dtype=np.int64)
        wrap = np.zeros(total, dtype=np.int64)
        period = 1
        periods = [1]
        for count in counts:
            period *= count
            periods.append(period)
            wrap += (t_next % period) == 0
        level = np.minimum(wrap, NUM_LOOPS)

        # Per-cycle stride of each AGU: the stride selected by the wrap level
        # (a wrap level at or beyond NUM_LOOPS leaves the pointer unchanged,
        # which only ever happens on the final iteration).
        def addresses_for(agu) -> np.ndarray:
            strides = np.asarray(agu.strides + (0,) * (NUM_LOOPS + 1), dtype=np.int64)
            return _frozen(_agu_addresses(agu.base, strides[level]))

        self.total = total
        self.agu2 = agu2 = addresses_for(command.agu2)
        self.read0 = addresses_for(command.agu0) if command.opcode.reads_operand0 else None
        self.read1 = addresses_for(command.agu1) if command.opcode.reads_operand1 else None
        self.period_init = period_init = periods[min(command.init_level, levels)]
        self.period_store = period_store = periods[min(command.store_level, levels)]
        self.init_ts = _frozen(np.arange(0, total, period_init, dtype=np.int64))
        self.init_read_addrs = (
            _frozen(agu2[self.init_ts])
            if command.init_source is InitSource.AGU2
            else None
        )
        if command.writeback:
            store_ts = np.arange(period_store - 1, total, period_store, dtype=np.int64)
        else:
            store_ts = np.empty(0, dtype=np.int64)
        self.store_ts = _frozen(store_ts)
        self.store_addrs = _frozen(agu2[store_ts])
        per_block = period_init // period_store
        self.store_columns = _frozen(
            np.arange(1, per_block + 1, dtype=np.int64) * period_store - 1
        )
        read1 = self.read1
        self.read1_periodic = read1 is not None and bool(
            np.all(read1.reshape(-1, period_init) == read1[:period_init])
        )

        reads = [addresses for addresses in self.read_ports
                 if addresses is not None and len(addresses)]
        stores = [self.store_addrs] if len(store_ts) else []
        self.num_reads = sum(len(addresses) for addresses in reads)
        self.num_stores = len(store_ts)
        read_bounds, store_bounds = _bounds(reads), _bounds(stores)
        self.lo, self.hi = _bounds(reads + stores)
        # The common ``address % 4`` of every address, or -1.
        self.residue = int(self.lo) % _WORD if self.lo is not None else 0
        if any(np.any(addresses % _WORD != self.residue) for addresses in reads + stores):
            self.residue = -1
        self.own_reads: Tuple[Optional[np.ndarray], ...] = (None, None, None)
        # Disjoint read and store ranges (every conv) cannot hazard; only
        # overlapping ones pay for the store index.
        if read_bounds[0] is not None and store_bounds[0] is not None and (
            read_bounds[0] <= store_bounds[1] and store_bounds[0] <= read_bounds[1]
        ):
            self.own_reads = _own_store_reads(self)
        self.raw_hazard = any(mask is not None for mask in self.own_reads)
        self._banks: Dict[Tuple[int, int], BankStreams] = {}

    @property
    def read_ports(self) -> Tuple[Optional[np.ndarray], ...]:
        """The read streams: operand 0, operand 1, init reads."""
        return (self.read0, self.read1, self.init_read_addrs)

    def in_span(self, base: int, words: int) -> bool:
        """Whether every address is a word-aligned word of the
        ``words``-word span starting at ``base``."""
        if self.lo is None:
            return True
        return (
            self.lo >= base
            and self.hi + _WORD <= base + words * _WORD
            and self.residue == base % _WORD
        )

    def banks(self, base: int, num_banks: int) -> BankStreams:
        """The bank projection onto a TCDM at ``base`` with ``num_banks``."""
        key = (base, num_banks)
        projection = self._banks.get(key)
        if projection is None:
            projection = self._banks.setdefault(key, BankStreams(self, base, num_banks))
        return projection


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: plans are shared by every caller."""
    array.flags.writeable = False
    return array


def _bounds(streams: Sequence[np.ndarray]) -> Tuple[Optional[int], Optional[int]]:
    """The lowest and highest address of non-empty ``streams`` (``None``
    without any)."""
    if not streams:
        return None, None
    return (
        min(int(addresses.min()) for addresses in streams),
        max(int(addresses.max()) for addresses in streams),
    )


def _own_store_reads(plan: CommandPlan) -> Tuple[Optional[np.ndarray], ...]:
    """Per read port, the mask of reads that observe an earlier store of
    the same command, or ``None`` where no read does.

    A read at iteration ``t`` of an address first stored at iteration
    ``s < t`` must see the stored value; gather-before-scatter execution
    would return the stale memory contents instead.  Reads that precede
    (or coincide with) the first store of their address — e.g. AXPY's
    init read of ``y[i]`` in the same iteration that stores ``y[i]`` —
    are not.  One store index (each stored address and its earliest store
    iteration) serves every port.
    """
    store_addrs = plan.store_addrs
    if len(store_addrs) == 0:
        return (None, None, None)
    store_order = np.argsort(store_addrs, kind="stable")
    unique_addrs, first_index = np.unique(store_addrs[store_order], return_index=True)
    # store_ts is ascending, so the earliest store of an address is the
    # minimum store_ts among its occurrences.
    first_ts = np.minimum.reduceat(plan.store_ts[store_order], first_index)

    def observed(addresses: Optional[np.ndarray], times: np.ndarray):
        if addresses is None or len(addresses) == 0:
            return None
        slot = np.searchsorted(unique_addrs, addresses)
        slot = np.minimum(slot, len(unique_addrs) - 1)
        mask = (unique_addrs[slot] == addresses) & (times > first_ts[slot])
        return _frozen(mask) if mask.any() else None

    every = np.arange(plan.total, dtype=np.int64)
    return (
        observed(plan.read0, every),
        observed(plan.read1, every),
        observed(plan.init_read_addrs, plan.init_ts),
    )


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def command_plan(command: NtxCommand) -> CommandPlan:
    """The shared, read-only plan of ``command``, built once per distinct
    command value (commands are frozen dataclasses, hashed by value)."""
    return CommandPlan(command)


def publish_plan_cache_metrics() -> None:
    """Publish the plan cache's hits and misses since the last call, and
    its current size, to the :mod:`repro.obs` registry."""
    info = command_plan.cache_info()
    with _PUBLISH_LOCK:
        hits, misses = _published
        if info.hits < hits or info.misses < misses:  # the cache was cleared
            hits = misses = 0
        _PLAN_HITS.inc(info.hits - hits)
        _PLAN_MISSES.inc(info.misses - misses)
        _published[:] = [info.hits, info.misses]
    _PLAN_ENTRIES.set(info.currsize)


def _agu_addresses(base: int, selected_stride: np.ndarray) -> np.ndarray:
    """Addresses an AGU presents over a command, given per-cycle strides."""
    total = len(selected_stride)
    addresses = np.empty(total, dtype=np.int64)
    addresses[0] = 0
    if total > 1:
        np.cumsum(selected_stride[:-1], out=addresses[1:])
    # Addition is associative modulo 2**32, so one final mask reproduces the
    # hardware adder's per-step wrap-around.
    return (base + addresses) & _ADDRESS_MASK


def _account_accesses(tcdm, plan: CommandPlan, count: int = 1) -> None:
    """Mirror the per-access counters the scalar data path maintains.

    ``count`` multiplies the whole command's access pattern — the batched
    replay path accounts one command executed over ``count`` stacked tiles
    in a single call.
    """
    accesses = plan.banks(tcdm.base, tcdm.config.num_banks).accesses
    tcdm.bank_accesses += accesses * count
    tcdm.memory.reads += plan.num_reads * count
    tcdm.memory.writes += plan.num_stores * count


def execute_streams_batched(
    command: NtxCommand,
    plan: CommandPlan,
    stack: np.ndarray,
    base: int,
    exact: bool = False,
) -> bool:
    """Replay one command over a word-major stack of TCDM images at once.

    ``stack`` is a float32 array of shape ``(words, tiles)``: row ``w``
    holds word ``w`` — at byte address ``base + 4 * w`` — of every tile's
    private scratchpad image.  Every tile executes the *same* command
    stream over *different* data, so each gather copies whole contiguous
    rows of ``tiles`` floats, each reduction step adds whole rows, and each
    scatter writes whole rows: one NumPy dispatch per step for the whole
    stack.  The live TCDM's word view (``view[:, None]``) is a stack of one.

    Returns ``False`` when the command needs the exact per-op path: a RAW
    hazard inside the command, addresses off the stack or unaligned, or a
    NaN input to a comparator reduction anywhere in the stack.  With
    ``exact=True`` every store must also be bit-identical to the per-op
    soft-float walk, so the kernel further refuses a MAC whose sum the
    TwoSum certificate cannot vouch for, a NaN that COPY/MASK would move
    without the walk's float conversions (which quiet signalling NaNs) or
    that seeds MAX/MIN, and a ``-0.0`` input to MAX/MIN (NumPy breaks
    ``±0`` ties differently from the FPU's strict first-wins compare).
    The certified MAC materialises every float64 product of the stack,
    and one uncertified tile refuses the whole stack.  Each refusal is
    counted by reason.  No access counters are touched here.
    """
    words, tiles = stack.shape
    if not plan.in_span(base, words):
        return _fall_back("outside_tcdm")
    if plan.raw_hazard:
        return _fall_back("raw_hazard")

    def gather(addresses: Optional[np.ndarray]) -> Optional[np.ndarray]:
        return None if addresses is None else stack[(addresses - base) >> 2]

    opcode = command.opcode
    a = gather(plan.read0)
    # A MAC operand 1 that repeats in every init block (a conv's weights)
    # is gathered for one block and broadcast over the rest.
    if plan.read1_periodic and opcode is NtxOpcode.MAC:
        b = gather(plan.read1[: plan.period_init])
    else:
        b = gather(plan.read1)
    init_values = gather(plan.init_read_addrs)

    if opcode in (NtxOpcode.MAX, NtxOpcode.MIN, NtxOpcode.ARGMAX, NtxOpcode.ARGMIN):
        if a is not None and np.any(np.isnan(a)):
            return _fall_back("nan_compare")
    if exact:
        reason = _inexact_operands(opcode, a, init_values)
        if reason:
            return _fall_back(reason)

    values = _store_values(command, plan, a, b, init_values, tiles, exact)
    if values is None:
        return _fall_back("inexact_mac")
    if plan.num_stores:
        # Duplicate store addresses resolve in program order (store_ts is
        # ascending and NumPy fancy assignment applies rows left to right).
        stack[(plan.store_addrs - base) >> 2] = values
    return True


def _inexact_operands(
    opcode: NtxOpcode, a: Optional[np.ndarray], init_values: Optional[np.ndarray]
) -> Optional[str]:
    """Why the array formulas of a non-MAC ``opcode`` may not match the
    per-op FPU bit for bit on these operands, or ``None``.

    COPY and MASK move ``a`` without the walk's float conversions, which
    quiet signalling NaNs; MAX/MIN may return a NaN init value with a
    different payload, and break ``±0`` ties other than the FPU's strict
    first-wins compare.
    """
    if opcode in (NtxOpcode.COPY, NtxOpcode.MASK):
        moved = a
    elif opcode in (NtxOpcode.MAX, NtxOpcode.MIN):
        for data in (a, init_values):
            if data is not None and np.any(np.signbit(data) & (data == 0)):
                return "signed_zero"
        moved = init_values
    else:
        return None
    if moved is not None and np.any(np.isnan(moved)):
        return "nan_operand"
    return None


#: Below this many ``blocks x tiles`` lanes a block-axis walk pays more in
#: per-step dispatch than it saves over ``accumulate`` (measured crossover
#: in ``docs/performance.md``, "Stacked replay: measured").
_WALK_MIN_LANES = 2048


def _running(
    step: np.ufunc,
    term: Callable[[object], np.ndarray],
    shape: Tuple[int, int, int],
    columns: np.ndarray,
) -> np.ndarray:
    """The running ``step`` reduction of a ``(blocks, period, tiles)``
    operand along its block axis, at the store ``columns`` only:
    ``(blocks, len(columns), tiles)``.

    ``term(j)`` is the operand's ``(blocks, tiles)`` slice at block
    position ``j``, or the whole operand for ``j = slice(None)``.  Narrow
    inputs run ``step.accumulate`` over the whole operand; wide ones walk
    the block axis one vector step at a time, ``running = step(running,
    term(j))`` over ``blocks x tiles`` lanes, without materialising the
    operand.  Both apply ``step`` in the same left-to-right order, so they
    are bit-identical; the shape alone picks the faster one.
    """
    num_blocks, period, tiles = shape
    if num_blocks * tiles < _WALK_MIN_LANES:
        return step.accumulate(term(slice(None)), axis=1)[:, columns]
    running = np.array(term(0))
    out = np.empty((num_blocks, len(columns), tiles), dtype=running.dtype)
    column = 0
    for j in range(period):
        if j:
            step(running, term(j), out=running)
        if j == columns[column]:
            out[:, column] = running
            column += 1
    return out


def _two_sum_residual(a: np.ndarray, b: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Knuth's TwoSum: the rounding error of ``total = fl(a + b)``.

    Exact for finite operands in round-to-nearest, so a zero residual
    proves the addition rounded nothing; a non-finite sum yields NaN.
    """
    b_part = total - a
    return (a - (total - b_part)) + (b - b_part)


def _certified_mac(
    a: np.ndarray,
    b: np.ndarray,
    init_values: Optional[np.ndarray],
    columns: np.ndarray,
) -> Optional[np.ndarray]:
    """The MAC write-backs of ``(blocks, period, tiles)`` operands,
    bit-identical to the partial-carry-save accumulator, or ``None`` when
    some float64 addition of the running sum rounded.

    The 24x24 bit products are exact in float64; if every addition of
    their running sum (and of the init value) has a zero TwoSum residual,
    the sums are exact too, and one float32 conversion is the
    accumulator's single round-to-nearest-even.  ``+ 0.0`` maps an exact
    zero sum to ``+0``, as the accumulator's fixed-point zero rounds.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        products = np.multiply(a, b, dtype=np.float64)
        sums = np.add.accumulate(products, axis=1)
        if np.any(_two_sum_residual(sums[:, :-1], products[:, 1:], sums[:, 1:])):
            return None
        running = sums[:, columns]
        if init_values is not None:
            init = init_values.astype(np.float64)[:, None, :]
            seeded = running + init
            if np.any(_two_sum_residual(running, init, seeded)):
                return None
            running = seeded
        if not np.all(np.isfinite(running)):
            return None
        return (running + 0.0).astype(np.float32)


def _store_values(
    command: NtxCommand,
    plan: CommandPlan,
    a: Optional[np.ndarray],
    b: Optional[np.ndarray],
    init_values: Optional[np.ndarray],
    tiles: int,
    exact: bool = False,
) -> Optional[np.ndarray]:
    """The binary32 value of every write-back, ``(stores, tiles)`` in store
    order, from ``(iterations, tiles)`` operands and ``(inits, tiles)``
    init values; ``None`` when ``exact`` and a MAC sum is not certified.

    Per-iteration data is viewed as ``(blocks, period_init, tiles)``; every
    reduction runs along the block axis, so each tile's column is
    bit-for-bit what that tile alone would produce.
    """
    num_stores = plan.num_stores
    if not num_stores:
        return np.empty((0, tiles), dtype=np.float32)
    opcode = command.opcode
    scalar = np.float32(command.scalar)
    columns = plan.store_columns

    def blocks(data: np.ndarray) -> np.ndarray:
        return data.reshape(-1, plan.period_init, tiles)

    def stores(data: np.ndarray) -> np.ndarray:
        return data.reshape(num_stores, tiles)

    if opcode is NtxOpcode.MAC:
        a, b = blocks(a), blocks(b)
        if exact:
            values = _certified_mac(a, b, init_values, columns)
            return None if values is None else stores(values)
        # Exact 24x24 bit products fit a float64 significand, so only the
        # running sum differs from the partial-carry-save accumulator — by
        # at most one float64 rounding per added product.
        running = _running(
            np.add,
            lambda j: np.multiply(a[:, j], b[:, j], dtype=np.float64),
            a.shape,
            columns,
        )
        if init_values is not None:
            running += init_values.astype(np.float64)[:, None, :]
        return stores(running).astype(np.float32)

    if opcode is NtxOpcode.FILL:
        return np.full((num_stores, tiles), scalar, dtype=np.float32)

    if opcode in (NtxOpcode.MUL, NtxOpcode.ADD, NtxOpcode.SUB, NtxOpcode.MASK,
                  NtxOpcode.RELU, NtxOpcode.THRESHOLD, NtxOpcode.COPY):
        zero = np.float32(0.0)
        if opcode is NtxOpcode.MUL:
            element = a * b
        elif opcode is NtxOpcode.ADD:
            element = a + b
        elif opcode is NtxOpcode.SUB:
            element = a - b
        elif opcode is NtxOpcode.MASK:
            element = np.where(b != zero, a, zero)
        elif opcode is NtxOpcode.RELU:
            element = np.where(a > zero, a, zero)
        elif opcode is NtxOpcode.THRESHOLD:
            element = np.where(a > scalar, np.float32(1.0), zero)
        else:  # COPY
            element = a
        return stores(blocks(element)[:, columns])

    if opcode in (NtxOpcode.MAX, NtxOpcode.MIN):
        step = np.maximum if opcode is NtxOpcode.MAX else np.minimum
        a = blocks(a)
        running = _running(step, lambda j: a[:, j], a.shape, columns)
        if init_values is not None:
            step(running, init_values[:, None, :], out=running)
        return stores(running)

    if opcode in (NtxOpcode.ARGMAX, NtxOpcode.ARGMIN):
        signed = blocks(a) if opcode is NtxOpcode.ARGMAX else -blocks(a)
        # The comparator starts without an extremum (an AGU2 init value only
        # seeds MAX/MIN, not the index search), so the first element of a
        # block always becomes the initial best.
        seed = np.full((signed.shape[0], 1, tiles), -np.inf, dtype=signed.dtype)
        # Strictly-greater-than-all-previous elements become the new best;
        # ties keep the earliest index.
        prefix = np.maximum.accumulate(np.concatenate([seed, signed], axis=1), axis=1)
        is_new = signed > prefix[:, :-1]
        indices = np.arange(signed.shape[1], dtype=np.int64)[None, :, None]
        best = np.maximum.accumulate(np.where(is_new, indices, -1), axis=1)
        best = np.maximum(best[:, columns], 0)
        return stores(best).astype(np.float32)

    raise ValueError(f"unhandled opcode {opcode!r}")  # pragma: no cover


def execute_functional(ntx, command: NtxCommand, memory) -> None:
    """Exact per-op fallback: controller walk + soft-float FPU.

    Identical to :meth:`repro.core.ntx.Ntx.execute` but without touching
    the cycle statistics — the vectorized timing engine accounts those
    itself.
    """
    controller = NtxController(command)
    fpu = ntx.fpu
    opcode = command.opcode
    scalar = command.scalar
    for op in controller.micro_ops():
        if op.init:
            init_value = (
                memory.read_f32(op.init_read) if op.init_read is not None else None
            )
            fpu.init_block(opcode, init_value)
        operand0 = memory.read_f32(op.read0) if op.read0 is not None else None
        operand1 = memory.read_f32(op.read1) if op.read1 is not None else None
        fpu.issue(opcode, operand0, operand1, scalar)
        if op.store is not None:
            memory.write_f32(op.store, fpu.writeback(opcode))
