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
  rederive from those streams: the address bounds and word residue
  behind the TCDM-word check, the read-after-write verdict (a read
  observing an *earlier* store of the same command), whether two read
  ports share an address, the access counts, per TCDM geometry the int32
  bank streams the timing core reads (:class:`BankStreams`), and per
  stack base the word-index streams the data plane reads
  (:class:`WordStreams`).
  The data plane, the timing engine (:mod:`repro.cluster.vecsim`) and the
  batched-replay gate (:mod:`repro.system.batch`) all read the same plan.
  The cache's hits, misses and size are published once per system run
  (:func:`publish_plan_cache_metrics`).
* :func:`execute_streams_batched` replays the command's data effects
  (reads, FPU issues, write-backs) over a word-major ``(words, tiles)``
  stack of TCDM images — the tile axis innermost, so every gather copies
  and every reduction step adds whole contiguous rows.  The one data-plane
  driver of both engines (:func:`repro.cluster.vecsim.run_data_plane`)
  runs it on the live TCDM viewed as a stack of one or on a batched
  group's stack.

There is one mode, and every store is bit-identical to the per-op
soft-float walk (:func:`execute_functional`) on every input:

* MAC runs in the compiled kernel the driver passes in (``tc_mac`` in
  ``repro/cluster/timing_core.c``, see
  :func:`repro.cluster.timing_core.mac_kernel`), which indexes the stack
  through the plan's word streams and reproduces the partial-carry-save
  register of any :class:`~repro.softfloat.pcs.PcsConfig`: a vectorized
  double-double lane certified per tile by TwoSum residuals, and an exact
  superaccumulator lane for every tile the certificate does not cover.
* The other opcodes are array formulas: MAX/MIN follow the comparator's
  strict first-wins compare (``±0`` ties and a NaN seed included),
  ARGMAX/ARGMIN keep index 0 behind a NaN first element, and
  COPY/MASK/MAX/MIN quiet signalling NaNs as the FPU's float conversions
  do.

Only a MAC runs through the per-op path instead, when the compiled
library is unavailable (its reason: ``no_compiler``, ``build_failed`` or
``load_failed``); every such fallback is counted in
``repro_dataplane_fallbacks_total{reason}``.  The engines refuse, before
a command gets here, any command that presents an address that is no
word of its cluster's TCDM or that reads its own earlier store
(:func:`repro.cluster.vecsim.plans_per_ntx`), so every address is a
row of the stack and gather-before-scatter is exact.

The plans built here drive the shared data plane, the vectorized timing
engine (:mod:`repro.cluster.vecsim`) and the self-containment gate of
batched replay.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.commands import NUM_LOOPS, InitSource, NtxCommand, NtxOpcode
from repro.core.controller import NtxController
from repro.obs import metrics as _metrics
from repro.softfloat.pcs import PcsConfig

__all__ = [
    "BankStreams",
    "CommandPlan",
    "PLAN_CACHE_SIZE",
    "WordStreams",
    "command_plan",
    "execute_streams_batched",
    "publish_plan_cache_metrics",
]

_ADDRESS_MASK = (1 << 32) - 1
_WORD = 4
#: The quiet bit of a binary32 NaN: the FPU's float conversions set it.
_QUIET_BIT = np.uint32(0x00400000)

_FALLBACKS = _metrics.counter(
    "repro_dataplane_fallbacks_total",
    "MACs the array data plane handed to the exact per-op executor",
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
    plane credits to the TCDM counters.  Only where read ports share an
    address (``plan.shared_reads``) do ``p0_addrs``/``p1_addrs``/
    ``init_addrs`` hold their 32-bit addresses as int32, for the shared
    grant.  Every array is read-only.
    """

    __slots__ = (
        "total", "period_init", "period_store", "num_init_reads",
        "num_stores", "has_store", "p0_banks", "p1_banks", "init_banks",
        "init_ts", "store_banks", "accesses", "p0_addrs", "p1_addrs",
        "init_addrs",
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

        self.p0_addrs, self.p1_addrs, self.init_addrs = (
            _frozen(addresses.astype(np.uint32).view(np.int32))
            if plan.shared_reads and addresses is not None and len(addresses) else None
            for addresses in plan.read_ports
        )


class WordStreams:
    """One plan's streams as word indices into a stack whose row 0 sits at
    byte address ``base``: ``read0``/``read1``/``init``/``store`` are
    contiguous int64 arrays (``None`` for an absent port) and ``pointers``
    their addresses, the layout the compiled MAC kernel reads directly.
    Every array is read-only."""

    __slots__ = ("read0", "read1", "init", "store", "pointers")

    def __init__(self, plan: "CommandPlan", base: int) -> None:
        def to_words(addresses: Optional[np.ndarray]) -> Optional[np.ndarray]:
            if addresses is None:
                return None
            return _frozen(np.ascontiguousarray((addresses - base) >> 2))

        self.read0 = to_words(plan.read0)
        self.read1 = to_words(plan.read1)
        self.init = to_words(plan.init_read_addrs)
        self.store = to_words(plan.store_addrs)
        self.pointers = tuple(
            None if words is None else words.ctypes.data
            for words in (self.read0, self.read1, self.init, self.store)
        )


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
    positions within one init block.

    The verdicts: ``lo``/``hi`` bound every address the command presents
    (``None`` when it presents none) and ``residue`` is their common
    ``address % 4`` (``-1`` when they differ), which together say whether
    every address is a word of a TCDM.  ``raw_hazard`` is whether a read
    observes an earlier store of the same command.  The engines refuse a
    command on either verdict (:func:`repro.cluster.vecsim.plans_per_ntx`).
    ``shared_reads`` is whether two read ports present a common address,
    which one grant may serve for both ports at once.  :meth:`banks`
    projects the streams onto one TCDM's banks, lazily and once per
    ``(base, num_banks)``, and :meth:`words` onto the rows of a stack,
    once per ``base``.
    """

    __slots__ = (
        "total", "read0", "read1", "agu2", "init_ts", "init_read_addrs",
        "store_ts", "store_addrs", "period_init", "period_store",
        "store_columns", "num_reads", "num_stores", "lo", "hi", "residue",
        "raw_hazard", "shared_reads", "_banks", "_words",
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

        reads = [addresses for addresses in self.read_ports
                 if addresses is not None and len(addresses)]
        stores = [self.store_addrs] if len(store_ts) else []
        self.num_reads = sum(len(addresses) for addresses in reads)
        self.num_stores = len(store_ts)
        self.lo, self.hi = _bounds(reads + stores)
        # The common ``address % 4`` of every address, or -1.
        self.residue = int(self.lo) % _WORD if self.lo is not None else 0
        if any(np.any(addresses % _WORD != self.residue) for addresses in reads + stores):
            self.residue = -1
        self.raw_hazard = _reads_an_own_store(self)
        self.shared_reads = _shares_an_address(reads)
        self._banks: Dict[Tuple[int, int], BankStreams] = {}
        self._words: Dict[int, WordStreams] = {}

    @property
    def read_ports(self) -> Tuple[Optional[np.ndarray], ...]:
        """The read streams: operand 0, operand 1, init reads."""
        return (self.read0, self.read1, self.init_read_addrs)

    def banks(self, base: int, num_banks: int) -> BankStreams:
        """The bank projection onto a TCDM at ``base`` with ``num_banks``."""
        key = (base, num_banks)
        projection = self._banks.get(key)
        if projection is None:
            projection = self._banks.setdefault(key, BankStreams(self, base, num_banks))
        return projection

    def words(self, base: int) -> WordStreams:
        """The word indices into a stack whose row 0 sits at ``base``."""
        streams = self._words.get(base)
        if streams is None:
            streams = self._words.setdefault(base, WordStreams(self, base))
        return streams


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


def _shares_an_address(streams: Sequence[np.ndarray]) -> bool:
    """Whether two of ``streams`` hold a common address.  Disjoint ranges
    (every conv) cannot; only overlapping ones pay for the intersection."""
    bounds = [_bounds([addresses]) for addresses in streams]
    return any(
        bounds[i][0] <= bounds[j][1] and bounds[j][0] <= bounds[i][1]
        and len(np.intersect1d(streams[i], streams[j])) > 0
        for i in range(len(streams))
        for j in range(i + 1, len(streams))
    )


def _reads_an_own_store(plan: CommandPlan) -> bool:
    """Whether a read at iteration ``t`` sees an address first stored at
    an iteration ``s < t`` of the same command (a read-after-write
    hazard, which the engines refuse).  A read in the iteration of the
    first store — AXPY's init read of ``y[i]`` — is not one."""
    if not plan.num_stores:
        return False
    # store_ts ascends, so each address's first occurrence is its earliest store.
    stored, first = np.unique(plan.store_addrs, return_index=True)
    first_ts = plan.store_ts[first]
    every = np.arange(plan.total, dtype=np.int64)
    for addresses, times in zip(plan.read_ports, (every, every, plan.init_ts)):
        # A read range disjoint from the stores' (every conv) cannot hazard.
        if addresses is None or len(addresses) == 0 or not (
            addresses.min() <= stored[-1] and stored[0] <= addresses.max()
        ):
            continue
        slot = np.minimum(np.searchsorted(stored, addresses), len(stored) - 1)
        if ((stored[slot] == addresses) & (times > first_ts[slot])).any():
            return True
    return False


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


def execute_streams_batched(
    command: NtxCommand,
    plan: CommandPlan,
    stack: np.ndarray,
    base: int,
    pcs: PcsConfig,
    mac: Union[Callable, str],
) -> bool:
    """Replay one command over a word-major stack of TCDM images at once.

    ``stack`` is a C-contiguous float32 array of shape ``(words, tiles)``:
    row ``w`` holds word ``w`` — at byte address ``base + 4 * w`` — of
    every tile's private scratchpad image.  Every tile executes the *same*
    command stream over *different* data, so each gather copies whole
    contiguous rows of ``tiles`` floats, each reduction step adds whole
    rows, and each scatter writes whole rows: one NumPy dispatch per step
    for the whole stack.  A MAC runs in ``mac``, the compiled write-back
    (:func:`repro.cluster.timing_core.mac_kernel`), over the stack in
    place as a register of geometry ``pcs``; without the library ``mac``
    is the reason it is unavailable, and MACs are refused under it.  The
    live TCDM's word view (``view[:, None]``) is a stack of one.

    Every store is bit-identical to the per-op walk.  Every address the
    command presents must be a row of the stack, and the command must not
    read its own earlier stores: the engines refuse any other command
    before calling here (:func:`repro.cluster.vecsim.plans_per_ntx`).
    Returns ``False`` (counted by reason, the stack untouched) when the
    command is a MAC without the compiled library, which the caller walks
    per op instead.  No access counters are touched here.
    """
    tiles = stack.shape[1]
    if not plan.num_stores:
        return True
    streams = plan.words(base)
    if command.opcode is NtxOpcode.MAC:
        if isinstance(mac, str):
            _FALLBACKS.inc(reason=mac)
            return False
        mac(stack, plan, streams, pcs)
        return True

    def gather(indices: Optional[np.ndarray]) -> Optional[np.ndarray]:
        return None if indices is None else stack[indices]

    values = _store_values(
        command, plan, gather(streams.read0), gather(streams.read1),
        gather(streams.init), tiles,
    )
    # Duplicate store addresses resolve in program order (store_ts is
    # ascending and NumPy fancy assignment applies rows left to right).
    stack[streams.store] = values
    return True


#: Below this many ``blocks x tiles`` lanes a block-axis walk pays more in
#: per-step dispatch than it saves over ``accumulate`` (measured crossover
#: in ``docs/performance.md``, "Stacked replay: measured").
_WALK_MIN_LANES = 2048


def _running(
    step: np.ufunc, a: np.ndarray, columns: np.ndarray, nan_as: float
) -> np.ndarray:
    """The running ``step`` reduction of a ``(blocks, period, tiles)``
    operand along its block axis, with every NaN taken as ``nan_as``, at
    the store ``columns`` only: ``(blocks, len(columns), tiles)``.

    Narrow inputs run ``step.accumulate`` over the whole operand; wide
    ones walk the block axis one vector step at a time, ``running =
    step(running, a[:, j])`` over ``blocks x tiles`` lanes, without
    materialising the cleaned operand.  Both apply ``step`` in the same
    left-to-right order, so they are bit-identical; the shape alone picks
    the faster one.
    """
    num_blocks, period, tiles = a.shape
    if num_blocks * tiles < _WALK_MIN_LANES:
        return step.accumulate(_nan_as(a, nan_as), axis=1)[:, columns]
    running = np.array(_nan_as(a[:, 0], nan_as))
    out = np.empty((num_blocks, len(columns), tiles), dtype=running.dtype)
    column = 0
    for j in range(period):
        if j:
            step(running, _nan_as(a[:, j], nan_as), out=running)
        if j == columns[column]:
            out[:, column] = running
            column += 1
    return out


#: The element-wise arithmetic opcodes.
_ARITHMETIC = {
    NtxOpcode.MUL: np.multiply,
    NtxOpcode.ADD: np.add,
    NtxOpcode.SUB: np.subtract,
}


def _pick_nan_operand(element: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Give ``element`` the FPU's NaN wherever both operands are NaN: the
    first operand's, quieted (NumPy leaves the choice to its loops)."""
    both = np.isnan(a) & np.isnan(b)
    if both.any():
        element[both] = a[both]
        _quiet(element)


def _nan_as(values: np.ndarray, value: float) -> np.ndarray:
    """``values`` with every NaN replaced by ``value`` (``values`` itself
    when it holds none)."""
    nan = np.isnan(values)
    return np.where(nan, values.dtype.type(value), values) if nan.any() else values


def _quiet(values: np.ndarray) -> np.ndarray:
    """``values`` with every signalling NaN quieted in place, as the FPU's
    float conversions quiet them (payload and sign kept)."""
    nan = np.isnan(values)
    if nan.any():
        values.view(np.uint32)[nan] |= _QUIET_BIT
    return values


def _extremum(
    opcode: NtxOpcode,
    a: np.ndarray,
    init_values: Optional[np.ndarray],
    columns: np.ndarray,
) -> np.ndarray:
    """The comparator register of MAX/MIN at the store ``columns``, from
    ``(blocks, period, tiles)`` operands and ``(blocks, tiles)`` AGU2 init
    values: ``(blocks, len(columns), tiles)``, quieted.

    The register starts at the init value (or takes the first operand) and
    takes an operand only when it compares strictly greater (less), so it
    holds the *first* element equal to the running extremum: a NaN first
    element sticks, later NaNs never win, and among ``±0`` ties the first
    zero's sign stays.  ``maximum``/``minimum`` over the operands with
    every NaN made the identity give the extremum's value; the two fixups
    below restore the rest.
    """
    step = np.maximum if opcode is NtxOpcode.MAX else np.minimum
    first = a[:, 0] if init_values is None else init_values
    never = -np.inf if opcode is NtxOpcode.MAX else np.inf
    running = _running(step, a, columns, never)
    if init_values is not None:
        step(running, init_values[:, None, :], out=running)
    zero = running == 0
    if zero.any():
        # A zero extremum is the block's first zero, the init value first.
        index = (a == 0).argmax(axis=1)[:, None, :]
        negative = np.signbit(np.take_along_axis(a, index, axis=1))
        if init_values is not None:
            init = init_values[:, None, :]
            negative = np.where(init == 0, np.signbit(init), negative)
        signed_zero = np.where(negative, np.float32(-0.0), np.float32(0.0))
        running = np.where(zero, signed_zero, running)
    stuck = np.isnan(first)
    if stuck.any():
        running = np.where(stuck[:, None, :], first[:, None, :], running)
    return _quiet(running)


def _store_values(
    command: NtxCommand,
    plan: CommandPlan,
    a: Optional[np.ndarray],
    b: Optional[np.ndarray],
    init_values: Optional[np.ndarray],
    tiles: int,
) -> np.ndarray:
    """The binary32 value of every write-back of a non-MAC command,
    ``(stores, tiles)`` in store order, from ``(iterations, tiles)``
    operands and ``(inits, tiles)`` init values.

    Per-iteration data is viewed as ``(blocks, period_init, tiles)``; every
    reduction runs along the block axis, so each tile's column is
    bit-for-bit what that tile alone would produce.
    """
    num_stores = plan.num_stores
    opcode = command.opcode
    scalar = np.float32(command.scalar)
    columns = plan.store_columns

    def blocks(data: np.ndarray) -> np.ndarray:
        return data.reshape(-1, plan.period_init, tiles)

    def stores(data: np.ndarray) -> np.ndarray:
        return data.reshape(num_stores, tiles)

    if opcode is NtxOpcode.FILL:
        return np.full((num_stores, tiles), scalar, dtype=np.float32)

    if opcode in (NtxOpcode.MUL, NtxOpcode.ADD, NtxOpcode.SUB, NtxOpcode.MASK,
                  NtxOpcode.RELU, NtxOpcode.THRESHOLD, NtxOpcode.COPY):
        zero = np.float32(0.0)
        if opcode in _ARITHMETIC:
            element = _ARITHMETIC[opcode](a, b)
            if np.isnan(element).any():
                _pick_nan_operand(element, a, b)
        elif opcode is NtxOpcode.MASK:
            element = np.where(b != zero, a, zero)
        elif opcode is NtxOpcode.RELU:
            element = np.where(a > zero, a, zero)
        elif opcode is NtxOpcode.THRESHOLD:
            element = np.where(a > scalar, np.float32(1.0), zero)
        else:  # COPY
            element = a
        values = stores(blocks(element)[:, columns])
        if opcode in (NtxOpcode.COPY, NtxOpcode.MASK):
            _quiet(values)
        return values

    if opcode in (NtxOpcode.MAX, NtxOpcode.MIN):
        return stores(_extremum(opcode, blocks(a), init_values, columns))

    if opcode in (NtxOpcode.ARGMAX, NtxOpcode.ARGMIN):
        signed = blocks(a) if opcode is NtxOpcode.ARGMAX else -blocks(a)
        # The comparator starts without an extremum (an AGU2 init value only
        # seeds MAX/MIN, not the index search), so the first element of a
        # block always becomes the initial best.
        seed = np.full((signed.shape[0], 1, tiles), -np.inf, dtype=signed.dtype)
        # Strictly-greater-than-all-previous elements become the new best;
        # ties keep the earliest index, and NaNs never win (they compare
        # false, and count as -inf in the prefix).
        ranked = _nan_as(signed, -np.inf)
        prefix = np.maximum.accumulate(np.concatenate([seed, ranked], axis=1), axis=1)
        is_new = signed > prefix[:, :-1]
        indices = np.arange(signed.shape[1], dtype=np.int64)[None, :, None]
        best = np.maximum.accumulate(np.where(is_new, indices, -1), axis=1)
        best = np.maximum(best[:, columns], 0)
        # A NaN first element holds the register: nothing compares greater.
        best[np.broadcast_to(np.isnan(signed[:, :1]), best.shape)] = 0
        return stores(best).astype(np.float32)

    raise ValueError(f"unhandled opcode {opcode!r}")  # pragma: no cover


def execute_functional(fpu, command: NtxCommand, memory) -> None:
    """Exact per-op fallback: controller walk + soft-float FPU.

    Runs ``command`` to completion against ``memory`` (anything with
    ``read_f32``/``write_f32``) on ``fpu`` (an
    :class:`~repro.core.fpu.NtxFpu`), whose state the command's first
    micro-op re-initialises, so one FPU serves any sequence of commands;
    the statistics are the caller's to credit.  The one per-op executor of
    the library: the data plane runs it for MACs without the compiled
    library.
    """
    controller = NtxController(command)
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
