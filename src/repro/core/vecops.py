"""Vectorized micro-op stream generation and functional execution.

The scalar cycle engine regenerates every micro-op through
:class:`~repro.core.controller.NtxController` — one Python call per
innermost iteration — and issues every operand through the soft-float FPU.
Both are deterministic functions of the command alone, so they can be
hoisted out of the cycle loop entirely:

* :func:`command_streams` reproduces the controller's address/flag stream
  for a whole command as NumPy arrays.  The hardware-loop cascade has a
  closed form — loop ``k`` advances exactly when ``(t+1)`` is divisible by
  the product of the inner loop counts — so the wrap level of every cycle,
  and from it every AGU address, falls out of a handful of vector
  operations.
* :func:`execute_streams_batched` replays the command's data effects
  (reads, FPU issues, write-backs) as array gathers, segmented reductions
  and scatters over a word-major ``(words, tiles)`` stack of TCDM images —
  the tile axis innermost, so every gather copies and every reduction step
  adds whole contiguous rows.  :func:`execute_streams` is the same kernel
  on the live TCDM viewed as a stack of one.  Commands whose address
  pattern could make a read observe an *earlier* store of the same command
  (a read-after-write hazard inside one command) are detected and executed
  through the exact per-op path instead; every such fallback is counted in
  ``repro_dataplane_fallbacks_total{reason}``.

The kernel has two modes:

* ``exact=False`` (the vectorized engine).  MAC keeps a per-step float64
  running sum of exact float64 products where the partial-carry-save
  register adds them exactly and rounds once at write-back, so a partial
  sum may differ from the scalar engine by a final-ulp rounding (bounded
  by the parity tests at ``rtol=1e-6``).  The other opcodes match the
  soft-float FPU except in the sign of a zero that MAX/MIN pick among
  ``±0`` ties, and in which NaN payload COPY/MASK/MAX/MIN pass on.
* ``exact=True`` (the scalar engine's timing-cache hits) checks every
  addition of that running sum, and of the AGU2 init value, with a Knuth
  TwoSum residual.  When every residual is zero and the sums are finite,
  the float64 sum *is* the exact accumulator content, and its single
  float32 conversion is the accumulator's round-to-nearest-even write-back
  — bit-identical to :class:`~repro.softfloat.pcs.PcsAccumulator`.  Any
  other MAC, and any COPY/MASK/MAX/MIN whose operands hit the cases
  above, takes the per-op path, so every store is bit-identical.

Fallback reasons: ``outside_tcdm`` (an address off the stack or
unaligned), ``raw_hazard``, ``nan_compare`` (a NaN input to a comparator
reduction), and in exact mode only ``inexact_mac`` (a MAC sum the
certificate cannot vouch for), ``nan_operand`` (a NaN that COPY/MASK
would move, or MAX/MIN seed with, unlike the per-op FPU), ``signed_zero``
(a ``-0.0`` input to MAX/MIN, whose ``±0`` ties NumPy breaks differently)
and ``pcs_config`` (a MAC on an NTX with a non-default accumulator
geometry, which may truncate; counted by :mod:`repro.cluster.vecsim`).

The arrays produced here drive both the vectorized data plane and the
vectorized timing engine (:mod:`repro.cluster.vecsim`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.commands import NUM_LOOPS, InitSource, NtxCommand, NtxOpcode
from repro.core.controller import NtxController
from repro.obs import metrics as _metrics

__all__ = [
    "CommandStreams",
    "command_streams",
    "execute_streams",
    "execute_streams_batched",
]

_ADDRESS_MASK = (1 << 32) - 1
_WORD = 4

_FALLBACKS = _metrics.counter(
    "repro_dataplane_fallbacks_total",
    "Commands the array data plane handed to the exact per-op executor",
    labelnames=("reason",),
)


def _fall_back(reason: str) -> bool:
    """Count one fast-path refusal under ``reason``; always ``False``."""
    _FALLBACKS.inc(reason=reason)
    return False


@dataclass
class CommandStreams:
    """The complete micro-op stream of one command, as arrays.

    ``read0``/``read1`` hold one byte address per innermost iteration (or
    ``None`` when the opcode does not stream that operand).  ``init_ts`` /
    ``store_ts`` are the iteration indices at which the accumulator is
    (re)initialised / written back; ``init_read_addrs`` is only present for
    ``InitSource.AGU2`` commands.  ``period_init`` / ``period_store`` are
    the block lengths implied by the loop nest — inits fire every
    ``period_init`` iterations, stores at the end of every ``period_store``
    block — which is what lets the data plane use uniform reshapes instead
    of ragged segment bookkeeping.
    """

    total: int
    read0: Optional[np.ndarray]
    read1: Optional[np.ndarray]
    agu2: np.ndarray
    init_ts: np.ndarray
    init_read_addrs: Optional[np.ndarray]
    store_ts: np.ndarray
    store_addrs: np.ndarray
    period_init: int
    period_store: int

    @property
    def num_reads(self) -> int:
        reads = 0
        if self.read0 is not None:
            reads += self.total
        if self.read1 is not None:
            reads += self.total
        if self.init_read_addrs is not None:
            reads += len(self.init_read_addrs)
        return reads

    @property
    def num_stores(self) -> int:
        return len(self.store_ts)


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


def command_streams(command: NtxCommand) -> CommandStreams:
    """Compute the full micro-op stream of ``command`` as NumPy arrays."""
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

    # Per-cycle stride of each AGU: the stride selected by the wrap level
    # (a wrap level at or beyond NUM_LOOPS leaves the pointer unchanged,
    # which only ever happens on the final iteration).
    def addresses_for(agu) -> np.ndarray:
        strides = np.asarray(agu.strides + (0,) * (NUM_LOOPS + 1), dtype=np.int64)
        selected = strides[np.minimum(wrap, NUM_LOOPS)]
        return _agu_addresses(agu.base, selected)

    agu2_addresses = addresses_for(command.agu2)

    period_init = periods[min(command.init_level, levels)]
    period_store = periods[min(command.store_level, levels)]

    init_ts = np.arange(0, total, period_init, dtype=np.int64)
    if command.writeback:
        store_ts = np.arange(period_store - 1, total, period_store, dtype=np.int64)
    else:
        store_ts = np.empty(0, dtype=np.int64)

    return CommandStreams(
        total=total,
        read0=addresses_for(command.agu0) if command.opcode.reads_operand0 else None,
        read1=addresses_for(command.agu1) if command.opcode.reads_operand1 else None,
        agu2=agu2_addresses,
        init_ts=init_ts,
        init_read_addrs=(
            agu2_addresses[init_ts]
            if command.init_source is InitSource.AGU2
            else None
        ),
        store_ts=store_ts,
        store_addrs=agu2_addresses[store_ts],
        period_init=period_init,
        period_store=period_store,
    )


# --------------------------------------------------------------------------- #
# Vectorized functional execution                                             #
# --------------------------------------------------------------------------- #


def _raw_hazard(streams: CommandStreams) -> bool:
    """Whether any read of the command can observe one of its own stores.

    A read at iteration ``t`` of an address first stored at iteration
    ``s < t`` must see the stored value; gather-before-scatter execution
    would return the stale memory contents instead.  Reads that precede (or
    coincide with) the first store of their address — e.g. AXPY's init read
    of ``y[i]`` in the same iteration that stores ``y[i]`` — are safe.
    """
    if len(streams.store_addrs) == 0:
        return False
    store_order = np.argsort(streams.store_addrs, kind="stable")
    sorted_stores = streams.store_addrs[store_order]
    unique_addrs, first_index = np.unique(sorted_stores, return_index=True)
    # store_ts is ascending, so the earliest store of an address is the
    # minimum store_ts among its occurrences.
    first_ts = np.minimum.reduceat(streams.store_ts[store_order], first_index)

    def hazard(addresses: Optional[np.ndarray], times: np.ndarray) -> bool:
        if addresses is None or len(addresses) == 0:
            return False
        slot = np.searchsorted(unique_addrs, addresses)
        slot = np.minimum(slot, len(unique_addrs) - 1)
        hit = unique_addrs[slot] == addresses
        return bool(np.any(hit & (times > first_ts[slot])))

    every = np.arange(streams.total, dtype=np.int64)
    return (
        hazard(streams.read0, every)
        or hazard(streams.read1, every)
        or hazard(streams.init_read_addrs, streams.init_ts)
    )


def _in_span(base: int, words: int, addresses: Optional[np.ndarray]) -> bool:
    """Whether every address is a word-aligned word of the ``words``-word
    span starting at ``base``."""
    if addresses is None or len(addresses) == 0:
        return True
    return bool(
        addresses.min() >= base
        and addresses.max() + _WORD <= base + words * _WORD
        and not np.any((addresses - base) & (_WORD - 1))
    )


def execute_streams(
    command: NtxCommand, streams: CommandStreams, tcdm, exact: bool = False
) -> bool:
    """Replay ``command``'s data effects against ``tcdm`` with array ops.

    The TCDM's float32 word view is a word-major stack of one tile, so this
    is :func:`execute_streams_batched` on that view plus the access
    counters.  Returns ``False`` when the command needs the exact per-op
    path (see there); the caller then falls back to the functional
    executor.  Returns ``True`` on success, with every store applied and
    the TCDM access counters updated.
    """
    # A backing that is not a writable buffer raises here instead of
    # degrading to the per-op path.
    view = np.frombuffer(tcdm.memory.data, dtype="<f4")
    if not execute_streams_batched(command, streams, view[:, None], tcdm.base, exact):
        return False
    _account_accesses(tcdm, streams)
    return True


def _account_accesses(tcdm, streams: CommandStreams, count: int = 1) -> None:
    """Mirror the per-access counters the scalar data path maintains.

    ``count`` multiplies the whole command's access pattern — the batched
    replay path accounts one command executed over ``count`` stacked tiles
    in a single call.
    """
    num_banks = tcdm.config.num_banks
    base = tcdm.base
    counts = np.zeros(num_banks, dtype=np.int64)
    for addresses in (streams.read0, streams.read1, streams.init_read_addrs,
                      streams.store_addrs):
        if addresses is not None and len(addresses):
            banks = ((addresses - base) >> 2) % num_banks
            counts += np.bincount(banks, minlength=num_banks)
    tcdm.bank_accesses += counts * count
    tcdm.memory.reads += streams.num_reads * count
    tcdm.memory.writes += streams.num_stores * count


def execute_streams_batched(
    command: NtxCommand,
    streams: CommandStreams,
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
    stack.  A stack of one tile (``view[:, None]``) is the inline path.

    Returns ``False`` when the command needs the exact per-op path: a RAW
    hazard inside the command, addresses off the stack or unaligned, or a
    NaN input to a comparator reduction anywhere in the stack.  With
    ``exact=True`` every store must also be bit-identical to the per-op
    soft-float walk, so the kernel further refuses a MAC whose sum the
    TwoSum certificate cannot vouch for, a NaN that COPY/MASK would move
    without the walk's float conversions (which quiet signalling NaNs) or
    that seeds MAX/MIN, and a ``-0.0`` input to MAX/MIN (NumPy breaks
    ``±0`` ties differently from the FPU's strict first-wins compare).
    The certified MAC materialises every float64 product, so it suits
    the short stacks of inline replay.  Each refusal is counted by reason.
    No access counters are touched here.
    """
    words, tiles = stack.shape
    for addresses in (streams.read0, streams.read1, streams.init_read_addrs,
                      streams.store_addrs):
        if not _in_span(base, words, addresses):
            return _fall_back("outside_tcdm")
    if _raw_hazard(streams):
        return _fall_back("raw_hazard")

    def gather(addresses: Optional[np.ndarray]) -> Optional[np.ndarray]:
        return None if addresses is None else stack[(addresses - base) >> 2]

    a = gather(streams.read0)
    b = gather(streams.read1)
    init_values = gather(streams.init_read_addrs)

    opcode = command.opcode
    if opcode in (NtxOpcode.MAX, NtxOpcode.MIN, NtxOpcode.ARGMAX, NtxOpcode.ARGMIN):
        if a is not None and np.any(np.isnan(a)):
            return _fall_back("nan_compare")
    if exact:
        reason = _inexact_operands(opcode, a, init_values)
        if reason:
            return _fall_back(reason)

    values = _store_values(command, streams, a, b, init_values, tiles, exact)
    if values is None:
        return _fall_back("inexact_mac")
    if len(streams.store_addrs):
        # Duplicate store addresses resolve in program order (store_ts is
        # ascending and NumPy fancy assignment applies rows left to right).
        stack[(streams.store_addrs - base) >> 2] = values
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


def _store_columns(streams: CommandStreams) -> np.ndarray:
    """Store positions within one init block (end of every store block)."""
    per_block = streams.period_init // streams.period_store
    return np.arange(1, per_block + 1, dtype=np.int64) * streams.period_store - 1


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
    streams: CommandStreams,
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
    num_stores = len(streams.store_ts)
    if not num_stores:
        return np.empty((0, tiles), dtype=np.float32)
    opcode = command.opcode
    scalar = np.float32(command.scalar)
    columns = _store_columns(streams)

    def blocks(data: np.ndarray) -> np.ndarray:
        return data.reshape(-1, streams.period_init, tiles)

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
