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
* :func:`execute_streams` replays the command's data effects (reads, FPU
  issues, write-backs) as array gathers, segmented reductions and scatters.
  Commands whose address pattern could make a read observe an *earlier*
  store of the same command (a read-after-write hazard inside one command)
  are detected and executed through the exact per-op path instead; every
  such fallback is counted in ``repro_dataplane_fallbacks_total{reason}``
  (``outside_tcdm``, ``raw_hazard``, ``nan_compare``).  On the
  fast path every opcode except MAC is bit-exact by construction; MAC
  accumulates exact float64 products with per-step float64 rounding where
  the hardware's partial-carry-save register rounds only once at
  write-back, so a partial sum may differ from the scalar engine by a
  final-ulp rounding (bounded by the parity tests at ``rtol=1e-6``).

The arrays produced here drive both the vectorized data plane and the
vectorized timing engine (:mod:`repro.cluster.vecsim`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def _in_tcdm(tcdm, addresses: Optional[np.ndarray]) -> bool:
    if addresses is None or len(addresses) == 0:
        return True
    base, size = tcdm.base, tcdm.size
    return bool(
        np.all((addresses >= base) & (addresses + _WORD <= base + size))
        and np.all((addresses - base) % _WORD == 0)
    )


def execute_streams(command: NtxCommand, streams: CommandStreams, tcdm) -> bool:
    """Replay ``command``'s data effects against ``tcdm`` with array ops.

    Returns ``False`` when the command needs the exact per-op path (RAW
    hazard inside the command, addresses outside the TCDM, unaligned
    streams, or NaN inputs to a comparator reduction); the caller then
    falls back to the functional executor.  Returns ``True`` on success,
    with every store applied and the TCDM access counters updated.
    """
    for addresses in (streams.read0, streams.read1, streams.init_read_addrs,
                      streams.store_addrs):
        if not _in_tcdm(tcdm, addresses):
            return _fall_back("outside_tcdm")
    if _raw_hazard(streams):
        return _fall_back("raw_hazard")
    # A float32 word view of the TCDM backing store; a backing that is not
    # a writable buffer raises here instead of degrading to the per-op path.
    view = np.frombuffer(tcdm.memory.data, dtype="<f4")

    base = tcdm.base
    a = view[(streams.read0 - base) >> 2] if streams.read0 is not None else None
    b = view[(streams.read1 - base) >> 2] if streams.read1 is not None else None
    init_values = (
        view[(streams.init_read_addrs - base) >> 2].astype(np.float64)
        if streams.init_read_addrs is not None
        else None
    )

    opcode = command.opcode
    if opcode in (NtxOpcode.MAX, NtxOpcode.MIN, NtxOpcode.ARGMAX, NtxOpcode.ARGMIN):
        if a is not None and np.any(np.isnan(a)):
            return _fall_back("nan_compare")

    values = _compute_stores(command, streams, a, b, init_values)
    if len(streams.store_addrs):
        # Duplicate store addresses resolve in program order (store_ts is
        # ascending and NumPy fancy assignment applies left to right).
        view[(streams.store_addrs - base) >> 2] = values

    _account_accesses(tcdm, streams)
    return True


def _blocks(streams: CommandStreams, data: np.ndarray) -> np.ndarray:
    """Reshape a per-iteration array into (init blocks, block length)."""
    return data.reshape(-1, streams.period_init)


def _store_columns(streams: CommandStreams) -> np.ndarray:
    """Store positions within one init block (end of every store block)."""
    per_block = streams.period_init // streams.period_store
    return np.arange(1, per_block + 1, dtype=np.int64) * streams.period_store - 1


def _compute_stores(
    command: NtxCommand,
    streams: CommandStreams,
    a: Optional[np.ndarray],
    b: Optional[np.ndarray],
    init_values: Optional[np.ndarray],
) -> np.ndarray:
    """The binary32 value of every write-back, in store order."""
    if not len(streams.store_ts):
        return np.empty(0, dtype=np.float32)
    opcode = command.opcode
    scalar = np.float32(command.scalar)
    columns = _store_columns(streams)

    if opcode is NtxOpcode.MAC:
        # Exact 24x24 bit products fit a float64 significand, so only the
        # running sum differs from the partial-carry-save accumulator — by
        # at most one float64 rounding per added product.
        products = _blocks(streams, a.astype(np.float64) * b.astype(np.float64))
        running = np.cumsum(products, axis=1)
        if init_values is not None:
            running = running + init_values.astype(np.float32)[:, None].astype(np.float64)
        return running[:, columns].reshape(-1).astype(np.float32)

    if opcode in (NtxOpcode.MUL, NtxOpcode.ADD, NtxOpcode.SUB, NtxOpcode.MASK,
                  NtxOpcode.RELU, NtxOpcode.THRESHOLD, NtxOpcode.COPY,
                  NtxOpcode.FILL):
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
        elif opcode is NtxOpcode.COPY:
            element = a
        else:  # FILL
            element = np.full(streams.total, scalar, dtype=np.float32)
        return _blocks(streams, element.astype(np.float32))[:, columns].reshape(-1)

    if opcode in (NtxOpcode.MAX, NtxOpcode.MIN):
        blocks = _blocks(streams, a)
        accumulate = np.maximum if opcode is NtxOpcode.MAX else np.minimum
        running = accumulate.accumulate(blocks, axis=1)
        if init_values is not None:
            running = accumulate(running, init_values.astype(np.float32)[:, None])
        return running[:, columns].reshape(-1).astype(np.float32)

    if opcode in (NtxOpcode.ARGMAX, NtxOpcode.ARGMIN):
        blocks = _blocks(streams, a)
        signed = blocks if opcode is NtxOpcode.ARGMAX else -blocks
        # The comparator starts without an extremum (an AGU2 init value only
        # seeds MAX/MIN, not the index search), so the first element of a
        # block always becomes the initial best.
        seed = np.full((blocks.shape[0], 1), -np.inf, dtype=signed.dtype)
        # Strictly-greater-than-all-previous elements become the new best;
        # ties keep the earliest index.
        prefix = np.maximum.accumulate(np.concatenate([seed, signed], axis=1), axis=1)
        is_new = signed > prefix[:, :-1]
        indices = np.arange(blocks.shape[1], dtype=np.int64)[None, :]
        best = np.maximum.accumulate(np.where(is_new, indices, -1), axis=1)
        best = np.maximum(best, 0)
        return best[:, columns].reshape(-1).astype(np.float32)

    raise ValueError(f"unhandled opcode {opcode!r}")  # pragma: no cover


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


# --------------------------------------------------------------------------- #
# Batched (tile-axis) functional execution                                    #
# --------------------------------------------------------------------------- #


def _in_image(base: int, words: int, addresses: Optional[np.ndarray]) -> bool:
    """Whether every address is a word-aligned TCDM-image word."""
    if addresses is None or len(addresses) == 0:
        return True
    size = words * _WORD
    return bool(
        np.all((addresses >= base) & (addresses + _WORD <= base + size))
        and np.all((addresses - base) % _WORD == 0)
    )


def execute_streams_batched(
    command: NtxCommand, streams: CommandStreams, images: np.ndarray, base: int
) -> bool:
    """Replay one command over a stack of private TCDM images at once.

    ``images`` is a float32 array of shape ``(tiles, tcdm_words)``: one row
    per tile of a batch group, each row a word-view of that tile's private
    scratchpad image (``base`` is the TCDM base address the command's
    streams are relative to).  Every tile of a group executes the *same*
    command stream over *different* data, so the scalar gathers/compute/
    scatters of :func:`execute_streams` lift directly to one extra leading
    axis — one NumPy dispatch instead of one per tile.

    Returns ``False`` when the command needs the exact per-op path (same
    conditions as :func:`execute_streams`: RAW hazard, addresses off the
    image, or a NaN input to a comparator reduction anywhere in the stack);
    the caller then falls back to per-tile functional execution.  No access
    counters are touched here — the caller accounts them wholesale.
    """
    words = images.shape[1]
    for addresses in (streams.read0, streams.read1, streams.init_read_addrs,
                      streams.store_addrs):
        if not _in_image(base, words, addresses):
            return _fall_back("outside_tcdm")
    if _raw_hazard(streams):
        return _fall_back("raw_hazard")

    a = images[:, (streams.read0 - base) >> 2] if streams.read0 is not None else None
    b = images[:, (streams.read1 - base) >> 2] if streams.read1 is not None else None
    init_values = (
        images[:, (streams.init_read_addrs - base) >> 2].astype(np.float64)
        if streams.init_read_addrs is not None
        else None
    )

    opcode = command.opcode
    if opcode in (NtxOpcode.MAX, NtxOpcode.MIN, NtxOpcode.ARGMAX, NtxOpcode.ARGMIN):
        if a is not None and np.any(np.isnan(a)):
            return _fall_back("nan_compare")

    values = _compute_stores_batched(command, streams, a, b, init_values)
    if len(streams.store_addrs):
        # Duplicate store addresses resolve left to right per tile, exactly
        # like the unbatched scatter (store_ts is ascending).
        images[:, (streams.store_addrs - base) >> 2] = values
    return True


def _blocks_batched(streams: CommandStreams, data: np.ndarray) -> np.ndarray:
    """Reshape a (tiles, iterations) array into (tiles, blocks, block len)."""
    return data.reshape(data.shape[0], -1, streams.period_init)


def _compute_stores_batched(
    command: NtxCommand,
    streams: CommandStreams,
    a: Optional[np.ndarray],
    b: Optional[np.ndarray],
    init_values: Optional[np.ndarray],
) -> np.ndarray:
    """Tile-axis variant of :func:`_compute_stores`: (tiles, stores) values.

    Every formula is the unbatched one with a leading tile axis; reductions
    run along the innermost (block) axis, so per-tile results are bit-for-bit
    the rows :func:`_compute_stores` would produce one tile at a time.
    """
    num_tiles = a.shape[0] if a is not None else (
        init_values.shape[0] if init_values is not None else 1
    )
    if not len(streams.store_ts):
        return np.empty((num_tiles, 0), dtype=np.float32)
    opcode = command.opcode
    scalar = np.float32(command.scalar)
    columns = _store_columns(streams)

    if opcode is NtxOpcode.MAC:
        products = _blocks_batched(
            streams, a.astype(np.float64) * b.astype(np.float64)
        )
        running = np.cumsum(products, axis=2)
        if init_values is not None:
            running = running + init_values.astype(np.float32)[
                :, :, None
            ].astype(np.float64)
        return running[:, :, columns].reshape(num_tiles, -1).astype(np.float32)

    if opcode in (NtxOpcode.MUL, NtxOpcode.ADD, NtxOpcode.SUB, NtxOpcode.MASK,
                  NtxOpcode.RELU, NtxOpcode.THRESHOLD, NtxOpcode.COPY,
                  NtxOpcode.FILL):
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
        elif opcode is NtxOpcode.COPY:
            element = a
        else:  # FILL
            element = np.full((num_tiles, streams.total), scalar, dtype=np.float32)
        blocks = _blocks_batched(streams, element.astype(np.float32))
        return blocks[:, :, columns].reshape(num_tiles, -1)

    if opcode in (NtxOpcode.MAX, NtxOpcode.MIN):
        blocks = _blocks_batched(streams, a)
        accumulate = np.maximum if opcode is NtxOpcode.MAX else np.minimum
        running = accumulate.accumulate(blocks, axis=2)
        if init_values is not None:
            running = accumulate(
                running, init_values.astype(np.float32)[:, :, None]
            )
        return running[:, :, columns].reshape(num_tiles, -1).astype(np.float32)

    if opcode in (NtxOpcode.ARGMAX, NtxOpcode.ARGMIN):
        blocks = _blocks_batched(streams, a)
        signed = blocks if opcode is NtxOpcode.ARGMAX else -blocks
        seed = np.full(
            (signed.shape[0], signed.shape[1], 1), -np.inf, dtype=signed.dtype
        )
        prefix = np.maximum.accumulate(
            np.concatenate([seed, signed], axis=2), axis=2
        )
        is_new = signed > prefix[:, :, :-1]
        indices = np.arange(signed.shape[2], dtype=np.int64)[None, None, :]
        best = np.maximum.accumulate(np.where(is_new, indices, -1), axis=2)
        best = np.maximum(best, 0)
        return best[:, :, columns].reshape(num_tiles, -1).astype(np.float32)

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
