"""The word-major stacked data-plane kernel against a tile-major oracle.

:func:`repro.core.vecops.execute_streams_batched` runs one command over a
``(words, tiles)`` stack of TCDM images, walking the block axis one vector
step at a time on wide inputs and using ``accumulate`` on narrow ones.
Both must reproduce, bit for bit, the tile-major ``cumsum``/``accumulate``
formulas restated in :func:`_oracle` — for every opcode, both init
sources, several store columns per block, non-lattice data with signed
zeros and infinities, and stacks of 1, 2 and 400 tiles on both sides of
the walk/accumulate choice.

The second half runs a batched group whose commands fall back to the
per-op executor tile by tile (a read-after-write hazard and a NaN
comparator input) and checks it against the inline walk: same HMC bytes,
same access counters.
"""

import numpy as np
import pytest

from repro.core import vecops
from repro.core.commands import AguConfig, InitSource, LoopConfig, NtxCommand, NtxOpcode
from repro.core.vecops import command_plan, execute_streams_batched

_BASE = 0x400
#: Innermost loop count and store blocks per init block of every command.
_INNER, _STORE_BLOCKS = 3, 2
#: (tiles, init blocks): each stack height on both sides of the choice.
STACKS = [(1, 5), (1, 2100), (2, 5), (2, 1100), (400, 5), (400, 6)]


def _command(opcode, blocks, init_source, store_level):
    """A three-level nest reading two disjoint regions and storing to a
    third; ``store_level`` 0/1/2 gives 6/2/1 store columns per block."""
    total = _INNER * _STORE_BLOCKS * blocks
    contiguous = (4, 4, 4, 0, 0)
    stores = tuple(0 if level < store_level else 4 for level in range(3)) + (0, 0)
    return NtxCommand(
        opcode=opcode,
        loops=LoopConfig.nest(_INNER, _STORE_BLOCKS, blocks),
        agu0=AguConfig(base=_BASE, strides=contiguous),
        agu1=AguConfig(base=_BASE + 4 * total, strides=contiguous),
        agu2=AguConfig(base=_BASE + 8 * total, strides=stores),
        init_level=2,
        store_level=store_level,
        init_source=init_source,
        scalar=0.25 if opcode is NtxOpcode.THRESHOLD else 1.5,
    )


def _images(rng, tiles, words):
    """Tile-major ``(tiles, words)`` float32 data off the 1/16 lattice,
    with signed zeros and infinities sprinkled in (no NaN: a NaN
    comparator input is a fallback, not a fast-path result)."""
    scale = np.exp2(rng.integers(-20, 20, size=(tiles, words)))
    images = (rng.standard_normal((tiles, words)) * scale).astype(np.float32)
    special = rng.random((tiles, words))
    images[special < 0.02] = -0.0
    images[(special >= 0.02) & (special < 0.03)] = np.inf
    images[(special >= 0.03) & (special < 0.04)] = -np.inf
    return images


def _oracle(command, streams, images):
    """The tile-major formulas: gathers ``(tiles, iterations)``, blocks
    ``(tiles, blocks, period)``, ``cumsum``/``accumulate`` along axis 2."""
    images = images.copy()
    tiles = images.shape[0]

    def gather(addresses):
        return None if addresses is None else images[:, (addresses - _BASE) >> 2]

    a, b, init = gather(streams.read0), gather(streams.read1), gather(streams.init_read_addrs)
    period = streams.period_init
    columns = np.arange(1, period // streams.period_store + 1) * streams.period_store - 1
    opcode = command.opcode

    def blocks(data):
        return data.reshape(tiles, -1, period)

    if opcode is NtxOpcode.MAC:
        running = np.cumsum(blocks(a.astype(np.float64) * b.astype(np.float64)), axis=2)
        if init is not None:
            running = running + init.astype(np.float64)[:, :, None]
        values = running[:, :, columns].astype(np.float32)
    elif opcode in (NtxOpcode.MAX, NtxOpcode.MIN):
        step = np.maximum if opcode is NtxOpcode.MAX else np.minimum
        running = step.accumulate(blocks(a), axis=2)
        if init is not None:
            running = step(running, init[:, :, None])
        values = running[:, :, columns]
    elif opcode in (NtxOpcode.ARGMAX, NtxOpcode.ARGMIN):
        signed = blocks(a) if opcode is NtxOpcode.ARGMAX else -blocks(a)
        seed = np.full(signed.shape[:2] + (1,), -np.inf, dtype=signed.dtype)
        prefix = np.maximum.accumulate(np.concatenate([seed, signed], axis=2), axis=2)
        is_new = signed > prefix[:, :, :-1]
        indices = np.arange(period)[None, None, :]
        best = np.maximum.accumulate(np.where(is_new, indices, -1), axis=2)
        values = np.maximum(best, 0)[:, :, columns].astype(np.float32)
    else:
        zero, scalar = np.float32(0.0), np.float32(command.scalar)
        element = {
            NtxOpcode.MUL: lambda: a * b,
            NtxOpcode.ADD: lambda: a + b,
            NtxOpcode.SUB: lambda: a - b,
            NtxOpcode.MASK: lambda: np.where(b != zero, a, zero),
            NtxOpcode.RELU: lambda: np.where(a > zero, a, zero),
            NtxOpcode.THRESHOLD: lambda: np.where(a > scalar, np.float32(1.0), zero),
            NtxOpcode.COPY: lambda: a,
            NtxOpcode.FILL: lambda: np.full((tiles, streams.total), scalar, np.float32),
        }[opcode]()
        values = blocks(element)[:, :, columns]
    images[:, (streams.store_addrs - _BASE) >> 2] = values.reshape(tiles, -1)
    return images


@pytest.mark.parametrize("tiles,blocks", STACKS)
@pytest.mark.parametrize("opcode", list(NtxOpcode), ids=lambda op: op.value)
def test_stacked_kernel_is_bit_equal_to_tile_major_formulas(opcode, tiles, blocks):
    rng = np.random.default_rng([tiles, blocks, list(NtxOpcode).index(opcode)])
    for init_source in (InitSource.ZERO, InitSource.AGU2):
        for store_level in (0, 1, 2):
            command = _command(opcode, blocks, init_source, store_level)
            streams = command_plan(command)
            images = _images(rng, tiles, 2 * streams.total + streams.num_stores + 3)
            stack = np.ascontiguousarray(images.T)
            with np.errstate(invalid="ignore", over="ignore"):
                expected = _oracle(command, streams, images)
                assert execute_streams_batched(command, streams, stack, _BASE)
            assert np.array_equal(stack.T.view(np.uint32), expected.view(np.uint32)), (
                init_source, store_level
            )


def test_each_stack_height_covers_both_sides_of_the_walk_choice():
    """The walk runs from ``_WALK_MIN_LANES`` ``blocks x tiles`` lanes up."""
    for tiles in {tiles for tiles, _ in STACKS}:
        lanes = [tiles * blocks for height, blocks in STACKS if height == tiles]
        assert min(lanes) < vecops._WALK_MIN_LANES <= max(lanes)


# -- per-tile fallback inside a stacked group ----------------------------------


def _fallback_workload(hmc, num_tiles, n=8):
    """Tiles whose commands the stacked kernel refuses: a COPY that reads
    the word its previous iteration stored (RAW hazard) and a MAX over data
    holding a NaN in one tile (comparator input)."""
    from repro.cluster.tiling import TileSchedule
    from repro.mem.dma import DmaTransfer
    from repro.mem.tcdm import TcdmConfig

    # Off the TCDM base, so the stacked span starts past word 0.
    buf = TcdmConfig().base_address + 256
    src, dst = buf + 4 * (n + 1), buf + 4 * (2 * n + 1)
    shift = NtxCommand(
        opcode=NtxOpcode.COPY,
        loops=LoopConfig.nest(n),
        agu0=AguConfig(base=buf, strides=(4, 0, 0, 0, 0)),
        agu2=AguConfig(base=buf + 4, strides=(4, 0, 0, 0, 0)),
    )
    maximum = NtxCommand(
        opcode=NtxOpcode.MAX,
        loops=LoopConfig.nest(n),
        agu0=AguConfig(base=src, strides=(4, 0, 0, 0, 0)),
        agu2=AguConfig(base=dst, strides=(0, 0, 0, 0, 0)),
    )
    rng = np.random.default_rng(3)
    tiles, cursor = [], hmc.base
    for index in range(num_tiles):
        data = rng.standard_normal(2 * n + 1).astype(np.float32)
        if index == num_tiles - 2:
            data[n + 3] = np.nan
        hmc.memory.store_array(cursor, data)
        tiles.append(
            TileSchedule(
                transfers_in=[DmaTransfer(src=cursor, dst=buf, row_bytes=data.nbytes)],
                commands=[shift, maximum],
                transfers_out=[
                    DmaTransfer(src=buf, dst=cursor + 4096, row_bytes=4 * (n + 1)),
                    DmaTransfer(src=dst, dst=cursor + 8192, row_bytes=4),
                ],
                placements=[0, 0],
            )
        )
        cursor += 16384
    return tiles


def test_batched_group_falling_back_per_tile_matches_the_inline_walk():
    from repro.obs import metrics
    from repro.options import ExecutionOptions
    from repro.system import SystemConfig, SystemSimulator

    def run(memoize):
        simulator = SystemSimulator(
            SystemConfig(num_vaults=1, clusters_per_vault=1),
            options=ExecutionOptions(memoize=memoize),
        )
        result = simulator.run(_fallback_workload(simulator.hmc, num_tiles=6))
        return simulator, result

    metrics.set_metrics_enabled(True)
    inline, _ = run(memoize=False)
    groups = metrics.REGISTRY.get("repro_batched_groups_total").value()
    fallbacks = metrics.REGISTRY.get("repro_dataplane_fallbacks_total")
    before = {dict(pairs)["reason"]: value for _, pairs, value in fallbacks.samples()}
    batched, result = run(memoize=True)
    after = {dict(pairs)["reason"]: value for _, pairs, value in fallbacks.samples()}

    assert (result.cache_hits, result.cache_misses) == (5, 1)
    assert metrics.REGISTRY.get("repro_batched_groups_total").value() == groups + 1
    # The miss refuses its RAW command inline; the stacked group refuses
    # each command once for the whole stack (the NaN is in a hit tile).
    assert after["raw_hazard"] - before["raw_hazard"] == 2
    assert after["nan_compare"] - before["nan_compare"] == 1
    assert np.array_equal(
        np.frombuffer(batched.hmc.memory.data, dtype=np.uint8),
        np.frombuffer(inline.hmc.memory.data, dtype=np.uint8),
    )
    ref, got = inline.clusters[0], batched.clusters[0]
    assert np.array_equal(got.tcdm.bank_accesses, ref.tcdm.bank_accesses)
    assert (got.tcdm.memory.reads, got.tcdm.memory.writes) == (
        ref.tcdm.memory.reads, ref.tcdm.memory.writes
    )
    assert (batched.hmc.memory.reads, batched.hmc.memory.writes) == (
        inline.hmc.memory.reads, inline.hmc.memory.writes
    )
    for ref_ntx, ntx in zip(ref.ntx, got.ntx):
        assert vars(ntx.stats) == vars(ref_ntx.stats)
        assert vars(ntx.fpu.stats) == vars(ref_ntx.fpu.stats)
