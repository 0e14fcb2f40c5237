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


# -- staging between the HMC and the stack -------------------------------------

#: Rows and words per row of the block each staging tile computes on.
_ROWS, _WIDTH = 3, 5
#: HMC bytes each staging tile owns.
_REGION = 512


def _staging_workload(hmc, num_tiles, layout):
    """Tiles that stage through every batched-replay staging path.

    Each tile pulls a ``_ROWS x _WIDTH`` lattice block in with a pitched
    multi-row transfer (HMC pitch 32 B, TCDM pitch 24 B, both unlike the
    20 B rows), copies it to a second pitched TCDM block and sums the
    squares of each row, pushes both results out (again pitched, HMC
    pitch 36 B), and passes 6 unaligned bytes through unchanged.  With
    ``layout="uniform"`` tile ``t`` owns the HMC region ``t``, one stride
    apart; ``"scattered"`` shuffles the regions and adds uneven gaps, so
    no stride exists and staging gathers.
    """
    from repro.cluster.tiling import TileSchedule
    from repro.mem.dma import DmaTransfer
    from repro.mem.tcdm import TcdmConfig

    row_bytes = 4 * _WIDTH
    tcdm = TcdmConfig().base_address + 64
    t_in, t_mid, t_sum, t_part = tcdm, tcdm + 128, tcdm + 256, tcdm + 302
    copy = NtxCommand(
        opcode=NtxOpcode.COPY,
        loops=LoopConfig.nest(_WIDTH, _ROWS),
        agu0=AguConfig(base=t_in, strides=(4, 24 - 4 * (_WIDTH - 1), 0, 0, 0)),
        agu2=AguConfig(base=t_mid, strides=(4, 28 - 4 * (_WIDTH - 1), 0, 0, 0)),
    )
    squares = NtxCommand(
        opcode=NtxOpcode.MAC,
        loops=LoopConfig.nest(_WIDTH, _ROWS),
        agu0=AguConfig(base=t_in, strides=(4, 24 - 4 * (_WIDTH - 1), 0, 0, 0)),
        agu1=AguConfig(base=t_in, strides=(4, 24 - 4 * (_WIDTH - 1), 0, 0, 0)),
        agu2=AguConfig(base=t_sum, strides=(0, 4, 0, 0, 0)),
        init_level=1,
        store_level=1,
    )
    rng = np.random.default_rng(num_tiles)
    slots = np.arange(num_tiles)
    gaps = np.zeros(num_tiles, dtype=np.int64)
    if layout == "scattered":
        slots = rng.permutation(num_tiles * 2)[:num_tiles]
        gaps = 8 * rng.integers(0, 20, size=num_tiles)
    tiles = []
    for slot, gap in zip(slots, gaps):
        region = hmc.base + 4096 + int(slot) * (_REGION + 160) + int(gap)
        block = (rng.integers(-32, 32, size=(_ROWS, 8)) / 16.0).astype(np.float32)
        hmc.memory.store_array(region, block)  # rows 32 B apart
        hmc.memory.write_bytes(region + 101, rng.integers(0, 256, 6, dtype=np.uint8).tobytes())
        tiles.append(
            TileSchedule(
                transfers_in=[
                    DmaTransfer(src=region, dst=t_in, row_bytes=row_bytes, rows=_ROWS,
                                src_pitch=32, dst_pitch=24),
                    DmaTransfer(src=region + 101, dst=t_part, row_bytes=6),
                ],
                commands=[copy, squares],
                transfers_out=[
                    DmaTransfer(src=t_mid, dst=region + 200, row_bytes=row_bytes,
                                rows=_ROWS, src_pitch=28, dst_pitch=36),
                    DmaTransfer(src=t_sum, dst=region + 320, row_bytes=4 * _ROWS),
                    DmaTransfer(src=t_part, dst=region + 343, row_bytes=6),
                ],
                placements=[0, 1],
            )
        )
    return tiles


def _summed(values):
    return {key: sum(value[key] for value in values) for key in values[0]}


@pytest.mark.parametrize("topology", [(1, 1), (2, 2)], ids=["1x1", "2x2"])
@pytest.mark.parametrize("layout", ["uniform", "scattered"])
@pytest.mark.parametrize("group", [2, 32, 33])
def test_staging_paths_match_the_inline_walk(monkeypatch, topology, layout, group):
    """Strided and gathered staging, pitched multi-row and unaligned
    partial-word rows, groups on the 32-tile block edges: byte for byte and
    counter for counter what the inline walk does."""
    from repro.obs import metrics
    from repro.options import ExecutionOptions
    from repro.system import SystemConfig, SystemSimulator, batch

    strided = []
    rows_of = batch._strided_rows

    def spy(*args, **kwargs):
        rows = rows_of(*args, **kwargs)
        strided.append(rows is not None)
        return rows

    monkeypatch.setattr(batch, "_strided_rows", spy)

    def run(memoize):
        num_vaults, clusters_per_vault = topology
        simulator = SystemSimulator(
            SystemConfig(num_vaults=num_vaults, clusters_per_vault=clusters_per_vault),
            options=ExecutionOptions(memoize=memoize),
        )
        tiles = _staging_workload(simulator.hmc, group + 1, layout)
        return simulator, simulator.run(tiles)

    metrics.set_metrics_enabled(True)
    inline, inline_result = run(memoize=False)
    groups = metrics.REGISTRY.get("repro_batched_groups_total").value()
    stacked_tiles = metrics.REGISTRY.get("repro_batched_tiles_total").value()
    batched, result = run(memoize=True)

    assert (result.cache_hits, result.cache_misses) == (group, 1)
    assert metrics.REGISTRY.get("repro_batched_groups_total").value() == groups + 1
    assert metrics.REGISTRY.get("repro_batched_tiles_total").value() == stacked_tiles + group
    # Every transfer row stages strided exactly when the layout is uniform
    # (any two members sit one stride apart).
    assert strided and set(strided) == {layout == "uniform" or group == 2}

    assert np.array_equal(
        np.frombuffer(batched.hmc.memory.data, dtype=np.uint8),
        np.frombuffer(inline.hmc.memory.data, dtype=np.uint8),
    )
    summary, inline_summary = result.summary(), inline_result.summary()
    assert summary.pop("cache_hit_rate") > inline_summary.pop("cache_hit_rate") == 0
    assert summary == inline_summary
    for report, ref in zip(result.reports, inline_result.reports):
        assert report.tile_indices == ref.tile_indices
        assert report.compute_cycles_per_tile == ref.compute_cycles_per_tile
        assert report.dma_cycles_per_tile == ref.dma_cycles_per_tile
        assert report.dma_bytes == ref.dma_bytes
    assert (batched.hmc.memory.reads, batched.hmc.memory.writes) == (
        inline.hmc.memory.reads, inline.hmc.memory.writes
    )
    for got, ref in zip(batched.clusters, inline.clusters):
        assert vars(got.dma.stats) == vars(ref.dma.stats)
        assert (got.axi.busy_cycles, got.axi.bytes_transferred) == (
            ref.axi.busy_cycles, ref.axi.bytes_transferred
        )
        for ntx, ref_ntx in zip(got.ntx, ref.ntx):
            assert (ntx.stats.active_cycles, ntx.stats.stall_cycles) == (
                ref_ntx.stats.active_cycles, ref_ntx.stats.stall_cycles
            )
    # Data-plane counters of a multi-cluster group land on its
    # representative cluster: they agree in aggregate.
    assert np.array_equal(
        sum(c.tcdm.bank_accesses for c in batched.clusters),
        sum(c.tcdm.bank_accesses for c in inline.clusters),
    )
    for side in ("reads", "writes"):
        assert sum(getattr(c.tcdm.memory, side) for c in batched.clusters) == sum(
            getattr(c.tcdm.memory, side) for c in inline.clusters
        )
    for ntx_id in range(len(inline.clusters[0].ntx)):
        for attribute in ("stats", "fpu"):
            def counters(sim):
                return _summed([
                    vars(getattr(c.ntx[ntx_id], attribute).stats
                         if attribute == "fpu" else c.ntx[ntx_id].stats)
                    for c in sim.clusters
                ])
            assert counters(batched) == counters(inline)
