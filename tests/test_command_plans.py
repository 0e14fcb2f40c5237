"""Guards of the shared command-plan cache (:func:`repro.core.vecops.command_plan`).

A plan is built once per distinct command value and handed to every
caller in the process — the data plane, the timing core and the batched
replay gate, on whatever thread runs them — so the cache must be bounded,
keyed by value, hand out read-only arrays, and give verdicts equal to the
full computation they stand in for.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.sim import ClusterSimulator
from repro.core import vecops
from repro.core.commands import AguConfig, InitSource, LoopConfig, NtxCommand, NtxOpcode
from repro.core.vecops import PLAN_CACHE_SIZE, command_plan
from repro.kernels.blas import axpy_commands
from repro.kernels.conv import conv2d_commands

_BASE = Cluster().tcdm.base


@pytest.fixture
def cold_plans():
    """An empty plan cache for the test, emptied again afterwards."""
    command_plan.cache_clear()
    yield
    command_plan.cache_clear()


def _streaming(base: int = _BASE, stride: int = 4, count: int = 8) -> NtxCommand:
    return NtxCommand(
        opcode=NtxOpcode.MAC,
        loops=LoopConfig.nest(count, 2),
        agu0=AguConfig(base=base, strides=(stride, stride, 0, 0, 0)),
        agu1=AguConfig(base=base + 4096, strides=(stride, stride, 0, 0, 0)),
        agu2=AguConfig(base=base + 8192, strides=(0, 4, 0, 0, 0)),
        init_level=1,
        store_level=1,
    )


def _arrays(plan):
    """Every array a plan hands out, its bank projection's included."""
    banks = plan.banks(_BASE, 32)
    arrays = [
        plan.read0, plan.read1, plan.agu2, plan.init_ts, plan.init_read_addrs,
        plan.store_ts, plan.store_addrs, plan.store_columns, *plan.own_reads,
        banks.p0_banks, banks.p1_banks, banks.init_banks, banks.init_ts,
        banks.store_banks, banks.accesses,
    ]
    return [array for array in arrays if array is not None]


class TestCache:
    def test_is_bounded_and_evicts_the_least_recently_used(self, cold_plans):
        first = command_plan(_streaming(_BASE))
        for index in range(1, PLAN_CACHE_SIZE + 10):
            command_plan(_streaming(_BASE + 4 * index))
        info = command_plan.cache_info()
        assert info.maxsize == PLAN_CACHE_SIZE
        assert info.currsize == PLAN_CACHE_SIZE
        assert info.misses == PLAN_CACHE_SIZE + 10
        # The first plan was evicted: asking again builds a new one.
        assert command_plan(_streaming(_BASE)) is not first

    def test_is_keyed_by_value(self, cold_plans):
        command = _streaming()
        assert command_plan(_streaming()) is command_plan(command)
        variants = [
            replace(command, agu0=AguConfig(base=_BASE, strides=(8, 4, 0, 0, 0))),
            replace(command, agu1=replace(command.agu1, base=command.agu1.base + 4)),
            replace(command, store_level=0),
            replace(command, init_level=2),
            replace(command, loops=LoopConfig.nest(8, 3)),
            replace(command, opcode=NtxOpcode.ADD),
        ]
        plans = {id(command_plan(variant)) for variant in variants}
        assert len(plans) == len(variants)
        assert id(command_plan(command)) not in plans
        assert command_plan.cache_info().currsize == len(variants) + 1

    def test_every_array_is_read_only(self):
        command = axpy_commands(16, _BASE, _BASE + 64, _BASE + 128)[0]
        hazard = replace(command, agu0=AguConfig(base=_BASE + 124, strides=(4, 0, 0, 0, 0)))
        for plan in (command_plan(command), command_plan(hazard)):
            arrays = _arrays(plan)
            assert len(arrays) >= 10
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]
        assert command_plan(hazard).raw_hazard

    def test_bank_projection_is_built_once_per_geometry(self):
        plan = command_plan(_streaming())
        assert plan.banks(_BASE, 32) is plan.banks(_BASE, 32)
        assert plan.banks(_BASE, 16) is not plan.banks(_BASE, 32)
        assert int(plan.banks(_BASE, 16).accesses.sum()) == plan.num_reads + plan.num_stores


def _program(cluster, variant):
    """A small conv + AXPY program whose commands depend on ``variant``."""
    rng = np.random.default_rng(variant)
    height, width = 6 + variant % 4, 7
    image = (rng.integers(-32, 32, (height, width)) / 16).astype(np.float32)
    weights = (rng.integers(-32, 32, (3, 3)) / 16).astype(np.float32)
    vector = (rng.integers(-32, 32, 16) / 16).astype(np.float32)
    img, wts, out, x, a, y = cluster.tcdm.alloc_layout(
        [image.nbytes, weights.nbytes, 4 * (height - 2) * (width - 2), 64, 4, 64]
    )
    for address, data in ((img, image), (wts, weights), (x, vector), (y, vector[::-1]),
                          (a, np.float32([0.5]))):
        cluster.stage_in(address, data)
    return [
        (0, conv2d_commands(height, width, 3, img, wts, out)[0]),
        (1, axpy_commands(16, a, x, y)[0]),
    ]


def _simulate(variant):
    cluster = Cluster()
    result = ClusterSimulator(cluster).run(_program(cluster, variant))
    return result.summary(), bytes(cluster.tcdm.memory.data)


def test_concurrent_use_matches_serial_use(cold_plans):
    """The service runs jobs on threads: plans built and read concurrently
    give the same cycles and bytes as one thread alone."""
    variants = list(range(12)) * 2
    serial = [_simulate(variant) for variant in variants]
    command_plan.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(_simulate, variant) for variant in variants]
            concurrent = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial
    # Four image heights, each with its own conv and AXPY placement, are
    # eight distinct commands however the threads raced.
    assert command_plan.cache_info().currsize == 8


def _observed_reference(plan):
    """Per read port, the reads that see an earlier store of the same
    command — a plain loop over the streams."""
    first_store = {}
    for time, address in zip(plan.store_ts.tolist(), plan.store_addrs.tolist()):
        first_store.setdefault(address, time)
    ports = (
        (plan.read0, range(plan.total)),
        (plan.read1, range(plan.total)),
        (plan.init_read_addrs, plan.init_ts.tolist()),
    )
    return [
        None if addresses is None else np.array(
            [address in first_store and time > first_store[address]
             for address, time in zip(addresses.tolist(), times)],
            dtype=bool,
        )
        for addresses, times in ports
    ]


def _fuzzed_commands(rng, count):
    strides = (-8, -4, 0, 4, 8)
    for index in range(count):
        levels = int(rng.integers(1, 4))
        counts = [int(c) for c in rng.integers(1, 6, levels)]
        init_level = int(rng.integers(0, levels + 1))
        # Half the commands place every AGU in one 64-byte window, so read
        # and store ranges overlap; the rest scatter them over 64 KiB.
        spread = 64 if index % 2 else 1 << 16
        agus = [
            AguConfig(
                base=_BASE + 4 * int(rng.integers(0, spread // 4)),
                strides=tuple(int(s) for s in rng.choice(strides, 5)),
            )
            for _ in range(3)
        ]
        yield NtxCommand(
            opcode=NtxOpcode(rng.choice([op.value for op in NtxOpcode])),
            loops=LoopConfig.nest(*counts),
            agu0=agus[0], agu1=agus[1], agu2=agus[2],
            init_level=init_level,
            store_level=int(rng.integers(0, init_level + 1)),
            init_source=InitSource(rng.choice([s.value for s in InitSource])),
            writeback=bool(rng.random() < 0.9),
        )


def test_range_check_matches_the_full_hazard_verdict():
    """The plan's verdict — a range check in front of the sort/search —
    equals the sort/search alone and a plain loop, on fuzzed streams."""
    rng = np.random.default_rng(20191105)
    axpy = axpy_commands(12, _BASE, _BASE + 64, _BASE + 128)[0]
    commands = [
        axpy,  # init read of y[i] in the same iteration that stores y[i]
        replace(axpy, agu0=replace(axpy.agu0, base=axpy.agu2.base - 4)),  # x[i] = y[i-1]
        replace(axpy, agu0=replace(axpy.agu0, base=axpy.agu2.base + 4)),  # x[i] = y[i+1]
        *_fuzzed_commands(rng, 600),
    ]
    verdicts = {True: 0, False: 0}
    overlapping = 0
    for command in commands:
        plan = vecops.CommandPlan(command)
        full = vecops._own_store_reads(plan)
        reference = _observed_reference(plan)
        for own, searched, expected in zip(plan.own_reads, full, reference):
            if expected is None or not expected.any():
                assert own is None and searched is None
            else:
                assert np.array_equal(own, expected)
                assert np.array_equal(searched, expected)
        hazard = any(mask is not None and mask.any() for mask in reference)
        assert plan.raw_hazard == hazard
        verdicts[hazard] += 1
        reads = [a for a in plan.read_ports if a is not None and len(a)]
        if reads and plan.num_stores:
            low = min(int(a.min()) for a in reads)
            high = max(int(a.max()) for a in reads)
            overlapping += bool(
                low <= plan.store_addrs.max() and plan.store_addrs.min() <= high
            )
    assert not command_plan(commands[0]).raw_hazard
    assert command_plan(commands[1]).raw_hazard
    assert not command_plan(commands[2]).raw_hazard
    # The fuzz exercises both verdicts and both sides of the range check.
    assert min(verdicts.values()) >= 50
    assert 100 <= overlapping <= len(commands) - 100


def test_cold_quick_report_builds_one_plan_per_distinct_command(cold_plans, tmp_path):
    from repro.report import generate_paper_results

    generate_paper_results(
        path=tmp_path / "paper_results.md",
        quick=True,
        store_dir=tmp_path / "store",
        cache_dir=tmp_path / "cache",
    )
    info = command_plan.cache_info()
    # Every distinct command is planned once (nothing was evicted and
    # rebuilt) and every other use is a hit: 69 plans serve 512 lookups.
    assert info.misses == info.currsize == 69
    assert info.hits > 5 * info.misses


def test_system_run_publishes_the_plan_cache_counts(cold_plans):
    from repro.obs import metrics
    from repro.scenarios import run_scenario

    metrics.set_metrics_enabled(True)
    metrics.REGISTRY.reset()
    vecops.publish_plan_cache_metrics()  # settle earlier lookups
    metrics.REGISTRY.reset()
    run_scenario("conv-tiled")
    info = command_plan.cache_info()
    registry = metrics.REGISTRY
    hits = registry.get("repro_command_plan_cache_hits_total").value()
    misses = registry.get("repro_command_plan_cache_misses_total").value()
    assert misses == info.currsize > 0
    assert hits == info.hits > 0
    assert registry.get("repro_command_plan_cache_entries").value() == info.currsize


def _gate_inputs(simulator, tiles):
    from repro.system.batch import ClusterAssignment, plan_tiles

    shards = simulator.shard(tiles)
    vault_of = simulator.config.vault_of_cluster
    work = [
        ClusterAssignment(
            cluster_id=cluster_id,
            vault_id=vault_of[cluster_id],
            cluster=simulator.clusters[cluster_id],
            assigned=[(index, tiles[index]) for index in indices],
        )
        for cluster_id, indices in enumerate(shards.tiles_of)
    ]
    return plan_tiles(simulator.config, work, signed=True)


def test_gate_verdicts_are_kept_per_batch_key(monkeypatch):
    """A warm verdict skips the gate's stream walk, keeps its refusals,
    and still checks the HMC side of every run's tiles."""
    from repro.scenarios.workloads import _lattice
    from repro.system import batch
    from repro.system.config import SystemConfig
    from repro.system.simulator import SystemSimulator
    from repro.system.workloads import conv_tiled_workload

    walks = []
    walk = batch._tcdm_self_contained
    monkeypatch.setattr(
        batch, "_tcdm_self_contained", lambda *args: walks.append(1) or walk(*args)
    )
    simulator = SystemSimulator(SystemConfig())
    tiles = conv_tiled_workload(
        simulator.hmc, num_tiles=6, image_shape=(12, 14), draw=_lattice
    ).tiles
    verdicts = {}
    assert batch.passes_gate(simulator.config, _gate_inputs(simulator, tiles), verdicts)
    assert len(walks) == len(verdicts) >= 1 and all(verdicts.values())
    walks.clear()
    assert batch.passes_gate(simulator.config, _gate_inputs(simulator, tiles), verdicts)
    assert walks == []

    # Every tile staged from beyond the HMC: the TCDM-side verdicts are
    # warm and true, the HMC-side check still refuses.
    hmc_top = simulator.config.hmc.base_address + simulator.config.hmc.capacity_bytes
    stray = [
        replace(tile, transfers_in=[
            replace(t, src=hmc_top - t.row_bytes + 4) for t in tile.transfers_in
        ])
        for tile in tiles
    ]
    assert not batch.passes_gate(simulator.config, _gate_inputs(simulator, stray), verdicts)
    assert walks == []

    # A refusal is kept too: a tile without its staging DMA reads
    # uncovered words.
    unstaged = [replace(tile, transfers_in=[]) for tile in tiles]
    assert not batch.passes_gate(simulator.config, _gate_inputs(simulator, unstaged), verdicts)
    assert len(walks) == 1 and False in verdicts.values()
    assert not batch.passes_gate(simulator.config, _gate_inputs(simulator, unstaged), verdicts)
    assert len(walks) == 1


def test_gate_resolves_reads_of_the_commands_own_stores():
    """A running sum ``out[i] = out[i-1] * a`` reads, from its second
    iteration on, the word it stored one iteration earlier: the gate
    takes those reads as resolved through the plan, and only the first,
    ``out[-1]``, needs staging."""
    from repro.cluster.tiling import TileSchedule
    from repro.mem.dma import DmaTransfer
    from repro.system import batch
    from repro.system.config import SystemConfig

    config = SystemConfig()
    hmc = config.hmc.base_address
    scalar, seed_word, out = _BASE, _BASE + 64, _BASE + 68
    command = NtxCommand(
        opcode=NtxOpcode.MUL,
        loops=LoopConfig.nest(8),
        agu0=AguConfig(base=seed_word, strides=(4, 0, 0, 0, 0)),
        agu1=AguConfig.stationary(scalar),
        agu2=AguConfig(base=out, strides=(4, 0, 0, 0, 0)),
    )
    assert command_plan(command).raw_hazard
    stage = [
        DmaTransfer(src=hmc, dst=scalar, row_bytes=4),
        DmaTransfer(src=hmc + 64, dst=seed_word, row_bytes=4),
    ]
    result = [DmaTransfer(src=out, dst=hmc + 128, row_bytes=32)]
    tile = TileSchedule(transfers_in=stage, commands=[command], transfers_out=result)
    assert batch._self_contained(config, tile, tile.jobs(8))
    unseeded = TileSchedule(transfers_in=stage[:1], commands=[command], transfers_out=result)
    assert not batch._self_contained(config, unseeded, unseeded.jobs(8))


def test_hashed_batch_keys_behave_as_plain_tuples():
    import pickle

    from repro.system.batch import _HashedKey

    plain = ("vectorized", 0.0, (("mac", (3, 3)), "zero"))
    key = _HashedKey(plain)
    assert key == plain and hash(key) == hash(plain)
    assert {plain: 1}[key] == 1 and {key: 2}[plain] == 2
    # A pickled key carries no hash from the process that computed it.
    copy = pickle.loads(pickle.dumps(key))
    assert copy == plain and "_hash" not in vars(copy)
