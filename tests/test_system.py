"""The multi-cluster scale-out subsystem: scheduler edge cases, the
end-to-end system run on a shared HMC, the bandwidth contention model and
tile-timing memoization.  The memoized speedup gate lives with the
walker's parity tests in ``test_batch_parity.py``."""

import math

import numpy as np
import pytest

from repro.options import ExecutionOptions
from repro.system import (
    SystemConfig,
    SystemSimulator,
    WorkQueueScheduler,
    conv_tiled_workload,
    shard_round_robin,
)


def _run_system(config, num_tiles, image_shape=(12, 14), memoize=True, seed=2019):
    """One end-to-end run; returns (simulator, workload, result, outputs)."""
    simulator = SystemSimulator(config, options=ExecutionOptions(memoize=memoize))
    workload = conv_tiled_workload(
        simulator.hmc, num_tiles=num_tiles, image_shape=image_shape, seed=seed
    )
    result = simulator.run(workload.tiles)
    outputs = [
        simulator.hmc.memory.load_array(address, expected.shape)
        for address, expected in workload.references
    ]
    return simulator, workload, result, outputs


class TestWorkQueueScheduler:
    def test_zero_clusters_rejected(self):
        with pytest.raises(ValueError):
            WorkQueueScheduler().assign([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            shard_round_robin(4, 0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            WorkQueueScheduler().assign([1.0, -2.0], 2)

    def test_non_finite_cost_rejected(self):
        """A NaN cost would silently corrupt the availability heap."""
        with pytest.raises(ValueError):
            WorkQueueScheduler().assign([1.0, math.nan], 2)
        with pytest.raises(ValueError):
            WorkQueueScheduler().assign([math.inf], 2)

    def test_no_tiles(self):
        plan = WorkQueueScheduler().assign([], 4)
        assert plan.num_assigned == 0
        assert plan.idle_clusters == 4

    def test_one_tile_many_clusters(self):
        plan = WorkQueueScheduler().assign([5.0], 8)
        assert plan.num_assigned == 1
        assert plan.busiest == 1
        assert plan.idle_clusters == 7
        assert plan.tiles_of[0] == [0]

    def test_uneven_tile_count_spreads_evenly(self):
        plan = WorkQueueScheduler().assign([1.0] * 5, 2)
        sizes = sorted(len(t) for t in plan.tiles_of)
        assert sizes == [2, 3]
        assert sorted(i for tiles in plan.tiles_of for i in tiles) == list(range(5))

    def test_work_queue_beats_round_robin_on_uneven_costs(self):
        costs = [10.0, 1.0, 1.0, 1.0]
        queue_plan = WorkQueueScheduler().assign(costs, 2)
        static_plan = shard_round_robin(len(costs), 2)

        def makespan(plan):
            return max(sum(costs[i] for i in tiles) for tiles in plan.tiles_of)

        # Cluster 0 takes the big tile; the queue routes the rest elsewhere.
        assert makespan(queue_plan) == 10.0
        assert makespan(static_plan) == 11.0

    def test_deterministic(self):
        first = WorkQueueScheduler().assign([3.0, 1.0, 2.0, 2.0], 3)
        second = WorkQueueScheduler().assign([3.0, 1.0, 2.0, 2.0], 3)
        assert first.tiles_of == second.tiles_of


class TestSystemConfig:
    def test_rejects_zero_vaults_or_clusters(self):
        with pytest.raises(ValueError):
            SystemConfig(num_vaults=0)
        with pytest.raises(ValueError):
            SystemConfig(clusters_per_vault=0)

    def test_rejects_more_vaults_than_the_cube_has(self):
        with pytest.raises(ValueError):
            SystemConfig(num_vaults=33)

    def test_derived_figures(self):
        config = SystemConfig(num_vaults=2, clusters_per_vault=4)
        assert config.num_clusters == 8
        assert config.peak_flops == 8 * config.cluster.peak_flops
        assert config.hmc_bandwidth_bytes_per_s == pytest.approx(20e9)
        assert config.vault_of_cluster[0] == 0
        assert config.vault_of_cluster[7] == 1


class TestSystemSimulator:
    def test_two_vaults_four_clusters_end_to_end(self):
        simulator = SystemSimulator(SystemConfig(num_vaults=2, clusters_per_vault=4))
        workload = conv_tiled_workload(simulator.hmc, num_tiles=10)
        result = simulator.run(workload.tiles)
        # Every tile executed, results are bit-correct in the shared HMC.
        workload.verify(simulator.hmc)
        assert result.num_tiles == 10
        assert result.makespan_cycles > 0
        assert 0.0 < result.utilization <= 1.0
        assert result.total_flops == sum(t.flops for t in workload.tiles)
        assert result.conflict_probability < 0.2
        # 10 tiles on 8 clusters: nobody takes more than two.
        assert max(len(r.tile_indices) for r in result.reports) <= 2

    def test_empty_workload(self):
        simulator = SystemSimulator(SystemConfig(num_vaults=1, clusters_per_vault=2))
        result = simulator.run([])
        assert result.num_tiles == 0
        assert result.makespan_cycles == 0
        assert result.throughput_flops_per_s == 0.0
        assert result.utilization == 0.0

    def test_single_tile_leaves_clusters_idle(self):
        simulator = SystemSimulator(SystemConfig(num_vaults=2, clusters_per_vault=4))
        workload = conv_tiled_workload(simulator.hmc, num_tiles=1)
        result = simulator.run(workload.tiles)
        workload.verify(simulator.hmc)
        busy = [r for r in result.reports if r.tile_indices]
        assert len(busy) == 1
        assert result.utilization <= 1.0 / 8 + 1e-9

    def test_more_clusters_shrink_the_makespan(self):
        makespans = {}
        for clusters_per_vault in (1, 4):
            config = SystemConfig(num_vaults=2, clusters_per_vault=clusters_per_vault)
            simulator = SystemSimulator(config)
            workload = conv_tiled_workload(simulator.hmc, num_tiles=8)
            makespans[clusters_per_vault] = simulator.run(workload.tiles).makespan_cycles
        assert makespans[4] < makespans[1]

    def test_fewer_vaults_trigger_bandwidth_contention(self):
        """Same cluster count, fewer populated vaults: DMA slows down."""
        results = {}
        for num_vaults, clusters_per_vault in ((2, 4), (1, 8)):
            config = SystemConfig(
                num_vaults=num_vaults, clusters_per_vault=clusters_per_vault
            )
            simulator = SystemSimulator(config)
            workload = conv_tiled_workload(simulator.hmc, num_tiles=16)
            results[num_vaults] = simulator.run(workload.tiles)
            workload.verify(simulator.hmc)
        assert results[2].contention_factor == pytest.approx(1.0)
        assert results[1].contention_factor > 1.0
        assert results[1].makespan_cycles > results[2].makespan_cycles

    def test_more_clusters_than_tiles_leaves_idle_clusters(self):
        """Regression: a mostly-idle system must run, not error out."""
        for memoize in (False, True):
            config = SystemConfig(num_vaults=2, clusters_per_vault=4)
            simulator, workload, result, _ = _run_system(
                config, num_tiles=3, memoize=memoize
            )
            workload.verify(simulator.hmc)
            assert result.num_tiles == 3
            assert sum(1 for r in result.reports if not r.tile_indices) == 5
            assert len(result.reports) == 8

    def test_empty_workload_with_and_without_memoization(self):
        """Regression: no tiles must neither fail nor report work."""
        for memoize in (False, True):
            simulator = SystemSimulator(
                SystemConfig(num_vaults=1, clusters_per_vault=2),
                options=ExecutionOptions(memoize=memoize),
            )
            result = simulator.run([])
            assert result.num_tiles == 0
            assert result.makespan_cycles == 0
            assert result.cache_hits == result.cache_misses == 0
            assert all(not report.tile_indices for report in result.reports)
            assert "workers" not in result.summary()

    def test_scalar_and_vectorized_systems_agree(self):
        """Satellite: SimulationResult parity on a fixed-seed system run."""
        summaries = {}
        for engine in ("scalar", "vectorized"):
            config = SystemConfig(num_vaults=1, clusters_per_vault=2, engine=engine)
            simulator = SystemSimulator(config)
            workload = conv_tiled_workload(simulator.hmc, num_tiles=4, seed=77)
            result = simulator.run(workload.tiles)
            workload.verify(simulator.hmc)
            summaries[engine] = result
        scalar, vectorized = summaries["scalar"], summaries["vectorized"]
        assert vectorized.total_flops == scalar.total_flops
        assert vectorized.makespan_cycles == pytest.approx(
            scalar.makespan_cycles, rel=0.02
        )
        assert vectorized.conflict_probability == pytest.approx(
            scalar.conflict_probability, abs=0.01
        )
        per_tile_scalar = [
            r.cycles for report in scalar.reports for r in report.results
        ]
        per_tile_vectorized = [
            r.cycles for report in vectorized.reports for r in report.results
        ]
        assert per_tile_vectorized == per_tile_scalar


def _verified_runs():
    """A verified 4-tile conv run as a ``ConvWorkload`` and as a
    ``ScenarioWorkload``: ``[(workload, hmc), ...]``."""
    from repro.scenarios import run_scenario

    simulator, workload, _, _ = _run_system(
        SystemConfig(num_vaults=1, clusters_per_vault=1), num_tiles=4
    )
    outcome = run_scenario(
        "conv-tiled", num_tiles=4, num_vaults=1, clusters_per_vault=1
    )
    return [(workload, simulator.hmc), (outcome.workload, outcome.simulator.hmc)]


class TestVerify:
    """``verify`` skips the tolerance check for outputs equal to their
    reference; every pass/fail decision stays that of the full check."""

    @pytest.mark.parametrize("tile", [0, 1, 3])
    @pytest.mark.parametrize("value", ["plus-one", "nan"])
    def test_one_corrupted_word_in_any_tile_fails(self, tile, value):
        for workload, hmc in _verified_runs():
            workload.verify(hmc)
            address, expected = workload.references[tile]
            produced = hmc.memory.load_array(address, expected.shape)
            corrupted = produced.copy().ravel()
            word = (7 * tile + 5) % corrupted.size
            corrupted[word] = np.nan if value == "nan" else corrupted[word] + 1
            hmc.memory.store_array(address, corrupted.reshape(expected.shape))
            with pytest.raises(AssertionError):
                workload.verify(hmc)
            hmc.memory.store_array(address, produced)
            workload.verify(hmc)

    def test_within_tolerance_difference_still_passes(self):
        for workload, hmc in _verified_runs():
            address, expected = workload.references[2]
            nudged = np.nextafter(expected, np.float32(np.inf))
            hmc.memory.store_array(address, nudged)
            workload.verify(hmc)


class TestScenarioEngineParity:
    """Satellite: the golden-parity guarantee extended to every registered
    scenario family — scalar and vectorized engines must leave *bit-identical*
    contents in the HMC (the lattice-valued workload data makes every
    intermediate exact in both data planes), and their timing must agree."""

    @pytest.mark.parametrize(
        "name",
        [
            "conv-tiled",
            "matmul-tiled",
            "stencil-laplace2d",
            "dnn-training-step",
            # The compiled (declarative) scenarios ride the same guarantee:
            # coefficient quantization keeps every product dyadic-exact.
            "cstencil-laplace27",
            "cstencil-heat3d",
            "cstencil-gauss-blur",
            "cstencil-bilateral",
            "pipeline-blur-stencil-reduce",
        ],
    )
    def test_scalar_and_vectorized_hmc_contents_are_bit_identical(self, name):
        from repro.cluster.engine import available_engines
        from repro.scenarios import run_scenario

        outcomes = {
            engine: run_scenario(
                name,
                engine=engine,
                num_tiles=2,
                num_vaults=1,
                clusters_per_vault=2,
            )
            for engine in available_engines()
        }
        assert {"scalar", "vectorized"} <= set(outcomes)
        for outcome in outcomes.values():
            assert outcome.verified  # every engine matches the golden model
        reference = outcomes["scalar"]
        for engine, outcome in outcomes.items():
            assert outcome.result.total_flops == reference.result.total_flops
            assert outcome.result.makespan_cycles == pytest.approx(
                reference.result.makespan_cycles, rel=0.02
            )
            for produced, golden in zip(
                outcome.output_arrays(), reference.output_arrays()
            ):
                assert np.array_equal(produced, golden), (name, engine)

    def test_registry_lists_both_engines(self):
        from repro.cluster.engine import available_engines, get_engine

        names = available_engines()
        assert "scalar" in names and "vectorized" in names
        for name in names:
            engine = get_engine(name)
            assert engine.name == name
            assert engine.description


class TestTilingMemoization:
    def test_identical_shapes_share_timing_but_not_data(self):
        """Satellite: same cache key, same timing, distinct bit-exact outputs.

        Two convolution tiles with identical shapes (hence identical command
        streams and DMA layouts) but different input data must hit the same
        timing-cache entry while each still producing its own correct output
        in the HMC.
        """
        config = SystemConfig(num_vaults=1, clusters_per_vault=1)
        simulator, workload, result, outputs = _run_system(config, num_tiles=2)
        assert result.cache_misses == 1
        assert result.cache_hits == 1
        assert result.cache_hit_rate == pytest.approx(0.5)
        # Shared timing: both tiles report the same simulated cycle count.
        report = result.reports[0]
        assert len(report.results) == 2
        assert report.results[0].cycles == report.results[1].cycles
        # Distinct data: outputs are bit-exact per tile, and differ.
        workload.verify(simulator.hmc)
        assert not np.array_equal(outputs[0], outputs[1])
        for produced, (_, expected) in zip(outputs, workload.references):
            np.testing.assert_allclose(produced, expected, rtol=1e-5, atol=1e-6)

    def test_memoized_run_is_identical_to_unmemoized(self):
        """Memoization only skips recomputation — never changes any result."""
        config = SystemConfig(num_vaults=2, clusters_per_vault=2)
        _, _, plain, outputs_plain = _run_system(
            config, num_tiles=10, memoize=False
        )
        _, workload, memoized, outputs_memoized = _run_system(
            config, num_tiles=10, memoize=True
        )
        assert plain.cache_hits == plain.cache_misses == 0
        assert memoized.cache_hits > 0
        assert memoized.makespan_cycles == plain.makespan_cycles
        assert memoized.total_flops == plain.total_flops
        assert memoized.conflict_probability == plain.conflict_probability
        for a, b in zip(outputs_plain, outputs_memoized):
            assert np.array_equal(a, b)  # bit-identical HMC buffers

    def test_scalar_engine_memoized_stays_bit_exact(self):
        """The hit path replays scalar tiles through the exact executor."""
        config = SystemConfig(num_vaults=1, clusters_per_vault=2, engine="scalar")
        _, _, plain, outputs_plain = _run_system(
            config, num_tiles=4, memoize=False, seed=7
        )
        _, _, memoized, outputs_memoized = _run_system(
            config, num_tiles=4, memoize=True, seed=7
        )
        assert memoized.cache_hits > 0
        assert memoized.makespan_cycles == plain.makespan_cycles
        for a, b in zip(outputs_plain, outputs_memoized):
            assert np.array_equal(a, b)

    def test_cache_persists_across_runs(self):
        """A second run of the same workload shape is all cache hits."""
        config = SystemConfig(num_vaults=1, clusters_per_vault=2)
        simulator = SystemSimulator(config)
        first = conv_tiled_workload(simulator.hmc, num_tiles=4)
        result_first = simulator.run(first.tiles)
        assert result_first.cache_misses == 1
        result_second = simulator.run(first.tiles)
        assert result_second.cache_misses == 0
        assert result_second.cache_hits == 4
        assert result_second.makespan_cycles == result_first.makespan_cycles
        # snapshot() copies the entries: the one timing class, at the
        # cycles every tile reported.
        entries = simulator.timing_cache.snapshot()
        assert len(entries) == 1
        (timing,) = entries.values()
        assert timing.cycles == result_first.reports[0].results[0].cycles
        entries.clear()
        assert len(simulator.timing_cache) == 1

    def test_timing_signature_ignores_data_but_not_structure(self):
        from dataclasses import replace

        from repro.core.commands import NtxCommand
        from repro.kernels.conv import conv2d_commands

        command = conv2d_commands(6, 8, 3, 0x1000, 0x2000, 0x3000)[0]
        assert isinstance(command, NtxCommand)
        same_structure = replace(command, scalar=42.0)
        assert command.timing_signature == same_structure.timing_signature
        moved = command.with_bases(0x1004, 0x2000, 0x3000)
        assert command.timing_signature != moved.timing_signature
