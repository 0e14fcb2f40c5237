"""The scenario subsystem: spec round trips, registry errors, workload
builders, golden-model verification (including its failure paths) and the
scenario runner."""

import json
import shutil

import numpy as np
import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.engine import available_engines, resolve_engine
from repro.mem.hmc import Hmc
from repro.options import ExecutionOptions
from repro.scenarios import (
    FAMILIES,
    ScenarioSpec,
    build_workload,
    get_scenario,
    register_scenario,
    registered_scenarios,
    run_scenario,
)

from dma_tiles import tile_from_transfers


class TestScenarioSpec:
    def test_dict_round_trip(self):
        spec = ScenarioSpec(
            name="rt",
            family="matmul",
            description="round trip",
            params={"m": 4, "k": 6, "n": 5},
            num_tiles=3,
            seed=7,
            num_vaults=1,
            clusters_per_vault=2,
            engine="scalar",
            stagger_cycles=5,
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        """The path a result store takes: ``to_dict``, JSON and back."""
        spec = get_scenario("conv-tiled")
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_json_round_trip_with_tuple_params(self):
        """JSON turns tuples into lists; normalization keeps the identity."""
        spec = ScenarioSpec(
            name="rt2", family="conv", params={"image_shape": (8, 10)}
        )
        round_tripped = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert round_tripped == spec
        assert round_tripped.merged_params()["image_shape"] == (8, 10)

    def test_from_dict_rejects_unknown_fields(self):
        data = get_scenario("conv-tiled").to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            ScenarioSpec.from_dict(data)

    def test_from_dict_rejects_missing_required_fields(self):
        with pytest.raises(ValueError, match="family"):
            ScenarioSpec.from_dict({"name": "x"})

    def test_unknown_family_lists_choices(self):
        with pytest.raises(ValueError, match="matmul"):
            ScenarioSpec(name="x", family="fft")

    def test_unknown_engine_lists_choices(self):
        with pytest.raises(ValueError, match="vectorized"):
            ScenarioSpec(name="x", family="conv", engine="quantum")

    def test_unknown_param_rejected_at_construction(self):
        with pytest.raises(ValueError, match="kernel_size"):
            ScenarioSpec(name="x", family="conv", params={"kernel_size": 3})

    def test_params_merge_over_family_defaults(self):
        spec = ScenarioSpec(name="x", family="conv", params={"kernel": 5})
        merged = spec.merged_params()
        assert merged["kernel"] == 5
        assert merged["image_shape"] == (12, 14)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", family="conv", num_tiles=-1)

    @pytest.mark.parametrize("retired", ["parallel", "memoize"])
    def test_retired_field_rejected(self, retired):
        """Worker dispatch is gone and memoization is an execution option;
        a spec naming either must fail loudly."""
        data = get_scenario("conv-tiled").to_dict()
        assert retired not in data
        with pytest.raises(ValueError, match=retired):
            ScenarioSpec.from_dict({**data, retired: False})

    def test_system_config_carries_the_geometry(self):
        spec = ScenarioSpec(
            name="x", family="conv", num_vaults=1, clusters_per_vault=3,
            engine="scalar", stagger_cycles=3,
        )
        config = spec.system_config()
        assert config.num_clusters == 3
        assert config.stagger_cycles == 3
        assert not hasattr(config, "engine")


class TestRegistry:
    def test_one_scenario_per_family_is_registered(self):
        specs = [get_scenario(name) for name in registered_scenarios()]
        assert set(FAMILIES) <= {spec.family for spec in specs}
        assert len(registered_scenarios()) >= 4

    def test_unknown_scenario_lists_choices(self):
        with pytest.raises(ValueError, match="conv-tiled"):
            get_scenario("does-not-exist")

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("conv-tiled")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(spec)
        # Explicit replace is allowed (and is a no-op with the same spec).
        assert register_scenario(spec, replace=True) is spec

    def test_engine_registry_round_trip(self):
        assert set(available_engines()) >= {"scalar", "vectorized"}
        for name in available_engines():
            assert resolve_engine(name) == name
        with pytest.raises(ValueError, match="scalar"):
            resolve_engine("bogus")


class TestPlacements:
    def test_default_round_robin(self):
        tile = tile_from_transfers(commands=[object(), object(), object()])
        assert [ntx for ntx, _ in tile.jobs(2)] == [0, 1, 0]

    def test_explicit_placements(self):
        commands = [object(), object()]
        tile = tile_from_transfers(commands=commands, placements=[1, 1])
        assert list(tile.jobs(4)) == [(1, commands[0]), (1, commands[1])]

    def test_length_mismatch_rejected(self):
        tile = tile_from_transfers(commands=[object()], placements=[0, 1])
        with pytest.raises(ValueError, match="placements"):
            tile.jobs(8)

    def test_out_of_range_placement_rejected(self):
        tile = tile_from_transfers(commands=[object()], placements=[9])
        with pytest.raises(ValueError, match="out of range"):
            tile.jobs(8)


def _run_family(name, memoize=True, **overrides):
    overrides.setdefault("num_tiles", 2)
    overrides.setdefault("num_vaults", 1)
    overrides.setdefault("clusters_per_vault", 2)
    return run_scenario(name, options=ExecutionOptions(memoize=memoize), **overrides)


class TestWorkloadFamilies:
    @pytest.mark.parametrize("name", ["conv-tiled", "matmul-tiled",
                                      "stencil-laplace2d", "dnn-training-step"])
    def test_runs_and_verifies(self, name):
        outcome = _run_family(name)
        assert outcome.verified
        assert outcome.result.num_tiles == 2
        assert outcome.result.makespan_cycles > 0
        assert outcome.workload.references

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_verify_failure_path(self, name):
        """Corrupting any verified output region must fail verification."""
        spec = next(
            get_scenario(s) for s in registered_scenarios()
            if get_scenario(s).family == name
        )
        outcome = run_scenario(
            spec, num_tiles=1, num_vaults=1, clusters_per_vault=1
        )
        hmc = outcome.simulator.hmc
        for address, expected in outcome.workload.references:
            produced = hmc.memory.load_array(address, expected.shape)
            corrupted = produced.copy().ravel()
            corrupted[0] += np.float32(1.0)
            hmc.memory.store_array(address, corrupted.reshape(expected.shape))
            with pytest.raises(AssertionError):
                outcome.workload.verify(hmc)
            hmc.memory.store_array(address, produced)  # restore for the next region
        outcome.workload.verify(hmc)  # restored state passes again

    @pytest.mark.parametrize("name", registered_scenarios())
    def test_runs_without_data_plane_fallbacks(self, name):
        """Registered scenarios stay on the array data plane; a refused
        command would run the soft-float per-op executor instead."""
        from repro.obs import metrics
        from repro.system.memo import TileTimingCache

        metrics.set_metrics_enabled(True)
        outcome = run_scenario(name, timing_cache=TileTimingCache())
        assert outcome.verified
        fallbacks = metrics.REGISTRY.get("repro_dataplane_fallbacks_total")
        # Without a C compiler every MAC walks per op by design, counted
        # as ``no_compiler``; every other reason is still a failure there.
        no_compiler = () if shutil.which("cc") else ("no_compiler",)
        assert [
            sample for sample in fallbacks.samples()
            if dict(sample[1])["reason"] not in no_compiler
        ] == []

    def test_build_workload_is_deterministic(self):
        spec = get_scenario("dnn-training-step").with_overrides(num_tiles=1)
        arrays = []
        for _ in range(2):
            hmc = Hmc()
            workload = build_workload(spec, hmc, ClusterConfig())
            arrays.append([expected for _, expected in workload.references])
        for a, b in zip(*arrays):
            assert np.array_equal(a, b)

    def test_memoized_scenario_is_exact(self):
        """Memoized, batched replay composes with every family."""
        plain = _run_family("dnn-training-step", num_tiles=4, memoize=False)
        fast = _run_family("dnn-training-step", num_tiles=4, memoize=True)
        assert fast.result.cache_hits > 0
        assert fast.result.makespan_cycles == plain.result.makespan_cycles
        for a, b in zip(plain.output_arrays(), fast.output_arrays()):
            assert np.array_equal(a, b)  # bit-identical HMC buffers

    def test_conv_draw_changes_data_not_structure(self):
        """Normal and lattice operands share one tiling structure (bands,
        transfers, commands) and differ only in the staged data."""
        spec = get_scenario("conv-tiled").with_overrides(num_tiles=2)
        normal = spec.with_overrides(params={"draw": "normal"})
        hmcs = Hmc(), Hmc()
        lattice_build = build_workload(spec, hmcs[0], ClusterConfig())
        normal_build = build_workload(normal, hmcs[1], ClusterConfig())
        assert "draw" not in spec.params
        assert lattice_build.tiles == normal_build.tiles
        assert hmcs[0].memory.data != hmcs[1].memory.data


class TestRunnerSurface:
    def test_summary_names_the_scenario(self):
        outcome = _run_family("matmul-tiled")
        summary = outcome.summary()
        assert summary["scenario"] == "matmul-tiled"
        assert summary["family"] == "matmul"
        assert summary["verified"] is True

    def test_format_outcome_mentions_verification(self):
        from repro.scenarios import format_outcome

        outcome = _run_family("conv-tiled")
        rendered = format_outcome(outcome)
        assert "conv-tiled" in rendered
        assert "verified" in rendered

    def test_overrides_are_validated(self):
        with pytest.raises(ValueError, match="vectorized"):
            run_scenario("conv-tiled", engine="nope")
