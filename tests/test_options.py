"""The unified ExecutionOptions API: defaults, validation, the retired
fields, and the entry points taking it as their only execution-knob
argument."""

from dataclasses import fields

import pytest

from repro.cluster.engine import DEFAULT_ENGINE
from repro.options import ExecutionOptions
from repro.scenarios import ScenarioSpec, run_scenario
from repro.system import SystemConfig, SystemSimulator


def tiny_spec(**overrides) -> ScenarioSpec:
    """A conv scenario small enough to build in a unit test."""
    settings = dict(
        name="tiny-conv",
        family="conv",
        params={"image_shape": (8, 10)},
        num_tiles=2,
        num_vaults=1,
        clusters_per_vault=1,
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


class TestExecutionOptions:
    def test_defaults(self):
        options = ExecutionOptions()
        assert options.engine is None
        assert options.memoize is True
        assert options.quick is False

    def test_fields_are_the_six_execution_knobs(self):
        assert [f.name for f in fields(ExecutionOptions)] == [
            "engine", "memoize", "quick", "cache_dir", "trace", "trace_out",
        ]

    @pytest.mark.parametrize("retired", ["parallel", "batch", "workers", "shard"])
    def test_retired_fields_rejected(self, retired):
        """Worker dispatch, the batch switch, the campaign process pool
        and point sharding are gone, not ignored."""
        with pytest.raises(TypeError):
            ExecutionOptions(**{retired: 2})

    def test_unknown_engine_lists_choices(self):
        with pytest.raises(ValueError, match="warp"):
            ExecutionOptions(engine="warp")

    def test_non_bool_flags_rejected(self):
        with pytest.raises(ValueError, match="memoize"):
            ExecutionOptions(memoize=1)
        with pytest.raises(ValueError, match="quick"):
            ExecutionOptions(quick="yes")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionOptions().quick = True

    def test_engine_option_selects_the_simulator_engine(self):
        assert SystemSimulator(SystemConfig()).engine == DEFAULT_ENGINE
        simulator = SystemSimulator(
            SystemConfig(), options=ExecutionOptions(engine="scalar")
        )
        assert simulator.engine == "scalar"

    def test_engine_option_overrides_the_spec(self):
        outcome = run_scenario(tiny_spec(), options=ExecutionOptions(engine="scalar"))
        assert outcome.spec.engine == outcome.simulator.engine == "scalar"
        outcome = run_scenario(tiny_spec(engine="scalar"))
        assert outcome.simulator.engine == "scalar"

    def test_memoize_option_toggles_the_timing_cache(self):
        plain = run_scenario(tiny_spec(), options=ExecutionOptions(memoize=False))
        memoized = run_scenario(tiny_spec())
        assert (plain.result.cache_hits, plain.result.cache_misses) == (0, 0)
        assert memoized.result.cache_hits > 0
        assert memoized.result.makespan_cycles == plain.result.makespan_cycles
        assert plain.spec == memoized.spec

    def test_entry_points_take_no_legacy_keywords(self):
        with pytest.raises(TypeError):
            SystemSimulator(SystemConfig(), parallel=2)
        with pytest.raises(TypeError, match="batch"):
            run_scenario(tiny_spec(), batch=False)
