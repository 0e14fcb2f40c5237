"""The unified ExecutionOptions API: defaults, dict/JSON round trips,
validation, the retired fields, and the entry points taking it as their
only execution-knob argument."""

import pytest

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
        assert list(ExecutionOptions().to_dict()) == [
            "engine", "memoize", "quick", "cache_dir", "trace", "trace_out",
        ]

    def test_dict_round_trip(self):
        options = ExecutionOptions(engine="scalar", memoize=False, quick=True)
        assert ExecutionOptions.from_dict(options.to_dict()) == options

    def test_json_round_trip(self):
        options = ExecutionOptions(quick=True, cache_dir="cache")
        assert ExecutionOptions.from_json(options.to_json()) == options

    def test_from_dict_missing_fields_default(self):
        assert ExecutionOptions.from_dict({}) == ExecutionOptions()
        assert ExecutionOptions.from_dict({"quick": True}).quick is True

    def test_from_dict_unknown_field_lists_accepted(self):
        with pytest.raises(ValueError, match="turbo.*accepted"):
            ExecutionOptions.from_dict({"turbo": True})

    @pytest.mark.parametrize("retired", ["parallel", "batch", "workers", "shard"])
    def test_retired_fields_rejected(self, retired):
        """Worker dispatch, the batch switch, the campaign process pool
        and point sharding are gone, not ignored."""
        with pytest.raises(ValueError, match=retired):
            ExecutionOptions.from_dict({retired: 2})
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

    def test_spec_overrides_only_non_defaults(self):
        assert ExecutionOptions().spec_overrides() == {}
        overrides = ExecutionOptions(
            engine="scalar", memoize=False, quick=True, cache_dir="cache",
        ).spec_overrides()
        assert overrides == {"engine": "scalar", "memoize": False}

    def test_with_overrides_validates(self):
        options = ExecutionOptions().with_overrides(quick=True)
        assert options.quick is True
        with pytest.raises(ValueError):
            options.with_overrides(engine="warp")

    def test_engine_option_threads_into_simulator_config(self):
        simulator = SystemSimulator(
            SystemConfig(), options=ExecutionOptions(engine="scalar")
        )
        assert simulator.config.engine == "scalar"

    def test_entry_points_take_no_legacy_keywords(self):
        with pytest.raises(TypeError):
            SystemSimulator(SystemConfig(), parallel=2)
        with pytest.raises(TypeError, match="batch"):
            run_scenario(tiny_spec(), batch=False)
