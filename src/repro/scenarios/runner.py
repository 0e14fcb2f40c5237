"""Execute a scenario end to end and report what happened.

:func:`run_scenario` is the one entry point every consumer shares — the
eval CLI, the benchmark harness and the tests: resolve the spec (by name
or directly), build the system, stage the workload in the shared HMC, run
every tile through the cycle-level engines, and verify the HMC contents
against the workload's golden model.  A scenario run is therefore always
a correctness run; ``verify=False`` exists only for callers that verify
differently (e.g. the cross-engine parity tests, which compare raw HMC
bytes between engines).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.options import ExecutionOptions
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.workloads import ScenarioWorkload, build_workload
from repro.system.memo import TileTimingCache
from repro.system.simulator import SystemResult, SystemSimulator

__all__ = ["ScenarioOutcome", "format_outcome", "run_scenario"]

_SCENARIO_RUNS = _metrics.counter(
    "repro_scenario_runs_total",
    "Completed scenario runs, by workload family",
    labelnames=("family",),
)


@dataclass
class ScenarioOutcome:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    workload: ScenarioWorkload
    result: SystemResult
    #: Whether the HMC outputs were checked against the golden model.
    verified: bool
    #: The simulator (still holding the HMC) the run executed on.
    simulator: SystemSimulator
    #: Wall seconds of the simulation alone (excludes workload build and
    #: verification) — what the benchmark harness reports.
    run_seconds: float = 0.0

    def output_arrays(self) -> List[np.ndarray]:
        """The verified output regions as arrays, in reference order."""
        return [
            self.simulator.hmc.memory.load_array(address, expected.shape)
            for address, expected in self.workload.references
        ]

    def summary(self) -> Dict[str, object]:
        """The system summary plus the scenario's identity (str/bool values)."""
        summary = self.result.summary()
        summary["scenario"] = self.spec.name
        summary["family"] = self.spec.family
        summary["engine"] = self.spec.engine
        summary["verified"] = self.verified
        return summary


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    verify: bool = True,
    options: Optional[ExecutionOptions] = None,
    timing_cache: Optional[TileTimingCache] = None,
    **overrides,
) -> ScenarioOutcome:
    """Run ``scenario`` (a registered name or a spec) end to end.

    ``options`` is the unified :class:`~repro.options.ExecutionOptions`
    block: ``memoize`` toggles the tile-timing cache, and a non-``None``
    ``engine`` overrides the spec's engine (explicit ``overrides`` win
    over it).  The ``quick`` and ``cache_dir`` fields are campaign-level
    and ignored here.

    ``overrides`` replace spec fields for this run only (e.g.
    ``engine="scalar"``, ``num_tiles=2``); they go through the same
    validation as a freshly constructed spec.  ``timing_cache`` lets a
    caller that runs many scenarios (the campaign runner) share one
    tile-timing cache across runs; it is only consulted when
    ``options.memoize`` is on.
    """
    options = options if options is not None else ExecutionOptions()
    if options.trace:
        # Library callers opt in per options block; the enable sticks for
        # the process (the CLI scopes it with ``repro.obs.trace_session``).
        _trace.TRACER.set_enabled(True)
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if options.engine is not None:
        overrides = {"engine": options.engine, **overrides}
    if overrides:
        spec = spec.with_overrides(**overrides)
    config = spec.system_config()
    simulator = SystemSimulator(
        config,
        options=ExecutionOptions(engine=spec.engine, memoize=options.memoize),
        timing_cache=timing_cache,
    )
    with _trace.span("scenario", name=spec.name, family=spec.family):
        with _trace.span("build-workload"):
            workload = build_workload(spec, simulator.hmc, config.cluster)
        start = time.perf_counter()
        result = simulator.run(workload.tiles)
        run_seconds = time.perf_counter() - start
        if verify:
            with _trace.span("verify"):
                workload.verify(simulator.hmc)
    _SCENARIO_RUNS.inc(family=spec.family)
    return ScenarioOutcome(
        spec=spec,
        workload=workload,
        result=result,
        verified=verify,
        simulator=simulator,
        run_seconds=run_seconds,
    )


def format_outcome(outcome: ScenarioOutcome) -> str:
    """Human-readable one-block rendering of a scenario run."""
    spec = outcome.spec
    result = outcome.result
    lines = [
        f"scenario {spec.name} (family {spec.family}, engine {spec.engine})",
        f"  {spec.num_tiles} tiles on {result.config.describe()}",
        f"  makespan {result.makespan_cycles:.0f} cycles, "
        f"{result.throughput_flops_per_s / 1e9:.2f} Gflop/s, "
        f"utilization {result.utilization:.2f}",
        f"  conflict p {result.conflict_probability:.3f}, "
        f"cache hit rate {result.cache_hit_rate:.2f}, "
        f"contention {result.contention_factor:.2f}",
        "  verified against the golden model: "
        + ("ok" if outcome.verified else "skipped"),
    ]
    return "\n".join(lines)
