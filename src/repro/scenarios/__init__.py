"""Declarative scenarios: named, serializable, verifiable workloads.

The scenario subsystem is the "as many scenarios as you can imagine" seam
of the roadmap: a workload is described as data (a
:class:`~repro.scenarios.spec.ScenarioSpec` — family, shape, data, system
geometry, engine), built into HMC-staged tiles by
its workload family, executed by the ordinary
:class:`~repro.system.simulator.SystemSimulator`, and verified against a
NumPy golden model.  Adding a workload means registering a family builder
and a spec — the eval CLI, the benchmark harness and the parity tests
pick it up from the registry.

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec` with a dict
  round trip and construction-time validation.
* :mod:`repro.scenarios.families` — the family table: names, default
  parameters, validators and the name of each family's tile builder.
* :mod:`repro.scenarios.workloads` — the workload families (conv,
  matmul, stencil, dnn training step, opcode streams, plus the compiled
  ``cstencil``/``pipeline`` families) and their golden models.
* :mod:`repro.scenarios.stencils` — neighborhoods, coefficient rings and
  the parameter validation of the compiled families.
* :mod:`repro.scenarios.compiler` — the declarative stencil/pipeline
  compiler: :class:`StencilSpec`/:class:`PipelineSpec` to command
  streams with auto-derived goldens.
* :mod:`repro.scenarios.registry` — the named-scenario registry.
* :mod:`repro.scenarios.runner` — :func:`run_scenario`: build, run,
  verify, summarise.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.scenarios.compiler import PipelineSpec, ReduceSpec, StencilSpec
    from repro.scenarios.families import FAMILIES, WorkloadFamily
    from repro.scenarios.registry import (
        get_scenario,
        iter_scenarios,
        register_scenario,
        registered_scenarios,
    )
    from repro.scenarios.runner import ScenarioOutcome, format_outcome, run_scenario
    from repro.scenarios.spec import ScenarioSpec
    from repro.scenarios.stencils import (
        bilateral_coefficients,
        gaussian_coefficients,
        laplacian_coefficients,
        neighborhood_offsets,
    )
    from repro.scenarios.workloads import ScenarioWorkload, build_workload

__all__ = [
    "FAMILIES",
    "PipelineSpec",
    "ReduceSpec",
    "ScenarioOutcome",
    "ScenarioSpec",
    "ScenarioWorkload",
    "StencilSpec",
    "WorkloadFamily",
    "bilateral_coefficients",
    "build_workload",
    "format_outcome",
    "gaussian_coefficients",
    "get_scenario",
    "iter_scenarios",
    "laplacian_coefficients",
    "neighborhood_offsets",
    "register_scenario",
    "registered_scenarios",
    "run_scenario",
]

# Public name -> defining submodule, imported on first access (repro._lazy).
_EXPORTS = {
    "FAMILIES": "families",
    "PipelineSpec": "compiler",
    "ReduceSpec": "compiler",
    "ScenarioOutcome": "runner",
    "ScenarioSpec": "spec",
    "ScenarioWorkload": "workloads",
    "StencilSpec": "compiler",
    "WorkloadFamily": "families",
    "bilateral_coefficients": "stencils",
    "build_workload": "workloads",
    "format_outcome": "runner",
    "gaussian_coefficients": "stencils",
    "get_scenario": "registry",
    "iter_scenarios": "registry",
    "laplacian_coefficients": "stencils",
    "neighborhood_offsets": "stencils",
    "register_scenario": "registry",
    "registered_scenarios": "registry",
    "run_scenario": "runner",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
