"""Declarative scenarios: named, serializable, verifiable workloads.

The scenario subsystem is the "as many scenarios as you can imagine" seam
of the roadmap: a workload is described as data (a
:class:`~repro.scenarios.spec.ScenarioSpec` — family, shape, system
geometry, engine/memoize knobs), built into HMC-staged tiles by
its workload family, executed by the ordinary
:class:`~repro.system.simulator.SystemSimulator`, and verified against a
NumPy golden model.  Adding a workload means registering a family builder
and a spec — the eval CLI, the benchmark harness and the parity tests
pick it up from the registry.

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec` with dict/JSON
  round trip and construction-time validation.
* :mod:`repro.scenarios.workloads` — the workload families (conv,
  matmul, stencil, dnn training step, opcode streams, plus the compiled
  ``cstencil``/``pipeline`` families) and their golden models.
* :mod:`repro.scenarios.compiler` — the declarative stencil/pipeline
  compiler: :class:`StencilSpec`/:class:`PipelineSpec` to command
  streams with auto-derived goldens.
* :mod:`repro.scenarios.registry` — the named-scenario registry.
* :mod:`repro.scenarios.runner` — :func:`run_scenario`: build, run,
  verify, summarise.
"""

from repro.scenarios.compiler import (
    PipelineSpec,
    ReduceSpec,
    StencilSpec,
    bilateral_coefficients,
    gaussian_coefficients,
    laplacian_coefficients,
    neighborhood_offsets,
)
from repro.scenarios.registry import (
    get_scenario,
    iter_scenarios,
    register_scenario,
    registered_scenarios,
)
from repro.scenarios.runner import ScenarioOutcome, format_outcome, run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.workloads import (
    FAMILIES,
    ScenarioWorkload,
    WorkloadFamily,
    build_workload,
)

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
