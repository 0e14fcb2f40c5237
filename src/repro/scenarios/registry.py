"""The named-scenario registry.

One canonical scenario per workload family is registered at import time;
anything else (user code, tests, future PRs) can add more with
:func:`register_scenario`.  The registry is the single source the eval
CLI (``python -m repro.eval scenario list/run``), the CLI help epilog and
the benchmark harness iterate, so a newly registered scenario is
immediately listable, runnable and perf-gated without touching those
layers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.scenarios.stencils import bilateral_coefficients, gaussian_coefficients
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "get_scenario",
    "iter_scenarios",
    "register_scenario",
    "registered_scenarios",
]

_SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry under ``spec.name``."""
    if spec.name in _SCENARIOS and not replace:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Resolve a registered scenario by name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; "
            f"registered scenarios: {registered_scenarios()}"
        ) from None


def registered_scenarios() -> Tuple[str, ...]:
    """Names of every registered scenario, in registration order."""
    return tuple(_SCENARIOS)


def iter_scenarios() -> List[ScenarioSpec]:
    """The registered specs, in registration order."""
    return list(_SCENARIOS.values())


# One canonical scenario per workload family.  Sizes are chosen so a full
# run (including the golden-model verification) stays CI-cheap while still
# exercising multiple clusters and a warm timing cache.
for _spec in (
    ScenarioSpec(
        name="conv-tiled",
        family="conv",
        description="independent conv tiles banded across NTX (workhorse workload)",
        num_tiles=8,
    ),
    ScenarioSpec(
        name="matmul-tiled",
        family="matmul",
        description="tiled GEMM with per-NTX row bands (kernels.blas)",
        num_tiles=8,
    ),
    ScenarioSpec(
        name="stencil-laplace2d",
        family="stencil",
        description="2D Laplace stencil, dependent passes pinned per NTX",
        num_tiles=6,
    ),
    ScenarioSpec(
        name="dnn-training-step",
        family="dnn",
        description="SGD micro-step of a conv layer (fwd + grads + update)",
        num_tiles=4,
    ),
    ScenarioSpec(
        name="opcode-stream",
        family="opstream",
        description="single-NTX streaming command per opcode (Fig. 3b port)",
        num_tiles=2,
        num_vaults=1,
        clusters_per_vault=1,
        stagger_cycles=0,
    ),
):
    register_scenario(_spec)
del _spec

# Compiled scenarios: these are *declarative* — the params below are a
# StencilSpec/PipelineSpec that repro.scenarios.compiler turns into the
# command streams and goldens (see that module for the neighborhood and
# exactness model).  They flow through run_scenario, campaigns, the result
# cache and the bench gates exactly like the hand-written families.
for _spec in (
    ScenarioSpec(
        name="cstencil-laplace27",
        family="cstencil",
        description="27-point 3D Laplacian (Moore r=1 cube, auto coefficients)",
        params={
            "neighborhood": "moore",
            "radius": 1,
            "coefficients": "auto",
            "grid_shape": (6, 8, 8),
            "boundary": "valid",
        },
        num_tiles=4,
    ),
    ScenarioSpec(
        name="cstencil-heat3d",
        family="cstencil",
        description="3D heat step u + a*lap(u), a=1/8, replicated boundary",
        params={
            "neighborhood": "von_neumann",
            "radius": 1,
            # center 1 - 6a, face ring a with a = 1/8 (lattice-exact).
            "coefficients": (0.25, 0.125),
            "grid_shape": (6, 8, 8),
            "boundary": "edge",
        },
        num_tiles=4,
    ),
    ScenarioSpec(
        name="cstencil-gauss-blur",
        family="cstencil",
        description="2D Gaussian blur, radius-2 Moore rings, replicated boundary",
        params={
            "neighborhood": "moore",
            "radius": 2,
            "coefficients": gaussian_coefficients(radius=2, dims=2),
            "grid_shape": (16, 16),
            "boundary": "edge",
        },
        num_tiles=4,
    ),
    ScenarioSpec(
        name="cstencil-bilateral",
        family="cstencil",
        description="2D linearized bilateral filter (spatial x fixed range rings)",
        params={
            "neighborhood": "moore",
            "radius": 1,
            "coefficients": bilateral_coefficients(radius=1, dims=2),
            "grid_shape": (14, 14),
            "boundary": "constant",
        },
        num_tiles=4,
    ),
    ScenarioSpec(
        name="cstencil-laplace2d-vn",
        family="cstencil",
        description="compiled twin of stencil-laplace2d (vN r=1, differential pin)",
        params={
            "neighborhood": "von_neumann",
            "radius": 1,
            "coefficients": "auto",
            "grid_shape": (10, 12),
            "boundary": "valid",
        },
        num_tiles=6,
    ),
    ScenarioSpec(
        name="pipeline-blur-stencil-reduce",
        family="pipeline",
        description="blur -> Laplacian -> sum pipeline, TCDM-resident stages",
        params={
            "grid_shape": (12, 12),
            "stages": (
                {
                    "kind": "stencil",
                    "neighborhood": "moore",
                    "radius": 1,
                    "coefficients": gaussian_coefficients(radius=1, dims=2),
                    "boundary": "edge",
                },
                {
                    "kind": "stencil",
                    "neighborhood": "von_neumann",
                    "radius": 1,
                    "coefficients": "auto",
                    "boundary": "valid",
                },
                {"kind": "reduce", "op": "sum"},
            ),
        },
        num_tiles=4,
    ),
):
    register_scenario(_spec)
del _spec
