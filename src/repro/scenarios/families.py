"""The workload-family table: names, defaults and parameter validation.

Every :class:`~repro.scenarios.spec.ScenarioSpec` checks its family and
shape parameters against this table at construction.  The table is plain
data: each family names its tile builder in
:mod:`repro.scenarios.workloads` rather than holding it, and
:func:`~repro.scenarios.workloads.build_workload` resolves that name.  So
building, validating and listing scenarios (every registry import does
all three) imports neither NumPy nor the kernel library, while the one
table still describes every family completely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.scenarios.stencils import PipelineParams, StencilParams

__all__ = ["FAMILIES", "WorkloadFamily"]


@dataclass(frozen=True)
class WorkloadFamily:
    """One registered workload family: defaults plus its tile builder."""

    name: str
    description: str
    default_params: Dict[str, Any]
    #: Name of the builder function in :mod:`repro.scenarios.workloads`.
    builder: str
    #: Optional merged-params validator run at ``ScenarioSpec`` construction
    #: (the compiled families use it so a bad declarative spec raises the
    #: documented ``ValueError`` before any simulation starts).
    validate: Optional[Callable[[Dict[str, Any]], object]] = None


#: Operand generators of the ``conv`` family: the 1/16 lattice every
#: family draws from, or standard normal data whose float64 sums round.
CONV_DRAWS = ("lattice", "normal")


def _validate_conv(params: Dict[str, Any]) -> None:
    if params["draw"] not in CONV_DRAWS:
        raise ValueError(
            f"unknown conv draw {params['draw']!r}; available draws: {CONV_DRAWS}"
        )


FAMILIES: Dict[str, WorkloadFamily] = {
    family.name: family
    for family in (
        WorkloadFamily(
            name="conv",
            description="independent 2D-convolution tiles, rows banded across NTX",
            default_params={"image_shape": (12, 14), "kernel": 3, "draw": "lattice"},
            builder="conv_workload",
            validate=_validate_conv,
        ),
        WorkloadFamily(
            name="matmul",
            description="tiled GEMM, output rows split across NTX",
            default_params={"m": 8, "k": 12, "n": 10},
            builder="matmul_workload",
        ),
        WorkloadFamily(
            name="stencil",
            description="2D discrete Laplace operator, two dependent passes",
            default_params={"field_shape": (10, 12)},
            builder="stencil_workload",
        ),
        WorkloadFamily(
            name="dnn",
            description="one SGD step of a conv layer (fwd, grads, update)",
            default_params={
                "in_channels": 2,
                "out_channels": 4,
                "image_size": 8,
                "kernel": 3,
                "learning_rate": 0.125,
            },
            builder="dnn_step_workload",
        ),
        WorkloadFamily(
            name="opstream",
            description="one streaming command of a single opcode (Fig. 3b)",
            default_params={"opcode": "mac", "n": 512},
            builder="opstream_workload",
        ),
        WorkloadFamily(
            name="cstencil",
            description="compiled declarative stencil (neighborhood/radius/rings)",
            default_params={
                "neighborhood": "moore",
                "radius": 1,
                "coefficients": "auto",
                "grid_shape": (12, 14),
                "boundary": "valid",
            },
            builder="compiled_stencil_workload",
            validate=StencilParams.from_params,
        ),
        WorkloadFamily(
            name="pipeline",
            description="compiled stencil stage chain with optional reduction",
            default_params={
                "grid_shape": (12, 12),
                "stages": (
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
            builder="pipeline_workload",
            validate=PipelineParams.from_params,
        ),
    )
}
