"""The paper-artifact data model and the artifact registry.

An :class:`Artifact` is one regenerable result of the paper — a table, a
figure, or a section claim — described as data: its registry name, the
paper artefact it reproduces, the registered campaigns its measured
numbers come from, and a ``build`` function that turns an
:class:`~repro.report.artifact.ArtifactContext` into renderable
:class:`ArtifactData`.

The registry mirrors the engine/scenario/campaign registries: a
registered artifact is immediately listable and runnable through
``python -m repro.eval report``, rendered into ``docs/paper_results.md``,
documented in the generated ``docs/reference.md``, and perf-gated by the
``campaigns`` benchmark suite's ``report-*`` gates.

This module is plain data, and the shipped artifacts are registered
here, at import: each one's ``build`` imports :mod:`repro.report.artifacts`
and calls the named builder there only when the artifact is first built.  Listing the registry (the CLI help
epilog, ``--list``, ``scenario``/``campaign`` subcommands) therefore
imports neither NumPy, the analytic models nor the campaign runner, and
the registry functions return the shipped artifacts whatever was
imported before them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.report.artifact import ArtifactContext

__all__ = [
    "Artifact",
    "ArtifactData",
    "ArtifactResult",
    "Section",
    "get_artifact",
    "iter_artifacts",
    "register_artifact",
    "register_default_artifacts",
    "registered_artifacts",
]


@dataclass(frozen=True)
class Section:
    """One renderable block of an artifact: prose, a table and/or a chart."""

    title: str
    #: Prose paragraph(s) preceding the table/chart.
    body: str = ""
    #: Table header cells (``None`` when the section has no table).
    headers: Optional[Sequence[str]] = None
    #: Table rows; cells are rendered like the plain-text harness tables.
    rows: Optional[Sequence[Sequence[Any]]] = None
    #: Preformatted ASCII chart, rendered inside a fenced code block.
    chart: str = ""
    #: Italic note under the table/chart.
    caption: str = ""


@dataclass
class ArtifactData:
    """What one artifact build produced: sections plus a JSON payload."""

    sections: List[Section]
    #: Machine-readable form of the same numbers (``report --json``).
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Artifact:
    """One registered paper artifact."""

    #: Registry name (``table1``, ``fig3b``, ...).
    name: str
    #: Human title used as the section heading of the generated results doc.
    title: str
    #: The paper artefact this regenerates (``Table I``, ``Figure 3(b)``...).
    reproduces: str
    #: One-line description for listings and the generated reference.
    description: str
    #: Builds the artifact's data from a context.
    build: Callable[[ArtifactContext], ArtifactData]
    #: Registered campaigns the measured numbers come from (empty for
    #: purely analytic artifacts).
    campaigns: Tuple[str, ...] = ()


@dataclass
class ArtifactResult:
    """One built artifact, ready for the renderer."""

    artifact: Artifact
    data: ArtifactData
    quick: bool


_ARTIFACTS: Dict[str, Artifact] = {}


def register_artifact(artifact: Artifact, replace: bool = False) -> Artifact:
    """Add ``artifact`` to the registry under ``artifact.name``."""
    if artifact.name in _ARTIFACTS and not replace:
        raise ValueError(f"artifact {artifact.name!r} is already registered")
    _ARTIFACTS[artifact.name] = artifact
    return artifact


def get_artifact(name: Union[str, Artifact]) -> Artifact:
    """Resolve a registered artifact by name (artifacts pass through)."""
    if isinstance(name, Artifact):
        return name
    try:
        return _ARTIFACTS[name]
    except KeyError:
        raise ValueError(
            f"unknown artifact {name!r}; "
            f"registered artifacts: {registered_artifacts()}"
        ) from None


def registered_artifacts() -> Tuple[str, ...]:
    """Names of every registered artifact, in registration order."""
    return tuple(_ARTIFACTS)


def iter_artifacts() -> List[Artifact]:
    """The registered artifacts, in registration order."""
    return list(_ARTIFACTS.values())


def _shipped(name: str) -> Callable[[ArtifactContext], ArtifactData]:
    """Build function that calls builder ``name`` of :mod:`repro.report.artifacts`."""

    def build(context: ArtifactContext) -> ArtifactData:
        from repro.report import artifacts

        return getattr(artifacts, name)(context)

    return build


def register_default_artifacts() -> None:
    """Register the shipped artifacts (idempotent via ``replace=True``)."""
    for artifact in (
        Artifact(
            name="table1",
            title="cluster figures of merit",
            reproduces="Table I",
            description=(
                "Figures of merit of one NTX cluster in 22FDX, regenerated "
                "from the configuration/area/energy models and anchored by "
                "a measured cycle-level convolution run."
            ),
            build=_shipped("_build_table1"),
            campaigns=("cluster-anchor",),
        ),
        Artifact(
            name="table2",
            title="DNN training energy efficiency",
            reproduces="Table II",
            description=(
                "Training efficiency of the NTX (n x) configurations versus "
                "GPU and accelerator baselines, plus the energy model fed "
                "with simulated training intensity."
            ),
            build=_shipped("_build_table2"),
            campaigns=("dnn-scaling",),
        ),
        Artifact(
            name="fig3b",
            title="per-opcode command throughput",
            reproduces="Figure 3(b)",
            description=(
                "Cycles per element of every NTX command, measured from "
                "golden-verified single-co-processor streaming scenarios."
            ),
            build=_shipped("_build_fig3b"),
            campaigns=("opcode-throughput",),
        ),
        Artifact(
            name="fig5",
            title="cluster roofline",
            reproduces="Figure 5",
            description=(
                "The evaluated kernel library placed on the cluster "
                "roofline, plus measured scenario points at their simulated "
                "operational intensity."
            ),
            build=_shipped("_build_fig5"),
            campaigns=("engine-shootout",),
        ),
        Artifact(
            name="fig6",
            title="training energy efficiency vs GPUs",
            reproduces="Figure 6",
            description=(
                "Geometric-mean training efficiency of NTX against GPUs and "
                "NeuroStream, with the headline 2.5x / 3x advantages."
            ),
            build=_shipped("_build_fig6"),
            campaigns=("dnn-scaling",),
        ),
        Artifact(
            name="fig7",
            title="compute density vs GPUs",
            reproduces="Figure 7",
            description=(
                "Peak throughput per deployed silicon area against GPUs and "
                "DaDianNao, with the headline 6.5x / 10.4x advantages."
            ),
            build=_shipped("_build_fig7"),
        ),
        Artifact(
            name="precision",
            title="PCS accumulator RMSE study",
            reproduces="§II-C",
            description=(
                "Root-mean-squared error of the partial-carry-save "
                "accumulator versus a conventional FP32 FPU on conv-layer "
                "reductions."
            ),
            build=_shipped("_build_precision"),
        ),
        Artifact(
            name="greenwave",
            title="Green Wave seismic stencil",
            reproduces="§IV",
            description=(
                "The 8th-order seismic stencil comparison against Green "
                "Wave and a GPU, backed by measured stencil weak scaling."
            ),
            build=_shipped("_build_greenwave"),
            campaigns=("stencil-scaling",),
        ),
        Artifact(
            name="system-scaling",
            title="multi-cluster scale-out",
            reproduces="§V / Table II trend",
            description=(
                "Throughput across system geometries to the DRAM bandwidth "
                "plateau, measured through the conv geometry campaign."
            ),
            build=_shipped("_build_system_scaling"),
            campaigns=("conv-geometry-sweep",),
        ),
    ):
        register_artifact(artifact, replace=True)


register_default_artifacts()
