"""The paper-artifact data model and its registry.

An :class:`Artifact` is one regenerable result of the paper — a table, a
figure, or a section claim — described as data: its registry name, the
paper artefact it reproduces, the registered campaigns its measured
numbers come from, and a ``build`` function that turns an
:class:`ArtifactContext` into renderable :class:`ArtifactData`.

Artifacts whose numbers involve the simulated machine declare their
campaigns and obtain every measured record through
:func:`~repro.campaign.runner.run_campaign` — so they inherit tile-timing
memoization, ``workers=N`` process pools, JSONL resume and golden-model
verification from the campaign stack instead of re-implementing bespoke
simulation loops.  Purely analytic artifacts (area/energy models, the
softfloat RMSE study) build from the :mod:`repro.perf` and
:mod:`repro.softfloat` models directly and declare no campaigns.

The registry mirrors the engine/scenario/campaign registries: a
registered artifact is immediately listable and runnable through
``python -m repro.eval report``, rendered into ``docs/paper_results.md``,
documented in the generated ``docs/reference.md``, and perf-gated by the
``campaigns`` benchmark suite's ``report-*`` gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign import (
    PointAnalysis,
    analyze_records,
    default_store_path,
    run_campaign,
)
from repro.campaign.runner import CampaignOutcome
from repro.dnn import TrainingWorkload
from repro.eval import table2
from repro.options import ExecutionOptions

__all__ = [
    "Artifact",
    "ArtifactContext",
    "ArtifactData",
    "ArtifactResult",
    "Section",
    "get_artifact",
    "iter_artifacts",
    "register_artifact",
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
    build: Callable[["ArtifactContext"], ArtifactData]
    #: Registered campaigns the measured numbers come from (empty for
    #: purely analytic artifacts).
    campaigns: Tuple[str, ...] = ()


class ArtifactContext:
    """Shared execution state of one report run.

    Memoizes campaign outcomes, so artifacts that consume the same
    campaign (Table II and Figure 6 both read ``dnn-scaling``) trigger
    exactly one :func:`run_campaign` call per report invocation — and that
    call itself resumes from the campaign's JSONL store, so a repeated
    ``report --all`` re-simulates nothing.  With a global result cache
    configured (``cache_dir`` / ``$REPRO_CACHE_DIR``) the shared
    campaigns run once *ever*: any report invocation against a warm
    cache serves every point without simulation, regardless of which
    store directory it writes into.
    """

    def __init__(
        self,
        quick: bool = False,
        store_dir: Optional[Union[str, Path]] = None,
        workers: int = 0,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.quick = quick
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self._outcomes: Dict[str, CampaignOutcome] = {}
        self._training_workloads: Optional[Dict[str, TrainingWorkload]] = None

    def campaign(self, name: str) -> CampaignOutcome:
        """The (memoized) outcome of running campaign ``name`` resumably."""
        if name not in self._outcomes:
            if self.store_dir is not None:
                store = self.store_dir / default_store_path(name, self.quick).name
            else:
                store = None
            self._outcomes[name] = run_campaign(
                name,
                store_path=store,
                options=ExecutionOptions(
                    quick=self.quick,
                    workers=self.workers,
                    cache_dir=self.cache_dir,
                ),
            )
        return self._outcomes[name]

    def training_workloads(self) -> Dict[str, TrainingWorkload]:
        """The (memoized) Table-II workloads, as :func:`table2.build_workloads`."""
        if self._training_workloads is None:
            self._training_workloads = table2.build_workloads()
        return self._training_workloads

    def records(self, name: str) -> List[Dict[str, Any]]:
        """The stored records of campaign ``name``, in expansion order."""
        return self.campaign(name).records

    def analysis(self, name: str) -> List[PointAnalysis]:
        """The scaling/model analysis rows of campaign ``name``."""
        return analyze_records(self.campaign(name).records)


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
