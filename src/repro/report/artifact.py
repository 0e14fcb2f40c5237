"""The shared execution context of one report run.

:class:`ArtifactContext` is what every artifact's build function
receives.  Artifacts whose numbers involve the simulated machine declare
their campaigns and obtain every measured record through
:func:`~repro.campaign.runner.run_campaign` — so they inherit tile-timing
memoization, the global result cache, JSONL resume and golden-model
verification from the campaign stack instead of re-implementing bespoke
simulation loops.  Purely analytic artifacts (area/energy models, the
softfloat RMSE study) build from the :mod:`repro.perf` and
:mod:`repro.softfloat` models directly and declare no campaigns.

The artifact data model and the registry live in the NumPy-free
:mod:`repro.report.registry` and are re-exported here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

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
from repro.report.registry import (
    Artifact,
    ArtifactData,
    ArtifactResult,
    Section,
    get_artifact,
    iter_artifacts,
    register_artifact,
    registered_artifacts,
)

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
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.quick = quick
        self.store_dir = Path(store_dir) if store_dir is not None else None
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
                options=ExecutionOptions(quick=self.quick, cache_dir=self.cache_dir),
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
