"""Build artifacts and assemble the generated results document.

:func:`run_report` is the entry point the eval CLI, the ``report``
benchmark suite and the tests share: resolve the requested artifacts,
build each one against a single shared :class:`ArtifactContext` (so
campaigns consumed by several artifacts run once per invocation and
resume from their JSONL stores), and return the built results.
:func:`generate_paper_results` renders them into
``docs/paper_results.md`` — the file CI regenerates in quick mode and
diffs, which is what keeps the committed results from drifting away from
the code that produces them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.obs import trace as _trace
from repro.report.artifact import (
    Artifact,
    ArtifactContext,
    ArtifactResult,
    get_artifact,
    iter_artifacts,
)
from repro.report.render import render_document

__all__ = [
    "DEFAULT_RESULTS_PATH",
    "generate_paper_results",
    "run_artifact",
    "run_report",
]

#: Where ``python -m repro.eval report --all`` writes the results document.
#: Anchored at the repository root (three levels above this module), not
#: the process cwd, so regenerating from any working directory updates
#: the committed document instead of writing a stray ./docs/ copy.
DEFAULT_RESULTS_PATH = (
    Path(__file__).resolve().parents[3] / "docs" / "paper_results.md"
)


def run_artifact(
    artifact: Union[str, Artifact],
    quick: bool = False,
    store_dir: Optional[Union[str, Path]] = None,
    context: Optional[ArtifactContext] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> ArtifactResult:
    """Build one artifact (by registry name or directly).

    ``context`` lets a caller building several artifacts share campaign
    outcomes; without it a fresh context is created (campaign stores still
    make repeated runs resumable, and ``cache_dir`` — or
    ``$REPRO_CACHE_DIR`` — additionally serves points from the global
    result cache).
    """
    resolved = get_artifact(artifact)
    if context is None:
        context = ArtifactContext(quick=quick, store_dir=store_dir, cache_dir=cache_dir)
    with _trace.span("artifact", name=resolved.name):
        data = resolved.build(context)
    return ArtifactResult(artifact=resolved, data=data, quick=context.quick)


def run_report(
    artifacts: Optional[Sequence[Union[str, Artifact]]] = None,
    quick: bool = False,
    store_dir: Optional[Union[str, Path]] = None,
    on_artifact: Optional[Callable[[ArtifactResult], None]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> List[ArtifactResult]:
    """Build the requested artifacts against one shared context.

    ``artifacts`` defaults to every registered artifact in registration
    order; ``on_artifact`` streams progress to the CLI after each build.
    """
    selected = [get_artifact(a) for a in artifacts] if artifacts else iter_artifacts()
    context = ArtifactContext(quick=quick, store_dir=store_dir, cache_dir=cache_dir)
    results: List[ArtifactResult] = []
    with _trace.span("report", artifacts=len(selected)):
        for artifact in selected:
            result = run_artifact(artifact, context=context)
            results.append(result)
            if on_artifact is not None:
                on_artifact(result)
    return results


def generate_paper_results(
    path: Optional[Union[str, Path]] = None,
    quick: bool = False,
    store_dir: Optional[Union[str, Path]] = None,
    on_artifact: Optional[Callable[[ArtifactResult], None]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> Tuple[Path, List[ArtifactResult]]:
    """Build every artifact and write the results document.

    Returns the written path and the built results (for ``--json`` and the
    tests).  The rendered document contains only deterministic figures, so
    a second invocation is a byte-identical no-op; against a warm global
    result cache it is also simulation-free.
    """
    results = run_report(
        quick=quick,
        store_dir=store_dir,
        on_artifact=on_artifact,
        cache_dir=cache_dir,
    )
    target = Path(path) if path is not None else DEFAULT_RESULTS_PATH
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_document(results, quick=quick), encoding="utf-8")
    return target, results
