"""The paper-artifact pipeline: regenerable results and generated docs.

``repro.report`` closes the gap between the fast, resumable execution
stack (engine registry → scenarios → campaigns) and the actual artifacts
of the paper: every headline table and figure is a registered
:class:`~repro.report.registry.Artifact` whose measured numbers come from
:func:`~repro.campaign.runner.run_campaign` sweeps — inheriting
tile-timing memoization, the global result cache, JSONL resume and
golden-model verification — and whose rendered form is assembled into
``docs/paper_results.md`` by ``python -m repro.eval report --all``.

* :mod:`repro.report.registry` — the :class:`Artifact` data model and
  the artifact registry with the shipped artifacts (Table I/II, Figures
  3(b)/5/6/7, the §II-C precision study, the §IV Green Wave comparison,
  the §V scale-out sweep); plain data, no NumPy.
* :mod:`repro.report.artifact` — the shared :class:`ArtifactContext`
  (memoized campaign access) every build receives.
* :mod:`repro.report.artifacts` — the shipped artifacts' build
  functions.
* :mod:`repro.report.render` — Markdown tables, ASCII charts, the
  deterministic results document, JSON payloads and (optional)
  matplotlib plots.
* :mod:`repro.report.runner` — build artifacts against one shared
  context and write ``docs/paper_results.md``.
* :mod:`repro.report.reference` — generate ``docs/reference.md`` from
  the engine/scenario/campaign/artifact registries and the eval CLI
  parsers (``scripts/generate_docs.py`` is the command-line wrapper).

A CI docs job regenerates both documents in quick mode and fails on any
diff, so registered names, CLI flags and the committed docs cannot
diverge.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.report.artifact import ArtifactContext
    from repro.report.reference import generate_reference
    from repro.report.registry import (
        Artifact,
        ArtifactData,
        ArtifactResult,
        Section,
        get_artifact,
        iter_artifacts,
        register_artifact,
        register_default_artifacts,
        registered_artifacts,
    )
    from repro.report.render import (
        ascii_bar_chart,
        heading_slug,
        markdown_table,
        render_artifact,
        render_document,
        report_payload,
        save_plots,
    )
    from repro.report.runner import (
        DEFAULT_RESULTS_PATH,
        generate_paper_results,
        run_artifact,
        run_report,
    )

__all__ = [
    "Artifact",
    "ArtifactContext",
    "ArtifactData",
    "ArtifactResult",
    "DEFAULT_RESULTS_PATH",
    "Section",
    "ascii_bar_chart",
    "generate_paper_results",
    "generate_reference",
    "get_artifact",
    "heading_slug",
    "iter_artifacts",
    "markdown_table",
    "register_artifact",
    "register_default_artifacts",
    "registered_artifacts",
    "render_artifact",
    "render_document",
    "report_payload",
    "run_artifact",
    "run_report",
    "save_plots",
]

# Public name -> defining submodule, imported on first access (repro._lazy).
_EXPORTS = {
    "Artifact": "registry",
    "ArtifactContext": "artifact",
    "ArtifactData": "registry",
    "ArtifactResult": "registry",
    "DEFAULT_RESULTS_PATH": "runner",
    "Section": "registry",
    "ascii_bar_chart": "render",
    "generate_paper_results": "runner",
    "generate_reference": "reference",
    "get_artifact": "registry",
    "heading_slug": "render",
    "iter_artifacts": "registry",
    "markdown_table": "render",
    "register_artifact": "registry",
    "register_default_artifacts": "registry",
    "registered_artifacts": "registry",
    "render_artifact": "render",
    "render_document": "render",
    "report_payload": "render",
    "run_artifact": "runner",
    "run_report": "runner",
    "save_plots": "render",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
