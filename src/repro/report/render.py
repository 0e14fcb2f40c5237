"""Render built artifacts as Markdown, ASCII charts and JSON.

The renderer is deliberately free of wall-clock state: only deterministic
simulation/model figures reach the output, so regenerating
``docs/paper_results.md`` twice produces byte-identical files — which is
what lets CI fail on a stale committed document (``git diff --exit-code
docs/`` after ``python -m repro.eval report --all --quick``).

Charts are plain ASCII bars inside fenced code blocks by default; when
matplotlib happens to be installed, :func:`save_plots` can additionally
write PNG figures, but nothing in the repository depends on it (the
container policy is NumPy-only).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Sequence, Tuple

from repro.report.artifact import ArtifactResult, Section

__all__ = [
    "ascii_bar_chart",
    "heading_slug",
    "markdown_table",
    "render_artifact",
    "render_cell",
    "render_document",
    "report_payload",
    "save_plots",
]


def heading_slug(heading: str) -> str:
    """GitHub-style anchor slug of a Markdown heading.

    Mirrors the algorithm ``scripts/check_doc_links.py`` validates against
    (lower-case, punctuation stripped, spaces to hyphens), so every anchor
    the generated documents emit is also checkable.
    """
    text = heading.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def render_cell(cell) -> str:
    """Render one table cell: floats get magnitude-dependent precision."""
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.3f}"
    return str(cell)


def _escape(text: str) -> str:
    """Escape pipe characters so cells cannot break the Markdown table."""
    return text.replace("|", "\\|")


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render a GitHub pipe table with :func:`render_cell` cell formatting."""
    lines = ["| " + " | ".join(_escape(str(h)) for h in headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append(
            "| " + " | ".join(_escape(render_cell(cell)) for cell in row) + " |"
        )
    return "\n".join(lines)


def ascii_bar_chart(
    items: Sequence[Tuple[str, float]], width: int = 40, unit: str = ""
) -> str:
    """Horizontal ASCII bar chart, one labelled bar per item.

    Bars scale to the largest value; the exact value is printed after
    each bar, so the chart is readable and the numbers stay greppable.
    """
    if not items:
        return ""
    label_width = max(len(label) for label, _ in items)
    peak = max((value for _, value in items), default=0.0)
    lines = []
    for label, value in items:
        length = int(round(width * value / peak)) if peak > 0 else 0
        bar = "#" * max(length, 1 if value > 0 else 0)
        suffix = f" {unit}" if unit else ""
        lines.append(
            f"{label.ljust(label_width)} | {bar} {render_cell(float(value))}{suffix}"
        )
    return "\n".join(lines)


def _render_section(section: Section, level: int) -> str:
    blocks: List[str] = [f"{'#' * level} {section.title}"]
    if section.body:
        blocks.append(section.body.strip())
    if section.headers is not None and section.rows is not None:
        blocks.append(markdown_table(section.headers, section.rows))
    if section.chart:
        blocks.append("```text\n" + section.chart.rstrip() + "\n```")
    if section.caption:
        blocks.append(f"*{section.caption.strip()}*")
    return "\n\n".join(blocks)


def render_artifact(result: ArtifactResult, level: int = 2) -> str:
    """Render one built artifact as a Markdown fragment."""
    artifact = result.artifact
    blocks = [f"{'#' * level} {artifact.reproduces} — {artifact.title}"]
    body = artifact.description.strip()
    if artifact.campaigns:
        names = ", ".join(f"`{name}`" for name in artifact.campaigns)
        body += (
            f"  Measured through the {names} campaign"
            f"{'s' if len(artifact.campaigns) > 1 else ''} "
            "(every point golden-verified, resumable store)."
        )
    blocks.append(body)
    for section in result.data.sections:
        blocks.append(_render_section(section, level + 1))
    return "\n\n".join(blocks)


def _artifact_anchors(results: Sequence[ArtifactResult]) -> List[str]:
    """The anchor of each artifact heading, with GitHub duplicate suffixes.

    GitHub appends ``-1``, ``-2``, ... to repeated slugs, counting every
    heading of the document in order — including the section headings
    between the artifact headings — so the TOC must walk the same
    sequence the rendered document emits.
    """
    headings: List[Tuple[str, bool]] = [
        ("Paper results — regenerated from the campaign stack", False),
        ("Contents", False),
    ]
    for result in results:
        title = f"{result.artifact.reproduces} — {result.artifact.title}"
        headings.append((title, True))
        for section in result.data.sections:
            headings.append((section.title, False))
    counts: Dict[str, int] = {}
    anchors: List[str] = []
    for heading, is_artifact in headings:
        slug = heading_slug(heading)
        if slug in counts:
            counts[slug] += 1
            slug = f"{slug}-{counts[slug]}"
        else:
            counts[slug] = 0
        if is_artifact:
            anchors.append(slug)
    return anchors


def render_document(results: Sequence[ArtifactResult], quick: bool) -> str:
    """Assemble the complete ``docs/paper_results.md`` Markdown document."""
    mode = "--quick" if quick else "full"
    command = "python -m repro.eval report --all" + (" --quick" if quick else "")
    lines = [
        "# Paper results — regenerated from the campaign stack",
        "",
        "<!-- Generated file: do not edit by hand. -->",
        "",
        f"Every table and figure below is regenerated by `{command}`",
        f"({mode} mode).  Simulation-backed artifacts obtain their measured",
        "numbers through `repro.campaign` sweeps — each point runs through",
        "`run_scenario`, is verified against its NumPy golden model, and is",
        "stored in a resumable JSONL result store — while analytic artifacts",
        "evaluate the `repro.perf` models directly.  Only deterministic",
        "figures are rendered, so regenerating this document is a no-op",
        "unless the models or the simulated machine changed.",
        "",
        "## Contents",
        "",
    ]
    for result, anchor in zip(results, _artifact_anchors(results)):
        title = f"{result.artifact.reproduces} — {result.artifact.title}"
        lines.append(f"- [{title}](#{anchor})")
    lines.append("")
    for result in results:
        lines.append(render_artifact(result))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def report_payload(results: Sequence[ArtifactResult]) -> Dict[str, Any]:
    """Machine-readable form of the built artifacts (``report --json``)."""
    return {
        "quick": all(result.quick for result in results),
        "artifacts": {
            result.artifact.name: {
                "title": result.artifact.title,
                "reproduces": result.artifact.reproduces,
                "campaigns": list(result.artifact.campaigns),
                "data": result.data.payload,
            }
            for result in results
        },
    }


def save_plots(results: Sequence[ArtifactResult], output_dir) -> List[str]:
    """Write one PNG bar chart per charted section, if matplotlib exists.

    Returns the written paths; silently returns an empty list when
    matplotlib is not installed (it is not a dependency of this repo).
    """
    try:  # pragma: no cover - matplotlib is absent in CI by design
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return []
    from pathlib import Path  # local: only needed on this path

    output = Path(output_dir)
    output.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    for result in results:  # pragma: no cover - optional dependency path
        for index, section in enumerate(result.data.sections):
            if not (section.headers and section.rows):
                continue
            numeric = [
                row for row in section.rows
                if len(row) >= 2 and isinstance(row[1], (int, float))
            ]
            if not numeric:
                continue
            figure, axes = plt.subplots(figsize=(8, 0.4 * len(numeric) + 1))
            axes.barh(
                [str(row[0]) for row in numeric],
                [float(row[1]) for row in numeric],
            )
            axes.set_title(f"{result.artifact.reproduces}: {section.title}")
            path = output / f"{result.artifact.name}-{index}.png"
            figure.tight_layout()
            figure.savefig(path)
            plt.close(figure)
            written.append(str(path))
    return written
