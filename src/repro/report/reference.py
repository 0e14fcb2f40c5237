"""Generate ``docs/reference.md`` from the live registries and CLI parsers.

Everything in the reference document is introspected — engines, workload
families, scenarios, campaigns, paper artifacts, benchmark suites and
every flag of the eval CLI — so a newly registered name or a changed
option appears in the regenerated document automatically, and the CI
freshness check (regenerate + ``git diff --exit-code docs/``) makes it
impossible for the committed reference to drift from the code.

``scripts/generate_docs.py`` is the command-line wrapper.
"""

from __future__ import annotations

import argparse
from typing import List

from repro.report.render import markdown_table

__all__ = ["generate_reference"]


def _parser_section(parser: argparse.ArgumentParser) -> List[str]:
    """Render one argparse parser as a Markdown option table."""
    lines = [f"### `{parser.prog}`", ""]
    if parser.description:
        lines.extend([parser.description.strip(), ""])
    rows = []
    for action in parser._actions:  # noqa: SLF001 - argparse has no public walk
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for choice, sub in action.choices.items():
                rows.append((f"{choice} ...", f"subcommand: {sub.description or sub.prog}"))
            continue
        if action.option_strings:
            name = ", ".join(action.option_strings)
            if action.metavar:
                name += f" {action.metavar}"
        else:
            name = action.metavar or action.dest
        rows.append((f"`{name}`", action.help or ""))
    if rows:
        lines.extend([markdown_table(("argument", "meaning"), rows), ""])
    else:
        lines.extend(["Takes no arguments.", ""])
    # Recurse into subparsers so every leaf command is documented too.
    for action in parser._actions:  # noqa: SLF001
        if isinstance(action, argparse._SubParsersAction):
            for sub in dict.fromkeys(action.choices.values()):
                lines.extend(_parser_section(sub))
    return lines


def generate_reference() -> str:
    """Assemble the complete reference document as Markdown."""
    # Imported here (not module level) so `import repro.report` stays cheap
    # and free of registry side-ordering concerns.
    from repro.bench.runner import GATE_PREFIXES, SUITES
    from repro.campaign import iter_campaigns
    from repro.cluster.engine import describe_engines
    from repro.eval.__main__ import (
        build_campaign_parser,
        build_parser,
        build_report_parser,
        build_scenario_parser,
        build_submit_parser,
        build_trace_parser,
    )
    from repro.server.__main__ import build_server_parser
    from repro.report.artifact import iter_artifacts
    from repro.scenarios import iter_scenarios
    from repro.scenarios.workloads import FAMILIES

    lines: List[str] = [
        "# Reference — generated from the registries",
        "",
        "<!-- Generated file: do not edit by hand. -->",
        "",
        "Regenerate with `python scripts/generate_docs.py`.  A CI job",
        "regenerates this document and `docs/paper_results.md` and fails on",
        "any diff, so the names and flags below are exactly what the code",
        "registers.",
        "",
        "## Cycle engines",
        "",
        markdown_table(
            ("engine", "description"),
            list(describe_engines().items()),
        ),
        "",
        "## Workload families",
        "",
        markdown_table(
            ("family", "description", "default parameters"),
            [
                (
                    f"`{family.name}`",
                    family.description,
                    ", ".join(
                        f"{k}={v}" for k, v in family.default_params.items()
                    ),
                )
                for family in FAMILIES.values()
            ],
        ),
        "",
        "## Scenarios",
        "",
        "Run with `python -m repro.eval scenario run <name>`.",
        "",
        markdown_table(
            ("scenario", "family", "geometry", "tiles", "description"),
            [
                (
                    f"`{spec.name}`",
                    spec.family,
                    f"{spec.num_vaults}x{spec.clusters_per_vault}",
                    spec.num_tiles,
                    spec.description,
                )
                for spec in iter_scenarios()
            ],
        ),
        "",
        "## Campaigns",
        "",
        "Run with `python -m repro.eval campaign run <name>`; stores land in",
        "`campaign-results/` and interrupted campaigns resume exactly.",
        "",
        markdown_table(
            ("campaign", "points", "mode", "axes", "constraints", "description"),
            [
                (
                    f"`{sweep.name}`",
                    len(sweep.expand()),
                    sweep.mode,
                    "; ".join(
                        f"{path} x{len(values)}"
                        for path, values in sweep.axes.items()
                    ),
                    "; ".join(sweep.constraints) or "-",
                    sweep.description,
                )
                for sweep in iter_campaigns()
            ],
        ),
        "",
        "## Paper artifacts",
        "",
        "Print one with `python -m repro.eval <name>` (the same as",
        "`python -m repro.eval report <name>`), or regenerate the whole",
        "results document with `python -m repro.eval report --all --quick`",
        "(see [docs/paper_results.md](paper_results.md)).",
        "",
        markdown_table(
            ("artifact", "reproduces", "campaigns", "description"),
            [
                (
                    f"`{artifact.name}`",
                    artifact.reproduces,
                    ", ".join(f"`{c}`" for c in artifact.campaigns) or "analytic",
                    artifact.description,
                )
                for artifact in iter_artifacts()
            ],
        ),
        "",
        "## Benchmark suites",
        "",
        "Run with `python -m repro.bench --quick`; gates live in",
        "`benchmarks/baseline.json` and are refreshed with",
        "`scripts/update_bench_baseline.py`.",
        "",
        markdown_table(
            ("suite", "gate prefixes"),
            [
                (f"`{name}`", ", ".join(f"`{p}`" for p in GATE_PREFIXES[name]))
                for name in SUITES
            ],
        ),
        "",
        "## Command-line reference",
        "",
    ]
    for parser in (
        build_parser(),
        build_scenario_parser(),
        build_campaign_parser(),
        build_report_parser(),
        build_submit_parser(),
        build_trace_parser(),
        build_server_parser(),
    ):
        lines.extend(_parser_section(parser))
    return "\n".join(lines).rstrip() + "\n"
