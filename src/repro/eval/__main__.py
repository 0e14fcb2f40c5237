"""Command-line entry point: regenerate every table and figure of the paper.

Usage::

    python -m repro.eval                     # print every paper artifact
    python -m repro.eval table2 --quick      # print one artifact as Markdown
    python -m repro.eval --list              # list the registered artifacts
    python -m repro.eval scenario list       # list the registered scenarios
    python -m repro.eval scenario run NAME   # run one scenario end to end
    python -m repro.eval campaign list       # list the registered campaigns
    python -m repro.eval campaign run NAME   # run a design-space sweep
    python -m repro.eval campaign run NAME --cache-dir CACHE
    python -m repro.eval campaign report NAME  # scaling report from the store
    python -m repro.eval report --all --quick  # regenerate docs/paper_results.md
    python -m repro.eval report table1       # same as python -m repro.eval table1
    python -m repro.eval scenario run NAME --trace-out trace.json  # Perfetto
    python -m repro.eval trace spans.jsonl   # span JSONL -> Chrome trace
    python -m repro.eval --help              # the artifacts and the figure/
                                             # table each reproduces

Every paper result has one regeneration path: the artifact registry of
:mod:`repro.report`.  ``python -m repro.eval NAME ...`` is the
``report`` subcommand without its name — same parser, same
:func:`report_main`, byte-identical output.

The help epilog is generated from the artifact registry
(:mod:`repro.report`), the engine registry (:mod:`repro.cluster.engine`),
the scenario registry (:mod:`repro.scenarios`) and the campaign registry
(:mod:`repro.campaign`), so it can never drift from what is actually
runnable.  The parsers themselves are exposed as ``build_*_parser``
factories, which is how the generated ``docs/reference.md`` documents
every flag without hand-maintained prose.

A reader that closes stdout early (``campaign run NAME | head -1``) ends
any subcommand quietly with exit status 0 and no traceback; files a
subcommand writes (campaign stores, ``--output`` documents) are written
before its stdout summary, so they are complete.

Execution flags (``--engine/--no-memoize/--quick/...``) are not
hand-copied per subcommand: they are derived from the
:class:`~repro.options.ExecutionOptions` fields by
:func:`add_execution_flags` and parsed back into one options object by
:func:`options_from_args`, so the CLI surface cannot drift from the
programmatic API.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

# Only the registries and plain-data modules are imported here: each
# subcommand imports the simulator, campaign runner or report pipeline it
# runs inside its handler, so ``--help`` and the ``list`` actions stay
# NumPy-free (see "Import layering" in docs/architecture.md).
from repro import obs
from repro.campaign.registry import get_campaign, iter_campaigns
from repro.campaign.store import ResultStore
from repro.cluster.engine import available_engines, describe_engines
from repro.options import ExecutionOptions
from repro.report.registry import iter_artifacts, registered_artifacts
from repro.scenarios.registry import iter_scenarios

_LOG = obs.get_logger("cli")


def add_execution_flags(
    parser: argparse.ArgumentParser,
    include: Sequence[str] = ("engine", "memoize"),
) -> None:
    """Add the command-line flags derived from :class:`ExecutionOptions`.

    One flag per included field, named and documented from the field
    itself (booleans that default on become ``--no-<field>``), so every
    subcommand exposes the same execution surface as the programmatic
    ``options=`` keyword and the two can never drift apart.
    :func:`options_from_args` is the inverse.
    """
    known = {f.name: f for f in dataclass_fields(ExecutionOptions)}
    for name in include:
        spec = known[name]
        help_text = spec.metadata["cli"]
        if name == "engine":
            parser.add_argument(
                "--engine", choices=available_engines(), help=help_text
            )
        elif isinstance(spec.default, bool) and spec.default:
            parser.add_argument(f"--no-{name}", action="store_true", help=help_text)
        elif isinstance(spec.default, bool):
            parser.add_argument(f"--{name}", action="store_true", help=help_text)
        else:
            parser.add_argument(
                f"--{name.replace('_', '-')}",
                default=spec.default,
                metavar=spec.metadata.get("metavar", name.upper()),
                help=help_text,
            )


def options_from_args(args: argparse.Namespace) -> ExecutionOptions:
    """Collect the :func:`add_execution_flags` values back into one object.

    Fields whose flag was not added to the parser keep their defaults,
    so the same helper serves every subcommand regardless of which
    subset of flags it exposes.
    """
    values: Dict[str, object] = {}
    for spec in dataclass_fields(ExecutionOptions):
        if isinstance(spec.default, bool) and spec.default:
            flag = f"no_{spec.name}"
            if hasattr(args, flag):
                values[spec.name] = not getattr(args, flag)
        elif hasattr(args, spec.name):
            value = getattr(args, spec.name)
            if value is not None:
                values[spec.name] = value
    return ExecutionOptions(**values)


def _epilog() -> str:
    """Help text generated from the artifact/engine/scenario/campaign registries."""
    lines = [
        "paper artifacts (python -m repro.eval <name>; no name prints every one,",
        "report --all --quick regenerates docs/paper_results.md):",
    ]
    for artifact in iter_artifacts():
        lines.append(
            f"  {artifact.name:14s} {artifact.reproduces:22s} {artifact.title}"
        )
    lines.append("")
    lines.append("registered cycle engines (the execution flags derived from")
    lines.append("repro.ExecutionOptions pick the system execution path):")
    for name, description in describe_engines().items():
        lines.append(f"  {name:10s} {description}")
    lines.append("")
    lines.append("registered scenarios (python -m repro.eval scenario run <name>):")
    for spec in iter_scenarios():
        lines.append(f"  {spec.name:20s} [{spec.family}] {spec.description}")
    lines.append("")
    lines.append(
        "registered campaigns (python -m repro.eval campaign run <name>):"
    )
    for sweep in iter_campaigns():
        lines.append(f"  {sweep.name:20s} {sweep.description}")
    return "\n".join(lines)


def build_scenario_parser() -> argparse.ArgumentParser:
    """Parser of the ``scenario`` subcommand (list/run)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval scenario",
        description="List or run the registered workload scenarios.",
    )
    subparsers = parser.add_subparsers(dest="action", required=True)
    subparsers.add_parser("list", help="list the registered scenarios")
    run_parser = subparsers.add_parser(
        "run", help="build, execute and verify one scenario end to end"
    )
    run_parser.add_argument("name", help="registered scenario name")
    run_parser.add_argument(
        "--tiles", type=int, metavar="N", help="override the scenario's tile count"
    )
    add_execution_flags(
        run_parser,
        include=("engine", "memoize", "trace", "trace_out"),
    )
    obs.add_logging_flags(run_parser)
    return parser


def scenario_main(argv) -> int:
    """The ``scenario`` subcommand: list and run registered scenarios."""
    args = build_scenario_parser().parse_args(argv)

    if args.action == "list":
        for spec in iter_scenarios():
            print(f"{spec.name:20s} [{spec.family:7s}] {spec.description}")
        return 0

    from repro.scenarios.runner import format_outcome, run_scenario

    obs.configure_from_args(args)
    overrides = {}
    if args.tiles is not None:
        overrides["num_tiles"] = args.tiles
    try:
        options = options_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    before = obs.cache_counters()
    try:
        with obs.trace_session(
            trace=options.trace, trace_out=options.trace_out, metrics=True
        ):
            outcome = run_scenario(args.name, options=options, **overrides)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_outcome(outcome))
    print(obs.format_cache_summary(since=before))
    if options.trace_out:
        _LOG.info("trace written to %s", options.trace_out)
    return 0


def build_campaign_parser() -> argparse.ArgumentParser:
    """Parser of the ``campaign`` subcommand (list/run/report)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval campaign",
        description=(
            "List, run or report design-space exploration campaigns "
            "(resumable scenario sweeps; see repro.campaign)."
        ),
    )
    subparsers = parser.add_subparsers(dest="action", required=True)
    subparsers.add_parser("list", help="list the registered campaigns")

    def add_store_options(sub):
        sub.add_argument("name", help="registered campaign name")
        sub.add_argument(
            "--store",
            metavar="PATH",
            default=None,
            help="result store (default: campaign-results/<name>[-quick].jsonl)",
        )

    run_parser = subparsers.add_parser(
        "run", help="expand, resume from the store, run the remaining points"
    )
    add_store_options(run_parser)
    add_execution_flags(
        run_parser,
        include=("quick", "cache_dir", "trace", "trace_out"),
    )
    obs.add_logging_flags(run_parser)
    run_parser.add_argument(
        "--max-points",
        type=int,
        default=None,
        metavar="N",
        help="execute at most N pending points this call",
    )
    report_parser = subparsers.add_parser(
        "report", help="scaling report + perf-model overlay from the store"
    )
    add_store_options(report_parser)
    add_execution_flags(report_parser, include=("quick",))
    return parser


def campaign_main(argv) -> int:
    """The ``campaign`` subcommand: list, run and report sweep campaigns."""
    args = build_campaign_parser().parse_args(argv)
    obs.configure_from_args(args)

    if args.action == "list":
        for sweep in iter_campaigns():
            points = len(sweep.expand())
            print(
                f"{sweep.name:20s} {points:3d} points  "
                f"[{sweep.mode}] {sweep.description}"
            )
        return 0

    from repro.campaign.analysis import analyze_records, format_report
    from repro.campaign.runner import default_store_path, run_campaign

    try:
        campaign = get_campaign(args.name)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store_path = args.store or default_store_path(args.name, args.quick)

    if args.action == "report":
        records = ResultStore(store_path).select(
            point.id
            for point in (campaign.for_quick() if args.quick else campaign).expand()
        )
        print(f"campaign {campaign.name} (store {store_path}):")
        print(format_report(analyze_records(records)))
        return 0 if records else 1

    def progress(record, fresh):
        # Per-point progress goes through the logging hierarchy (stderr):
        # --quiet silences it while the greppable summary stays on stdout.
        verb = "ran" if fresh else "skip"
        metrics = record["metrics"]
        _LOG.info(
            "  %s %-44s %9.0f cycles %7.2f Gflop/s",
            verb,
            record["name"],
            metrics["makespan_cycles"],
            metrics["gflops"],
        )

    options = options_from_args(args)
    before = obs.cache_counters()
    try:
        with obs.trace_session(
            trace=options.trace, trace_out=options.trace_out, metrics=True
        ):
            outcome = run_campaign(
                campaign,
                store_path=store_path,
                options=options,
                max_points=args.max_points,
                on_point=progress,
            )
    except KeyboardInterrupt:
        print("interrupted; completed points are stored — rerun to resume")
        return 130
    # The cached clause appears only when a global cache is configured,
    # so the no-cache summary stays byte-compatible with older greps.
    cached_clause = (
        f"{outcome.cached_points} from the global cache, "
        if outcome.cache_dir is not None
        else ""
    )
    print(
        f"campaign {campaign.name}: {len(outcome.points)} points, "
        f"{outcome.skipped_points} resumed from the store, "
        f"{cached_clause}"
        f"{outcome.executed_points} executed in {outcome.run_seconds:.1f}s "
        f"-> {outcome.store_path}"
    )
    print(obs.format_cache_summary(since=before))
    if options.trace_out:
        _LOG.info("trace written to %s", options.trace_out)
    if outcome.complete:
        print()
        print(format_report(analyze_records(outcome.records)))
    return 0


def build_report_parser() -> argparse.ArgumentParser:
    """Parser of the ``report`` subcommand (paper-artifact pipeline)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval report",
        description=(
            "Regenerate paper artifacts through the campaign stack "
            "(repro.report) and assemble docs/paper_results.md."
        ),
    )
    parser.add_argument(
        "artifacts",
        nargs="*",
        metavar="ARTIFACT",
        help="artifacts to print as Markdown (--list shows the registry)",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="build every registered artifact and write the results document",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the registered artifacts"
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="results document path (default with --all: docs/paper_results.md)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="additionally write the built artifacts as JSON",
    )
    parser.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help="campaign store directory (default: campaign-results/)",
    )
    add_execution_flags(
        parser, include=("quick", "cache_dir", "trace", "trace_out")
    )
    obs.add_logging_flags(parser)
    return parser


def report_main(argv, parser: Optional[argparse.ArgumentParser] = None) -> int:
    """The ``report`` subcommand: build artifacts, assemble the results doc.

    ``parser`` is the top-level :func:`build_parser` when the artifacts
    are named without the ``report`` word (``python -m repro.eval
    NAME``); there, naming no artifact prints every registered one
    instead of failing.  Either way the same flags and the same code
    produce the output.
    """
    import json as json_mod

    bare = parser is not None
    args = (parser or build_report_parser()).parse_args(argv)
    obs.configure_from_args(args)

    if args.list:
        for artifact in iter_artifacts():
            campaigns = ",".join(artifact.campaigns) or "-"
            print(
                f"{artifact.name:14s} {artifact.reproduces:22s} "
                f"[{campaigns}] {artifact.title}"
            )
        return 0
    if args.all and args.artifacts:
        print(
            "error: --all builds every artifact; do not also name artifacts",
            file=sys.stderr,
        )
        return 2
    if args.all and not args.quick and args.output is None:
        # The committed document is the quick-mode output; silently
        # overwriting it with full-size numbers would leave a tree the
        # freshness checks must reject.
        print(
            "error: full mode writes full-size numbers that do not match "
            "the committed quick-mode document; pass --output PATH for a "
            "full-mode document, or --quick to refresh docs/paper_results.md",
            file=sys.stderr,
        )
        return 2
    if not args.all and not args.artifacts:
        if not bare:
            print(
                "error: name artifacts to print, or pass --all to regenerate "
                "the results document (--list shows the registry)",
                file=sys.stderr,
            )
            return 2
        args.artifacts = registered_artifacts()

    from repro.report.render import render_artifact, render_document, report_payload
    from repro.report.runner import generate_paper_results, run_report

    def progress(result):
        campaigns = ",".join(result.artifact.campaigns) or "analytic"
        _LOG.info("  built %-14s [%s]", result.artifact.name, campaigns)

    options = options_from_args(args)
    try:
        with obs.trace_session(
            trace=options.trace, trace_out=options.trace_out, metrics=True
        ):
            if args.all:
                target, results = generate_paper_results(
                    path=args.output,
                    quick=args.quick,
                    store_dir=args.store_dir,
                    on_artifact=progress,
                    cache_dir=args.cache_dir,
                )
                print(f"wrote {target} ({len(results)} artifacts)")
            else:
                results = run_report(
                    args.artifacts,
                    quick=args.quick,
                    store_dir=args.store_dir,
                    cache_dir=args.cache_dir,
                )
                for result in results:
                    print(render_artifact(result))
                    print()
                if args.output:
                    Path(args.output).write_text(
                        render_document(results, quick=args.quick), encoding="utf-8"
                    )
                    print(f"wrote {args.output}")
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if options.trace_out:
        _LOG.info("trace written to %s", options.trace_out)
    if args.json:
        Path(args.json).write_text(
            json_mod.dumps(report_payload(results), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.json}")
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    """Parser of the ``trace`` subcommand (span JSONL -> Chrome trace)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval trace",
        description=(
            "Convert a repro.obs span dump (the JSONL that --trace-out "
            "FILE.jsonl writes) into the Chrome trace event format, "
            "loadable in chrome://tracing or https://ui.perfetto.dev."
        ),
    )
    parser.add_argument(
        "input", metavar="SPANS", help="span JSONL file (one span per line)"
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="Chrome trace JSON to write (default: <input stem>.trace.json)",
    )
    return parser


def trace_main(argv) -> int:
    """The ``trace`` subcommand: offline span-JSONL -> Chrome trace export."""
    import json as json_mod

    args = build_trace_parser().parse_args(argv)
    try:
        spans = obs.read_spans_jsonl(args.input)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, json_mod.JSONDecodeError) as error:
        print(f"error: {args.input} is not a span JSONL file: {error}",
              file=sys.stderr)
        return 2
    output = args.output or str(Path(args.input).with_suffix("")) + ".trace.json"
    count = obs.write_chrome_trace(spans, output)
    tracks = len({span.track for span in spans})
    print(f"wrote {output} ({count} spans on {tracks} tracks)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: the ``report`` flags under the top-level name."""
    parser = build_report_parser()
    parser.prog = "python -m repro.eval"
    parser.description = (
        "Regenerate the tables and figures of the NTX paper: the report\n"
        "subcommand's flags and output, printing every artifact if none is named."
    )
    parser.epilog = _epilog()
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    return parser


_SUBCOMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "scenario": scenario_main,
    "campaign": campaign_main,
    "report": report_main,
    "trace": trace_main,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in _SUBCOMMANDS:
            return _SUBCOMMANDS[argv[0]](argv[1:])
        return report_main(argv, parser=build_parser())
    except BrokenPipeError:
        # The reader closed stdout early (``... | head -1``): stop quietly
        # with status 0.  Everything a subcommand writes to disk is written
        # before its stdout summary, so stores stay complete.  Point stdout
        # at /dev/null so the interpreter's exit flush of what is still
        # buffered cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
