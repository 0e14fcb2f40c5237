#!/usr/bin/env python3
"""Refresh the committed CI benchmark baseline (benchmarks/baseline.json).

Runs the quick benchmark suites — the exact workloads the CI bench job
executes — and distils their stable metrics into new gates, printing the
old/new value of every gate so an intentional performance change is
reviewable in the diff.

Usage::

    PYTHONPATH=src python scripts/update_bench_baseline.py [--dry-run]
    PYTHONPATH=src python scripts/update_bench_baseline.py --suite scenarios

``--suite`` re-measures only the named suite(s) — e.g. the per-scenario
gates after registering a new workload scenario — and keeps every other
suite's committed gates untouched.  ``--dry-run`` prints the full gate
diff (which gate keys would be added, removed or changed, and every
per-metric value change) without touching baseline.json.  The hand-set
``speedup_vs_reference`` gate (the lowest of at least ten quick runs) is
kept at its committed value.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.bench import GATE_PREFIXES, SUITES, derive_baseline, run_suites  # noqa: E402

BASELINE = REPO / "benchmarks" / "baseline.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the would-be gates without rewriting the baseline",
    )
    parser.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="suite to re-measure (repeatable; default: all suites)",
    )
    args = parser.parse_args(argv)

    documents = run_suites(args.suite, quick=True)
    old = (
        json.loads(BASELINE.read_text(encoding="utf-8"))
        if BASELINE.is_file()
        else {"gates": {}}
    )
    new = derive_baseline(documents, previous=old)
    if args.suite:
        # Partial refresh: keep the committed gates of the suites *not*
        # re-run, but drop every old gate belonging to a re-run suite —
        # otherwise a removed/renamed scenario's stale gate would survive
        # and fail `compare` forever.
        rerun = tuple(
            prefix for suite in args.suite for prefix in GATE_PREFIXES[suite]
        )
        merged = {
            name: gate
            for name, gate in old.get("gates", {}).items()
            if not name.startswith(rerun)
        }
        merged.update(new["gates"])
        new["gates"] = merged

    # Gate diff: which keys would be added/removed/changed, metric by
    # metric, so an intentional perf change is reviewable before (dry
    # run) and after (git diff) it lands in baseline.json.
    added, removed, changed = [], [], []
    names = sorted(set(old.get("gates", {})) | set(new["gates"]))
    for name in names:
        old_gate = old.get("gates", {}).get(name)
        new_gate = new["gates"].get(name)
        if old_gate is None:
            added.append(name)
        elif new_gate is None:
            removed.append(name)
        elif old_gate != new_gate:
            changed.append(name)
        for metric in sorted(set(old_gate or {}) | set(new_gate or {})):
            before = (old_gate or {}).get(metric, "-")
            after = (new_gate or {}).get(metric, "-")
            marker = "" if before == after else "  <- changed"
            print(f"{name}/{metric}: {before} -> {after}{marker}")
    for label, group in (("added", added), ("removed", removed), ("changed", changed)):
        for name in group:
            print(f"{label}: {name}")
    unchanged = len(names) - len(added) - len(removed) - len(changed)
    print(
        f"{len(added)} gate(s) added, {len(removed)} removed, "
        f"{len(changed)} changed, {unchanged} unchanged"
    )

    if args.dry_run:
        print("(dry run: baseline not written)")
        return 0
    BASELINE.write_text(json.dumps(new, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {BASELINE.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
