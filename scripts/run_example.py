#!/usr/bin/env python3
"""Run one example script in-process and fail if a fast path fell back.

Usage::

    PYTHONPATH=src python scripts/run_example.py examples/quickstart.py

The example runs as ``__main__`` with the metrics registry switched on.
Afterwards every non-zero sample of ``repro_dataplane_fallbacks_total``
(a command the array data plane handed to the per-op walk) and
``repro_timing_core_fallbacks_total`` (a run without the compiled timing
core) is printed to stderr, and any such sample makes the exit status 1:
both fallbacks give the same results, so only this check sees them.
"""

from __future__ import annotations

import runpy
import sys

from repro.obs import metrics

FALLBACK_COUNTERS = (
    "repro_dataplane_fallbacks_total",
    "repro_timing_core_fallbacks_total",
)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: run_example.py EXAMPLE.py", file=sys.stderr)
        return 2
    path = argv[0]
    metrics.set_metrics_enabled(True)
    sys.argv = [path]
    runpy.run_path(path, run_name="__main__")
    fired = [
        f"{name}{dict(labels)} = {value:g}"
        for name in FALLBACK_COUNTERS
        if (counter := metrics.REGISTRY.get(name)) is not None
        for _, labels, value in counter.samples()
        if value
    ]
    for line in fired:
        print(f"{path}: fallback {line}", file=sys.stderr)
    return 1 if fired else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
