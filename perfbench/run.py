"""End-to-end layered benchmark of the NTX reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload scenario-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` reports the per-layer split of a traced run
(see ``harness.py``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without ``src/repro`` next to this directory the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

SRC = Path(__file__).resolve().parents[1] / "src"
WORKLOADS = ("scenario-mix", "paper-report-cold", "paper-report-warm", "system-replay")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="End-to-end layered benchmark.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("REPRO_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload == "all":
        result = harness.run_all(args, list(WORKLOADS))
    else:
        result = harness.run_workload(args)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
