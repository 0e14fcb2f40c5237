"""The benchmark's workloads: public calls into ``repro`` plus their checks.

Each workload yields *rounds* of operations.  One operation is one public
call — :func:`repro.scenarios.run_scenario` or
:func:`repro.report.generate_paper_results` — timed from the outside and
wrapped in one benchmark span (a null context while tracing is off), then
checked against the invariants in ``invariants.json``.  A call that
raises, fails golden verification or breaks an invariant is a failed
operation; its time is not a latency sample.

Every workload is a closed loop on one thread: no worker processes, no
``parallel`` dispatch, default :class:`~repro.options.ExecutionOptions`.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.campaign import ResultStore
from repro.obs import trace as _trace
from repro.report import generate_paper_results
from repro.scenarios import get_scenario, iter_scenarios, run_scenario
from repro.system.memo import TileTimingCache

from layers import invariant_mismatches

INVARIANTS_PATH = Path(__file__).with_name("invariants.json")

#: ``system-replay``: one conv-tiled call with many identical tiles, so all
#: but the first hit the timing cache and replay as stacked groups.
REPLAY_TILES = 400
REPLAY_PARAMS = {"image_shape": (48, 52), "kernel": 3}

#: Seconds a child interpreter may take before it counts as hung.
CHILD_TIMEOUT_S = 600


def load_invariants() -> Dict[str, Any]:
    with INVARIANTS_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def child_env(src: Path) -> Dict[str, str]:
    """The environment for child interpreters: ``src`` importable, no cache."""
    env = {key: value for key, value in os.environ.items() if key != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = str(src)
    return env


@dataclass
class Op:
    """The outcome of one timed public call."""

    label: str
    wall_s: float = 0.0
    #: Reference machine speed over the speed measured around the call.
    scale: float = 1.0
    problems: List[str] = field(default_factory=list)
    #: Simulated tiles the call delivered (simulated or served).
    tiles: int = 0
    #: Tile-timing lookups and hits, from ``SystemResult`` or the records.
    lookups: int = 0
    hits: int = 0
    #: Cycles of the timing-cache entries the call added (0 where the
    #: benchmark does not own the cache).
    sim_cycles: float = 0.0
    #: ``point`` spans a traced call must produce (campaign points run).
    points_executed: int = 0


def timed_call(op: Op, span_name: str, call: Callable[[], Any], **span_args: Any) -> Any:
    """Run ``call`` under a benchmark span; record wall time or the error."""
    start = time.perf_counter()
    try:
        with _trace.span(span_name, **span_args):
            value = call()
    except Exception as error:  # a failed call is counted, not fatal
        op.problems.append(f"raised {type(error).__name__}: {error}")
        return None
    op.wall_s = time.perf_counter() - start
    return value


def _scenario_op(label: str, spec, expected: Optional[Dict[str, Any]]) -> Op:
    op = Op(label=label, tiles=spec.num_tiles)
    if expected is None:
        op.problems.append("no recorded invariant for this scenario")
    cache = TileTimingCache()
    outcome = timed_call(
        op,
        "bench.run_scenario",
        lambda: run_scenario(spec, timing_cache=cache),
        name=spec.name,
    )
    if outcome is None:
        return op
    result = outcome.result
    op.hits = result.cache_hits
    op.lookups = result.cache_hits + result.cache_misses
    op.sim_cycles = float(sum(entry.cycles for entry in cache.snapshot().values()))
    observed = {
        "num_tiles": spec.num_tiles,
        "makespan_cycles": float(result.makespan_cycles),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "verified": outcome.verified,
    }
    op.problems += invariant_mismatches(observed, {**(expected or {}), "verified": True})
    return op


class ScenarioMix:
    """Every registered scenario at its registered size, in seeded order."""

    name = "scenario-mix"

    def __init__(self, seed: int, invariants: Dict[str, Any], work: Path) -> None:
        self.rng = random.Random(seed)
        self.expected = invariants["scenarios"]
        self.specs = {spec.name: spec.with_overrides(seed=seed) for spec in iter_scenarios()}

    def round(self) -> List[Callable[[], Op]]:
        order = self.rng.sample(sorted(self.specs), len(self.specs))
        return [
            lambda name=name: _scenario_op(name, self.specs[name], self.expected.get(name))
            for name in order
        ]


class SystemReplay:
    """One big conv-tiled call: one cold tile, the rest batched replays."""

    name = "system-replay"

    def __init__(self, seed: int, invariants: Dict[str, Any], work: Path) -> None:
        self.expected = invariants["system_replay"]
        self.spec = get_scenario("conv-tiled").with_overrides(
            num_tiles=REPLAY_TILES, seed=seed, params=REPLAY_PARAMS
        )

    def round(self) -> List[Callable[[], Op]]:
        return [lambda: _scenario_op("conv-tiled-replay", self.spec, self.expected)]


# -- paper report ----------------------------------------------------------------


def campaign_totals(store_dir: Path) -> Dict[str, Dict[str, Any]]:
    """Per-campaign aggregates of the stores one report call wrote."""
    totals: Dict[str, Dict[str, Any]] = {}
    for path in sorted(store_dir.glob("*.jsonl")):
        records = ResultStore(path).records()
        metrics = [record["metrics"] for record in records]
        totals[path.stem.removesuffix("-quick")] = {
            "points": len(records),
            "tiles": sum(int(m["tiles"]) for m in metrics),
            "makespan_cycles": float(sum(m["makespan_cycles"] for m in metrics)),
            "cache_hits": sum(int(m["cache_hits"]) for m in metrics),
            "cache_misses": sum(int(m["cache_misses"]) for m in metrics),
            "verified": all(record.get("verified") is True for record in records),
        }
    return totals


def cache_lines(cache_dir: Path) -> int:
    """Records appended to the global result cache (one per line)."""
    return sum(path.read_bytes().count(b"\n") for path in cache_dir.glob("shard-*.jsonl"))


def check_report(op: Op, root: Path, expected: Dict[str, Dict[str, Any]]) -> None:
    """Compare one report call's stores and document with the invariants."""
    totals = campaign_totals(root / "store")
    if sorted(totals) != sorted(expected):
        op.problems.append(f"campaigns {sorted(totals)} != expected {sorted(expected)}")
    for name, want in expected.items():
        got = totals.get(name, {})
        problems = invariant_mismatches(got, {**want, "verified": True})
        op.problems += [f"{name}.{problem}" for problem in problems]
        op.tiles += int(got.get("tiles", 0))
        op.hits += int(got.get("cache_hits", 0))
        op.lookups += int(got.get("cache_hits", 0)) + int(got.get("cache_misses", 0))
    document = root / "paper_results.md"
    if not document.is_file() or document.stat().st_size == 0:
        op.problems.append("results document missing or empty")


def _report_call(root: Path, cache_dir: Path) -> Callable[[], Any]:
    return lambda: generate_paper_results(
        path=root / "paper_results.md",
        quick=True,
        store_dir=root / "store",
        cache_dir=cache_dir,
    )


class _Report:
    """One ``report --all --quick`` call per round, into fresh stores.

    After every call the global result cache must hold exactly one record
    per point: a cold call publishes each point once, and a warm call that
    simulated anything would have appended more.
    """

    name = ""
    #: Result cache shared by every call; ``None`` gives each call its own.
    cache_dir: Optional[Path] = None

    def __init__(self, seed: int, invariants: Dict[str, Any], work: Path) -> None:
        self.expected = invariants["campaigns"]
        self.total_points = sum(entry["points"] for entry in self.expected.values())
        self.work = work
        self.calls = 0

    def _fresh_dir(self, label: str) -> Path:
        self.calls += 1
        root = self.work / f"{label}-{self.calls}"
        root.mkdir()
        return root

    def round(self) -> List[Callable[[], Op]]:
        return [self._op]

    def _op(self) -> Op:
        mode = "warm" if self.cache_dir is not None else "cold"
        root = self._fresh_dir(mode)
        cache_dir = self.cache_dir if self.cache_dir is not None else root / "cache"
        executed = 0 if self.cache_dir is not None else self.total_points
        op = Op(label=f"report-{mode}", points_executed=executed)
        try:
            done = timed_call(
                op, "bench.generate_paper_results", _report_call(root, cache_dir), mode=mode
            )
            if done is not None:
                check_report(op, root, self.expected)
                records = cache_lines(cache_dir)
                if records != self.total_points:
                    op.problems.append(
                        f"result cache holds {records} records, expected {self.total_points}"
                    )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return op


class PaperReportCold(_Report):
    """``report --all --quick`` from an empty cache and empty stores."""

    name = "paper-report-cold"


#: Runs one cold report in a child interpreter (argv: document, stores, cache).
_COLD_REPORT_SNIPPET = (
    "import sys\n"
    "from repro.report import generate_paper_results\n"
    "generate_paper_results(path=sys.argv[1], quick=True, store_dir=sys.argv[2],"
    " cache_dir=sys.argv[3])\n"
)


class PaperReportWarm(_Report):
    """``report --all --quick`` into fresh stores against a warm cache.

    The cache is filled once by a cold call in a child interpreter, so the
    cold call's memory peak stays out of this process's ``peak_rss_mb``.
    """

    name = "paper-report-warm"

    def __init__(self, seed: int, invariants: Dict[str, Any], work: Path) -> None:
        super().__init__(seed, invariants, work)
        self.cache_dir = work / "cache"

    def prepare(self, src: Path) -> Op:
        """Fill the cache with one cold call in a child; checked like an op."""
        root = self._fresh_dir("prepare")
        op = Op(label="report-prepare")
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                _COLD_REPORT_SNIPPET,
                str(root / "paper_results.md"),
                str(root / "store"),
                str(self.cache_dir),
            ],
            env=child_env(src),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if completed.returncode != 0:
            tail = completed.stderr.strip().splitlines()[-1:] or ["no output"]
            op.problems.append(f"cold child exited {completed.returncode}: {tail[0]}")
        else:
            check_report(op, root, self.expected)
        shutil.rmtree(root, ignore_errors=True)
        return op


WORKLOADS = {
    workload.name: workload
    for workload in (ScenarioMix, PaperReportCold, PaperReportWarm, SystemReplay)
}
