"""The timed loop, the metrics and the printed tables of the benchmark.

Imported by ``run.py`` once ``src/`` is importable.  One process sends
public calls in a closed loop, one after another, on one thread.

* ``--trace 0`` reports the end-to-end metrics with tracing off.  Their
  times are calibrated: the host shares its cores, and the same call can
  run 1.7 times slower when neighbours are busy.  A fixed pure-Python and
  NumPy kernel (:class:`Calibration`, no ``repro`` code) is timed
  before and after every call, and each call's wall time is scaled by
  ``CALIBRATION_REF_S`` over the mean of the two.  The printed table
  shows the raw host seconds next to the calibrated ones.
* ``--trace 1`` alternates untraced and traced rounds.  The traced
  rounds' self time is attributed to layers named after the ``repro``
  modules, and the rest is named ``unattributed``.  It prints that table
  and writes a Chrome trace.

Stores, cache directories and results documents live in a per-run
directory under ``.perfbench/`` (ignored by git) that is removed on exit;
the Chrome trace of a traced run is kept in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np
from repro.obs import REGISTRY, TRACER, Span, write_chrome_trace

import layers
from workloads import WORKLOADS, Op, child_env, load_invariants

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: The calibration kernel's median on the reference container (2 cores,
#: Python 3.11, NumPy 2.4): calibrated seconds are host seconds at that speed.
CALIBRATION_REF_S = 0.028

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 7
SETUP_SNIPPET = (
    "import repro.scenarios, repro.campaign, repro.report\n"
    "assert repro.scenarios.registered_scenarios()\n"
    "assert repro.campaign.registered_campaigns()\n"
    "assert repro.report.registered_artifacts()\n"
)

#: The name each generic end-to-end metric goes by on one workload.
ALIASES = {
    "scenario-mix": {"call_p50_s": "scenario_p50_s"},
    "paper-report-cold": {"call_p50_s": "report_cold_s"},
    "paper-report-warm": {"call_p50_s": "report_warm_s"},
    "system-replay": {"tiles_per_s": "replay_tiles_per_s"},
}

#: Units of every metric that is not in seconds.
UNITS = {
    "tiles_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "frac",
    "cluster.sim_kcycles_per_s": "kcycles/s",
    "batch.tiles_per_group": "count",
    "batch.fallback_runs": "count",
    "system.tile_hit_rate": "ratio",
    "campaign.points_executed": "count",
    "campaign.points_cached": "count",
    "obs.trace_overhead_ratio": "ratio",
    "obs.unattributed_frac": "frac",
    "obs.dropped_spans": "count",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s")


# -- provenance ------------------------------------------------------------------


def git_commit(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    """The stamp every result carries."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


# -- measurement -----------------------------------------------------------------


class Calibration:
    """A fixed host-speed probe, timed between calls; every sample is kept.

    The kernel mixes JSON round trips, integer arithmetic and a stacked
    NumPy gather: of the candidates tried, the blend whose speed tracked
    all four workloads' calls most closely across the host's fast and slow
    phases.  It touches no ``repro`` code, so a change to the program
    cannot move it.  About 28 ms on the reference container.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._stack = rng.random((400, 2496), dtype=np.float32)
        self._order = rng.permutation(400)
        self.samples: List[float] = []
        self.sample()

    def kernel(self) -> None:
        json.loads(json.dumps([{"k": i, "v": str(i)} for i in range(4000)]))
        word = 0x1234567
        for _ in range(40000):
            word = ((word * 2654435761) >> 7) & 0xFFFFFFFFFFFF
        for _ in range(3):
            gathered = self._stack[self._order]
            (gathered * np.float32(1.0001) + np.float32(0.5)).sum(axis=1)

    def sample(self) -> float:
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def scale_since(self, before: float) -> float:
        """Reference speed over the speed measured before and after a call."""
        return CALIBRATION_REF_S / ((before + self.sample()) / 2.0)


@dataclass
class Results:
    """Everything one run observed."""

    tally: layers.Tally = field(default_factory=layers.Tally)
    calibration: Calibration = field(default_factory=Calibration)
    untraced: List[Op] = field(default_factory=list)
    traced: List[Op] = field(default_factory=list)
    #: Tiles per second of each untraced round whose calls all passed.
    round_rates: List[float] = field(default_factory=list)
    attribution: layers.Attribution = field(default_factory=layers.Attribution)
    spans: List[Span] = field(default_factory=list)
    points_executed: int = 0
    points_cached: float = 0.0
    group_sizes: List[int] = field(default_factory=list)
    fallback_runs: int = 0
    dropped: int = 0


def measure_setup(results: Results) -> Optional[float]:
    """Median calibrated seconds of a fresh interpreter importing the registries."""
    samples = []
    for index in range(SETUP_SAMPLES):
        before = results.calibration.samples[-1]
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT,
            env=child_env(SRC),
            capture_output=True,
            text=True,
            timeout=120,
        )
        wall = time.perf_counter() - start
        scale = results.calibration.scale_since(before)
        problems = [] if completed.returncode == 0 else [completed.stderr.strip()[-300:]]
        if results.tally.record(f"setup-{index}", problems):
            samples.append(wall * scale)
    return layers.percentile(samples, 50) if samples else None


@contextmanager
def instrumented(enabled: bool):
    """Tracer and metrics registry on for one round; prior state restored."""
    was_tracing, was_metered = TRACER.enabled, REGISTRY.enabled
    if enabled:
        TRACER.set_enabled(True)
        REGISTRY.set_enabled(True)
    try:
        yield
    finally:
        TRACER.set_enabled(was_tracing)
        REGISTRY.set_enabled(was_metered)


def _cached_points() -> float:
    counter = REGISTRY.get("repro_campaign_points_total")
    return counter.value(outcome="cached") if counter is not None else 0.0


def run_op(step, traced: bool, results: Results, timed: bool) -> Optional[Op]:
    """Run one operation, check it, and file its samples.

    Garbage left by earlier calls is collected first, outside the timed
    call, so every call starts from the same heap; a call's own garbage
    still counts towards its time and its memory peak.  Returns the
    operation if it passed.
    """
    gc.collect()
    cached_before = _cached_points()
    before = results.calibration.samples[-1]
    op = step()
    op.scale = results.calibration.scale_since(before)
    problems = list(op.problems)
    if traced:
        spans = TRACER.drain()
        roots = layers.span_forest(spans)
        executed = layers.count_spans(roots, "point")
        if executed != op.points_executed:
            problems.append(f"traced call ran {executed} points, expected {op.points_executed}")
        if not problems:
            results.spans += spans
            results.attribution.add(layers.attribute(roots))
            results.points_executed += executed
            results.points_cached += _cached_points() - cached_before
            results.group_sizes += layers.group_sizes(roots)
            results.fallback_runs += layers.fallback_runs(roots)
    if not results.tally.record(op.label, problems):
        return None
    if timed:
        (results.traced if traced else results.untraced).append(op)
    return op


def measure(workload, seconds: float, trace: bool, results: Results) -> None:
    """A checked warm-up round, then rounds until ``seconds`` have passed.

    With ``trace`` every other round runs traced, so traced and untraced
    samples interleave and the overhead ratio compares like with like.
    """
    TRACER.clear()
    for step in workload.round():
        run_op(step, False, results, timed=False)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 2 or time.perf_counter() < deadline:
        traced = trace and rounds % 2 == 1
        with instrumented(traced):
            ops = [run_op(step, traced, results, timed=True) for step in workload.round()]
        if not traced and all(ops):
            rate = sum(op.tiles for op in ops) / sum(op.wall_s * op.scale for op in ops)
            results.round_rates.append(rate)
        rounds += 1
    results.dropped = TRACER.dropped
    TRACER.clear()


# -- metrics ---------------------------------------------------------------------


def end_to_end(results: Results, setup_s: Optional[float]) -> Dict[str, float]:
    walls = [op.wall_s * op.scale for op in results.untraced]
    if not results.round_rates or setup_s is None:
        return {}
    return {
        "setup_s": setup_s,
        "call_p50_s": layers.percentile(walls, 50),
        "tiles_per_s": layers.percentile(results.round_rates, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_frac": 1.0 - results.tally.failed_frac,
    }


def per_layer(results: Results) -> Dict[str, float]:
    if not results.traced or not results.untraced:
        return {}
    attribution = results.attribution
    calls = len(results.traced)
    metrics = {name: seconds / calls for name, seconds in attribution.layers.items()}
    sim_s = attribution.layers["cluster.sim_s"]
    sim_cycles = sum(op.sim_cycles for op in results.traced)
    ops = results.untraced + results.traced
    lookups = sum(op.lookups for op in ops)
    sizes = results.group_sizes
    traced_p50 = layers.percentile([op.wall_s * op.scale for op in results.traced], 50)
    untraced_p50 = layers.percentile([op.wall_s * op.scale for op in results.untraced], 50)
    metrics.update(
        {
            "cluster.sim_kcycles_per_s": sim_cycles / sim_s / 1e3 if sim_s > 0 else 0.0,
            "batch.tiles_per_group": sum(sizes) / len(sizes) if sizes else 0.0,
            "batch.fallback_runs": float(results.fallback_runs),
            "system.tile_hit_rate": sum(op.hits for op in ops) / lookups if lookups else 0.0,
            "campaign.points_executed": results.points_executed / calls,
            "campaign.points_cached": results.points_cached / calls,
            "unattributed_s": attribution.unattributed_s / calls,
            "obs.trace_overhead_ratio": traced_p50 / untraced_p50,
            "obs.unattributed_frac": attribution.unattributed_frac,
            "obs.dropped_spans": float(results.dropped),
        }
    )
    return metrics


# -- output ----------------------------------------------------------------------


def print_end_to_end(workload: str, metrics: Dict[str, float], results: Results) -> None:
    aliases = ALIASES.get(workload, {})
    calls = len(results.untraced)
    print(f"end-to-end, tracing off ({calls} calls timed; times calibrated):")
    for name, value in metrics.items():
        label = f"{name} = {aliases[name]}" if name in aliases else name
        print(f"  {label:<36} {value:>14.6g} {unit(name)}")
    print(f"  {'failed_ops_frac':<36} {results.tally.failed_frac:>14.6g} frac")
    calibrated = [op.wall_s * op.scale for op in results.untraced]
    raw = [op.wall_s for op in results.untraced]
    # The p90 is printed, not gated: the report workloads time too few
    # calls to put ten samples beyond it.
    tail = "scenario_p90_s" if workload == "scenario-mix" else "call_p90_s"
    print(f"  {tail + f' (n={calls}, not gated)':<36} "
          f"{layers.percentile(calibrated, 90):>14.6g} s")
    print(f"  {'raw host call p50 / p90':<36} {layers.percentile(raw, 50):>14.6g} "
          f"/ {layers.percentile(raw, 90):.6g} s")
    kernel = layers.percentile(results.calibration.samples, 50)
    print(f"  {'calibration kernel p50':<36} {kernel:>14.6g} s (reference {CALIBRATION_REF_S} s)")


def print_layers(metrics: Dict[str, float], results: Results) -> None:
    attribution = results.attribution
    calls = len(results.traced)
    total = attribution.total_s
    print(f"per-layer self time, traced, raw host seconds (mean per call over {calls} calls):")
    rows = [*attribution.layers.items(), ("unattributed", attribution.unattributed_s)]
    for name, seconds in rows:
        share = 100.0 * seconds / total if total > 0 else 0.0
        print(f"  {name:<26} {seconds / calls:>12.6f} s {share:>7.2f} %")
    print(f"  {'total':<26} {total / calls:>12.6f} s {100.0:>7.2f} %")
    for name, value in metrics.items():
        if unit(name) != "s":
            print(f"  {name:<26} {value:>12.6g} {unit(name)}")


def write_trace(workload: str, seed: int, spans: List[Span], stamp: Dict[str, Any]) -> Path:
    """The traced rounds as a Chrome trace, stamped with the provenance."""
    start = min((span.ts_us for span in spans), default=0)
    marker = Span("bench.provenance", "bench", start, 0.0, stamp)
    path = SCRATCH / f"trace-{workload}-seed{seed}.json"
    write_chrome_trace([marker, *spans], path)
    return path


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    """Measure one workload; returns the benchmark's result object."""
    stamp = provenance(args)
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("provenance " + json.dumps(stamp, sort_keys=True))
    results = Results()
    tally = results.tally
    setup_s = None if args.trace else measure_setup(results)
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=SCRATCH))
    try:
        workload = WORKLOADS[args.workload](args.seed, load_invariants(), work)
        if hasattr(workload, "prepare"):
            prepared = workload.prepare(SRC)
            tally.record(prepared.label, prepared.problems)
        measure(workload, args.seconds, bool(args.trace), results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if results.dropped:
        tally.record("tracer", [f"{results.dropped} spans dropped"])
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    if args.trace:
        metrics = per_layer(results)
        if metrics:
            print_layers(metrics, results)
        trace_path = write_trace(args.workload, args.seed, results.spans, stamp)
        print(f"chrome trace: {trace_path.relative_to(ROOT)} ({len(results.spans)} spans)")
    else:
        metrics = end_to_end(results, setup_s)
        print_end_to_end(args.workload, metrics, results)
    return {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }


def run_all(args: argparse.Namespace, workloads: List[str]) -> Dict[str, Any]:
    """Every workload in its own child interpreter, one after another."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        command = [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = completed.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]) + "\n")
        if completed.returncode != 0 or not lines:
            print(completed.stderr, file=sys.stderr)
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    return combined
