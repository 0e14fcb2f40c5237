"""Benchmark scenarios and the runner that turns them into ``BENCH_*.json``.

Five suites cover the repository's hot paths:

* ``cluster`` — the cycle-level engine itself (the single-cluster path
  behind ``benchmarks/test_cluster_utilization.py``): one convolution tile
  simulated cycle by cycle, once per registered engine (quick mode keeps
  only the default engine; the scalar golden engine joins in full mode).
  The vectorized tile also runs through the Python reference loop, which
  gives the compiled timing core's same-run ``speedup_vs_reference``.
* ``system`` — the scale-out path: a tiled convolution scenario on
  standard normal data and the default geometry, run without the timing
  cache (every tile fully simulated), then with it (misses simulated,
  hits replayed in stacked groups).  Both variants verify the HMC outputs
  against the NumPy reference, so a benchmark run is also a correctness
  run.  The gated ``speedup_vs_sequential`` of memoization is timed with
  both variants on the Python reference loop, so it tracks memoization
  and batched replay alone, not the speed of the timing loop.
* ``scenarios`` — every scenario registered in :mod:`repro.scenarios`
  (quick mode runs the registered sizes, full mode scales the tile count
  up), so a newly registered workload family is perf-gated automatically.
* ``campaigns`` — every campaign registered in :mod:`repro.campaign`,
  simulated exactly once per run (quick mode applies each campaign's
  ``quick_overrides``) in three passes over one throwaway global result
  cache: a cold pass (``campaign-<name>`` per campaign, ``cache-cold``
  for the whole pass), every campaign-backed paper artifact of
  :mod:`repro.report` built from the cold stores (``report-<artifact>``,
  gating the artifact→campaign wiring), and a warm pass into fresh
  stores that the cache must serve whole (``cache-warm``).  Aggregate
  simulated cycles and timing-cache hit rates are deterministic, so a
  registered campaign or artifact is perf-gated automatically.
* ``obs`` — the :mod:`repro.obs` instrumentation overhead: the memoized
  + batched system workload run with instrumentation fully off and then
  with metrics and span tracing enabled (best-of-N wall time each,
  identical simulated cycles asserted); the suite emits one scenario,
  ``obs-overhead``, whose gated figure is the ``overhead_ratio`` between
  the two, baselined at the documented ≤2% budget (the disabled run is
  the workload ``system-batched`` already gates).

Each scenario reports wall time, simulated cycles, simulated cycles per
wall-clock second, and where applicable the timing-cache hit rate and the
same-host speedup over the sequential baseline.  The derived baseline
(:func:`derive_baseline`) keeps only the metrics that are stable enough to
gate CI on: deterministic ones at face value, same-host speedups scaled by
a headroom factor; the one hand-set gate, ``speedup_vs_reference``, is
carried over from the previous baseline.
"""

from __future__ import annotations

import contextlib
import json
import platform
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from unittest import mock

from repro.bench.schema import SCHEMA_VERSION, validate_document
from repro.campaign import default_store_path, iter_campaigns, run_campaign
from repro.cluster import timing_core
from repro.cluster.engine import DEFAULT_ENGINE, available_engines
from repro.cluster.sim import ClusterSimulator
from repro.mem.dma import DmaTransfer
from repro.options import ExecutionOptions
from repro.scenarios import ScenarioSpec, build_workload, iter_scenarios, run_scenario
from repro.system import SystemSimulator

__all__ = [
    "SUITES",
    "run_suite",
    "run_suites",
    "write_document",
    "document_path",
    "derive_baseline",
    "format_document",
]

#: Workload sizes per suite: quick keeps CI under a few seconds, full is
#: what the measured numbers in docs/performance.md are taken from.
_SYSTEM_SIZES = {
    # (image shape, tiles)
    True: ((24, 28), 32),
    False: ((48, 52), 48),
}
_CLUSTER_SIZES = {
    True: (32, 36),
    False: (64, 68),
}


def _scenario(
    name: str,
    description: str,
    wall_time_s: float,
    simulated_cycles: float,
    **extra,
) -> Dict:
    scenario = {
        "name": name,
        "description": description,
        "wall_time_s": wall_time_s,
        "simulated_cycles": simulated_cycles,
        "cycles_per_second": simulated_cycles / wall_time_s if wall_time_s else 0.0,
    }
    scenario.update(extra)
    return scenario


def _normal_conv(name: str, image_shape, **fields) -> ScenarioSpec:
    """A conv scenario on standard normal operands (the timed data)."""
    return ScenarioSpec(
        name=name,
        family="conv",
        params={"image_shape": image_shape, "draw": "normal"},
        **fields,
    )


def _run_system_variant(quick: bool, memoize: bool) -> Tuple[float, "object"]:
    """One end-to-end system run; returns (wall seconds, SystemResult)."""
    shape, tiles = _SYSTEM_SIZES[quick]
    spec = _normal_conv("bench-system", shape, num_tiles=tiles)
    outcome = run_scenario(spec, options=ExecutionOptions(memoize=memoize))
    return outcome.run_seconds, outcome.result


@contextlib.contextmanager
def _reference_timing_loop():
    """Run the vectorized engine's Python reference loop, not the compiled one."""
    with mock.patch.object(timing_core, "load", lambda: None):
        yield


def _system_suite(quick: bool) -> List[Dict]:
    wall_seq, result_seq = _run_system_variant(quick, memoize=False)
    wall_batch, result_batch = _run_system_variant(quick, memoize=True)
    # The compiled timing loop makes every simulated tile ~5x cheaper,
    # which shrinks what a cache hit saves without any change to
    # memoization.  Timed over the reference loop on both sides, the
    # speedup tracks memoization and batched replay alone.
    with _reference_timing_loop():
        reference_seq, _ = _run_system_variant(quick, memoize=False)
        reference_batch, _ = _run_system_variant(quick, memoize=True)
    return [
        _scenario(
            "system-sequential",
            "default config, no timing cache (every tile fully simulated)",
            wall_seq,
            result_seq.makespan_cycles,
        ),
        _scenario(
            "system-batched",
            "timing cache plus cross-tile batched cache-hit replay",
            wall_batch,
            result_batch.makespan_cycles,
            cache_hit_rate=result_batch.cache_hit_rate,
            speedup_vs_sequential=(
                reference_seq / reference_batch if reference_batch else 0.0
            ),
        ),
    ]


#: Timings per side of ``speedup_vs_reference``; the fastest is reported,
#: which keeps the same-run ratio clear of scheduler noise.
_REFERENCE_REPEATS = 5


def _run_cluster_variant(
    quick: bool, engine: str, reference: bool = False, repeats: int = 1
) -> Tuple[float, "object"]:
    """Best-of-``repeats`` wall time of one conv tile; ``reference=True``
    runs the vectorized engine's Python reference loop instead of the
    compiled one."""
    spec = _normal_conv(
        "bench-cluster", _CLUSTER_SIZES[quick], num_tiles=1, num_vaults=1,
        clusters_per_vault=1, engine=engine,
    )
    system = spec.system_config()
    best = float("inf")
    for _ in range(repeats):
        simulator = SystemSimulator(system)
        workload = build_workload(spec, simulator.hmc, system.cluster)
        cluster = simulator.clusters[0]
        tile = workload.tiles[0]
        for rows, (src, pitch) in zip(tile.program.dma_in, tile.hmc_in):
            cluster.run_dma(
                DmaTransfer(
                    src=src, dst=rows.address, row_bytes=rows.row_bytes,
                    rows=rows.rows, src_pitch=pitch, dst_pitch=rows.pitch,
                )
            )
        jobs = workload.tiles[0].jobs(system.cluster.num_ntx)
        engine_sim = ClusterSimulator(cluster, engine=engine)
        with _reference_timing_loop() if reference else contextlib.nullcontext():
            start = time.perf_counter()
            result = engine_sim.run(jobs, stagger_cycles=system.stagger_cycles)
            best = min(best, time.perf_counter() - start)
    return best, result


def _cluster_suite(quick: bool) -> List[Dict]:
    """One convolution tile per registered engine (quick: default only).

    The vectorized entry also times the same tile through the Python
    reference loop and reports the compiled timing core's same-run
    ``speedup_vs_reference`` (the one-time build is kept out of it).
    """
    timing_core.load()
    engines = [
        name
        for name in available_engines()
        if not quick or name == DEFAULT_ENGINE
    ]
    scenarios = []
    for engine in engines:
        extra = {}
        if engine != "vectorized":
            wall, result = _run_cluster_variant(quick, engine)
        else:
            wall, result = _run_cluster_variant(
                quick, engine, repeats=_REFERENCE_REPEATS
            )
            reference_wall, reference = _run_cluster_variant(
                quick, engine, reference=True, repeats=_REFERENCE_REPEATS
            )
            if reference != result:
                raise AssertionError(
                    "compiled timing core disagrees with the reference loop"
                )
            extra["speedup_vs_reference"] = reference_wall / wall
        scenarios.append(
            _scenario(
                f"cluster-conv-{engine}",
                f"one convolution tile through the {engine} cycle engine",
                wall,
                result.cycles,
                **extra,
            )
        )
    return scenarios


#: Full-mode tile-count multiplier for the ``scenarios`` suite.
_SCENARIO_FULL_SCALE = 4


def _scenarios_suite(quick: bool) -> List[Dict]:
    """Every registered scenario, verified against its golden model."""
    entries = []
    for spec in iter_scenarios():
        overrides = {} if quick else {
            "num_tiles": spec.num_tiles * _SCENARIO_FULL_SCALE
        }
        outcome = run_scenario(spec, **overrides)
        entries.append(
            _scenario(
                f"scenario-{spec.name}",
                f"[{spec.family}] {spec.description}",
                # Simulation wall time only, like the other suites (the
                # workload build and golden-model verification are not
                # part of the measured hot path).
                outcome.run_seconds,
                outcome.result.makespan_cycles,
                cache_hit_rate=outcome.result.cache_hit_rate,
            )
        )
    return entries


def _records_entry(
    name: str, description: str, wall: float, records: Sequence[Dict]
) -> Dict:
    """A gate over point records: total cycles and tile-cache hit rate."""
    metrics = [record["metrics"] for record in records]
    hits = sum(m["cache_hits"] for m in metrics)
    lookups = hits + sum(m["cache_misses"] for m in metrics)
    return _scenario(
        name,
        description,
        wall,
        sum(m["makespan_cycles"] for m in metrics),
        cache_hit_rate=hits / lookups if lookups else 0.0,
        points=len(metrics),
    )


#: Warm passes of the campaigns suite; the fastest is ``cache-warm``'s time.
WARM_PASSES = 3


def _campaigns_suite(quick: bool) -> List[Dict]:
    """Every registered campaign, simulated once, then reported and re-served.

    * **Cold pass.**  Each campaign runs into a fresh store under
      ``cold/``, publishing every executed point to one throwaway
      :class:`~repro.campaign.cache.GlobalResultCache`.  Per campaign the
      gated figures aggregate the entire design space: total simulated
      cycles and the campaign-wide timing-cache hit rate (points execute
      sequentially in expansion order sharing one timing cache, so both
      are deterministic).
    * **Report.**  Every campaign-backed paper artifact is built through
      one :class:`~repro.report.artifact.ArtifactContext` over the cold
      stores, so each campaign resumes and nothing simulates.  A
      ``report-*`` gate still moves when an artifact stops consuming a
      campaign or starts consuming a different one.
    * **Warm passes.**  The identical sweeps run :data:`WARM_PASSES`
      times, each into fresh stores under ``warm-<k>/`` over the same
      cache; every pass must serve every point (any simulation there is
      a cache defect, and ``cache-warm``'s hit rate, the lowest of the
      passes, would drop below 1.0).  Every pass is timed end to end and
      the fastest stands for the warm cost: a warm pass lasts a few
      milliseconds, so one pass alone doubles on a scheduling hiccup.
      ``speedup_vs_cold`` is the cost of re-deriving the design space
      with and without the cache.

    The cache and stores are explicit, so ``$REPRO_CACHE_DIR`` never
    serves or receives a bench point.
    """
    from repro.campaign.cache import GlobalResultCache
    from repro.report import iter_artifacts, run_artifact
    from repro.report.artifact import ArtifactContext

    options = ExecutionOptions(quick=quick)
    with tempfile.TemporaryDirectory(prefix="repro-bench-campaigns-") as tmp:
        root = Path(tmp)
        cache = GlobalResultCache(root / "result-cache")

        def one_pass(label: str):
            start = time.perf_counter()
            outcomes = [
                run_campaign(
                    sweep,
                    store_path=root / label
                    / default_store_path(sweep.name, quick).name,
                    options=options,
                    cache=cache,
                )
                for sweep in iter_campaigns()
            ]
            return time.perf_counter() - start, outcomes

        cold_wall, cold = one_pass("cold")
        entries = [
            _records_entry(
                f"campaign-{outcome.campaign.name}",
                f"[{len(outcome.points)} points] {outcome.campaign.description}",
                outcome.run_seconds,
                outcome.records,
            )
            for outcome in cold
        ]
        context = ArtifactContext(quick=quick, store_dir=root / "cold")
        for artifact in iter_artifacts():
            if not artifact.campaigns:
                continue
            start = time.perf_counter()
            run_artifact(artifact, context=context)
            entries.append(
                _records_entry(
                    f"report-{artifact.name}",
                    f"[{artifact.reproduces}] {artifact.title}",
                    time.perf_counter() - start,
                    [
                        record
                        for name in artifact.campaigns
                        for record in context.records(name)
                    ],
                )
            )
        warm_passes = [one_pass(f"warm-{k}") for k in range(WARM_PASSES)]

    def cycles(outcomes) -> float:
        return sum(
            record["metrics"]["makespan_cycles"]
            for outcome in outcomes
            for record in outcome.records
        )

    total = sum(len(outcome.points) for outcome in cold)
    warm_wall = min(wall for wall, _ in warm_passes)
    warm = warm_passes[0][1]
    served = min(
        sum(outcome.cached_points for outcome in outcomes)
        for _, outcomes in warm_passes
    )
    return entries + [
        _scenario(
            "cache-cold",
            f"[{total} points] all campaigns, empty global result cache",
            cold_wall,
            cycles(cold),
            points=total,
        ),
        _scenario(
            "cache-warm",
            f"[{total} points] identical sweeps served from the warm cache",
            warm_wall,
            cycles(warm),
            points=total,
            cache_hit_rate=served / total if total else 0.0,
            speedup_vs_cold=cold_wall / warm_wall if warm_wall else 0.0,
        ),
    ]


def _obs_suite(quick: bool) -> List[Dict]:
    """Instrumentation overhead on the memoized + batched system path.

    Both variants run the identical workload (fresh simulator and timing
    cache per run, best-of-7 wall time), so the ratio isolates the cost
    of enabled counters and spans.  The runs alternate disabled/enabled,
    and every other pair runs enabled first, so a burst of host load or
    a warm-up skews both variants alike rather than one block of runs or
    one side of every pair.  The simulated cycles must not move
    at all — instrumentation that changes results is a defect, not an
    overhead.  Only the ratio is emitted: the disabled run is the
    workload ``system-batched`` already gates.
    """
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import TRACER

    repeats = 7
    was_metered, was_tracing = REGISTRY.enabled, TRACER.enabled
    off: List = []
    on: List = []
    try:
        for repeat in range(repeats):
            pair = ((False, off), (True, on))
            for enabled, runs in pair if repeat % 2 == 0 else pair[::-1]:
                REGISTRY.set_enabled(enabled)
                TRACER.set_enabled(enabled)
                runs.append(_run_system_variant(quick, memoize=True))
    finally:
        REGISTRY.set_enabled(was_metered)
        TRACER.set_enabled(was_tracing)
        TRACER.clear()
    cycles = off[0][1].makespan_cycles
    if any(result.makespan_cycles != cycles for _, result in off + on):
        raise RuntimeError(
            "instrumentation changed the simulated cycles — repro.obs must "
            "never perturb results"
        )
    wall_off = min(wall for wall, _ in off)
    wall_on = min(wall for wall, _ in on)
    return [
        _scenario(
            "obs-overhead",
            "memoized + batched system run with metrics and span tracing "
            "enabled, against the same run with instrumentation disabled",
            wall_on,
            cycles,
            overhead_ratio=wall_on / wall_off if wall_off else 0.0,
        ),
    ]


SUITES: Dict[str, Callable[[bool], List[Dict]]] = {
    "system": _system_suite,
    "cluster": _cluster_suite,
    "scenarios": _scenarios_suite,
    "campaigns": _campaigns_suite,
    "obs": _obs_suite,
}

#: Gate-name prefixes each suite's scenarios use.  Partial baseline
#: refreshes (``scripts/update_bench_baseline.py --suite X``) rely on
#: this to drop a re-run suite's stale gates; a new suite must declare
#: its prefixes here alongside its ``SUITES`` entry.
GATE_PREFIXES: Dict[str, Tuple[str, ...]] = {
    "system": ("system-",),
    "cluster": ("cluster-",),
    "scenarios": ("scenario-",),
    "campaigns": ("campaign-", "report-", "cache-"),
    "obs": ("obs-",),
}
if set(GATE_PREFIXES) != set(SUITES):  # pragma: no cover - import-time guard
    raise RuntimeError("every bench suite must declare its gate prefixes")


def run_suite(suite: str, quick: bool = False) -> Dict:
    """Execute one suite and return its schema-valid document."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {tuple(SUITES)}")
    document = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "scenarios": SUITES[suite](quick),
    }
    problems = validate_document(document)
    if problems:  # pragma: no cover - a runner bug, not a user error
        raise RuntimeError(f"runner produced an invalid document: {problems}")
    return document


def run_suites(
    suites: Optional[Sequence[str]] = None, quick: bool = False
) -> List[Dict]:
    """Execute the requested suites (default: all) in a stable order."""
    names = list(suites) if suites else list(SUITES)
    return [run_suite(name, quick=quick) for name in names]


def document_path(document: Dict, output_dir: Path) -> Path:
    return Path(output_dir) / f"BENCH_{document['suite']}.json"


def write_document(document: Dict, output_dir: Path) -> Path:
    """Write ``BENCH_<suite>.json`` under ``output_dir`` and return the path."""
    path = document_path(document, output_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path


def derive_baseline(
    documents: Sequence[Dict],
    tolerance: float = 0.25,
    speedup_headroom: float = 0.6,
    previous: Optional[Dict] = None,
) -> Dict:
    """Distil CI gates from measured documents.

    Deterministic metrics (simulated cycles, cache hit rate) gate at their
    measured value; same-host speedups gate at ``speedup_headroom`` times
    the measured value so slower CI machines do not trip the gate on
    hardware variance, only on genuine regressions.  Host-absolute wall
    times are never gated.  The hand-set ``speedup_vs_reference`` gate is
    never derived; it is carried over from the ``previous`` baseline.
    """
    kept = (previous or {}).get("gates", {})
    gates: Dict[str, Dict[str, float]] = {}
    for document in documents:
        for scenario in document["scenarios"]:
            gate: Dict[str, float] = {
                "simulated_cycles": scenario["simulated_cycles"],
            }
            if "cache_hit_rate" in scenario:
                gate["cache_hit_rate"] = round(scenario["cache_hit_rate"], 4)
            if "speedup_vs_sequential" in scenario:
                gate["speedup_vs_sequential"] = round(
                    scenario["speedup_vs_sequential"] * speedup_headroom, 2
                )
            if "overhead_ratio" in scenario:
                # Gated at the documented budget, not the measured value:
                # the measurement is timer noise around 1.0, and the
                # contract is "enabled instrumentation costs ≤2%".
                gate["overhead_ratio"] = 1.02
            if "speedup_vs_cold" in scenario:
                # The warm pass is pure store parsing, so the measured
                # ratio is huge and disk-speed-dependent; the gate is
                # capped so slow CI storage cannot trip it, while still
                # enforcing that the cache stays an order of magnitude
                # faster than re-simulation.
                gate["speedup_vs_cold"] = round(
                    min(scenario["speedup_vs_cold"] * speedup_headroom, 20.0), 2
                )
            # No single run can set this gate: it sits at the lowest value
            # seen over at least ten quick runs, entered by hand.
            hand_set = kept.get(scenario["name"], {}).get("speedup_vs_reference")
            if "speedup_vs_reference" in scenario and hand_set is not None:
                gate["speedup_vs_reference"] = hand_set
            gates[scenario["name"]] = gate
    return {
        "schema_version": SCHEMA_VERSION,
        "tolerance": tolerance,
        "gates": gates,
    }


def format_document(document: Dict) -> str:
    """Human-readable one-line-per-scenario rendering of a document."""
    lines = [f"suite {document['suite']} (quick={document['quick']}):"]
    for scenario in document["scenarios"]:
        parts = [
            f"  {scenario['name']:28s}",
            f"wall {scenario['wall_time_s'] * 1e3:8.1f} ms",
            f"cycles {scenario['simulated_cycles']:>10.0f}",
            f"{scenario['cycles_per_second'] / 1e3:8.1f} kcyc/s",
        ]
        if "cache_hit_rate" in scenario:
            parts.append(f"hit {scenario['cache_hit_rate']:.2f}")
        if "speedup_vs_sequential" in scenario:
            parts.append(f"speedup {scenario['speedup_vs_sequential']:.1f}x")
        if "speedup_vs_cold" in scenario:
            parts.append(f"speedup_vs_cold {scenario['speedup_vs_cold']:.1f}x")
        if "speedup_vs_reference" in scenario:
            parts.append(
                f"speedup_vs_reference {scenario['speedup_vs_reference']:.1f}x"
            )
        if "overhead_ratio" in scenario:
            parts.append(f"overhead_ratio {scenario['overhead_ratio']:.3f}")
        if "points" in scenario:
            parts.append(f"points {scenario['points']}")
        lines.append(" ".join(parts))
    return "\n".join(lines)
