"""Benchmark scenarios and the runner that turns them into ``BENCH_*.json``.

Three suites cover the repository's hot paths:

* ``cluster`` — the cycle-level engine itself (the single-cluster path
  behind ``benchmarks/test_cluster_utilization.py``): one convolution tile
  simulated cycle by cycle, once per registered engine (quick mode keeps
  only the default engine; the scalar golden engine joins in full mode).
* ``system`` — the scale-out path: a tiled convolution workload on the
  default :class:`~repro.system.SystemConfig`, run without the timing
  cache (every tile fully simulated), then with it (misses simulated,
  hits replayed in stacked groups).  Both variants verify the HMC outputs
  against the NumPy reference, so a benchmark run is also a correctness
  run.
* ``scenarios`` — every scenario registered in :mod:`repro.scenarios`
  (quick mode runs the registered sizes, full mode scales the tile count
  up), so a newly registered workload family is perf-gated automatically.
* ``campaigns`` — every campaign registered in :mod:`repro.campaign`,
  run end to end into a throwaway store (quick mode applies each
  campaign's ``quick_overrides``); the aggregate simulated cycles and
  timing-cache hit rate across the whole design space are deterministic,
  so a registered campaign is perf-gated automatically too.
* ``report`` — every campaign-backed paper artifact in
  :mod:`repro.report`, built through one shared
  :class:`~repro.report.artifact.ArtifactContext` into a throwaway store
  directory; the gated figure is the aggregate simulated cycles (and
  campaign-wide cache hit rate) behind each quick artifact, so the
  ``report --all --quick`` pipeline CI regenerates is perf-gated too.
* ``obs`` — the :mod:`repro.obs` instrumentation overhead: the memoized
  + batched system workload run with instrumentation fully off and then
  with metrics and span tracing enabled (best-of-N wall time each,
  identical simulated cycles asserted); the suite emits one scenario,
  ``obs-overhead``, whose gated figure is the ``overhead_ratio`` between
  the two, baselined at the documented ≤2% budget (the disabled run is
  the workload ``system-batched`` already gates).
* ``cache`` — the global content-addressed result cache
  (:mod:`repro.campaign.cache`): every registered campaign run cold into
  one shared cache, then the same sweep run again warm into fresh
  stores; the gated figures are the (deterministic) aggregate cycles and
  the warm pass's 100% cache hit rate plus its same-host speedup over
  the cold pass, so the "never simulate a point twice" guarantee itself
  is perf-gated.

Each scenario reports wall time, simulated cycles, simulated cycles per
wall-clock second, and where applicable the timing-cache hit rate and the
same-host speedup over the sequential baseline.  The derived baseline
(:func:`derive_baseline`) keeps only the metrics that are stable enough to
gate CI on: deterministic ones at face value, same-host speedups scaled by
a headroom factor.
"""

from __future__ import annotations

import json
import platform
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.schema import SCHEMA_VERSION, validate_document
from repro.campaign import iter_campaigns, run_campaign
from repro.cluster.engine import DEFAULT_ENGINE, available_engines
from repro.cluster.sim import ClusterSimulator
from repro.options import ExecutionOptions
from repro.scenarios import iter_scenarios, run_scenario
from repro.system import SystemConfig, SystemSimulator, conv_tiled_workload

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


def _run_system_variant(quick: bool, memoize: bool) -> Tuple[float, "object"]:
    """One end-to-end system run; returns (wall seconds, SystemResult)."""
    shape, tiles = _SYSTEM_SIZES[quick]
    simulator = SystemSimulator(
        SystemConfig(), options=ExecutionOptions(memoize=memoize)
    )
    workload = conv_tiled_workload(
        simulator.hmc, num_tiles=tiles, image_shape=shape
    )
    start = time.perf_counter()
    result = simulator.run(workload.tiles)
    wall = time.perf_counter() - start
    workload.verify(simulator.hmc)
    return wall, result


def _system_suite(quick: bool) -> List[Dict]:
    wall_seq, result_seq = _run_system_variant(quick, memoize=False)
    wall_batch, result_batch = _run_system_variant(quick, memoize=True)
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
            speedup_vs_sequential=wall_seq / wall_batch if wall_batch else 0.0,
        ),
    ]


def _run_cluster_variant(quick: bool, engine: str) -> Tuple[float, "object"]:
    shape = _CLUSTER_SIZES[quick]
    system = SystemConfig(num_vaults=1, clusters_per_vault=1, engine=engine)
    simulator = SystemSimulator(system, options=ExecutionOptions(memoize=False))
    workload = conv_tiled_workload(simulator.hmc, num_tiles=1, image_shape=shape)
    cluster = simulator.clusters[0]
    for transfer in workload.tiles[0].transfers_in:
        cluster.run_dma(transfer)
    jobs = workload.tiles[0].jobs(system.cluster.num_ntx)
    engine_sim = ClusterSimulator(cluster, engine=engine)
    start = time.perf_counter()
    result = engine_sim.run(jobs, stagger_cycles=system.stagger_cycles)
    wall = time.perf_counter() - start
    return wall, result


def _cluster_suite(quick: bool) -> List[Dict]:
    """One convolution tile per registered engine (quick: default only)."""
    engines = [
        name
        for name in available_engines()
        if not quick or name == DEFAULT_ENGINE
    ]
    scenarios = []
    for engine in engines:
        wall, result = _run_cluster_variant(quick, engine)
        scenarios.append(
            _scenario(
                f"cluster-conv-{engine}",
                f"one convolution tile through the {engine} cycle engine",
                wall,
                result.cycles,
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


def _campaigns_suite(quick: bool) -> List[Dict]:
    """Every registered campaign, run whole into a throwaway store.

    Per campaign the gated figures aggregate the entire design space:
    total simulated cycles across all points and the campaign-wide
    timing-cache hit rate (points execute sequentially in expansion
    order sharing one cache, so both are deterministic).
    """
    entries = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-campaigns-") as tmp:
        for sweep in iter_campaigns():
            store = Path(tmp) / f"{sweep.name}.jsonl"
            outcome = run_campaign(
                sweep, store_path=store, options=ExecutionOptions(quick=quick)
            )
            metrics = [record["metrics"] for record in outcome.records]
            total_cycles = sum(m["makespan_cycles"] for m in metrics)
            hits = sum(m["cache_hits"] for m in metrics)
            lookups = hits + sum(m["cache_misses"] for m in metrics)
            entries.append(
                _scenario(
                    f"campaign-{sweep.name}",
                    f"[{len(outcome.points)} points] {sweep.description}",
                    outcome.run_seconds,
                    total_cycles,
                    cache_hit_rate=hits / lookups if lookups else 0.0,
                    points=len(outcome.points),
                )
            )
    return entries


def _report_suite(quick: bool) -> List[Dict]:
    """Every campaign-backed paper artifact, built against a shared context.

    One entry per artifact that declares campaigns; its gated figures
    aggregate the simulated cycles and timing-cache behaviour of every
    record the artifact consumed.  The context is shared across artifacts
    (as in ``report --all``), so a campaign several artifacts read runs
    once and each artifact still accounts the records it renders.

    The campaign simulations deliberately overlap the ``campaigns``
    suite: where an artifact consumes exactly one campaign, its gate
    duplicates that campaign's numbers.  What this suite gates beyond
    them is the artifact→campaign *wiring* — an artifact that silently
    stops consuming a campaign, or starts consuming a different one,
    moves its ``report-*`` gate even when every ``campaign-*`` gate is
    unchanged.  The quick campaigns are CI-sized, so the duplication
    costs a few seconds.
    """
    from repro.report import iter_artifacts, run_artifact
    from repro.report.artifact import ArtifactContext

    entries = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-report-") as tmp:
        context = ArtifactContext(quick=quick, store_dir=Path(tmp))
        for artifact in iter_artifacts():
            if not artifact.campaigns:
                continue
            start = time.perf_counter()
            run_artifact(artifact, context=context)
            wall = time.perf_counter() - start
            metrics = [
                record["metrics"]
                for name in artifact.campaigns
                for record in context.records(name)
            ]
            total_cycles = sum(m["makespan_cycles"] for m in metrics)
            hits = sum(m["cache_hits"] for m in metrics)
            lookups = hits + sum(m["cache_misses"] for m in metrics)
            entries.append(
                _scenario(
                    f"report-{artifact.name}",
                    f"[{artifact.reproduces}] {artifact.title}",
                    wall,
                    total_cycles,
                    cache_hit_rate=hits / lookups if lookups else 0.0,
                    points=len(metrics),
                )
            )
    return entries


def _cache_suite(quick: bool) -> List[Dict]:
    """Cold-then-warm pass of every campaign through one global cache.

    The cold pass runs all registered campaigns into fresh stores while
    publishing every executed point to one
    :class:`~repro.campaign.cache.GlobalResultCache`; the warm pass runs
    the identical sweeps into *new* fresh stores, so every point must be
    served by the cache (any simulation there is a cache defect, and the
    warm entry's ``cache_hit_rate`` would drop below 1.0).  The warm
    wall time is pure shard parsing + store appends, so the same-host
    ``speedup_vs_cold`` ratio is the end-to-end cost of re-deriving a
    full design space with and without the cache.
    """
    from repro.campaign.cache import GlobalResultCache

    def one_pass(root: Path, cache: "GlobalResultCache", label: str):
        # Timed end to end (not ``outcome.run_seconds``, which covers only
        # executed points): the warm pass's cost IS the cache consult +
        # store appends, and that is what the speedup must be honest about.
        start = time.perf_counter()
        cycles = 0.0
        served = 0
        total = 0
        for sweep in iter_campaigns():
            outcome = run_campaign(
                sweep,
                store_path=root / f"{label}-{sweep.name}.jsonl",
                options=ExecutionOptions(quick=quick),
                cache=cache,
            )
            cycles += sum(
                record["metrics"]["makespan_cycles"] for record in outcome.records
            )
            served += outcome.cached_points
            total += len(outcome.points)
        return time.perf_counter() - start, cycles, served, total

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = GlobalResultCache(Path(tmp) / "result-cache")
        cold_wall, cold_cycles, _, cold_total = one_pass(Path(tmp), cache, "cold")
        warm_wall, warm_cycles, warm_served, warm_total = one_pass(
            Path(tmp), cache, "warm"
        )
    return [
        _scenario(
            "cache-cold",
            f"[{cold_total} points] all campaigns, empty global result cache",
            cold_wall,
            cold_cycles,
            points=cold_total,
        ),
        _scenario(
            "cache-warm",
            f"[{warm_total} points] identical sweeps served from the warm cache",
            warm_wall,
            warm_cycles,
            points=warm_total,
            cache_hit_rate=warm_served / warm_total if warm_total else 0.0,
            speedup_vs_cold=cold_wall / warm_wall if warm_wall else 0.0,
        ),
    ]


def _obs_suite(quick: bool) -> List[Dict]:
    """Instrumentation overhead on the memoized + batched system path.

    Both variants run the identical workload (fresh simulator and timing
    cache per run, best-of-N wall time), so the ratio isolates the cost
    of enabled counters and spans.  The simulated cycles must not move
    at all — instrumentation that changes results is a defect, not an
    overhead.  Only the ratio is emitted: the disabled run is the
    workload ``system-batched`` already gates.
    """
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import TRACER

    repeats = 3
    was_metered, was_tracing = REGISTRY.enabled, TRACER.enabled
    try:
        REGISTRY.set_enabled(False)
        TRACER.set_enabled(False)
        off = [_run_system_variant(quick, memoize=True) for _ in range(repeats)]
        REGISTRY.set_enabled(True)
        TRACER.set_enabled(True)
        on = [_run_system_variant(quick, memoize=True) for _ in range(repeats)]
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
    "report": _report_suite,
    "cache": _cache_suite,
    "obs": _obs_suite,
}

#: Gate-name prefix each suite's scenarios use.  Partial baseline
#: refreshes (``scripts/update_bench_baseline.py --suite X``) rely on
#: this to drop a re-run suite's stale gates; a new suite must declare
#: its prefix here alongside its ``SUITES`` entry.
GATE_PREFIXES: Dict[str, str] = {
    "system": "system-",
    "cluster": "cluster-",
    "scenarios": "scenario-",
    "campaigns": "campaign-",
    "report": "report-",
    "cache": "cache-",
    "obs": "obs-",
}
if set(GATE_PREFIXES) != set(SUITES):  # pragma: no cover - import-time guard
    raise RuntimeError("every bench suite must declare its gate prefix")


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
) -> Dict:
    """Distil CI gates from measured documents.

    Deterministic metrics (simulated cycles, cache hit rate) gate at their
    measured value; same-host speedups gate at ``speedup_headroom`` times
    the measured value so slower CI machines do not trip the gate on
    hardware variance, only on genuine regressions.  Host-absolute wall
    times are never gated.
    """
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
        if "overhead_ratio" in scenario:
            parts.append(f"overhead_ratio {scenario['overhead_ratio']:.3f}")
        if "points" in scenario:
            parts.append(f"points {scenario['points']}")
        lines.append(" ".join(parts))
    return "\n".join(lines)
