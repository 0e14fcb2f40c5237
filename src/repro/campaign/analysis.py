"""Turn a campaign's result store into scaling curves and model overlays.

This is the layer that closes the loop between the cycle-accurate
simulation and the paper's analytic performance models
(:mod:`repro.perf`).  For every stored point it derives:

* **measured** figures — throughput, speedup over the fewest-cluster
  point of the same workload series, parallel efficiency, timing-cache
  hit rate, simulated cycles per wall-clock second;
* **model** figures — the point's *measured* operational intensity
  (flop per DRAM byte, straight from the simulated DMA traffic) placed
  on the system-level roofline ``min(peak_compute,
  intensity × vault_bandwidth)``, which names the binding resource, and
  an :class:`~repro.perf.energy.EnergyModel` efficiency estimate for an
  equally sized :class:`~repro.perf.scaling.NtxSystemConfig` at that
  intensity — the Table-II machinery fed with simulated numbers instead
  of hand-picked constants.

Rows sharing a workload (family, parameters, engine, seed — *not* the
tile count, so weak-scaling sweeps whose work grows with the machine
stay one curve) form a **series**.  Speedup is the work-normalized
throughput ratio against the series' fewest-cluster row: for a
fixed-work (strong-scaling) series it equals the classic makespan
ratio, for a grow-with-the-machine (weak-scaling, ``zip``) series the
ideal value is the cluster ratio — parallel efficiency reads as
"fraction of perfect scaling" in both regimes.  Within a series, rows
at the same vault count form the geometry-scaling curve whose
flattening (`plateau`) reproduces the paper's bandwidth-bound
scale-out story: throughput stops growing with added clusters exactly
when the model says the bandwidth roof binds.

Every analysis runs one routine over ``(spec, record)`` pairs.
:func:`analyze_outcome` takes each point's spec from the expansion a
:class:`~repro.campaign.runner.CampaignOutcome` already holds;
:func:`analyze_records` serves records read from a store alone, and
parses each one's stored ``spec``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Sequence, Tuple

from repro.perf.energy import EnergyModel
from repro.perf.scaling import NtxSystemConfig
from repro.perf.technology import TECH_22FDX
from repro.scenarios.spec import ScenarioSpec

if TYPE_CHECKING:
    from repro.campaign.runner import CampaignOutcome
    from repro.system.config import SystemConfig

__all__ = ["PointAnalysis", "analyze_outcome", "analyze_records", "format_report"]

#: Throughput gain below which an added-cluster step counts as plateaued.
PLATEAU_GAIN = 0.05


@dataclass
class PointAnalysis:
    """One stored campaign point with measured and modelled figures."""

    name: str
    point_id: str
    series: str
    axes: Dict[str, Any]
    clusters: int
    vaults: int
    tiles: int
    engine: str
    makespan_cycles: float
    gflops: float
    utilization: float
    cache_hit_rate: float
    contention_factor: float
    wall_seconds: float
    simulated_cycles_per_second: float
    verified: bool
    #: Measured flop per DRAM byte (0 when the run moved no DMA bytes).
    operational_intensity: float
    #: Roofline bound at that intensity on this geometry, Gflop/s.
    model_bound_gflops: float
    #: Which roof binds: "compute" or "bandwidth".
    model_bound_by: str
    #: Analytic energy efficiency of an equally sized NTX system, Gop/s/W.
    model_efficiency_gops_w: float
    #: Work-normalized throughput ratio over the series' fewest-cluster
    #: point (equals the classic makespan speedup when the work is
    #: fixed; ideal = cluster ratio when the work grows with clusters).
    speedup: float = 1.0
    #: Speedup divided by the cluster ratio (1.0 = perfect scaling,
    #: strong or weak).
    parallel_efficiency: float = 1.0
    #: Whether this point gained < PLATEAU_GAIN throughput over the
    #: previous same-series point at the same vault count but fewer
    #: clusters — added clusters stopped paying.
    plateau: bool = False


def _series_key(spec: ScenarioSpec) -> str:
    """What makes two points the same workload swept across the machine.

    The tile count is deliberately excluded: a weak-scaling sweep grows
    it in lockstep with the cluster count, and its points must still
    form one scaling curve.
    """
    return json.dumps(
        {
            "family": spec.family,
            "params": spec.merged_params(),
            "engine": spec.engine,
            "seed": spec.seed,
        },
        sort_keys=True,
    )


@functools.lru_cache(maxsize=64)
def _system_config(
    num_vaults: int, clusters_per_vault: int, stagger_cycles: int
) -> SystemConfig:
    """The :meth:`ScenarioSpec.system_config` of every spec on one system
    geometry, built once: the roofs of a point depend on nothing else."""
    from repro.system.config import SystemConfig

    return SystemConfig(
        num_vaults=num_vaults,
        clusters_per_vault=clusters_per_vault,
        stagger_cycles=stagger_cycles,
    )


def _analyze_one(
    spec: ScenarioSpec, record: Dict[str, Any], energy: EnergyModel
) -> PointAnalysis:
    metrics = record["metrics"]
    config = _system_config(spec.num_vaults, spec.clusters_per_vault, spec.stagger_cycles)
    flops = float(metrics.get("total_flops", 0))
    dma_bytes = float(metrics.get("total_dma_bytes", 0))
    intensity = flops / dma_bytes if dma_bytes else 0.0

    compute_roof = config.peak_flops
    bandwidth_roof = (
        config.hmc_bandwidth_bytes_per_s * intensity if intensity else compute_roof
    )
    bound_flops = min(compute_roof, bandwidth_roof)
    bound_by = "bandwidth" if bandwidth_roof < compute_roof else "compute"

    efficiency = 0.0
    if intensity:
        system = NtxSystemConfig(
            technology=TECH_22FDX,
            num_clusters=config.num_clusters,
            ntx_per_cluster=config.cluster.num_ntx,
            training_intensity_flop_per_byte=intensity,
        )
        utilization = min(max(float(metrics.get("utilization", 0.0)), 0.0), 1.0)
        if utilization > 0:
            efficiency = energy.training_efficiency(
                system, intensity, utilization=utilization
            )

    wall = float(record.get("wall_seconds", 0.0))
    makespan = float(metrics["makespan_cycles"])
    return PointAnalysis(
        name=record.get("name", spec.name),
        point_id=record["point_id"],
        series=_series_key(spec),
        axes=dict(record.get("axes", {})),
        clusters=int(metrics["clusters"]),
        vaults=int(metrics["vaults"]),
        tiles=int(metrics["tiles"]),
        engine=spec.engine,
        makespan_cycles=makespan,
        gflops=float(metrics["gflops"]),
        utilization=float(metrics["utilization"]),
        cache_hit_rate=float(metrics.get("cache_hit_rate", 0.0)),
        contention_factor=float(metrics.get("contention_factor", 1.0)),
        wall_seconds=wall,
        simulated_cycles_per_second=makespan / wall if wall > 0 else 0.0,
        verified=bool(record.get("verified", False)),
        operational_intensity=intensity,
        model_bound_gflops=bound_flops / 1e9,
        model_bound_by=bound_by,
        model_efficiency_gops_w=efficiency,
    )


def analyze_records(records: Sequence[Dict[str, Any]]) -> List[PointAnalysis]:
    """Analyse stored records into scaling rows, series by series.

    Rows come back grouped by series and sorted by (vaults, clusters,
    tiles) within each series; speedups are work-normalized throughput
    ratios relative to the series' fewest-cluster row, and ``plateau``
    marks rows whose throughput gain over the previous same-vault-count
    row fell under :data:`PLATEAU_GAIN` despite added clusters.

    Each record's spec is parsed from its ``spec`` field: this serves
    records read back from a store.  A campaign run's records go through
    :func:`analyze_outcome`, which parses none.
    """
    return _analyze(
        (ScenarioSpec.from_dict(record["spec"]), record) for record in records
    )


def analyze_outcome(outcome: "CampaignOutcome") -> List[PointAnalysis]:
    """:func:`analyze_records` of a campaign run, with its expansion's specs."""
    return _analyze(
        (point.spec, record) for point, record in outcome.recorded_points()
    )


def _analyze(
    points: Iterable[Tuple[ScenarioSpec, Dict[str, Any]]]
) -> List[PointAnalysis]:
    """The routine of both: analyse ``(spec, record)`` pairs."""
    energy = EnergyModel()
    rows = [_analyze_one(spec, record, energy) for spec, record in points]
    by_series: Dict[str, List[PointAnalysis]] = {}
    for row in rows:
        by_series.setdefault(row.series, []).append(row)

    ordered: List[PointAnalysis] = []
    for series_rows in by_series.values():
        series_rows.sort(key=lambda r: (r.vaults, r.clusters, r.tiles))
        base = min(series_rows, key=lambda r: (r.clusters, r.vaults, r.tiles))
        previous: Dict[int, PointAnalysis] = {}
        for row in series_rows:
            if row.gflops > 0 and base.gflops > 0:
                row.speedup = row.gflops / base.gflops
                ratio = row.clusters / base.clusters if base.clusters else 1.0
                row.parallel_efficiency = row.speedup / ratio if ratio else 1.0
            before = previous.get(row.vaults)
            if before is not None and row.clusters > before.clusters:
                gain = (
                    (row.gflops - before.gflops) / before.gflops
                    if before.gflops
                    else 0.0
                )
                row.plateau = gain < PLATEAU_GAIN
            previous[row.vaults] = row
        ordered.extend(series_rows)
    return ordered


def _series_label(rows: List[PointAnalysis]) -> str:
    spec = json.loads(rows[0].series)
    params = ",".join(f"{k}={v}" for k, v in spec["params"].items())
    return f"family={spec['family']} engine={spec['engine']} {params}"


def format_report(rows: Sequence[PointAnalysis]) -> str:
    """Human-readable scaling report, one table per workload series."""
    if not rows:
        return "no stored campaign points (run the campaign first)"
    by_series: Dict[str, List[PointAnalysis]] = {}
    for row in rows:
        by_series.setdefault(row.series, []).append(row)

    lines: List[str] = []
    header = (
        f"{'point':34s} {'clstr':>5s} {'vault':>5s} {'tiles':>5s} "
        f"{'cycles':>9s} "
        f"{'Gflop/s':>8s} {'speedup':>7s} {'eff':>5s} {'hit':>5s} "
        f"{'I':>5s} {'roof':>8s} {'bound':>9s} {'Gop/s/W':>8s}"
    )
    for series_rows in by_series.values():
        lines.append(f"series {_series_label(series_rows)}")
        lines.append(header)
        for row in series_rows:
            plateau = " <- plateau" if row.plateau else ""
            knobs = ",".join(f"{k}={v}" for k, v in row.axes.items()) or row.name
            lines.append(
                f"{knobs:34s} {row.clusters:5d} {row.vaults:5d} "
                f"{row.tiles:5d} "
                f"{row.makespan_cycles:9.0f} {row.gflops:8.2f} "
                f"{row.speedup:6.2f}x {row.parallel_efficiency:5.2f} "
                f"{row.cache_hit_rate:5.2f} {row.operational_intensity:5.2f} "
                f"{row.model_bound_gflops:8.2f} {row.model_bound_by:>9s} "
                f"{row.model_efficiency_gops_w:8.1f}{plateau}"
            )
        plateaued = [row for row in series_rows if row.plateau]
        if plateaued:
            first = min(plateaued, key=lambda r: r.clusters)
            lines.append(
                f"  throughput plateaus from {first.clusters} clusters "
                f"({first.vaults} vault(s)): the "
                f"{first.model_bound_by} roof binds at "
                f"{first.model_bound_gflops:.2f} Gflop/s for the measured "
                f"intensity of {first.operational_intensity:.2f} flop/byte"
            )
        lines.append("")
    unverified = sum(1 for row in rows if not row.verified)
    lines.append(
        f"{len(rows)} points analysed, "
        f"{len(by_series)} workload series, "
        f"{'all' if not unverified else len(rows) - unverified} "
        f"verified against their golden models"
    )
    return "\n".join(lines)
