"""Tests of the benchmark's own arithmetic and bookkeeping.

They run no workload: percentiles, span nesting and self time, the layer
attribution with its unattributed residual, invariant-mismatch
accounting, and the agreement of the benchmark's invariants and metric
names with ``benchmarks/baseline.json`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict

import pytest

import layers

ROOT = Path(__file__).resolve().parents[1]


@dataclass
class FakeSpan:
    name: str
    ts_us: int
    dur_us: float
    args: Dict[str, Any] = field(default_factory=dict)


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert layers.percentile(values, 0) == 1.0
    assert layers.percentile(values, 100) == 4.0
    assert layers.percentile(values, 50) == pytest.approx(2.5)
    assert layers.percentile(values, 90) == pytest.approx(3.7)
    assert layers.percentile([7.0], 90) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        layers.percentile([], 50)
    with pytest.raises(ValueError):
        layers.percentile([1.0], 101)


def test_percentile_of_a_hundred_samples():
    values = [float(i) for i in range(1, 101)]
    assert layers.percentile(values, 50) == pytest.approx(50.5)
    assert layers.percentile(values, 90) == pytest.approx(90.1)


def _scenario_call():
    """A synthetic ``run_scenario`` call: 100 us, of which 60 us is scenario."""
    return [
        FakeSpan("bench.run_scenario", 1000, 100.0),
        FakeSpan("scenario", 1030, 60.0),
        FakeSpan("build-workload", 1031, 10.0),
        FakeSpan("schedule", 1042, 2.0),
        FakeSpan("batched-replay", 1045, 30.0),
        FakeSpan("tile-miss", 1046, 12.0),
        FakeSpan("batched-group", 1060, 8.0, {"tiles": 7}),
        FakeSpan("merge", 1076, 1.0),
        FakeSpan("verify", 1080, 5.0),
    ]


def test_span_forest_nests_by_interval():
    roots = layers.span_forest(_scenario_call())
    assert [root.name for root in roots] == ["bench.run_scenario"]
    (scenario,) = roots[0].children
    assert [child.name for child in scenario.children] == [
        "build-workload", "schedule", "batched-replay", "merge", "verify",
    ]
    replay = scenario.children[2]
    assert [child.name for child in replay.children] == ["tile-miss", "batched-group"]


def test_span_forest_tolerates_microsecond_truncation():
    # A child whose whole-microsecond start reads 1 us before its parent's.
    roots = layers.span_forest([FakeSpan("scenario", 100, 50.0), FakeSpan("verify", 99, 20.0)])
    assert len(roots) == 1 and roots[0].name == "scenario"
    assert [child.name for child in roots[0].children] == ["verify"]


def test_span_forest_keeps_sequential_roots_apart():
    roots = layers.span_forest([FakeSpan("a", 0, 10.0), FakeSpan("b", 20, 10.0)])
    assert [root.name for root in roots] == ["a", "b"]


def test_self_time_subtracts_direct_children_only():
    roots = layers.span_forest(_scenario_call())
    bench = roots[0]
    scenario = bench.children[0]
    replay = scenario.children[2]
    assert layers.self_seconds(bench) == pytest.approx(40e-6)
    assert layers.self_seconds(scenario) == pytest.approx((60 - 10 - 2 - 30 - 1 - 5) * 1e-6)
    assert layers.self_seconds(replay) == pytest.approx(10e-6)


def test_attribution_layers_plus_residual_equal_total():
    result = layers.attribute(layers.span_forest(_scenario_call()))
    assert result.total_s == pytest.approx(100e-6)
    assert result.layers["mem.setup_s"] == pytest.approx(40e-6)
    assert result.layers["cluster.sim_s"] == pytest.approx(12e-6)
    assert result.layers["batch.replay_s"] == pytest.approx(8e-6)
    assert result.layers["batch.plan_s"] == pytest.approx(10e-6)
    assert result.layers["scenarios.build_s"] == pytest.approx(10e-6)
    assert result.layers["scenarios.verify_s"] == pytest.approx(5e-6)
    # The scenario span's own 12 us belongs to no layer.
    assert result.unattributed_s == pytest.approx(12e-6)
    assert result.unattributed_frac == pytest.approx(0.12)
    assert result.attributed_s + result.unattributed_s == pytest.approx(result.total_s)


def test_attribution_of_report_call():
    spans = [
        FakeSpan("bench.generate_paper_results", 0, 1000.0),
        FakeSpan("report", 10, 900.0),
        FakeSpan("artifact", 20, 500.0),
        FakeSpan("campaign", 100, 300.0),
        FakeSpan("point", 110, 200.0),
        FakeSpan("scenario", 150, 150.0),
        FakeSpan("artifact", 600, 250.0),
    ]
    result = layers.attribute(layers.span_forest(spans))
    # artifact spans minus the points under them: 500 + 250 - 200
    assert result.layers["report.artifact_self_s"] == pytest.approx(550e-6)
    assert result.layers["report.render_s"] == pytest.approx(100e-6)
    assert result.layers["mem.setup_s"] == pytest.approx(50e-6)
    # report's own 150 us plus the unmapped scenario span's 150 us
    assert result.unattributed_s == pytest.approx(300e-6)


def test_attribution_accumulates():
    total = layers.Attribution()
    for _ in range(3):
        total.add(layers.attribute(layers.span_forest(_scenario_call())))
    assert total.total_s == pytest.approx(300e-6)
    assert total.unattributed_s == pytest.approx(36e-6)


def test_group_sizes_and_fallback_runs():
    roots = layers.span_forest(_scenario_call())
    assert layers.group_sizes(roots) == [7]
    assert layers.fallback_runs(roots) == 0
    fallback = [
        FakeSpan("scenario", 0, 100.0),
        FakeSpan("batched-replay", 5, 10.0),
        FakeSpan("cluster-tiles", 20, 30.0),
        FakeSpan("cluster-tiles", 55, 30.0),
    ]
    assert layers.fallback_runs(layers.span_forest(fallback)) == 1


def test_invariant_mismatches():
    expected = {"makespan_cycles": 892.0, "cache_hits": 7, "cache_misses": 1}
    assert layers.invariant_mismatches(
        {"makespan_cycles": 892.0000000000001, "cache_hits": 7, "cache_misses": 1}, expected
    ) == []
    problems = layers.invariant_mismatches({"makespan_cycles": 893.0, "cache_hits": 6}, expected)
    assert len(problems) == 3
    assert any(p.startswith("cache_misses: missing") for p in problems)


def test_tally_counts_mismatches_as_failures():
    tally = layers.Tally(keep=2)
    assert tally.record("ok", [])
    for index in range(3):
        assert not tally.record(f"bad-{index}", ["makespan_cycles: got 1, expected 2"])
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.failed_frac == pytest.approx(0.75)
    assert len(tally.reasons) == 2 and tally.reasons[0].startswith("bad-0: ")


def test_invariants_agree_with_bench_baseline():
    invariants = json.loads((ROOT / "perfbench" / "invariants.json").read_text())
    gates = json.loads((ROOT / "benchmarks" / "baseline.json").read_text())["gates"]
    checked = 0
    groups = (("scenario-", invariants["scenarios"]), ("campaign-", invariants["campaigns"]))
    for prefix, entries in groups:
        for name, entry in entries.items():
            gate = gates.get(prefix + name)
            if gate is None:
                continue
            lookups = entry["cache_hits"] + entry["cache_misses"]
            assert entry["makespan_cycles"] == pytest.approx(gate["simulated_cycles"])
            assert round(entry["cache_hits"] / lookups, 4) == pytest.approx(gate["cache_hit_rate"])
            checked += 1
    assert invariants["scenarios"]["conv-tiled"]["makespan_cycles"] == 892.0
    assert checked >= 15


def test_metric_names_match_benchmark_json():
    harness = pytest.importorskip("harness")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = harness.Results()
    op = harness.Op(label="x", wall_s=1.0, tiles=4, lookups=4, hits=3)
    results.untraced.append(op)
    results.traced.append(op)
    results.round_rates.append(4.0)
    e2e = harness.end_to_end(results, setup_s=0.5)
    assert sorted(e2e) == sorted(m["name"] for m in declared["end_to_end"])
    assert sorted(harness.per_layer(results)) == sorted(m["name"] for m in declared["per_layer"])
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert harness.unit(metric["name"]) == metric["unit"]
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(harness.WORKLOADS)


def test_span_forest_does_not_nest_a_short_span_that_follows():
    spans = [FakeSpan("batched-replay", 0, 100.0), FakeSpan("merge", 101, 2.0)]
    assert [root.name for root in layers.span_forest(spans)] == ["batched-replay", "merge"]
    spans = [FakeSpan("schedule", 0, 2.0), FakeSpan("batched-replay", 3, 100.0)]
    assert [root.name for root in layers.span_forest(spans)] == ["schedule", "batched-replay"]
