"""The benchmark harness: schema validity, deterministic metrics, baseline
gating semantics and the ``python -m repro.bench`` CLI round trip."""

import copy
import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    compare_documents,
    derive_baseline,
    format_document,
    format_report,
    run_suite,
    validate_document,
)
from repro.bench.__main__ import main as bench_main


@pytest.fixture(scope="module")
def quick_documents():
    """One quick run of every suite, shared by the whole module."""
    return [
        run_suite("system", quick=True),
        run_suite("cluster", quick=True),
        run_suite("scenarios", quick=True),
        run_suite("campaigns", quick=True),
        run_suite("report", quick=True),
        run_suite("cache", quick=True),
        run_suite("obs", quick=True),
    ]


class TestRunner:
    def test_documents_are_schema_valid(self, quick_documents):
        for document in quick_documents:
            assert validate_document(document) == []

    def test_system_suite_scenarios(self, quick_documents):
        system = quick_documents[0]
        names = [scenario["name"] for scenario in system["scenarios"]]
        assert names == ["system-sequential", "system-batched"]
        by_name = {s["name"]: s for s in system["scenarios"]}
        # Both variants simulate the same machine: identical cycles.
        cycles = {s["simulated_cycles"] for s in system["scenarios"]}
        assert len(cycles) == 1
        assert by_name["system-batched"]["cache_hit_rate"] > 0.9
        assert by_name["system-batched"]["speedup_vs_sequential"] > 0

    def test_cluster_suite_scenarios(self, quick_documents):
        cluster = quick_documents[1]
        names = [scenario["name"] for scenario in cluster["scenarios"]]
        assert names == ["cluster-conv-vectorized"]
        assert cluster["scenarios"][0]["simulated_cycles"] > 0

    def test_scenarios_suite_covers_every_registered_scenario(self, quick_documents):
        """Satellite: registered scenarios are perf-gated automatically."""
        from repro.scenarios import registered_scenarios

        scenarios_doc = quick_documents[2]
        names = [scenario["name"] for scenario in scenarios_doc["scenarios"]]
        assert names == [f"scenario-{name}" for name in registered_scenarios()]
        for scenario in scenarios_doc["scenarios"]:
            assert scenario["simulated_cycles"] > 0
            assert 0.0 <= scenario["cache_hit_rate"] <= 1.0

    def test_campaigns_suite_covers_every_registered_campaign(self, quick_documents):
        """A registered campaign is perf-gated automatically."""
        from repro.campaign import get_campaign, registered_campaigns

        campaigns_doc = quick_documents[3]
        names = [scenario["name"] for scenario in campaigns_doc["scenarios"]]
        assert names == [f"campaign-{name}" for name in registered_campaigns()]
        for scenario, name in zip(campaigns_doc["scenarios"], registered_campaigns()):
            assert scenario["simulated_cycles"] > 0
            assert 0.0 <= scenario["cache_hit_rate"] <= 1.0
            expected = len(get_campaign(name).for_quick().expand())
            assert scenario["points"] == expected

    def test_cache_suite_warm_pass_serves_every_point(self, quick_documents):
        """Acceptance: the warm pass of the cache suite simulates nothing
        — a hit rate below 1.0 is a cache defect, not a perf number."""
        cache_doc = quick_documents[5]
        names = [scenario["name"] for scenario in cache_doc["scenarios"]]
        assert names == ["cache-cold", "cache-warm"]
        cold, warm = cache_doc["scenarios"]
        assert cold["points"] == warm["points"] > 0
        # The cold and warm passes simulate the identical design space.
        assert warm["simulated_cycles"] == cold["simulated_cycles"] > 0
        assert warm["cache_hit_rate"] == 1.0
        assert warm["speedup_vs_cold"] > 1.0

    def test_obs_suite_never_perturbs_results(self, quick_documents):
        """Acceptance: enabling instrumentation must not move a cycle."""
        obs_doc = quick_documents[6]
        names = [scenario["name"] for scenario in obs_doc["scenarios"]]
        assert names == ["obs-off", "obs-overhead"]
        off, overhead = obs_doc["scenarios"]
        assert overhead["simulated_cycles"] == off["simulated_cycles"] > 0
        assert overhead["overhead_ratio"] > 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonexistent")

    def test_format_document_mentions_every_scenario(self, quick_documents):
        for document in quick_documents:
            rendered = format_document(document)
            for scenario in document["scenarios"]:
                assert scenario["name"] in rendered


class TestSchema:
    def test_rejects_non_object(self):
        assert validate_document([]) != []

    def test_rejects_wrong_version_and_suite(self):
        problems = validate_document(
            {"schema_version": 99, "suite": "bogus", "quick": True, "scenarios": []}
        )
        assert any("schema_version" in p for p in problems)
        assert any("suite" in p for p in problems)
        assert any("scenarios" in p for p in problems)

    def test_rejects_missing_and_invalid_metrics(self):
        document = {
            "schema_version": SCHEMA_VERSION,
            "suite": "system",
            "quick": True,
            "scenarios": [
                {"name": "a", "wall_time_s": 0.1, "simulated_cycles": 10},
                {"name": "a", "wall_time_s": -1, "simulated_cycles": 10,
                 "cycles_per_second": 1, "cache_hit_rate": 2.0},
            ],
        }
        problems = validate_document(document)
        assert any("missing numeric cycles_per_second" in p for p in problems)
        assert any("duplicates scenario name" in p for p in problems)
        assert any("invalid wall_time_s" in p for p in problems)
        assert any("invalid cache_hit_rate" in p for p in problems)


class TestCompare:
    def test_self_comparison_passes(self, quick_documents):
        baseline = derive_baseline(quick_documents)
        checks, problems = compare_documents(baseline, quick_documents)
        assert problems == []
        assert checks, "baseline produced no gated metrics"
        assert not any(check.regressed for check in checks)

    def test_regression_detected(self, quick_documents):
        baseline = derive_baseline(quick_documents)
        worse = copy.deepcopy(quick_documents)
        for scenario in worse[0]["scenarios"]:
            scenario["simulated_cycles"] *= 2  # >25% worse
        checks, problems = compare_documents(baseline, worse)
        assert problems == []
        regressed = [check for check in checks if check.regressed]
        assert regressed
        assert all(check.metric == "simulated_cycles" for check in regressed)
        assert "REGRESSION" in format_report(checks, problems)

    def test_improvement_is_not_a_regression(self, quick_documents):
        baseline = derive_baseline(quick_documents)
        better = copy.deepcopy(quick_documents)
        for scenario in better[0]["scenarios"]:
            scenario["simulated_cycles"] = max(
                1, scenario["simulated_cycles"] // 2
            )
        checks, _ = compare_documents(baseline, better)
        assert not any(check.regressed for check in checks)

    def test_missing_scenario_is_an_error(self, quick_documents):
        baseline = derive_baseline(quick_documents)
        partial = [copy.deepcopy(quick_documents[1])]  # cluster only
        _, problems = compare_documents(baseline, partial)
        assert any("missing from current results" in p for p in problems)

    def test_missing_metric_is_an_error(self, quick_documents):
        baseline = derive_baseline(quick_documents)
        stripped = copy.deepcopy(quick_documents)
        for scenario in stripped[0]["scenarios"]:
            scenario.pop("cache_hit_rate", None)
        _, problems = compare_documents(baseline, stripped)
        assert any("no longer reports" in p for p in problems)

    def test_tolerance_override(self, quick_documents):
        baseline = derive_baseline(quick_documents)
        slightly_worse = copy.deepcopy(quick_documents)
        for scenario in slightly_worse[0]["scenarios"]:
            scenario["simulated_cycles"] = int(
                scenario["simulated_cycles"] * 1.10
            )
        lax, _ = compare_documents(baseline, slightly_worse, tolerance=0.25)
        strict, _ = compare_documents(baseline, slightly_worse, tolerance=0.05)
        assert not any(c.regressed for c in lax)
        assert any(c.regressed for c in strict)

    def test_empty_baseline_rejected(self, quick_documents):
        _, problems = compare_documents({"gates": {}}, quick_documents)
        assert problems == ["baseline has no gates"]

    def test_unknown_gated_metric_is_reported_not_raised(self, quick_documents):
        """A hand-edited baseline gating a directionless metric must produce
        a clean problem line, not an unhandled exception."""
        baseline = derive_baseline(quick_documents)
        baseline["gates"]["system-batched"]["workers"] = 2
        checks, problems = compare_documents(baseline, quick_documents)
        assert any("unknown metric 'workers'" in p for p in problems)
        assert checks  # the well-formed gates were still evaluated


class TestCli:
    def test_run_and_compare_round_trip(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        exit_code = bench_main(
            [
                "--quick",
                "--suite", "cluster",
                "--output-dir", str(tmp_path),
                "--write-baseline", str(baseline_path),
            ]
        )
        assert exit_code == 0
        bench_path = tmp_path / "BENCH_cluster.json"
        assert bench_path.is_file()
        document = json.loads(bench_path.read_text(encoding="utf-8"))
        assert validate_document(document) == []
        assert baseline_path.is_file()

        assert (
            bench_main(
                [
                    "compare",
                    "--baseline", str(baseline_path),
                    str(bench_path),
                ]
            )
            == 0
        )

        # Tampered results must fail the gate.
        document["scenarios"][0]["simulated_cycles"] *= 10
        bad_path = tmp_path / "BENCH_bad.json"
        bad_path.write_text(json.dumps(document), encoding="utf-8")
        assert (
            bench_main(
                ["compare", "--baseline", str(baseline_path), str(bad_path)]
            )
            == 1
        )

    def test_committed_baseline_gates_a_fresh_quick_run(self, quick_documents):
        """The in-repo benchmarks/baseline.json must accept a healthy run."""
        from pathlib import Path

        baseline_file = (
            Path(__file__).resolve().parent.parent / "benchmarks" / "baseline.json"
        )
        baseline = json.loads(baseline_file.read_text(encoding="utf-8"))
        checks, problems = compare_documents(baseline, quick_documents)
        assert problems == []
        deterministic = [
            c for c in checks if c.metric in ("simulated_cycles", "cache_hit_rate")
        ]
        assert deterministic
        assert not any(c.regressed for c in deterministic)


class TestBaselineScript:
    def test_dry_run_prints_the_gate_diff_without_writing(self, capsys):
        """Satellite: --dry-run categorises added/removed/changed gates
        and leaves benchmarks/baseline.json untouched."""
        import importlib.util
        from pathlib import Path

        script = (
            Path(__file__).resolve().parent.parent
            / "scripts"
            / "update_bench_baseline.py"
        )
        spec = importlib.util.spec_from_file_location("update_bench_baseline", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        before = module.BASELINE.read_text(encoding="utf-8")
        assert module.main(["--dry-run", "--suite", "cluster"]) == 0
        out = capsys.readouterr().out
        assert "(dry run: baseline not written)" in out
        assert "gate(s) added" in out and "unchanged" in out
        assert "cluster-conv-vectorized/simulated_cycles" in out
        assert module.BASELINE.read_text(encoding="utf-8") == before