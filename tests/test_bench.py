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
def campaigns_run():
    """One quick ``campaigns`` suite run with the metrics registry on.

    Returns the document and the campaign points the run accounted for,
    by ``repro_campaign_points_total`` outcome.
    """
    from repro.obs.metrics import REGISTRY

    was_metered = REGISTRY.enabled
    REGISTRY.set_enabled(True)
    REGISTRY.reset()
    try:
        document = run_suite("campaigns", quick=True)
        points = REGISTRY.get("repro_campaign_points_total")
        outcomes = {
            outcome: points.value(outcome=outcome)
            for outcome in ("executed", "cached", "resumed")
        }
    finally:
        REGISTRY.set_enabled(was_metered)
        REGISTRY.reset()
    return document, outcomes


@pytest.fixture(scope="module")
def quick_documents(campaigns_run):
    """One quick run of every suite, shared by the whole module."""
    return [
        run_suite("system", quick=True),
        run_suite("cluster", quick=True),
        run_suite("scenarios", quick=True),
        campaigns_run[0],
        run_suite("obs", quick=True),
    ]


def _quick_points(campaign_names):
    from repro.campaign import get_campaign

    return sum(
        len(get_campaign(name).for_quick().expand()) for name in campaign_names
    )


def _entries(document, prefix):
    return [s for s in document["scenarios"] if s["name"].startswith(prefix)]


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
        # Same-run ratio against the Python reference loop (the suite
        # also checks that both loops report the identical result).
        assert cluster["scenarios"][0]["speedup_vs_reference"] > 0

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

        entries = _entries(quick_documents[3], "campaign-")
        names = [scenario["name"] for scenario in entries]
        assert names == [f"campaign-{name}" for name in registered_campaigns()]
        for scenario, name in zip(entries, registered_campaigns()):
            assert scenario["simulated_cycles"] > 0
            assert 0.0 <= scenario["cache_hit_rate"] <= 1.0
            expected = len(get_campaign(name).for_quick().expand())
            assert scenario["points"] == expected

    def test_campaigns_suite_reports_every_campaign_backed_artifact(
        self, quick_documents
    ):
        """Each ``report-*`` gate aggregates exactly the campaigns its
        artifact declares, so it matches those ``campaign-*`` gates."""
        from repro.report import iter_artifacts

        document = quick_documents[3]
        campaigns = {s["name"]: s for s in _entries(document, "campaign-")}
        reports = _entries(document, "report-")
        backed = [a for a in iter_artifacts() if a.campaigns]
        assert [s["name"] for s in reports] == [f"report-{a.name}" for a in backed]
        for scenario, artifact in zip(reports, backed):
            assert scenario["simulated_cycles"] > 0
            assert scenario["points"] >= 2
            consumed = [campaigns[f"campaign-{name}"] for name in artifact.campaigns]
            assert scenario["simulated_cycles"] == sum(
                c["simulated_cycles"] for c in consumed
            )
            assert scenario["points"] == sum(c["points"] for c in consumed)

    def test_campaigns_suite_warm_pass_serves_every_point(self, quick_documents):
        """Acceptance: the warm pass of the campaigns suite simulates
        nothing — a hit rate below 1.0 is a cache defect, not a perf number."""
        document = quick_documents[3]
        cache = _entries(document, "cache-")
        assert [scenario["name"] for scenario in cache] == ["cache-cold", "cache-warm"]
        cold, warm = cache
        assert cold["points"] == warm["points"] > 0
        # The cold and warm passes simulate the identical design space.
        assert warm["simulated_cycles"] == cold["simulated_cycles"] > 0
        assert cold["simulated_cycles"] == sum(
            s["simulated_cycles"] for s in _entries(document, "campaign-")
        )
        assert warm["cache_hit_rate"] == 1.0
        assert warm["speedup_vs_cold"] > 1.0

    def test_campaigns_suite_simulates_each_point_once(self, campaigns_run):
        """One suite run executes every quick campaign point exactly once:
        the cold pass simulates them all, the report resumes each
        artifact's campaigns from the cold stores and the warm pass is
        served whole by the cache."""
        from repro.campaign import registered_campaigns
        from repro.report import iter_artifacts

        _, outcomes = campaigns_run
        total = _quick_points(registered_campaigns())
        assert total == 45
        reported = {name for a in iter_artifacts() for name in a.campaigns}
        assert outcomes == {
            "executed": total,
            "cached": total,
            "resumed": _quick_points(reported),
        }

    def test_campaigns_suite_ignores_the_ambient_result_cache(
        self, tmp_path, monkeypatch
    ):
        """``$REPRO_CACHE_DIR`` neither serves nor receives bench points:
        a pre-warmed cache there leaves every point executed and the
        cache byte-for-byte untouched."""
        from repro.campaign import (
            CACHE_DIR_ENV,
            GlobalResultCache,
            registered_campaigns,
            run_campaign,
        )
        from repro.obs.metrics import REGISTRY
        from repro.options import ExecutionOptions

        ambient = tmp_path / "ambient-cache"
        run_campaign(
            "cluster-anchor",
            store_path=tmp_path / "prewarm.jsonl",
            options=ExecutionOptions(quick=True),
            cache=GlobalResultCache(ambient),
        )

        def snapshot():
            return {p.name: p.read_bytes() for p in ambient.glob("shard-*.jsonl")}

        before = snapshot()
        assert GlobalResultCache(ambient).entries() == 2
        monkeypatch.setenv(CACHE_DIR_ENV, str(ambient))
        REGISTRY.set_enabled(True)
        REGISTRY.reset()
        run_suite("campaigns", quick=True)
        executed = REGISTRY.get("repro_campaign_points_total").value(
            outcome="executed"
        )
        assert executed == _quick_points(registered_campaigns())
        assert snapshot() == before

    def test_obs_suite_never_perturbs_results(self, quick_documents):
        """Acceptance: enabling instrumentation must not move a cycle.

        The suite emits only ``obs-overhead``; its instrumented run is the
        ``system-batched`` workload, so the cycles must match that gate.
        """
        obs_doc = quick_documents[4]
        names = [scenario["name"] for scenario in obs_doc["scenarios"]]
        assert names == ["obs-overhead"]
        (overhead,) = obs_doc["scenarios"]
        batched = next(
            s for s in quick_documents[0]["scenarios"] if s["name"] == "system-batched"
        )
        assert overhead["simulated_cycles"] == batched["simulated_cycles"] > 0
        assert overhead["overhead_ratio"] > 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonexistent")

    @pytest.mark.parametrize("retired", ["report", "cache"])
    def test_retired_suites_rejected(self, retired):
        """The ``campaigns`` suite emits the ``report-``/``cache-`` gates;
        the suites that re-simulated them are gone everywhere."""
        with pytest.raises(SystemExit) as exit_info:
            bench_main(["--quick", "--suite", retired])
        assert exit_info.value.code == 2
        document = {
            "schema_version": SCHEMA_VERSION,
            "suite": retired,
            "quick": True,
            "scenarios": [],
        }
        assert any("suite" in p for p in validate_document(document))

    def test_format_document_mentions_every_scenario(self, quick_documents):
        for document in quick_documents:
            rendered = format_document(document)
            for scenario in document["scenarios"]:
                assert scenario["name"] in rendered

    def test_format_document_prints_every_gated_figure(self):
        """The summary shows each number a gate checks, so a CI log of a
        failed ``compare`` already holds the measured value."""
        document = {
            "suite": "campaigns",
            "quick": True,
            "scenarios": [
                {
                    "name": "gated",
                    "wall_time_s": 0.5,
                    "simulated_cycles": 1000.0,
                    "cycles_per_second": 2000.0,
                    "cache_hit_rate": 0.75,
                    "speedup_vs_sequential": 3.0,
                    "speedup_vs_cold": 25.0,
                    "overhead_ratio": 1.004,
                    "points": 37,
                }
            ],
        }
        rendered = format_document(document)
        for figure in (
            "hit 0.75",
            "speedup 3.0x",
            "speedup_vs_cold 25.0x",
            "overhead_ratio 1.004",
            "points 37",
        ):
            assert figure in rendered


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

    def test_hand_set_gate_is_carried_over_not_derived(self, quick_documents):
        """``speedup_vs_reference`` is gated by hand; a refresh keeps it."""
        derived = derive_baseline(quick_documents)
        assert "speedup_vs_reference" not in derived["gates"]["cluster-conv-vectorized"]
        previous = {"gates": {"cluster-conv-vectorized": {"speedup_vs_reference": 5.0}}}
        refreshed = derive_baseline(quick_documents, previous=previous)
        gate = refreshed["gates"]["cluster-conv-vectorized"]
        assert gate["speedup_vs_reference"] == 5.0

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


def _load_baseline_script():
    import importlib.util
    from pathlib import Path

    script = (
        Path(__file__).resolve().parent.parent / "scripts" / "update_bench_baseline.py"
    )
    spec = importlib.util.spec_from_file_location("update_bench_baseline", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBaselineScript:
    def test_dry_run_prints_the_gate_diff_without_writing(self, capsys):
        """Satellite: --dry-run categorises added/removed/changed gates
        and leaves benchmarks/baseline.json untouched."""
        module = _load_baseline_script()
        before = module.BASELINE.read_text(encoding="utf-8")
        assert module.main(["--dry-run", "--suite", "cluster"]) == 0
        out = capsys.readouterr().out
        assert "(dry run: baseline not written)" in out
        assert "gate(s) added" in out and "unchanged" in out
        assert "cluster-conv-vectorized/simulated_cycles" in out
        assert module.BASELINE.read_text(encoding="utf-8") == before

    def test_campaigns_refresh_drops_stale_gates_of_all_its_prefixes(
        self, tmp_path, monkeypatch, capsys, campaigns_run
    ):
        """``--suite campaigns`` owns the ``campaign-``, ``report-`` and
        ``cache-`` gates: stale ones under each prefix go, other suites'
        gates stay."""
        module = _load_baseline_script()
        committed = json.loads(module.BASELINE.read_text(encoding="utf-8"))
        stale = {"campaign-gone", "report-gone", "cache-gone"}
        for name in stale:
            committed["gates"][name] = {"simulated_cycles": 1}
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(committed), encoding="utf-8")
        monkeypatch.setattr(module, "REPO", tmp_path)
        monkeypatch.setattr(module, "BASELINE", baseline)
        monkeypatch.setattr(
            module, "run_suites", lambda suites, quick: [campaigns_run[0]]
        )

        assert module.main(["--suite", "campaigns"]) == 0
        capsys.readouterr()
        gates = json.loads(baseline.read_text(encoding="utf-8"))["gates"]
        assert not stale & set(gates)
        assert set(gates) == set(committed["gates"]) - stale
