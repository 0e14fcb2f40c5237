"""The paper-artifact pipeline: registry errors, renderer snapshots,
campaign-backed artifact builds, the ``report`` CLI, warm-cache report
runs, and the regenerated-docs-are-clean acceptance check."""

import json
from pathlib import Path

import pytest

from repro.eval.__main__ import main as eval_main
from repro.report import (
    Artifact,
    ArtifactData,
    Section,
    ascii_bar_chart,
    generate_paper_results,
    generate_reference,
    get_artifact,
    heading_slug,
    iter_artifacts,
    markdown_table,
    register_artifact,
    registered_artifacts,
    render_artifact,
    render_document,
    report_payload,
    run_artifact,
    run_report,
)

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """One campaign-store directory shared by the whole module, so the
    heavy quick campaigns run once and every later build resumes."""
    return tmp_path_factory.mktemp("report-stores")


@pytest.fixture(scope="module")
def generated(tmp_path_factory, store_dir):
    """One full quick report generation (path, results)."""
    out = tmp_path_factory.mktemp("report-out") / "paper_results.md"
    path, results = generate_paper_results(
        path=out, quick=True, store_dir=store_dir
    )
    return path, results


class TestRegistry:
    def test_unknown_artifact_lists_valid_names(self):
        with pytest.raises(ValueError, match="table1"):
            get_artifact("does-not-exist")

    def test_shipped_artifacts_cover_the_paper(self):
        reproduced = {artifact.reproduces for artifact in iter_artifacts()}
        assert {
            "Table I",
            "Table II",
            "Figure 3(b)",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "§II-C",
            "§IV",
        } <= reproduced
        assert len(registered_artifacts()) >= 9

    def test_duplicate_registration_rejected(self):
        artifact = get_artifact("table1")
        with pytest.raises(ValueError, match="already registered"):
            register_artifact(artifact)
        assert register_artifact(artifact, replace=True) is artifact

    def test_artifact_campaigns_are_registered_campaigns(self):
        """An artifact can only declare campaigns the registry resolves."""
        from repro.campaign import registered_campaigns

        known = set(registered_campaigns())
        for artifact in iter_artifacts():
            assert set(artifact.campaigns) <= known, artifact.name

    def test_simulation_backed_artifacts_declare_campaigns(self):
        """Acceptance: every simulated table/figure goes through the
        campaign stack (run_campaign always verifies); only the purely
        analytic artifacts may skip it."""
        analytic = {"fig7", "precision"}
        for artifact in iter_artifacts():
            if artifact.name in analytic:
                assert not artifact.campaigns
            else:
                assert artifact.campaigns, artifact.name


class TestRenderer:
    def test_markdown_table_snapshot(self):
        table = markdown_table(
            ("kernel", "Gflop/s"), [("CONV 3x3", 17.38), ("AXPY 16", 0.1)]
        )
        assert table == (
            "| kernel | Gflop/s |\n"
            "| --- | --- |\n"
            "| CONV 3x3 | 17.38 |\n"
            "| AXPY 16 | 0.100 |"
        )

    def test_markdown_table_escapes_pipes(self):
        assert "\\|" in markdown_table(("a|b",), [("c|d",)])

    def test_ascii_bar_chart_snapshot(self):
        chart = ascii_bar_chart([("a", 2.0), ("bb", 1.0)], width=4)
        assert chart == ("a  | #### 2.00\nbb | ## 1.00")

    def test_ascii_bar_chart_handles_empty_and_zero(self):
        assert ascii_bar_chart([]) == ""
        assert "0" in ascii_bar_chart([("z", 0.0)])

    def test_heading_slug_matches_github_style(self):
        assert heading_slug("Table I — cluster figures of merit") == (
            "table-i--cluster-figures-of-merit"
        )
        assert heading_slug("§II-C — PCS study") == "ii-c--pcs-study"

    def test_document_toc_anchors_match_headings(self, generated):
        _, results = generated
        text = render_document(results, quick=True)
        for result in results:
            title = f"{result.artifact.reproduces} — {result.artifact.title}"
            assert f"(#{heading_slug(title)})" in text
            assert f"## {title}" in text

    def test_duplicate_headings_get_github_suffixes(self):
        """TOC anchors follow GitHub's -N duplicate-slug rule."""
        from repro.report import ArtifactResult

        def build(context):
            return ArtifactData(sections=[Section(title="Same title")])

        def result(name):
            artifact = Artifact(
                name=name,
                title="same title",
                reproduces="Same title",
                description="d",
                build=build,
            )
            return ArtifactResult(
                artifact=artifact, data=build(None), quick=True
            )

        text = render_document([result("a"), result("b")], quick=True)
        # Headings in order: "Same title — same title", "Same title",
        # "Same title — same title" (-1), "Same title" (-1); the TOC must
        # link the second artifact to the suffixed anchor.
        assert "(#same-title--same-title)" in text
        assert "(#same-title--same-title-1)" in text

    def test_chart_sections_render_fenced(self):
        artifact = Artifact(
            name="_tmp",
            title="t",
            reproduces="r",
            description="d",
            build=lambda context: ArtifactData(
                sections=[Section(title="s", chart="x | #")]
            ),
        )
        rendered = render_artifact(run_artifact(artifact))
        assert "```text\nx | #\n```" in rendered


class TestArtifacts:
    def test_every_artifact_builds_sections_and_payload(self, generated):
        _, results = generated
        assert len(results) == len(registered_artifacts())
        for result in results:
            assert result.data.sections, result.artifact.name
            assert result.data.payload, result.artifact.name

    def test_fig3b_measures_one_element_per_cycle(self, generated):
        _, results = generated
        fig3b = next(r for r in results if r.artifact.name == "fig3b")
        throughput = fig3b.data.payload["throughput"]
        from repro.core.commands import NtxOpcode

        assert {row["opcode"] for row in throughput} == {
            op.value for op in NtxOpcode
        }
        for row in throughput:
            assert row["verified"] is True
            assert row["cycles_per_element"] == pytest.approx(1.0, abs=0.15)

    def test_campaign_backed_artifacts_are_verified(self, store_dir):
        """Every record an artifact consumed came from a verified run."""
        from repro.report.artifact import ArtifactContext

        context = ArtifactContext(quick=True, store_dir=store_dir)
        for artifact in iter_artifacts():
            for name in artifact.campaigns:
                records = context.records(name)
                assert records, name
                assert all(record["verified"] for record in records)

    def test_report_payload_shape(self, generated):
        _, results = generated
        payload = report_payload(results)
        assert payload["quick"] is True
        assert set(payload["artifacts"]) == set(registered_artifacts())
        assert json.dumps(payload)  # JSON-serialisable end to end

    def test_generation_is_deterministic(self, generated, store_dir, tmp_path):
        """Acceptance: a second run (resuming the same stores) is a no-op."""
        first_path, _ = generated
        again, _ = generate_paper_results(
            path=tmp_path / "again.md", quick=True, store_dir=store_dir
        )
        assert again.read_text(encoding="utf-8") == first_path.read_text(
            encoding="utf-8"
        )

    def test_committed_results_document_is_clean(self, generated):
        """Acceptance: docs/paper_results.md matches a fresh regeneration."""
        path, _ = generated
        committed = (REPO / "docs" / "paper_results.md").read_text(
            encoding="utf-8"
        )
        assert committed == path.read_text(encoding="utf-8"), (
            "docs/paper_results.md is stale; run "
            "python -m repro.eval report --all --quick"
        )

    def test_reference_document_is_clean(self):
        """Acceptance: docs/reference.md matches the registries."""
        committed = (REPO / "docs" / "reference.md").read_text(encoding="utf-8")
        assert committed == generate_reference(), (
            "docs/reference.md is stale; run python scripts/generate_docs.py"
        )


class TestCli:
    def test_report_list(self, capsys):
        assert eval_main(["report", "--list"]) == 0
        out = capsys.readouterr().out
        for name in registered_artifacts():
            assert name in out

    def test_report_single_analytic_artifact(self, capsys):
        assert eval_main(["report", "fig7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "| platform |" in out

    def test_report_unknown_artifact_fails_cleanly(self, capsys):
        assert eval_main(["report", "does-not-exist"]) == 2
        err = capsys.readouterr().err
        assert "registered artifacts" in err

    def test_report_without_selection_fails_cleanly(self, capsys):
        assert eval_main(["report"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_report_rejects_all_plus_names(self, capsys):
        assert eval_main(["report", "fig7", "--all"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_report_all_full_mode_requires_explicit_output(self, capsys):
        """Full-mode numbers must never silently overwrite the committed
        quick-mode document."""
        assert eval_main(["report", "--all"]) == 2
        assert "--output" in capsys.readouterr().err

    def test_default_results_path_is_repo_anchored(self):
        from repro.report import DEFAULT_RESULTS_PATH

        assert DEFAULT_RESULTS_PATH == REPO / "docs" / "paper_results.md"

    def test_report_all_quick_smoke(self, tmp_path, store_dir, capsys):
        """Acceptance: report --all --quick assembles the document."""
        out = tmp_path / "paper_results.md"
        json_out = tmp_path / "report.json"
        assert eval_main(
            [
                "report",
                "--all",
                "--quick",
                "--output", str(out),
                "--json", str(json_out),
                "--store-dir", str(store_dir),
            ]
        ) == 0
        text = out.read_text(encoding="utf-8")
        for artifact in iter_artifacts():
            assert artifact.reproduces in text
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        assert set(payload["artifacts"]) == set(registered_artifacts())

    def test_epilog_lists_artifacts(self):
        from repro.eval.__main__ import _epilog

        epilog = _epilog()
        for name in registered_artifacts():
            assert name in epilog


class TestBenchSuite:
    def test_warm_cache_report_simulates_zero_points(self, tmp_path):
        """Acceptance: against a warm global cache, a report run into a
        brand-new store directory serves every campaign point without
        simulating — the shared campaigns run once *ever*."""
        import repro.report.artifact as artifact_mod

        outcomes = []
        original = artifact_mod.run_campaign

        def recording(name, **kwargs):
            outcome = original(name, **kwargs)
            outcomes.append(outcome)
            return outcome

        cache = tmp_path / "cache"
        artifact_mod.run_campaign = recording
        try:
            run_report(
                ["table2", "fig6"], quick=True,
                store_dir=tmp_path / "cold", cache_dir=cache,
            )
            cold = list(outcomes)
            outcomes.clear()
            run_report(
                ["table2", "fig6"], quick=True,
                store_dir=tmp_path / "warm", cache_dir=cache,
            )
        finally:
            artifact_mod.run_campaign = original
        assert sum(outcome.executed_points for outcome in cold) > 0
        assert outcomes and all(
            outcome.executed_points == 0 for outcome in outcomes
        )
        assert all(
            outcome.cached_points == len(outcome.points)
            for outcome in outcomes
        )

    def test_run_report_shares_one_context(self, store_dir):
        """table2 and fig6 both consume dnn-scaling: one campaign run."""
        calls = []
        from repro.campaign import run_campaign as real_run_campaign

        def counting(name, **kwargs):
            calls.append(name if isinstance(name, str) else name.name)
            return real_run_campaign(name, **kwargs)

        import repro.report.artifact as artifact_mod

        original = artifact_mod.run_campaign
        artifact_mod.run_campaign = counting
        try:
            run_report(["table2", "fig6"], quick=True, store_dir=store_dir)
        finally:
            artifact_mod.run_campaign = original
        assert calls == ["dnn-scaling"]


# The model-computed numbers of the table2/fig6 payloads (quick mode), pinned
# bit for bit: the rendered document rounds them.
TABLE2_MODEL_GEOMEANS = {
    "NTX (16x) 22FDX": 22.59400916883269,
    "NTX (32x) 22FDX": 30.041402682618674,
    "NTX (64x) 22FDX": 43.63290778954525,
    "NTX (16x) 14nm": 37.5430473985603,
    "NTX (32x) 14nm": 48.82179830120875,
    "NTX (64x) 14nm": 64.98762491157414,
    "NTX (128x) 14nm": 84.94658328508173,
    "NTX (256x) 14nm": 92.3210622714978,
    "NTX (512x) 14nm": 93.65339512408893,
}
TABLE2_SIMULATED_INTENSITY = [
    ("clusters_per_vault=1,num_tiles=2", 2, 2.8803827751196174, 14.773927906732808),
    ("clusters_per_vault=2,num_tiles=4", 4, 2.8803827751196174, 15.952320037638833),
    ("clusters_per_vault=4,num_tiles=8", 8, 2.8803827751196174, 16.61493701948909),
    ("clusters_per_vault=8,num_tiles=16", 16, 2.8803827751196174, 16.96732583210098),
]
FIG6_NTX_BARS = {
    "NTX (32x) 22FDX": 30.041402682618674,
    "NTX (64x) 14nm": 64.98762491157414,
}
FIG6_RATIOS = (2.5403460973963625, 3.1835626774452286)


class TestAnalyticArtifacts:
    def test_table2_and_fig6_share_one_workload_build(self, store_dir, monkeypatch):
        import repro.eval.table2 as table2_mod

        calls = []
        real_build = table2_mod.build_workloads

        def counting(*args, **kwargs):
            calls.append(args)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(table2_mod, "build_workloads", counting)
        results = {
            result.artifact.name: result.data.payload
            for result in run_report(["table2", "fig6"], quick=True, store_dir=store_dir)
        }
        assert len(calls) == 1

        table2 = results["table2"]
        assert {
            row["platform"]: row["model_geomean"]
            for row in table2["platforms"]
            if row["model_geomean"] != "-"
        } == TABLE2_MODEL_GEOMEANS
        assert [
            (
                row["point"],
                row["clusters"],
                row["operational_intensity"],
                row["model_efficiency_gops_w"],
            )
            for row in table2["simulated_intensity"]
        ] == TABLE2_SIMULATED_INTENSITY

        fig6 = results["fig6"]
        assert {
            name: value for name, value in fig6["bars"].items() if name.startswith("NTX")
        } == FIG6_NTX_BARS
        assert (fig6["ratio_22nm_vs_gpu"], fig6["ratio_14nm_vs_gpu"]) == FIG6_RATIOS
