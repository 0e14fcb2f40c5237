"""Tests for the ``python -m repro.eval`` command-line entry point."""

import pytest

from repro.campaign import get_campaign, registered_campaigns
from repro.eval.__main__ import main
from repro.report import registered_artifacts


def test_list_option_lists_the_artifact_registry(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in registered_artifacts():
        assert name in out


@pytest.mark.parametrize("name", registered_artifacts())
def test_bare_name_prints_what_report_prints(name, tmp_path, capsys):
    """One regeneration path: ``NAME`` and ``report NAME`` are the same
    command, down to the byte."""
    flags = ["--quick", "--store-dir", str(tmp_path)]
    assert main(["report", name, *flags]) == 0
    via_report = capsys.readouterr().out
    assert main([name, *flags]) == 0
    bare = capsys.readouterr().out
    assert bare == via_report
    assert bare.strip()


def test_single_artifact(tmp_path, capsys):
    assert main(["table1", "--quick", "--store-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "figures of merit" in out
    assert "peak_gflops" in out


def test_fast_subset_of_artifacts(tmp_path, capsys):
    assert main(["fig5", "fig7", "--quick", "--store-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "roofline" in out and "compute density" in out


def test_no_name_prints_every_artifact_and_writes_no_document(
    tmp_path, capsys, monkeypatch
):
    from repro.report import DEFAULT_RESULTS_PATH

    monkeypatch.chdir(tmp_path)
    stores = tmp_path / "stores"
    document_stamp = DEFAULT_RESULTS_PATH.stat().st_mtime_ns
    assert main(["--quick", "--store-dir", str(stores)]) == 0
    out = capsys.readouterr().out
    assert main(
        ["report", *registered_artifacts(), "--quick", "--store-dir", str(stores)]
    ) == 0
    assert capsys.readouterr().out == out
    assert "wrote" not in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stores"]
    assert DEFAULT_RESULTS_PATH.stat().st_mtime_ns == document_stamp


def test_rejects_unknown_artifact(capsys):
    assert main(["does-not-exist"]) == 2
    assert "registered artifacts" in capsys.readouterr().err


def test_retired_system_experiment_names_the_artifacts(capsys):
    """The old ``system`` experiment is the ``system-scaling`` artifact,
    with no alias."""
    assert main(["system"]) == 2
    err = capsys.readouterr().err
    for name in registered_artifacts():
        assert name in err


def test_scenario_list(capsys):
    from repro.scenarios import registered_scenarios

    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in registered_scenarios():
        assert name in out


def test_scenario_run(capsys):
    assert main(["scenario", "run", "matmul-tiled", "--tiles", "2"]) == 0
    out = capsys.readouterr().out
    assert "matmul-tiled" in out
    assert "verified against the golden model: ok" in out


def test_scenario_run_engine_override(capsys):
    assert main(
        ["scenario", "run", "conv-tiled", "--tiles", "1", "--engine", "scalar"]
    ) == 0
    out = capsys.readouterr().out
    assert "engine scalar" in out


def test_scenario_run_without_memoization(capsys):
    assert main(["scenario", "run", "conv-tiled", "--tiles", "2", "--no-memoize"]) == 0
    out = capsys.readouterr().out
    assert "cache hit rate 0.00" in out
    assert "verified against the golden model: ok" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "run", "conv-tiled", "--parallel", "2"],
        ["scenario", "run", "conv-tiled", "--no-batch"],
        ["system-scaling", "--parallel", "2"],
        ["system-scaling", "--no-batch"],
        ["campaign", "run", "dnn-scaling", "--no-batch"],
        ["campaign", "run", "dnn-scaling", "--workers", "2"],
        ["campaign", "run", "dnn-scaling", "--shard", "0/2"],
        ["report", "--all", "--quick", "--workers", "2"],
        ["submit", "scenario", "conv-tiled", "--parallel", "2"],
    ],
)
def test_retired_execution_flags_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["submit", "scenario", "conv-tiled"], "registered artifacts"),
        (["submit", "campaign", "dnn-scaling", "--wait"], "unrecognized arguments"),
        (["campaign", "merge", "--output", "m.jsonl", "a.jsonl"], "invalid choice"),
    ],
)
def test_retired_subcommands_rejected(argv, message, capsys):
    """The daemon's ``submit`` and the shard ``campaign merge`` are gone:
    each is an unknown choice that exits 2 before anything runs."""
    try:
        code = main(argv)
    except SystemExit as exit_info:
        code = exit_info.code
    assert code == 2
    assert message in capsys.readouterr().err


def test_scenario_run_unknown_name_fails_cleanly(capsys):
    assert main(["scenario", "run", "does-not-exist"]) == 2
    err = capsys.readouterr().err
    assert "registered scenarios" in err


def test_epilog_is_generated_from_the_registries():
    """Satellite: the CLI help can never drift from the registries."""
    from repro.cluster.engine import available_engines
    from repro.eval.__main__ import _epilog
    from repro.scenarios import registered_scenarios

    epilog = _epilog()
    for name in registered_artifacts():
        assert name in epilog
    for name in available_engines():
        assert name in epilog
    for name in registered_scenarios():
        assert name in epilog
    for name in registered_campaigns():
        assert name in epilog


def test_campaign_list(capsys):
    assert main(["campaign", "list"]) == 0
    out = capsys.readouterr().out
    for name in registered_campaigns():
        assert name in out


def test_campaign_run_report_and_resume(tmp_path, capsys):
    store = str(tmp_path / "dnn.jsonl")
    assert main(
        ["campaign", "run", "dnn-scaling", "--quick", "--store", store]
    ) == 0
    out = capsys.readouterr().out
    assert "4 points, 0 resumed from the store, 4 executed" in out
    assert "plateau" in out or "points analysed" in out

    # Acceptance: rerunning the same command skips every completed point.
    assert main(
        ["campaign", "run", "dnn-scaling", "--quick", "--store", store]
    ) == 0
    out = capsys.readouterr().out
    assert "4 resumed from the store, 0 executed" in out

    assert main(
        ["campaign", "report", "dnn-scaling", "--quick", "--store", store]
    ) == 0
    out = capsys.readouterr().out
    assert "points analysed" in out


def test_campaign_report_without_store_fails_cleanly(tmp_path, capsys):
    store = str(tmp_path / "missing.jsonl")
    assert main(
        ["campaign", "report", "dnn-scaling", "--quick", "--store", store]
    ) == 1
    out = capsys.readouterr().out
    assert "run the campaign" in out


def test_campaign_unknown_name_fails_cleanly(capsys):
    assert main(["campaign", "run", "does-not-exist"]) == 2
    err = capsys.readouterr().err
    assert "registered campaigns" in err


def test_campaign_run_with_cache_dir_serves_fresh_stores(tmp_path, capsys):
    """Acceptance: a warm global cache eliminates re-simulation even
    into a brand-new store, and the summary says so explicitly."""
    cache = str(tmp_path / "cache")
    cold = ["campaign", "run", "dnn-scaling", "--quick", "--cache-dir", cache]
    assert main(cold + ["--store", str(tmp_path / "a.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "0 from the global cache, 4 executed" in out

    assert main(cold + ["--store", str(tmp_path / "b.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "4 points, 0 resumed from the store, 4 from the global cache, 0 executed" in out


def test_campaign_summary_without_cache_is_unchanged(tmp_path, capsys):
    """The no-cache summary line stays byte-compatible (no cache clause)."""
    store = str(tmp_path / "dnn.jsonl")
    assert main(["campaign", "run", "dnn-scaling", "--quick", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "4 points, 0 resumed from the store, 4 executed" in out
    assert "global cache" not in out


def test_campaign_max_points_then_resume(tmp_path, capsys):
    """A capped run leaves the rest pending; the next run resumes the
    stored points and executes only the remainder."""
    store = str(tmp_path / "s.jsonl")
    run = ["campaign", "run", "dnn-scaling", "--quick", "--store", store]
    assert main(run + ["--max-points", "2"]) == 0
    out = capsys.readouterr().out
    assert "4 points, 0 resumed from the store, 2 executed" in out
    assert main(run) == 0
    out = capsys.readouterr().out
    assert "4 points, 2 resumed from the store, 2 executed" in out


@pytest.mark.parametrize("name", registered_campaigns())
def test_every_campaign_runs_quick_and_resumes_from_its_store(
    name, tmp_path, capsys
):
    count = len(get_campaign(name).for_quick().expand())
    run = ["campaign", "run", name, "--quick", "--store", str(tmp_path / "s.jsonl")]
    assert main(run) == 0
    out = capsys.readouterr().out
    assert f"{count} points, 0 resumed from the store, {count} executed" in out
    assert main(run) == 0
    out = capsys.readouterr().out
    assert f"{count} points, {count} resumed from the store, 0 executed" in out


def test_closed_stdout_ends_quietly_with_a_complete_store(tmp_path):
    """``campaign run NAME | head -1``: a reader that closes stdout early
    ends the command with status 0, an empty stderr (no BrokenPipeError
    traceback) and every point of the campaign in its store."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from repro.campaign.store import ResultStore

    src = Path(__file__).resolve().parents[1] / "src"
    store = tmp_path / "sweep.jsonl"
    command = [
        sys.executable, "-m", "repro.eval", "campaign", "run", "conv-geometry-sweep",
        "--quick", "-q", "--store", str(store),
    ]
    with subprocess.Popen(
        command,
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        proc.stdout.close()  # the reader is gone before the first write
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert stderr == b""
    campaign = get_campaign("conv-geometry-sweep").for_quick()
    assert len(ResultStore(store).records()) == len(campaign.expand())
