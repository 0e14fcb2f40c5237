"""The simulation-as-a-service daemon and the unified ExecutionOptions
API: options round-trip/validation/legacy parity, submission parsing and
content-hash identity, end-to-end submit/poll/result over a real socket,
concurrent-client dedup with bit-identical results, cancel-and-resume,
kill-and-restart recovery, and the SIGTERM path of the CLI entry point."""

import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.campaign import ResultStore, SweepSpec
from repro.client import Client, ServerError
from repro.options import ExecutionOptions
from repro.scenarios import ScenarioSpec, run_scenario
from repro.server import JobError, ReproServer, parse_submission
from repro.server.jobs import JobManager
from repro.system import SystemConfig, SystemSimulator


def tiny_spec(**overrides) -> ScenarioSpec:
    """A conv scenario small enough to simulate many times per test."""
    settings = dict(
        name="tiny-conv",
        family="conv",
        params={"image_shape": (8, 10)},
        num_tiles=2,
        num_vaults=1,
        clusters_per_vault=1,
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


def tiny_sweep(**overrides) -> SweepSpec:
    """A 4-point sweep over the tile count (resumable point by point)."""
    settings = dict(
        name="tiny-server-sweep",
        description="test sweep",
        base=tiny_spec(),
        axes={"num_tiles": (1, 2, 3, 4)},
    )
    settings.update(overrides)
    return SweepSpec(**settings)


@pytest.fixture()
def server(tmp_path):
    """One in-process daemon on an ephemeral port, torn down after."""
    instance = ReproServer(port=0, workers=2, store_dir=tmp_path / "store")
    instance.start()
    yield instance
    instance.close()


class TestExecutionOptions:
    def test_defaults(self):
        options = ExecutionOptions()
        assert options.engine is None
        assert options.memoize is True
        assert options.workers == 0
        assert options.quick is False

    def test_dict_round_trip(self):
        options = ExecutionOptions(
            engine="scalar", memoize=False, workers=3, quick=True,
        )
        assert ExecutionOptions.from_dict(options.to_dict()) == options

    def test_json_round_trip(self):
        options = ExecutionOptions(workers=1, quick=True)
        assert ExecutionOptions.from_json(options.to_json()) == options

    def test_from_dict_missing_fields_default(self):
        assert ExecutionOptions.from_dict({}) == ExecutionOptions()
        assert ExecutionOptions.from_dict({"quick": True}).quick is True

    def test_from_dict_unknown_field_lists_accepted(self):
        with pytest.raises(ValueError, match="turbo.*accepted"):
            ExecutionOptions.from_dict({"turbo": True})

    @pytest.mark.parametrize("retired", ["parallel", "batch"])
    def test_retired_fields_rejected(self, retired):
        """Worker dispatch and the batch switch are gone, not ignored."""
        with pytest.raises(ValueError, match=retired):
            ExecutionOptions.from_dict({retired: 2})
        with pytest.raises(TypeError):
            ExecutionOptions(**{retired: 2})

    def test_unknown_engine_lists_choices(self):
        with pytest.raises(ValueError, match="warp"):
            ExecutionOptions(engine="warp")

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ExecutionOptions(workers=-1)

    def test_non_bool_flags_rejected(self):
        with pytest.raises(ValueError, match="memoize"):
            ExecutionOptions(memoize=1)
        with pytest.raises(ValueError, match="quick"):
            ExecutionOptions(quick="yes")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionOptions().workers = 4

    def test_spec_overrides_only_non_defaults(self):
        assert ExecutionOptions().spec_overrides() == {}
        overrides = ExecutionOptions(
            engine="scalar", memoize=False, workers=4, quick=True,
        ).spec_overrides()
        assert overrides == {"engine": "scalar", "memoize": False}

    def test_with_overrides_validates(self):
        options = ExecutionOptions().with_overrides(workers=2)
        assert options.workers == 2
        with pytest.raises(ValueError):
            options.with_overrides(workers=-1)

    def test_engine_option_threads_into_simulator_config(self):
        simulator = SystemSimulator(
            SystemConfig(), options=ExecutionOptions(engine="scalar")
        )
        assert simulator.config.engine == "scalar"

    def test_entry_points_take_no_legacy_keywords(self):
        with pytest.raises(TypeError):
            SystemSimulator(SystemConfig(), parallel=2)
        with pytest.raises(TypeError, match="batch"):
            run_scenario(tiny_spec(), batch=False)


class TestSubmissionParsing:
    def test_kind_required(self):
        with pytest.raises(JobError, match="kind"):
            parse_submission({"spec": tiny_spec().to_dict()})

    def test_scenario_needs_spec_or_name(self):
        with pytest.raises(JobError, match="spec"):
            parse_submission({"kind": "scenario"})

    def test_campaign_needs_sweep_or_name(self):
        with pytest.raises(JobError, match="sweep"):
            parse_submission({"kind": "campaign"})

    def test_unknown_option_is_a_job_error(self):
        with pytest.raises(JobError, match="turbo"):
            parse_submission(
                {"kind": "scenario", "spec": tiny_spec().to_dict(),
                 "options": {"turbo": True}}
            )

    @pytest.mark.parametrize("retired", ["parallel", "batch"])
    def test_retired_option_is_a_job_error(self, retired):
        with pytest.raises(JobError, match=f"'{retired}'"):
            parse_submission(
                {"kind": "scenario", "spec": tiny_spec().to_dict(),
                 "options": {retired: 0}}
            )

    def test_retired_spec_field_is_a_job_error(self):
        with pytest.raises(JobError, match="'parallel'"):
            parse_submission(
                {"kind": "scenario", "spec": {**tiny_spec().to_dict(), "parallel": 0}}
            )

    def test_registered_names_resolve(self):
        submission = parse_submission({"kind": "scenario", "scenario": "conv-tiled"})
        assert submission.spec.name == "conv-tiled"
        submission = parse_submission(
            {"kind": "campaign", "campaign": "conv-geometry-sweep"}
        )
        assert submission.sweep.name == "conv-geometry-sweep"

    def test_execution_knobs_do_not_change_identity(self):
        """workers/trace are exact execution paths: same job, one result."""
        base = {"kind": "scenario", "spec": tiny_spec().to_dict()}
        plain = parse_submission(base).job_id
        pooled = parse_submission(
            {**base, "options": {"workers": 3, "trace": True}}
        ).job_id
        assert plain == pooled

    def test_spec_overrides_change_identity(self):
        base = {"kind": "scenario", "spec": tiny_spec().to_dict()}
        plain = parse_submission(base).job_id
        memoless = parse_submission(
            {**base, "options": {"memoize": False}}
        ).job_id
        assert plain != memoless

    def test_quick_changes_campaign_identity(self):
        base = {"kind": "campaign", "sweep": tiny_sweep().to_dict()}
        assert (
            parse_submission(base).job_id
            != parse_submission({**base, "options": {"quick": True}}).job_id
        )

    def test_journal_payload_round_trips(self):
        submission = parse_submission(
            {"kind": "campaign", "sweep": tiny_sweep().to_dict(),
             "options": {"quick": True}}
        )
        again = parse_submission(submission.payload())
        assert again.job_id == submission.job_id
        assert again.sweep == submission.sweep

    def test_manager_rejects_zero_workers(self, tmp_path):
        with pytest.raises(ValueError, match="worker"):
            JobManager(tmp_path, workers=0)


class TestServerEndToEnd:
    def test_healthz_schema(self, server):
        health = Client(server.url).healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        assert health["workers"] == 2
        assert set(health["cache"]) == {"entries", "hits", "misses", "hit_rate"}
        assert set(health["result_cache"]) == {"dir", "entries", "hits", "misses"}
        assert health["result_cache"]["dir"].endswith("result-cache")
        for key in ("queued", "running", "completed", "failed", "cancelled",
                    "total", "in_flight", "submitted", "deduplicated",
                    "store_hits", "simulations", "recovered"):
            assert key in health["jobs"]

    def test_scenario_submit_poll_result(self, server):
        client = Client(server.url)
        job = client.submit_scenario(tiny_spec())
        assert job["state"] in ("queued", "running", "completed")
        result = client.wait(job["id"], timeout=120)
        assert result["kind"] == "scenario"
        assert result["record"]["metrics"]["makespan_cycles"] > 0
        assert client.status(job["id"])["state"] == "completed"

    def test_concurrent_identical_submissions_simulate_once(self, server):
        """Four clients race the same content-hashed point: one simulation,
        four bit-identical results (the headline dedup guarantee)."""
        spec = tiny_spec(num_tiles=3)
        results, errors = [], []

        def one_client():
            try:
                client = Client(server.url)
                job = client.submit_scenario(spec)
                results.append(client.wait(job["id"], timeout=120))
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=one_client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert not errors
        assert len(results) == 4
        assert all(result == results[0] for result in results)
        health = Client(server.url).healthz()
        assert health["jobs"]["simulations"] == 1
        assert health["jobs"]["submitted"] == 4
        assert health["jobs"]["deduplicated"] == 3

    def test_second_submission_hits_the_warm_cache(self, server):
        """A structurally identical tile in a *different* submission is
        served by the shared process-lifetime timing cache."""
        client = Client(server.url)
        client.wait(client.submit_scenario(tiny_spec(num_tiles=2))["id"], timeout=120)
        before = client.healthz()["cache"]
        client.wait(client.submit_scenario(tiny_spec(num_tiles=4))["id"], timeout=120)
        after = client.healthz()["cache"]
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]  # same tile structure
        assert after["hit_rate"] > 0

    def test_campaign_runs_and_identical_resubmission_dedups(self, server):
        client = Client(server.url)
        sweep = tiny_sweep()
        job = client.submit_campaign(sweep.to_dict())
        result = client.wait(job["id"], timeout=300)
        assert result["kind"] == "campaign"
        assert result["points"] == 4
        assert result["executed"] == 4
        assert result["complete"] is True
        again = client.submit_campaign(sweep.to_dict())
        assert again["deduplicated"] is True
        assert client.wait(again["id"], timeout=30) == result

    def test_result_cache_survives_daemon_restart(self, tmp_path):
        """Satellite/tentpole: the global result cache outlives the daemon.

        A second daemon with a *fresh* job store but the same cache
        directory serves previously simulated work without executing —
        scenario and campaign alike — and ``/healthz`` accounts for it.
        """
        cache_dir = str(tmp_path / "result-cache")
        first = ReproServer(
            port=0, workers=2, store_dir=tmp_path / "a", cache_dir=cache_dir
        )
        first.start()
        try:
            client = Client(first.url)
            client.wait(client.submit_scenario(tiny_spec())["id"], timeout=120)
            client.wait(
                client.submit_campaign(tiny_sweep().to_dict())["id"], timeout=300
            )
            assert client.healthz()["result_cache"]["dir"] == cache_dir
        finally:
            first.close()

        second = ReproServer(
            port=0, workers=2, store_dir=tmp_path / "b", cache_dir=cache_dir
        )
        second.start()
        try:
            client = Client(second.url)
            record = client.wait(
                client.submit_scenario(tiny_spec())["id"], timeout=120
            )["record"]
            assert record["metrics"]["makespan_cycles"] > 0
            campaign = client.wait(
                client.submit_campaign(tiny_sweep().to_dict())["id"], timeout=120
            )
            assert campaign["complete"] is True
            assert campaign["executed"] == 0
            assert campaign["cached"] == 4
            health = client.healthz()
            assert health["jobs"]["simulations"] == 0
            assert health["jobs"]["store_hits"] >= 5
            assert health["result_cache"]["hits"] >= 5
        finally:
            second.close()
        # Scenario points live in the result cache alone.
        for store_dir in ("a", "b"):
            assert not (tmp_path / store_dir / "scenarios.jsonl").exists()

    def test_error_statuses(self, server):
        client = Client(server.url)
        with pytest.raises(ServerError) as missing:
            client.status("no-such-job")
        assert missing.value.status == 404
        with pytest.raises(ServerError) as malformed:
            client.submit({"kind": "scenario"})
        assert malformed.value.status == 400
        with pytest.raises(ServerError) as bad_option:
            client.submit(
                {"kind": "scenario", "spec": tiny_spec().to_dict(),
                 "options": {"turbo": 9}}
            )
        assert bad_option.value.status == 400
        with pytest.raises(ServerError) as retired:
            client.submit(
                {"kind": "scenario", "spec": tiny_spec().to_dict(),
                 "options": {"parallel": 2}}
            )
        assert retired.value.status == 400
        assert "'parallel'" in retired.value.payload["error"]
        with pytest.raises(ServerError) as no_route:
            client._request("GET", "/nope")
        assert no_route.value.status == 404
        request = urllib.request.Request(
            server.url + "/jobs", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as raw:
            urllib.request.urlopen(request, timeout=10)
        with raw.value:
            assert raw.value.code == 400

    def test_jobs_listing(self, server):
        client = Client(server.url)
        client.wait(client.submit_scenario(tiny_spec())["id"], timeout=120)
        listing = client._request("GET", "/jobs")["jobs"]
        assert len(listing) == 1
        assert listing[0]["state"] == "completed"


def _slow_points(monkeypatch, seconds=0.15):
    """Make each campaign point slow enough to interrupt mid-sweep."""
    import repro.campaign.runner as campaign_runner

    real = campaign_runner.run_scenario

    def slowed(spec, **kwargs):
        time.sleep(seconds)
        return real(spec, **kwargs)

    monkeypatch.setattr(campaign_runner, "run_scenario", slowed)


def _wait_for_progress(client, job_id, minimum=1, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = client.status(job_id)
        if len(job["progress"]) >= minimum or job["state"] in (
            "completed", "failed", "cancelled"
        ):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} made no progress within {timeout}s")


class TestCancelAndRecovery:
    def test_cancel_mid_campaign_leaves_a_resumable_store(
        self, tmp_path, monkeypatch
    ):
        store_dir = tmp_path / "store"
        server = ReproServer(port=0, workers=1, store_dir=store_dir)
        server.start()
        try:
            client = Client(server.url)
            with monkeypatch.context() as patch:
                _slow_points(patch)
                job = client.submit_campaign(tiny_sweep().to_dict())
                _wait_for_progress(client, job["id"])
                with pytest.raises(ServerError) as pending:
                    client.result(job["id"])
                assert pending.value.status == 409
                cancelled = client.cancel(job["id"])
                assert cancelled["id"] == job["id"]
                deadline = time.monotonic() + 60
                while client.status(job["id"])["state"] not in (
                    "cancelled", "completed"
                ):
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
            status = client.status(job["id"])
            stored = len(
                ResultStore(store_dir / "tiny-server-sweep.jsonl").by_point()
            )
            if status["state"] == "completed":
                pytest.skip("campaign finished before the cancel landed")
            assert 1 <= stored < 4
            # Resubmitting the identical payload resumes from the store.
            again = client.submit_campaign(tiny_sweep().to_dict())
            assert again["id"] == job["id"]
            result = client.wait(again["id"], timeout=300)
            assert result["complete"] is True
            assert result["skipped"] >= stored
            assert result["executed"] + result["skipped"] == 4
        finally:
            server.close()

    def test_kill_and_restart_resumes_in_flight_campaign(
        self, tmp_path, monkeypatch
    ):
        store_dir = tmp_path / "store"
        _slow_points(monkeypatch)
        first = ReproServer(port=0, workers=1, store_dir=store_dir)
        first.start()
        client = Client(first.url)
        job = client.submit_campaign(tiny_sweep().to_dict())
        _wait_for_progress(client, job["id"])
        first.close()  # SIGTERM semantics: drain without terminal journal

        stored_before = len(
            ResultStore(store_dir / "tiny-server-sweep.jsonl").by_point()
        )
        if stored_before >= 4:
            pytest.skip("campaign finished before the shutdown landed")

        second = ReproServer(port=0, workers=1, store_dir=store_dir)
        second.start()
        try:
            client = Client(second.url)
            assert client.healthz()["jobs"]["recovered"] == 1
            descriptor = client.status(job["id"])
            assert descriptor["recovered"] is True
            result = client.wait(job["id"], timeout=300)
            assert result["complete"] is True
            assert result["skipped"] >= stored_before
            assert result["executed"] + result["skipped"] == 4
        finally:
            second.close()

    def test_restart_fails_a_journaled_job_with_retired_fields(self, tmp_path):
        """A job journaled before ``parallel``/``batch`` were retired is
        recovered, fails naming the field, and the daemon keeps serving."""
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        old_options = {**ExecutionOptions().to_dict(), "parallel": 0, "batch": True}
        old_spec = {**tiny_spec().to_dict(), "parallel": 0}
        ResultStore(store_dir / "jobs.jsonl").append(
            {
                "point_id": "s-pre-change",
                "kind": "scenario",
                "state": "queued",
                "payload": {"kind": "scenario", "options": old_options,
                            "spec": old_spec},
                "result": None,
                "error": None,
            }
        )
        server = ReproServer(port=0, workers=1, store_dir=store_dir)
        server.start()
        try:
            client = Client(server.url)
            deadline = time.monotonic() + 60
            while client.status("s-pre-change")["state"] != "failed":
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert "parallel" in client.status("s-pre-change")["error"]
            result = client.wait(client.submit_scenario(tiny_spec())["id"], timeout=120)
            assert result["kind"] == "scenario"
            health = client.healthz()
            assert health["jobs"]["recovered"] == 1
            assert health["jobs"]["failed"] == 1
        finally:
            server.close()


class TestDaemonProcess:
    def test_sigterm_clean_shutdown(self, tmp_path):
        """The python -m repro.server path: announce the resolved URL,
        serve a real client, drain on SIGTERM and exit 0."""
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--store-dir", str(tmp_path / "store")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"listening on (http://\S+)", banner)
            assert match, f"no listen banner in {banner!r}"
            client = Client(match.group(1))
            assert client.healthz()["status"] == "ok"
            result = client.wait(
                client.submit_scenario(tiny_spec())["id"], timeout=120
            )
            assert result["record"]["metrics"]["makespan_cycles"] > 0
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60)
        except BaseException:
            process.kill()
            process.wait(timeout=10)
            raise
        assert process.returncode == 0, stderr
        assert "clean shutdown" in stdout


class TestObservabilityEndpoints:
    _SAMPLE = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE.+-]+(?:inf|nan)?$'
    )

    def test_metrics_endpoint_is_valid_exposition(self, server):
        client = Client(server.url)
        client.wait(client.submit_scenario(tiny_spec())["id"], timeout=120)
        text = client.metrics()
        assert "# TYPE repro_server_events_total counter" in text
        assert "# TYPE repro_server_jobs gauge" in text
        # Library-side metrics ride along on the same scrape.
        assert "repro_scenario_runs_total" in text
        seen = set()
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE ")), line
                continue
            assert self._SAMPLE.match(line), f"malformed sample line: {line!r}"
            key = line.rsplit(" ", 1)[0]
            assert key not in seen, f"duplicate sample {key!r}"
            seen.add(key)

    def test_metrics_reflect_job_events(self, server):
        client = Client(server.url)
        client.wait(client.submit_scenario(tiny_spec())["id"], timeout=120)
        client.submit_scenario(tiny_spec())  # dedup onto the same job
        text = client.metrics()
        assert 'repro_server_events_total{event="submitted"} 2' in text
        assert 'repro_server_events_total{event="deduplicated"} 1' in text
        assert 'repro_server_jobs{state="completed"} 1' in text
        # healthz is backed by the same registry, so they cannot disagree.
        health = client.healthz()
        assert health["jobs"]["submitted"] == 2
        assert health["jobs"]["deduplicated"] == 1

    def test_traced_daemon_captures_job_spans(self, tmp_path):
        instance = ReproServer(
            port=0, workers=1, store_dir=tmp_path / "store", trace=True
        )
        instance.start()
        try:
            client = Client(instance.url)
            job = client.submit_scenario(tiny_spec())
            client.wait(job["id"], timeout=120)
            payload = client.trace(job["id"])
            assert payload["tracing"] is True
            names = {span["name"] for span in payload["spans"]}
            assert "job" in names
            assert "scenario" in names
            assert all(span["track"] == f"job-{job['id']}"
                       for span in payload["spans"])
            assert client.status(job["id"])["spans"] == len(payload["spans"])
        finally:
            instance.close()

    def test_untraced_daemon_reports_no_spans(self, server):
        client = Client(server.url)
        job = client.submit_scenario(tiny_spec())
        client.wait(job["id"], timeout=120)
        payload = client.trace(job["id"])
        assert payload["tracing"] is False
        assert payload["spans"] == []
