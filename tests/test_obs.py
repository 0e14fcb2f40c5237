"""The unified observability layer (repro.obs): metrics registry
semantics and sample naming, span tracing with per-track
timelines, Chrome trace / JSONL export, trace_session scoping, the CLI
surfaces (--trace-out, the trace subcommand, -v/-q), and the guarantee
that instrumentation never perturbs simulation results."""

import json
import logging

import numpy as np
import pytest

from repro import obs
from repro.campaign import SweepSpec, run_campaign
from repro.campaign.cache import GlobalResultCache
from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import (
    TRACER,
    Span,
    Tracer,
    chrome_trace,
    read_spans_jsonl,
    write_spans_jsonl,
)
from repro.options import ExecutionOptions
from repro.scenarios import ScenarioSpec, run_scenario
from repro.system import SystemConfig, SystemSimulator, conv_tiled_workload

def tiny_spec(**overrides) -> ScenarioSpec:
    settings = dict(
        name="tiny-obs-conv",
        family="conv",
        params={"image_shape": (8, 10)},
        num_tiles=2,
        num_vaults=1,
        clusters_per_vault=1,
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


def tiny_sweep(**overrides) -> SweepSpec:
    settings = dict(
        name="tiny-obs-sweep",
        description="test sweep",
        base=tiny_spec(),
        axes={"num_tiles": (1, 2, 3)},
    )
    settings.update(overrides)
    return SweepSpec(**settings)


class TestMetricsRegistry:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "x")
        gauge = registry.gauge("repro_y", "y")
        counter.inc()
        gauge.set(5)
        assert counter.value() == 0.0
        assert gauge.value() == 0.0

    def test_counter_labels_and_values(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("repro_x_total", "x", labelnames=("kind",))
        counter.inc(kind="a")
        counter.inc(2, kind="b")
        assert counter.value(kind="a") == 1.0
        assert counter.value(kind="b") == 2.0
        with pytest.raises(ValueError):
            counter.inc(-1, kind="a")
        with pytest.raises(ValueError):
            counter.inc(other="a")  # undeclared label

    def test_reregistration_returns_same_instrument(self):
        registry = MetricsRegistry(enabled=True)
        first = registry.counter("repro_x_total", "x")
        second = registry.counter("repro_x_total", "x")
        assert first is second
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total", "now a gauge")
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", "x", labelnames=("k",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("0bad", "x")
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", "x", labelnames=("0bad",))

    def test_reset_keeps_instruments_but_zeroes_values(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("repro_x_total", "x")
        counter.inc(3)
        registry.reset()
        assert registry.get("repro_x_total") is counter
        assert counter.value() == 0.0



class TestTracer:
    def test_disabled_span_is_shared_null(self):
        tracer = Tracer()
        assert tracer.span("a") is tracer.span("b")
        with tracer.span("a"):
            pass
        assert tracer.spans() == []

    def test_spans_record_track_and_args(self):
        tracer = Tracer()
        tracer.set_enabled(True)
        with tracer.track("worker-1"):
            with tracer.span("outer", name="custom"):
                with tracer.span("inner"):
                    pass
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert all(s.track == "worker-1" for s in spans)
        assert spans[1].args == {"name": "custom"}

    def test_drain_returns_and_empties_the_buffer(self):
        tracer = Tracer()
        tracer.set_enabled(True)
        tracer.record("a", "main", 10, 1.0)
        tracer.record("b", "cluster-0", 11, 1.0)
        assert [s.name for s in tracer.drain()] == ["a", "b"]
        assert tracer.spans() == []

    def test_limit_drops_and_counts(self):
        tracer = Tracer(limit=2)
        tracer.set_enabled(True)
        for i in range(4):
            tracer.record(f"s{i}", "main", i, 1.0)
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 2

    def test_jsonl_round_trip(self, tmp_path):
        spans = [
            Span("a", "main", 1, 2.0),
            Span("b", "worker-0", 3, 4.0, {"k": "v"}),
        ]
        path = tmp_path / "spans.jsonl"
        assert write_spans_jsonl(spans, path) == 2
        assert read_spans_jsonl(path) == spans

    def test_chrome_trace_structure(self):
        spans = [
            Span("outer", "main", 100, 50.0),
            Span("inner", "main", 110, 10.0),
            Span("tile", "worker-1", 105, 20.0),
        ]
        doc = chrome_trace(spans)
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} == {"main", "worker-1"}
        assert len(complete) == 3
        # Timestamps are rebased to the earliest span.
        assert min(e["ts"] for e in complete) == 0
        tids = {e["tid"] for e in complete}
        assert tids == {e["tid"] for e in meta}


def _assert_tracks_nest(spans, tol_us=200.0):
    """Per track: sorted spans are monotonic and disjoint-or-nested."""
    by_track = {}
    for span in spans:
        by_track.setdefault(span.track, []).append(span)
    for track, items in by_track.items():
        items.sort(key=lambda s: (s.ts_us, -s.dur_us))
        stack = []  # open ancestor end times
        last_ts = None
        for span in items:
            assert last_ts is None or span.ts_us >= last_ts, track
            last_ts = span.ts_us
            end = span.ts_us + span.dur_us
            while stack and span.ts_us >= stack[-1] - tol_us:
                stack.pop()
            if stack:
                assert end <= stack[-1] + tol_us, (
                    f"span {span.name!r} overlaps its sibling on {track!r}"
                )
            stack.append(end)


class TestInstrumentedRuns:
    def test_traced_scenario_produces_nested_spans(self):
        with obs.trace_session(trace=True, metrics=True) as tracer:
            run_scenario(tiny_spec())
            spans = tracer.spans()
        names = {s.name for s in spans}
        assert {"scenario", "build-workload", "verify", "schedule"} <= names
        _assert_tracks_nest(spans)

    def test_system_span_contract(self):
        """The span names the layered benchmark reads off a system run.

        A default run shows ``schedule``, then ``batched-replay`` holding
        the ``tile-miss``/``batched-group`` spans, then ``merge`` — and no
        ``cluster-tiles`` span.  A run whose tiles fail the
        self-containment gate walks every tile inline, in ``cluster-tiles``
        spans that start after its ``batched-replay`` span ends.
        """

        def traced_run(doctor):
            simulator = SystemSimulator(SystemConfig())
            workload = conv_tiled_workload(
                simulator.hmc, num_tiles=6, image_shape=(12, 14)
            )
            if doctor:
                # Tile 2 now reads TCDM words no DMA staged.
                workload.tiles[2].transfers_in = []
            with obs.trace_session(trace=True) as tracer:
                simulator.run(workload.tiles)
                return tracer.spans()

        spans = traced_run(doctor=False)
        names = [s.name for s in sorted(spans, key=lambda s: s.ts_us)]
        assert "cluster-tiles" not in names and "tile" not in names
        assert names[0] == "schedule" and names[-1] == "merge"
        (replay,) = [s for s in spans if s.name == "batched-replay"]
        inner = [s for s in spans if s.name in ("tile-miss", "batched-group")]
        assert {s.name for s in inner} == {"tile-miss", "batched-group"}
        for span in inner:
            assert replay.ts_us <= span.ts_us
            assert span.ts_us + span.dur_us <= replay.ts_us + replay.dur_us + 5

        spans = traced_run(doctor=True)
        (replay,) = [s for s in spans if s.name == "batched-replay"]
        walked = [s for s in spans if s.name == "cluster-tiles"]
        assert walked
        assert not [s for s in spans if s.name in ("tile-miss", "batched-group")]
        replay_end = replay.ts_us + replay.dur_us
        assert all(s.ts_us >= replay_end - 5 for s in walked)

    @pytest.mark.parametrize(
        "engine,memoize", [("vectorized", False), ("scalar", False)]
    )
    def test_inline_walks_skip_the_gate(self, engine, memoize):
        """Without a cache, whichever the engine, the walker runs every
        tile inline and never enters the gate."""
        spec = tiny_spec(
            name="tiny-obs-inline", num_tiles=4, clusters_per_vault=2,
            engine=engine, memoize=memoize,
        )
        with obs.trace_session(trace=True) as tracer:
            outcome = run_scenario(spec)
            spans = tracer.spans()
        assert outcome.verified
        names = [s.name for s in spans]
        assert "batched-replay" not in names and "tile-miss" not in names
        assert names.count("cluster-tiles") == 2
        assert names.count("tile") == 4

    def test_tracing_never_perturbs_results(self):
        plain = run_scenario(tiny_spec())
        with obs.trace_session(trace=True, metrics=True):
            traced = run_scenario(tiny_spec())
        assert traced.result.makespan_cycles == plain.result.makespan_cycles
        assert traced.result.cache_hit_rate == plain.result.cache_hit_rate
        for ours, theirs in zip(traced.output_arrays(), plain.output_arrays()):
            assert np.array_equal(ours, theirs)

    def test_traced_campaign_store_is_byte_identical(self, tmp_path):
        cache = GlobalResultCache(tmp_path / "cache")
        run_campaign(
            tiny_sweep(), store_path=tmp_path / "cold.jsonl", cache=cache
        )
        with obs.trace_session(trace=True, metrics=True):
            outcome = run_campaign(
                tiny_sweep(), store_path=tmp_path / "warm.jsonl", cache=cache
            )
        assert outcome.cached_points == 3
        cold = (tmp_path / "cold.jsonl").read_bytes()
        warm = (tmp_path / "warm.jsonl").read_bytes()
        assert cold == warm

    def test_cache_counters_feed_the_summary(self):
        before = obs.cache_counters()
        with obs.trace_session(metrics=True):
            run_scenario(tiny_spec())
        summary = obs.format_cache_summary(since=before)
        assert summary.startswith("cache efficiency: tile-timing ")
        assert "global result cache off" in summary

    def test_trace_session_restores_prior_state(self, tmp_path):
        assert not TRACER.enabled and not REGISTRY.enabled
        out = tmp_path / "trace.json"
        with obs.trace_session(trace_out=str(out), metrics=True) as tracer:
            assert tracer.enabled and REGISTRY.enabled
            tracer.record("x", "main", 1, 2.0)
        assert not TRACER.enabled and not REGISTRY.enabled
        assert TRACER.spans() == []
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_trace_session_writes_jsonl_for_jsonl_suffix(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        with obs.trace_session(trace=True, trace_out=str(out)) as tracer:
            tracer.record("x", "main", 1, 2.0)
        (span,) = read_spans_jsonl(out)
        assert span.name == "x"


class TestExecutionOptionsTraceFields:
    def test_defaults_off(self):
        options = ExecutionOptions()
        assert options.trace is False
        assert options.trace_out is None

    def test_trace_out_implies_trace(self, tmp_path):
        options = ExecutionOptions(trace_out=str(tmp_path / "t.json"))
        assert options.trace is True

    def test_trace_is_never_a_spec_override(self, tmp_path):
        options = ExecutionOptions(trace=True, trace_out=str(tmp_path / "t"))
        assert "trace" not in options.spec_overrides()
        assert "trace_out" not in options.spec_overrides()

    def test_non_bool_trace_rejected(self):
        with pytest.raises(ValueError):
            ExecutionOptions(trace=1)

    def test_round_trips_through_dict(self, tmp_path):
        options = ExecutionOptions(trace_out=str(tmp_path / "t.json"))
        assert ExecutionOptions.from_dict(options.to_dict()) == options


class TestLogging:
    def test_get_logger_nests_under_repro(self):
        assert get_logger().name == "repro"
        assert get_logger("campaign").name == "repro.campaign"
        assert get_logger("repro.report").name == "repro.report"

    def test_configure_is_idempotent(self):
        logger = configure_logging(0)
        configure_logging(0)
        assert len(logger.handlers) == 1

    def test_verbosity_levels(self):
        assert configure_logging(-1).level == logging.WARNING
        assert configure_logging(0).level == logging.INFO
        assert configure_logging(1).level == logging.DEBUG


class TestCli:
    def test_scenario_run_prints_cache_summary(self, capsys):
        from repro.eval.__main__ import main as eval_main

        assert eval_main(["scenario", "run", "conv-tiled", "--tiles", "2"]) == 0
        out = capsys.readouterr().out
        assert "cache efficiency: tile-timing " in out

    def test_scenario_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        from repro.eval.__main__ import main as eval_main

        out = tmp_path / "trace.json"
        rc = eval_main(
            ["scenario", "run", "conv-tiled", "--tiles", "2",
             "--trace-out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "scenario" in names
        capsys.readouterr()

    def test_trace_subcommand_converts_jsonl(self, tmp_path, capsys):
        from repro.eval.__main__ import main as eval_main

        spans_path = tmp_path / "spans.jsonl"
        write_spans_jsonl([Span("a", "main", 1, 2.0)], spans_path)
        out = tmp_path / "converted.json"
        rc = eval_main(["trace", str(spans_path), "--output", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert sum(e["ph"] == "X" for e in doc["traceEvents"]) == 1

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        from repro.eval.__main__ import main as eval_main

        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert eval_main(["trace", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_campaign_quiet_silences_progress(self, tmp_path, capsys):
        from repro.eval.__main__ import main as eval_main

        store = tmp_path / "store.jsonl"
        rc = eval_main(
            ["campaign", "run", "conv-geometry-sweep", "--quick", "-q",
             "--store", str(store)]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "  ran " not in captured.err
        assert "11 points" in captured.out

    def test_campaign_default_progress_on_stderr(self, tmp_path, capsys):
        from repro.eval.__main__ import main as eval_main

        store = tmp_path / "store.jsonl"
        rc = eval_main(
            ["campaign", "run", "conv-geometry-sweep", "--quick",
             "--store", str(store)]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "  ran " in captured.err
        assert "  ran " not in captured.out
