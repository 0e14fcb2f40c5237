"""The campaign subsystem: sweep expansion and constraints, the JSONL
result store, exact resume after interruption, cross-engine parity of
every shipped campaign family, the global content-addressed result
cache, and the analysis layer's perf-model overlay."""

import builtins
import dataclasses
import hashlib
import io
import itertools
import json
import multiprocessing
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    CACHE_DIR_ENV,
    GlobalResultCache,
    ResultStore,
    ResultStoreError,
    SweepSpec,
    analyze_records,
    format_report,
    get_campaign,
    iter_campaigns,
    point_id,
    register_campaign,
    registered_campaigns,
    resolve_cache,
    run_campaign,
)
from repro.options import ExecutionOptions
from repro.scenarios import ScenarioSpec, run_scenario
from repro.system.memo import TileTimingCache


def tiny_sweep(**overrides) -> SweepSpec:
    """A 4-point conv sweep small enough to run many times in tests."""
    settings = dict(
        name="tiny",
        description="test sweep",
        base=ScenarioSpec(
            name="tiny-conv",
            family="conv",
            params={"image_shape": (8, 10)},
            num_tiles=2,
            num_vaults=1,
            clusters_per_vault=1,
        ),
        axes={"clusters_per_vault": (1, 2), "num_tiles": (2, 4)},
    )
    settings.update(overrides)
    return SweepSpec(**settings)


class TestSweepSpec:
    def test_dict_round_trip(self):
        sweep = tiny_sweep(
            mode="zip",
            axes={"clusters_per_vault": (1, 2), "num_tiles": (2, 4)},
            constraints=("num_tiles >= clusters_per_vault",),
            quick_overrides={"num_tiles": 1},
        )
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep

    def test_json_round_trip_with_tuple_param_axis(self):
        """JSON turns tuple axis values into lists; normalization keeps
        the round trip an identity (exactly like ScenarioSpec params)."""
        sweep = tiny_sweep(axes={"params.image_shape": ((6, 8), (8, 10))})
        assert SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict()))) == sweep

    def test_from_dict_rejects_unknown_fields(self):
        data = tiny_sweep().to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            SweepSpec.from_dict(data)

    def test_from_dict_rejects_missing_required_fields(self):
        with pytest.raises(ValueError, match="axes"):
            SweepSpec.from_dict({"name": "x", "base": tiny_sweep().base.to_dict()})

    def test_unknown_axis_path_lists_choices(self):
        with pytest.raises(ValueError, match="num_vaults"):
            tiny_sweep(axes={"cluster_count": (1, 2)})

    def test_name_and_description_are_not_sweepable(self):
        with pytest.raises(ValueError, match="sweepable"):
            tiny_sweep(axes={"name": ("a", "b")})

    @pytest.mark.parametrize("retired", ["parallel", "memoize"])
    def test_retired_axis_rejected(self, retired):
        """A sweep file written when ``parallel`` or ``memoize`` was a
        spec field fails, naming the field."""
        with pytest.raises(ValueError, match=f"'{retired}'.*sweepable"):
            tiny_sweep(axes={retired: (False, True)})

    def test_unknown_param_axis_lists_family_params(self):
        with pytest.raises(ValueError, match="params.image_shape"):
            tiny_sweep(axes={"params.kernel_size": (3, 5)})

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            tiny_sweep(axes={})
        with pytest.raises(ValueError, match="no values"):
            tiny_sweep(axes={"num_tiles": ()})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            tiny_sweep(mode="random")

    def test_zip_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="equal-length"):
            tiny_sweep(
                mode="zip",
                axes={"clusters_per_vault": (1, 2, 4), "num_tiles": (2, 4)},
            )

    def test_constraint_syntax_error_at_construction(self):
        with pytest.raises(ValueError, match="not a valid expression"):
            tiny_sweep(constraints=("num_tiles >=",))

    def test_constraint_unknown_name_at_construction(self):
        with pytest.raises(ValueError, match="accepted names"):
            tiny_sweep(constraints=("warp_factor > 1",))

    @pytest.mark.parametrize(
        "expression",
        [
            "__import__('os').system('true') or True",            # call
            "().__class__.__base__.__subclasses__()",             # attribute
            "[c for c in (1, 2)][0] > 0",                         # comprehension
            "num_tiles.__class__ is int",                         # attribute
            "f'{num_tiles}' == '2'",                              # f-string
        ],
    )
    def test_constraints_are_data_not_code(self, expression):
        """Constraint syntax is an AST-validated subset: anything beyond
        literals/names/operators/comparisons is rejected up front."""
        with pytest.raises(ValueError, match="not allowed"):
            tiny_sweep(constraints=(expression,))

    def test_string_axis_rejected_even_through_from_dict(self):
        """A JSON axis given as a bare string must not be silently split
        into characters."""
        data = tiny_sweep().to_dict()
        data["axes"] = {"engine": "scalar"}
        with pytest.raises(ValueError, match="list or tuple"):
            SweepSpec.from_dict(data)
        with pytest.raises(ValueError, match="list or tuple"):
            tiny_sweep(axes={"engine": "scalar"})

    def test_constraint_type_error_names_the_constraint(self):
        with pytest.raises(ValueError, match="failed to evaluate"):
            tiny_sweep(constraints=("engine <= 16",))

    def test_membership_constraints_are_allowed(self):
        sweep = tiny_sweep(
            axes={"engine": ("scalar", "vectorized"), "num_tiles": (2,)},
            constraints=("engine in ('vectorized',)",),
        )
        assert [p.spec.engine for p in sweep.expand()] == ["vectorized"]

    def test_quick_overrides_round_trip_with_nested_params(self):
        sweep = tiny_sweep(
            quick_overrides={"params": {"image_shape": (6, 8)}}
        )
        assert SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict()))) == sweep

    def test_grid_expansion_order_and_count(self):
        points = tiny_sweep().expand()
        assert len(points) == 4
        assert [p.axis_values for p in points] == [
            {"clusters_per_vault": 1, "num_tiles": 2},
            {"clusters_per_vault": 1, "num_tiles": 4},
            {"clusters_per_vault": 2, "num_tiles": 2},
            {"clusters_per_vault": 2, "num_tiles": 4},
        ]

    def test_zip_expansion(self):
        points = tiny_sweep(mode="zip").expand()
        assert [p.axis_values for p in points] == [
            {"clusters_per_vault": 1, "num_tiles": 2},
            {"clusters_per_vault": 2, "num_tiles": 4},
        ]

    def test_constraints_prune_points(self):
        sweep = tiny_sweep(constraints=("num_tiles > clusters_per_vault",))
        kept = [p.axis_values for p in sweep.expand()]
        assert {"clusters_per_vault": 2, "num_tiles": 2} not in kept
        assert len(kept) == 3

    def test_constraints_see_derived_and_param_names(self):
        sweep = tiny_sweep(constraints=("num_clusters <= 1", "kernel == 3"))
        assert all(
            p.axis_values["clusters_per_vault"] == 1 for p in sweep.expand()
        )

    def test_pruning_everything_is_an_error(self):
        with pytest.raises(ValueError, match="no points"):
            tiny_sweep(constraints=("num_tiles > 99",)).expand()

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="same scenario"):
            tiny_sweep(axes={"num_tiles": (2, 2)}).expand()

    def test_unbuildable_point_names_the_constraint_fix(self):
        sweep = tiny_sweep(axes={"num_tiles": (2, -1)})
        with pytest.raises(ValueError, match="prune it with a constraint"):
            sweep.expand()

    def test_point_specs_carry_axis_overrides(self):
        sweep = tiny_sweep(axes={"params.kernel": (3, 5), "num_tiles": (2,)})
        specs = [p.spec for p in sweep.expand()]
        assert [s.merged_params()["kernel"] for s in specs] == [3, 5]
        assert all(s.num_tiles == 2 for s in specs)
        assert len({s.name for s in specs}) == 2  # names encode axis values

    def test_point_ids_are_stable_and_content_addressed(self):
        first, second = tiny_sweep().expand(), tiny_sweep().expand()
        assert [p.id for p in first] == [p.id for p in second]
        spec = first[0].spec
        # Presentation fields do not key the store: renaming a scenario
        # (or its campaign) keeps every stored result resumable.
        assert point_id(spec) == point_id(spec.with_overrides(description="x"))
        assert point_id(spec) == point_id(spec.with_overrides(name="renamed"))
        assert point_id(spec) != point_id(spec.with_overrides(seed=1))
        # Merged params are hashed: spelling a family default explicitly
        # changes nothing, while any effective-parameter change would.
        explicit = spec.with_overrides(params=spec.merged_params())
        assert point_id(spec) == point_id(explicit)
        assert point_id(spec) != point_id(
            spec.with_overrides(params={"kernel": 5})
        )

    @pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
    @pytest.mark.parametrize("name", registered_campaigns())
    def test_point_ids_hash_the_asdict_payload(self, name, quick):
        """Every shipped point keeps the id of the ``dataclasses.asdict``
        payload ``ScenarioSpec.to_dict`` was first written with, so stores
        and result caches written before still resume."""
        sweep = get_campaign(name)
        sweep = sweep.for_quick() if quick else sweep
        for point in sweep.expand():
            spec = point.spec
            payload = dataclasses.asdict(spec)
            payload["params"] = dict(spec.params)
            assert spec.to_dict() == payload
            assert list(spec.to_dict()) == list(payload)
            del payload["name"], payload["description"]
            payload["params"] = spec.merged_params()
            canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
            assert point.id == point_id(spec) == digest, point.describe()

    def test_quick_shrinks_the_base_never_the_axes(self):
        sweep = tiny_sweep(quick_overrides={"num_tiles": 1, "seed": 3})
        quick = sweep.for_quick()
        assert quick.axes == sweep.axes
        assert quick.base.seed == 3
        assert len(quick.expand()) == len(sweep.expand())
        # Without overrides, quick mode is literally the same campaign.
        assert tiny_sweep().for_quick() == tiny_sweep()

    def test_invalid_quick_overrides_fail_at_construction(self):
        with pytest.raises(ValueError, match="vectorized"):
            tiny_sweep(quick_overrides={"engine": "bogus"})


class TestResultStore:
    def _record(self, pid, **extra):
        record = {"point_id": pid, "metrics": {"makespan_cycles": 1.0}}
        record.update(extra)
        return record

    def test_append_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        assert store.records() == [] and not store.exists()
        store.append(self._record("a"))
        store.append(self._record("b"))
        assert [r["point_id"] for r in store.records()] == ["a", "b"]
        assert store.completed_ids() == {"a", "b"}
        assert [r["point_id"] for r in store.select(["b", "a", "c"])] == ["b", "a"]

    def test_later_appends_win(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(self._record("a", run=1))
        store.append(self._record("a", run=2))
        assert store.by_point()["a"]["run"] == 2

    def test_truncated_last_line_is_skipped(self, tmp_path):
        """The state a killed campaign leaves behind must load cleanly."""
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append(self._record("a"))
        store.append(self._record("b"))
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        assert store.completed_ids() == {"a"}
        store.append(self._record("b"))  # resume re-records the lost point
        assert store.completed_ids() == {"a", "b"}

    def test_corrupt_interior_line_raises_with_line_number(self, tmp_path):
        """Damage that cannot come from truncation must not load silently."""
        path = tmp_path / "s.jsonl"
        path.write_text(
            '\n{"point_id": "ok"}\nnot json\n{"point_id": "later"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ResultStoreError, match=r"line 3"):
            ResultStore(path).records()

    def test_interior_record_without_point_id_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            '{"no_id": 1}\n{"point_id": "ok"}\n', encoding="utf-8"
        )
        with pytest.raises(ResultStoreError, match=r"line 1.*point_id"):
            ResultStore(path).completed_ids()

    def test_garbage_final_line_is_tolerated(self, tmp_path):
        """A malformed *last* line is indistinguishable from truncation."""
        path = tmp_path / "s.jsonl"
        path.write_text(
            '{"point_id": "ok"}\n[1, 2]\n', encoding="utf-8"
        )
        assert ResultStore(path).completed_ids() == {"ok"}

    def test_record_without_point_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="point_id"):
            ResultStore(tmp_path / "s.jsonl").append({"metrics": {}})

    def test_append_is_extend_of_one_record(self, tmp_path):
        record = self._record("a", axes=(1, 2))
        one, many = ResultStore(tmp_path / "one.jsonl"), ResultStore(tmp_path / "many.jsonl")
        assert one.append(record) == many.extend([record])[0] == json.loads(
            json.dumps(record)
        )
        assert one.path.read_bytes() == many.path.read_bytes()

    def test_extend_round_trips_in_order(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        written = store.extend(self._record(pid, axes=(pid,)) for pid in "abc")
        assert written == store.records()
        assert [r["point_id"] for r in written] == ["a", "b", "c"]
        assert store.path.read_bytes().count(b"\n") == 3

    def test_empty_extend_writes_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "sub" / "s.jsonl")
        assert store.extend([]) == []
        assert not store.path.parent.exists()

    def test_extend_rejects_a_record_without_point_id_before_writing(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        with pytest.raises(ValueError, match="point_id"):
            store.extend([self._record("a"), {"metrics": {}}])
        assert not store.exists()

    def test_truncated_last_line_after_extend_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.extend([self._record(pid) for pid in "abc"])
        data = store.path.read_bytes()
        store.path.write_bytes(data[: len(data) - 10])
        assert [r["point_id"] for r in store.records()] == ["a", "b"]

    def test_corrupt_line_before_an_extend_raises_with_line_number(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.extend([self._record(pid) for pid in "ab"])
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write("{torn\n")
        store.extend([self._record(pid) for pid in "cd"])
        with pytest.raises(ResultStoreError, match=r"s\.jsonl.*line 3"):
            store.records()

    def test_concurrent_extends_keep_every_line_whole(self, tmp_path):
        """Two processes each extend 200 large records at a time into one
        store: every line reads back whole, and each call's records stay
        contiguous, because a call is one locked write."""
        path = tmp_path / "s.jsonl"
        workers, batches, size = 2, 3, 200
        context = multiprocessing.get_context("fork")
        processes = [
            context.Process(target=_extend_batches, args=(path, worker, batches, size))
            for worker in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert not process.is_alive() and process.exitcode == 0
        records = ResultStore(path).records()
        assert path.read_bytes().count(b"\n") == len(records) == workers * batches * size
        assert all(record["pad"] == _PAD for record in records)
        calls = [record["point_id"].rsplit("-", 1)[0] for record in records]
        runs = [call for call, _ in itertools.groupby(calls)]
        assert sorted(runs) == sorted(set(calls))
        assert len(runs) == workers * batches


class TestRunCampaign:
    def test_fresh_run_executes_and_verifies_every_point(self, tmp_path):
        outcome = run_campaign(tiny_sweep(), store_path=tmp_path / "s.jsonl")
        assert outcome.executed_points == 4
        assert outcome.skipped_points == 0
        assert outcome.complete
        assert outcome.store_path.is_file()
        assert all(record["verified"] for record in outcome.records)
        assert all(
            record["metrics"]["makespan_cycles"] > 0
            for record in outcome.records
        )

    def test_rerun_skips_every_completed_point(self, tmp_path):
        store = tmp_path / "s.jsonl"
        first = run_campaign(tiny_sweep(), store_path=store)
        before = store.read_text(encoding="utf-8")
        again = run_campaign(tiny_sweep(), store_path=store)
        assert again.executed_points == 0
        assert again.skipped_points == 4
        assert store.read_text(encoding="utf-8") == before  # nothing re-ran
        assert again.records == first.records

    def test_shared_timing_cache_warms_across_points(self, tmp_path):
        outcome = run_campaign(tiny_sweep(), store_path=tmp_path / "s.jsonl")
        hits = sum(r["metrics"]["cache_hits"] for r in outcome.records)
        misses = sum(r["metrics"]["cache_misses"] for r in outcome.records)
        # 12 tiles across the campaign share one timing class: one miss.
        assert misses == 1
        assert hits == 11

    def test_interrupted_campaign_resumes_exactly(self, tmp_path):
        """Satellite: kill mid-grid, rerun, already-stored points are
        skipped and the final store equals an uninterrupted run's."""
        uninterrupted = run_campaign(tiny_sweep(), store_path=tmp_path / "full.jsonl")

        class Kill(Exception):
            pass

        seen = []

        def killer(record, fresh):
            seen.append(record["point_id"])
            if len(seen) == 2:
                raise Kill()

        store = tmp_path / "killed.jsonl"
        with pytest.raises(Kill):
            run_campaign(tiny_sweep(), store_path=store, on_point=killer)
        assert ResultStore(store).completed_ids() == set(seen)

        resumed = run_campaign(tiny_sweep(), store_path=store)
        assert resumed.skipped_points == 2
        assert resumed.executed_points == 2
        assert resumed.complete

        final = {r["point_id"]: r for r in resumed.records}
        reference = {r["point_id"]: r for r in uninterrupted.records}
        assert set(final) == set(reference)
        # Timing-cache accounting is an execution property (the resumed
        # process starts cold), not a simulation result — everything the
        # simulation produced must be identical.
        warmth = ("cache_hits", "cache_misses", "cache_hit_rate")
        for pid, record in reference.items():
            expected = {
                k: v for k, v in record["metrics"].items() if k not in warmth
            }
            got = {
                k: v for k, v in final[pid]["metrics"].items() if k not in warmth
            }
            assert got == expected
            assert final[pid]["spec"] == record["spec"]
            assert final[pid]["verified"]

    def test_max_points_caps_one_call(self, tmp_path):
        store = tmp_path / "s.jsonl"
        partial = run_campaign(tiny_sweep(), store_path=store, max_points=3)
        assert partial.executed_points == 3
        assert not partial.complete
        rest = run_campaign(tiny_sweep(), store_path=store)
        assert rest.executed_points == 1
        assert rest.skipped_points == 3
        assert rest.complete

    def test_quick_and_full_use_distinct_points(self, tmp_path):
        sweep = tiny_sweep(quick_overrides={"seed": 99})
        full = run_campaign(sweep, store_path=tmp_path / "s.jsonl")
        quick = run_campaign(
            sweep, store_path=tmp_path / "s.jsonl", options=ExecutionOptions(quick=True)
        )
        assert quick.executed_points == 4  # different hashes, no false resume
        assert full.complete and quick.complete

    def test_spec_options_change_point_ids_and_execution_options_do_not(self, tmp_path):
        def ids(**options):
            outcome = run_campaign(
                tiny_sweep(),
                store_path=tmp_path / "s.jsonl",
                options=ExecutionOptions(**options),
                max_points=0,
            )
            return [point.id for point in outcome.points]

        plain = ids()
        assert ids(cache_dir=str(tmp_path / "cache")) == plain
        assert ids(memoize=False) == plain
        assert set(ids(engine="scalar")).isdisjoint(plain)

    def test_unmemoized_run_over_a_memoized_store_executes_nothing(self, tmp_path):
        """Memoization is exact, so it is no part of a point's identity: a
        ``memoize=False`` run finds every point a memoized run stored and
        neither appends to the store nor publishes to the result cache."""
        store = tmp_path / "s.jsonl"
        cache = GlobalResultCache(tmp_path / "cache")
        filled = run_campaign(tiny_sweep(), store_path=store, cache=cache)
        assert filled.executed_points == 4
        stored = store.read_bytes()
        shards = {path.name: path.read_bytes() for path in cache.root.iterdir()}
        rerun = run_campaign(
            tiny_sweep(),
            store_path=store,
            cache=cache,
            options=ExecutionOptions(memoize=False),
        )
        assert (rerun.executed_points, rerun.skipped_points) == (0, 4)
        assert rerun.records == filled.records
        assert store.read_bytes() == stored
        assert {path.name: path.read_bytes() for path in cache.root.iterdir()} == shards
        warm = run_campaign(
            tiny_sweep(),
            store_path=tmp_path / "fresh.jsonl",
            cache=cache,
            options=ExecutionOptions(memoize=False),
        )
        assert (warm.executed_points, warm.cached_points) == (0, 4)
        assert {path.name: path.read_bytes() for path in cache.root.iterdir()} == shards

    def test_on_point_reports_resumed_points_as_not_fresh(self, tmp_path):
        store = tmp_path / "s.jsonl"
        run_campaign(tiny_sweep(), store_path=store)
        calls = []
        run_campaign(
            tiny_sweep(),
            store_path=store,
            on_point=lambda record, fresh: calls.append(fresh),
        )
        assert calls == [False, False, False, False]


def _strip_execution(record):
    """A record minus execution-only fields (warmth counters, wall time).

    Everything left — spec, axes, verification, every simulated metric —
    must be identical across execution paths; only how long it took and
    how warm the tile-timing cache happened to be may differ.
    """
    record = dict(record)
    record.pop("wall_seconds", None)
    warmth = ("cache_hits", "cache_misses", "cache_hit_rate")
    record["metrics"] = {
        k: v for k, v in record["metrics"].items() if k not in warmth
    }
    return record


#: A record payload large enough that one call's write spans many pages.
_PAD = "x" * 1000


def _extend_batches(path, worker, batches, size):
    """Worker for the concurrent-extend test: ``batches`` calls of
    ``size`` records each."""
    store = ResultStore(path)
    for batch in range(batches):
        store.extend(
            {"point_id": f"w{worker}-{batch}-{index:03d}", "pad": _PAD}
            for index in range(size)
        )


def _append_records(root, start, count):
    """Worker for the concurrent-append test: put ``count`` records."""
    cache = GlobalResultCache(root)
    for index in range(start, start + count):
        # A constant first hex char forces every record into ONE shard
        # file, so all processes contend on the same fcntl lock.
        cache.put({"point_id": f"a{index:05d}", "metrics": {"n": index}})


class TestGlobalResultCache:
    def _record(self, pid, **extra):
        record = {"point_id": pid, "metrics": {"makespan_cycles": 1.0}}
        record.update(extra)
        return record

    def test_put_get_round_trip_and_counters(self, tmp_path):
        from repro.obs import cache_counters, metrics

        metrics.set_metrics_enabled(True)
        before = cache_counters()

        def lookups():
            now = cache_counters()
            return tuple(
                now[name] - before[name]
                for name in ("repro_result_cache_hits_total", "repro_result_cache_misses_total")
            )

        cache = GlobalResultCache(tmp_path / "c")
        assert cache.get("ab12") is None
        assert lookups() == (0, 1)
        stored = cache.put(self._record("ab12", axes={"num_tiles": 2}))
        assert "schema" not in stored  # the stamp is internal
        assert cache.get("ab12") == stored
        assert lookups() == (1, 1)
        assert cache.entries() == 1

    def test_records_shard_by_leading_hex_char(self, tmp_path):
        cache = GlobalResultCache(tmp_path / "c")
        cache.put(self._record("ab"))
        cache.put(self._record("ac"))
        cache.put(self._record("0b"))
        assert cache.shard_path("ab") == cache.shard_path("ac")
        assert cache.shard_path("ab") != cache.shard_path("0b")
        assert cache.shard_path("ab").is_file()
        assert cache.entries() == 3

    def test_fresh_instance_reads_prior_writes(self, tmp_path):
        GlobalResultCache(tmp_path / "c").put(self._record("ab"))
        reader = GlobalResultCache(tmp_path / "c")
        assert reader.get("ab") is not None

    def test_refresh_picks_up_other_writers(self, tmp_path):
        reader = GlobalResultCache(tmp_path / "c")
        assert reader.get("ab") is None  # loads (and caches) an empty shard
        GlobalResultCache(tmp_path / "c").put(self._record("ab"))
        assert reader.get("ab") is None  # warm layer is stale by design
        reader.refresh()
        assert reader.get("ab") is not None

    def test_concurrent_multi_process_appends_interleave_whole_records(
        self, tmp_path
    ):
        """Satellite: N processes hammering one shard lose no records."""
        root = tmp_path / "c"
        workers, per_worker = 4, 25
        context = multiprocessing.get_context("fork")
        processes = [
            context.Process(
                target=_append_records, args=(root, i * per_worker, per_worker)
            )
            for i in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
            assert process.exitcode == 0
        cache = GlobalResultCache(root)
        assert cache.entries() == workers * per_worker
        for index in range(workers * per_worker):
            record = cache.get(f"a{index:05d}")
            assert record is not None and record["metrics"]["n"] == index

    def test_corrupt_shard_line_names_file_and_line(self, tmp_path):
        """Satellite: interior shard damage must not load silently."""
        cache = GlobalResultCache(tmp_path / "c")
        cache.put(self._record("ab"))
        cache.put(self._record("ac"))
        path = cache.shard_path("ab")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(
            "\n".join(["not json"] + lines) + "\n", encoding="utf-8"
        )
        fresh = GlobalResultCache(tmp_path / "c")
        with pytest.raises(ResultStoreError, match=r"shard-a\.jsonl.*line 1"):
            fresh.get("ab")

    def test_stale_schema_entries_are_invalidated(self, tmp_path, monkeypatch):
        """Satellite: a spec-schema change makes old entries misses."""
        import repro.campaign.cache as cache_mod

        GlobalResultCache(tmp_path / "c").put(self._record("ab"))
        monkeypatch.setattr(
            cache_mod, "spec_schema_version", lambda: "0123456789ab"
        )
        migrated = GlobalResultCache(tmp_path / "c")
        assert migrated.get("ab") is None
        assert migrated.entries() == 0
        # Re-publishing under the new schema serves again — the stale
        # line stays in the file (append-only) but never wins.
        migrated.put(self._record("ab"))
        assert migrated.get("ab") is not None

    def test_resolve_cache_precedence(self, tmp_path, monkeypatch):
        explicit = GlobalResultCache(tmp_path / "explicit")
        options = ExecutionOptions(cache_dir=str(tmp_path / "opt"))
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache(explicit, options) is explicit
        assert resolve_cache(None, options).root == tmp_path / "opt"
        assert resolve_cache(None, None).root == tmp_path / "env"
        monkeypatch.delenv(CACHE_DIR_ENV)
        assert resolve_cache(None, None) is None
        assert resolve_cache(None, ExecutionOptions()) is None


class TestCampaignResultCache:
    def test_warm_cache_serves_every_point_without_simulation(self, tmp_path):
        cache = GlobalResultCache(tmp_path / "cache")
        cold = run_campaign(
            tiny_sweep(), store_path=tmp_path / "cold.jsonl", cache=cache
        )
        assert cold.executed_points == 4 and cold.cached_points == 0
        warm = run_campaign(
            tiny_sweep(), store_path=tmp_path / "warm.jsonl", cache=cache
        )
        assert warm.executed_points == 0
        assert warm.cached_points == 4
        assert warm.skipped_points == 0
        assert warm.complete
        assert warm.cache_dir == str(tmp_path / "cache")

    def test_cached_results_are_bit_identical_to_cold_run(self, tmp_path):
        """Acceptance: the cached path returns exactly what a cold
        sequential run returns, minus execution-only fields."""
        cache = GlobalResultCache(tmp_path / "cache")
        cold = run_campaign(
            tiny_sweep(), store_path=tmp_path / "cold.jsonl", cache=cache
        )
        warm = run_campaign(
            tiny_sweep(), store_path=tmp_path / "warm.jsonl", cache=cache
        )
        assert [_strip_execution(r) for r in warm.records] == [
            _strip_execution(r) for r in cold.records
        ]

    def test_cache_dir_option_and_env_var_both_activate(
        self, tmp_path, monkeypatch
    ):
        options = ExecutionOptions(cache_dir=str(tmp_path / "cache"))
        run_campaign(tiny_sweep(), store_path=tmp_path / "a.jsonl", options=options)
        via_option = run_campaign(
            tiny_sweep(), store_path=tmp_path / "b.jsonl", options=options
        )
        assert via_option.cached_points == 4
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        via_env = run_campaign(tiny_sweep(), store_path=tmp_path / "c.jsonl")
        assert via_env.cached_points == 4
        assert via_env.executed_points == 0

    def test_no_cache_behaves_exactly_as_before(self, tmp_path):
        outcome = run_campaign(tiny_sweep(), store_path=tmp_path / "s.jsonl")
        assert outcome.cache_dir is None
        assert outcome.cached_points == 0
        assert outcome.executed_points == 4

    def test_served_records_land_in_one_write_and_executed_points_one_each(
        self, tmp_path, monkeypatch
    ):
        """A fresh store over a cache that holds half the sweep: the served
        records are one ``extend``, each executed point its own, and
        ``on_point`` still fires once per point with the same flags."""
        cache = GlobalResultCache(tmp_path / "cache")
        run_campaign(tiny_sweep(), store_path=tmp_path / "cold.jsonl", cache=cache, max_points=2)
        store = tmp_path / "fresh.jsonl"
        writes = []
        real_extend = ResultStore.extend

        def counting(self, records):
            records = list(records)
            if self.path == store:
                writes.append([record["point_id"] for record in records])
            return real_extend(self, records)

        monkeypatch.setattr(ResultStore, "extend", counting)
        calls = []
        outcome = run_campaign(
            tiny_sweep(),
            store_path=store,
            cache=cache,
            on_point=lambda record, fresh: calls.append((record["point_id"], fresh)),
        )
        ids = [point.id for point in outcome.points]
        assert (outcome.cached_points, outcome.executed_points) == (2, 2)
        assert writes == [ids[:2], [ids[2]], [ids[3]]]
        assert calls == [(ids[0], False), (ids[1], False), (ids[2], True), (ids[3], True)]
        assert [r["point_id"] for r in ResultStore(store).records()] == ids

    def test_on_point_over_a_partial_store_and_a_warm_cache(self, tmp_path):
        """A store that holds some points and a cache that holds the rest:
        one callback per point, in expansion order, every one not fresh."""
        cache = GlobalResultCache(tmp_path / "cache")
        cold = run_campaign(tiny_sweep(), store_path=tmp_path / "cold.jsonl", cache=cache)
        store = ResultStore(tmp_path / "mixed.jsonl")
        store.extend([cold.records[1], cold.records[3]])
        calls = []
        outcome = run_campaign(
            tiny_sweep(),
            store_path=store.path,
            cache=cache,
            on_point=lambda record, fresh: calls.append((record, fresh)),
        )
        assert (outcome.skipped_points, outcome.cached_points) == (2, 2)
        assert outcome.executed_points == 0
        assert [(record["point_id"], fresh) for record, fresh in calls] == [
            (point.id, False) for point in outcome.points
        ]
        assert [record for record, _ in calls] == outcome.records
        assert [r["point_id"] for r in store.records()] == [
            outcome.points[i].id for i in (1, 3, 0, 2)
        ]

    def test_cache_is_shared_across_renamed_campaigns(self, tmp_path):
        """Content addressing: a different campaign naming the same
        points reuses them, re-presented under its own names."""
        cache = GlobalResultCache(tmp_path / "cache")
        run_campaign(tiny_sweep(), store_path=tmp_path / "a.jsonl", cache=cache)
        renamed = tiny_sweep(name="renamed", description="same content")
        reused = run_campaign(
            renamed, store_path=tmp_path / "b.jsonl", cache=cache
        )
        assert reused.executed_points == 0
        assert reused.cached_points == 4
        # Re-presented under the current sweep's expansion, not the
        # publisher's: names/axes/specs match this run's points exactly.
        by_id = {p.id: p for p in reused.points}
        for record in reused.records:
            point = by_id[record["point_id"]]
            assert record["name"] == point.spec.name
            assert record["axes"] == dict(point.axis_values)
            # Stored specs are JSON round-tripped (tuples -> lists).
            assert record["spec"] == json.loads(json.dumps(point.spec.to_dict()))



def _watch_appends(monkeypatch, root):
    """Count the append-mode opens of files under ``root`` and keep every
    handle they return, through both ``open`` and ``Path.open``."""
    opened = {}
    real_open = io.open

    def watching(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if "a" in mode and Path(file).is_relative_to(root):
            opened.setdefault(Path(file), []).append(handle)
        return handle

    monkeypatch.setattr(builtins, "open", watching)
    monkeypatch.setattr(io, "open", watching)
    return opened


class TestHeldHandles:
    """A campaign run writes each file through one handle, opened on its
    first write and closed when the run returns or raises; every record is
    still locked, written and flushed before the next point starts."""

    def test_cold_campaign_opens_each_written_file_once(self, tmp_path, monkeypatch):
        opened = _watch_appends(monkeypatch, tmp_path)
        outcome = run_campaign(
            tiny_sweep(), store_path=tmp_path / "s.jsonl", cache=GlobalResultCache(tmp_path / "c")
        )
        assert outcome.executed_points == 4
        written = {tmp_path / "s.jsonl"} | set((tmp_path / "c").glob("shard-*.jsonl"))
        assert set(opened) == written
        assert {path: len(handles) for path, handles in opened.items()} == dict.fromkeys(
            written, 1
        )
        assert all(handle.closed for handles in opened.values() for handle in handles)

    def test_on_point_reader_already_sees_the_record_in_store_and_shard(self, tmp_path):
        store, cache_dir = tmp_path / "s.jsonl", tmp_path / "c"
        seen = []

        def reader(record, fresh):
            assert fresh
            assert ResultStore(store).by_point()[record["point_id"]] == record
            assert GlobalResultCache(cache_dir).get(record["point_id"]) == record
            seen.append(record["point_id"])

        outcome = run_campaign(
            tiny_sweep(), store_path=store, cache=GlobalResultCache(cache_dir), on_point=reader
        )
        assert seen == [point.id for point in outcome.points]

    @pytest.mark.parametrize("points", [1, 3])
    def test_raising_on_point_leaves_k_records_and_closes_every_handle(
        self, tmp_path, monkeypatch, points
    ):
        opened = _watch_appends(monkeypatch, tmp_path)
        store, cache_dir = tmp_path / "s.jsonl", tmp_path / "c"

        class Kill(Exception):
            pass

        def killer(record, fresh):
            if len(ResultStore(store).records()) == points:
                raise Kill()

        with pytest.raises(Kill):
            run_campaign(
                tiny_sweep(), store_path=store, cache=GlobalResultCache(cache_dir), on_point=killer
            )
        assert len(ResultStore(store).records()) == points
        assert GlobalResultCache(cache_dir).entries() == points
        assert opened and all(
            handle.closed for handles in opened.values() for handle in handles
        )

    def test_held_store_opens_on_first_write_and_closes_on_exit(self, tmp_path, monkeypatch):
        opened = _watch_appends(monkeypatch, tmp_path)
        store = ResultStore(tmp_path / "sub" / "s.jsonl")
        with store.held():
            with store.held():  # re-entering is a no-op
                pass
            assert not store.path.exists()
            store.append({"point_id": "a"})
            store.extend([{"point_id": "b"}, {"point_id": "c"}])
            assert [r["point_id"] for r in ResultStore(store.path).records()] == list("abc")
        assert [handle.closed for handle in opened[store.path]] == [True]
        store.append({"point_id": "d"})  # outside a hold: open, write, close
        assert [handle.closed for handle in opened[store.path]] == [True, True]

    def test_held_writers_on_one_path_interleave_only_whole_lines(self, tmp_path):
        """More held writers than cores, switching threads often: each
        record is its own locked write, so no line is torn or lost."""
        path = tmp_path / "s.jsonl"
        writers, records = 4, 150

        def write(worker):
            store = ResultStore(path)
            with store.held():
                for index in range(records):
                    store.append({"point_id": f"w{worker}-{index:03d}", "pad": _PAD})

        threads = [threading.Thread(target=write, args=(worker,)) for worker in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        lines = path.read_bytes().splitlines()
        assert len(lines) == writers * records
        ids = [json.loads(line)["point_id"] for line in lines]
        for worker in range(writers):
            assert [pid for pid in ids if pid.startswith(f"w{worker}-")] == [
                f"w{worker}-{index:03d}" for index in range(records)
            ]


QUICK = ExecutionOptions(quick=True)


class TestEveryShippedCampaign:
    """Every registered campaign, quick, through the one in-process loop:
    verified points, deterministic records, capped calls that partition
    the sweep, resume, and both caches returning cold-run results."""

    @pytest.mark.parametrize("name", registered_campaigns())
    def test_quick_run_verifies_every_point_in_expansion_order(
        self, name, tmp_path
    ):
        outcome = run_campaign(name, store_path=tmp_path / "s.jsonl", options=QUICK)
        assert outcome.complete
        assert outcome.executed_points == len(outcome.points)
        assert outcome.skipped_points == outcome.cached_points == 0
        assert [r["point_id"] for r in outcome.records] == [
            p.id for p in outcome.points
        ]
        assert all(record["verified"] for record in outcome.records)

    @pytest.mark.parametrize("name", registered_campaigns())
    def test_cold_runs_are_identical_apart_from_wall_time(self, name, tmp_path):
        """Two cold runs in one process produce the same records, warmth
        counters included: nothing depends on what ran before."""
        first = run_campaign(name, store_path=tmp_path / "a.jsonl", options=QUICK)
        second = run_campaign(name, store_path=tmp_path / "b.jsonl", options=QUICK)

        def without_wall_time(records):
            return [
                {k: v for k, v in r.items() if k != "wall_seconds"} for r in records
            ]

        assert without_wall_time(second.records) == without_wall_time(first.records)

    @pytest.mark.parametrize("name", registered_campaigns())
    def test_capped_calls_partition_the_sweep(self, name, tmp_path):
        """Calls capped at one point each execute disjoint points, in
        expansion order, and end with the store an uncapped run writes."""
        whole = run_campaign(name, store_path=tmp_path / "whole.jsonl", options=QUICK)
        store = tmp_path / "capped.jsonl"
        executed = []

        def note_fresh(record, fresh):
            if fresh:
                executed.append(record["point_id"])

        for _ in whole.points:
            outcome = run_campaign(
                name, store_path=store, options=QUICK, max_points=1, on_point=note_fresh
            )
            assert outcome.executed_points == 1
        assert outcome.complete
        assert executed == [p.id for p in whole.points]
        assert [_strip_execution(r) for r in outcome.records] == [
            _strip_execution(r) for r in whole.records
        ]

    @pytest.mark.parametrize("name", registered_campaigns())
    def test_rerun_resumes_every_point_without_writing(self, name, tmp_path):
        store = tmp_path / "s.jsonl"
        first = run_campaign(name, store_path=store, options=QUICK)
        before = store.read_bytes()
        again = run_campaign(name, store_path=store, options=QUICK)
        assert again.executed_points == 0
        assert again.skipped_points == len(first.points)
        assert store.read_bytes() == before
        assert again.records == first.records

    @pytest.mark.parametrize("name", registered_campaigns())
    def test_store_reloads_the_outcome_records(self, name, tmp_path):
        store = tmp_path / "s.jsonl"
        outcome = run_campaign(name, store_path=store, options=QUICK)
        assert ResultStore(store).select(p.id for p in outcome.points) == (
            outcome.records
        )
        assert ResultStore(store).completed_ids() == {p.id for p in outcome.points}

    @pytest.mark.parametrize("name", registered_campaigns())
    def test_warm_result_cache_fills_a_fresh_store_with_cold_results(
        self, name, tmp_path
    ):
        cache = GlobalResultCache(tmp_path / "cache")
        cold = run_campaign(
            name, store_path=tmp_path / "cold.jsonl", options=QUICK, cache=cache
        )
        warm = run_campaign(
            name, store_path=tmp_path / "warm.jsonl", options=QUICK, cache=cache
        )
        assert warm.executed_points == 0
        assert warm.cached_points == len(cold.points)
        assert [_strip_execution(r) for r in warm.records] == [
            _strip_execution(r) for r in cold.records
        ]

    @pytest.mark.parametrize("name", registered_campaigns())
    def test_shared_timing_cache_changes_only_warmth(self, name, tmp_path):
        """A tile-timing cache carried into a second run re-simulates
        every point with the same results; only the warmth counters and
        wall time may differ, and the warm run misses no more often."""
        timing_cache = TileTimingCache()
        cold = run_campaign(
            name,
            store_path=tmp_path / "cold.jsonl",
            options=QUICK,
            timing_cache=timing_cache,
        )
        warm = run_campaign(
            name,
            store_path=tmp_path / "warm.jsonl",
            options=QUICK,
            timing_cache=timing_cache,
        )
        assert warm.executed_points == len(cold.points)
        assert [_strip_execution(r) for r in warm.records] == [
            _strip_execution(r) for r in cold.records
        ]

        def misses(outcome):
            return sum(r["metrics"].get("cache_misses", 0) for r in outcome.records)

        assert misses(warm) <= misses(cold)


class TestRegistry:
    def test_shipped_campaigns_are_registered(self):
        assert set(registered_campaigns()) >= {
            "conv-geometry-sweep",
            "engine-shootout",
            "dnn-scaling",
        }

    def test_unknown_campaign_lists_choices(self):
        with pytest.raises(ValueError, match="conv-geometry-sweep"):
            get_campaign("does-not-exist")

    def test_duplicate_registration_rejected(self):
        sweep = get_campaign("conv-geometry-sweep")
        with pytest.raises(ValueError, match="already registered"):
            register_campaign(sweep)
        assert register_campaign(sweep, replace=True) is sweep

    def test_every_shipped_campaign_expands_in_both_modes(self):
        for sweep in iter_campaigns():
            assert len(sweep.expand()) >= 2
            assert len(sweep.for_quick().expand()) == len(sweep.expand())

    def test_conv_geometry_sweep_quick_expands_enough_points(self):
        """Acceptance: the quick sweep covers >= 8 design points."""
        assert len(get_campaign("conv-geometry-sweep").for_quick().expand()) >= 8

    def test_geometry_sweep_constraint_prunes_the_oversized_corner(self):
        points = get_campaign("conv-geometry-sweep").expand()
        assert all(
            p.spec.num_vaults * p.spec.clusters_per_vault <= 16 for p in points
        )
        assert len(points) == 11  # 3x4 grid minus the 32-cluster corner


class TestCrossEngineParity:
    """Satellite: every campaign point family is bit-identical across
    engines at the smallest grid point."""

    @pytest.mark.parametrize(
        "name", ["conv-geometry-sweep", "engine-shootout", "dnn-scaling"]
    )
    def test_smallest_point_is_bit_identical_across_engines(self, name):
        points = get_campaign(name).for_quick().expand()
        smallest = min(
            points,
            key=lambda p: (
                p.spec.num_tiles,
                p.spec.num_vaults * p.spec.clusters_per_vault,
            ),
        )
        outputs = {}
        for engine in ("scalar", "vectorized"):
            outcome = run_scenario(smallest.spec, engine=engine)
            outputs[engine] = outcome.output_arrays()
        for scalar_out, vectorized_out in zip(
            outputs["scalar"], outputs["vectorized"]
        ):
            assert np.array_equal(scalar_out, vectorized_out)


@pytest.fixture(scope="module")
def geometry_outcome(tmp_path_factory):
    """One quick conv-geometry-sweep run, shared by the analysis tests."""
    store = tmp_path_factory.mktemp("campaign") / "geometry.jsonl"
    return run_campaign(
        "conv-geometry-sweep", store_path=store, options=ExecutionOptions(quick=True)
    )


class TestAnalysis:
    def test_rows_cover_every_point(self, geometry_outcome):
        rows = analyze_records(geometry_outcome.records)
        assert len(rows) == len(geometry_outcome.points)
        assert all(row.verified for row in rows)

    def test_throughput_plateaus_with_geometry(self, geometry_outcome):
        """Acceptance: at fixed vault bandwidth, added clusters stop
        paying — the simulated Table-II plateau."""
        rows = analyze_records(geometry_outcome.records)
        single_vault = [r for r in rows if r.vaults == 1]
        assert max(r.clusters for r in single_vault) == 8
        assert any(r.plateau for r in single_vault)
        top = max(single_vault, key=lambda r: r.clusters)
        # A plateaued point saturates its modelled bandwidth roof.
        assert top.model_bound_by == "bandwidth"
        assert top.gflops == pytest.approx(top.model_bound_gflops, rel=0.02)

    def test_speedup_is_relative_to_the_fewest_cluster_point(
        self, geometry_outcome
    ):
        rows = analyze_records(geometry_outcome.records)
        base = min(rows, key=lambda r: r.clusters)
        assert base.speedup == 1.0
        assert all(row.speedup >= 1.0 for row in rows)
        assert max(row.speedup for row in rows) > 2.0

    def test_model_overlay_fields_are_populated(self, geometry_outcome):
        rows = analyze_records(geometry_outcome.records)
        for row in rows:
            assert row.operational_intensity > 0
            assert row.model_bound_gflops > 0
            assert row.model_bound_by in ("compute", "bandwidth")
            assert row.model_efficiency_gops_w > 0

    def test_format_report_names_the_plateau(self, geometry_outcome):
        report = format_report(analyze_records(geometry_outcome.records))
        assert "plateau" in report
        assert "verified against their golden models" in report
        assert "Gop/s/W" in report

    def test_empty_records_render_a_hint(self):
        assert "run the campaign" in format_report(analyze_records([]))

    def test_weak_scaling_zip_campaign_forms_one_series(self, tmp_path):
        """dnn-scaling grows tiles with clusters; the analysis must still
        see one scaling curve, with work-normalized speedups near the
        cluster ratio (perfect weak scaling)."""
        outcome = run_campaign(
            "dnn-scaling",
            store_path=tmp_path / "dnn.jsonl",
            options=ExecutionOptions(quick=True),
        )
        rows = analyze_records(outcome.records)
        assert len({row.series for row in rows}) == 1
        base = min(rows, key=lambda r: r.clusters)
        for row in rows:
            ratio = row.clusters / base.clusters
            assert row.speedup == pytest.approx(ratio, rel=0.05)
            assert row.parallel_efficiency == pytest.approx(1.0, rel=0.05)

    def test_analysis_round_trips_through_json(self, geometry_outcome):
        """Stored records are plain JSON; analysis must work on a reload."""
        text = "\n".join(
            json.dumps(record) for record in geometry_outcome.records
        )
        reloaded = [json.loads(line) for line in text.splitlines()]
        rows = analyze_records(reloaded)
        assert len(rows) == len(geometry_outcome.records)
