"""Golden parity of the vectorized cycle engine against the scalar engine.

The vectorized engine must be a drop-in replacement: identical memory
contents, identical statistics, and identical timing and conflict
statistics on every input.  Both engines write through the one data
plane, so the timing is what differs between their loops: the compiled
timing core leaves out two behaviours of the scalar loop (store-to-load
forwarding and the shared grant of one address to two ports); the runs
that could meet either are timed by the scalar loop instead, so every
check here is exact, and a fuzz over raw command streams compares the
two engines field by field.
"""

import os
import shutil
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.cluster import timing_core, vecsim
from repro.cluster.engine import scalar_loop
from repro.cluster.timing_core import TimingCounters
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.sim import ClusterSimulator
from repro.core.commands import (
    AguConfig,
    InitSource,
    LoopConfig,
    NtxCommand,
    NtxOpcode,
)
from repro.core.controller import NtxController
from repro.core import vecops
from repro.core.vecops import command_plan, execute_functional
from repro.kernels.blas import axpy_commands
from repro.kernels.conv import conv2d_commands
from repro.scenarios import registered_scenarios, run_scenario

from command_draws import draw_cluster_config, draw_jobs


def _conv_setup(cluster, rng, image_shape=(20, 22), kernel=3):
    img = rng.standard_normal(image_shape).astype(np.float32)
    weights = rng.standard_normal((kernel, kernel)).astype(np.float32)
    height, width = image_shape
    out_h, out_w = height - kernel + 1, width - kernel + 1
    sizes = [img.nbytes, weights.nbytes, out_h * out_w * 4] * cluster.config.num_ntx
    addresses = cluster.tcdm.alloc_layout(sizes)
    jobs = []
    outs = []
    for i in range(cluster.config.num_ntx):
        img_addr, w_addr, out_addr = addresses[3 * i : 3 * i + 3]
        cluster.stage_in(img_addr, img)
        cluster.stage_in(w_addr, weights)
        jobs.append(
            (i, conv2d_commands(height, width, kernel, img_addr, w_addr, out_addr)[0])
        )
        outs.append(out_addr)
    return img, weights, jobs, outs, (out_h, out_w)


def _run_both(build_jobs, **run_kwargs):
    """Run the same fixed-seed workload through both engines."""
    results = {}
    outputs = {}
    for engine in ("scalar", "vectorized"):
        cluster = Cluster()
        jobs, outs, out_shape = build_jobs(cluster)
        result = ClusterSimulator(cluster, engine=engine).run(jobs, **run_kwargs)
        results[engine] = result
        outputs[engine] = [cluster.stage_out(addr, out_shape) for addr in outs]
    return results, outputs


class TestCommandStreams:
    """The vectorized controller must replay the scalar controller exactly."""

    def _reference(self, command):
        controller = NtxController(command)
        ops = list(controller.micro_ops())
        return ops

    @pytest.mark.parametrize(
        "command",
        [
            conv2d_commands(10, 12, 3, 0x1000_0000, 0x1000_1000, 0x1000_2000)[0],
            axpy_commands(33, 0x1000_0000, 0x1000_0100, 0x1000_0200)[0],
            NtxCommand(  # partial-sum stores: store level below init level
                opcode=NtxOpcode.MAC,
                loops=LoopConfig.nest(4, 3, 2),
                agu0=AguConfig(base=0x1000_0000, strides=(4, 4, 4, 0, 0)),
                agu1=AguConfig(base=0x1000_0400, strides=(4, -12, 8, 0, 0)),
                agu2=AguConfig(base=0x1000_0800, strides=(0, 4, 8, 0, 0)),
                init_level=2,
                store_level=1,
                init_source=InitSource.AGU2,
            ),
            NtxCommand(  # no write-back at all
                opcode=NtxOpcode.MAX,
                loops=LoopConfig.nest(17),
                agu0=AguConfig(base=0x1000_0000, strides=(4, 0, 0, 0, 0)),
                writeback=False,
            ),
        ],
    )
    def test_streams_match_controller(self, command):
        ops = self._reference(command)
        streams = command_plan(command)
        assert streams.total == len(ops)
        for t, op in enumerate(ops):
            if streams.read0 is not None:
                assert streams.read0[t] == op.read0
            else:
                assert op.read0 is None
            if streams.read1 is not None:
                assert streams.read1[t] == op.read1
            else:
                assert op.read1 is None
            assert (t in streams.init_ts) == op.init
            if op.init_read is not None:
                position = np.searchsorted(streams.init_ts, t)
                assert streams.init_read_addrs[position] == op.init_read
            if op.store is not None:
                position = np.searchsorted(streams.store_ts, t)
                assert streams.store_addrs[position] == op.store
            else:
                assert t not in streams.store_ts


class TestGoldenParity:
    """Fixed-seed workloads: both engines must agree."""

    @pytest.mark.parametrize(
        "rng_seed, image_shape",
        [(0xC0FFEE, (20, 22)), (2019, (26, 28))],
        ids=["20x22", "26x28"],
    )
    def test_conv_parity_is_exact(self, rng_seed, image_shape):
        """Streaming conv: every field of the run and every output byte."""

        def build(cluster):
            rng = np.random.default_rng(rng_seed)
            _, _, jobs, outs, out_shape = _conv_setup(cluster, rng, image_shape)
            return jobs, outs, out_shape

        results, outputs = _run_both(build)
        assert results["vectorized"] == results["scalar"]
        for out_s, out_v in zip(outputs["scalar"], outputs["vectorized"]):
            np.testing.assert_array_equal(out_v, out_s)

    def test_parity_with_dma_traffic(self):
        def build(cluster):
            rng = np.random.default_rng(7)
            _, _, jobs, outs, out_shape = _conv_setup(cluster, rng, (14, 16))
            return jobs, outs, out_shape

        results, _ = _run_both(build, dma_requests_per_cycle=0.75)
        scalar, vectorized = results["scalar"], results["vectorized"]
        assert vectorized.cycles == scalar.cycles
        assert vectorized.tcdm_requests == scalar.tcdm_requests
        assert vectorized.tcdm_conflicts == scalar.tcdm_conflicts

    def test_parity_single_ntx_all_opcode_shapes(self):
        """Single streamer (fig3b shape): elementwise and reduction loops."""
        for opcode in NtxOpcode:
            elementwise = not opcode.is_reduction
            n = 96

            def build(cluster, opcode=opcode, elementwise=elementwise):
                rng = np.random.default_rng(5)
                a_addr, b_addr, out_addr = cluster.tcdm.alloc_layout([n * 4] * 3)
                cluster.stage_in(a_addr, rng.standard_normal(n).astype(np.float32))
                cluster.stage_in(b_addr, rng.standard_normal(n).astype(np.float32))
                command = NtxCommand(
                    opcode=opcode,
                    loops=LoopConfig.nest(n),
                    agu0=AguConfig(base=a_addr, strides=(4, 0, 0, 0, 0)),
                    agu1=AguConfig(base=b_addr, strides=(4, 0, 0, 0, 0)),
                    agu2=AguConfig(
                        base=out_addr, strides=((4 if elementwise else 0), 0, 0, 0, 0)
                    ),
                    init_level=0 if elementwise else 1,
                    store_level=0 if elementwise else 1,
                    init_source=InitSource.ZERO,
                    scalar=0.5,
                )
                shape = (n,) if elementwise else (1,)
                return [(0, command)], [out_addr], shape

            results, outputs = _run_both(build)
            scalar, vectorized = results["scalar"], results["vectorized"]
            assert vectorized.cycles == scalar.cycles, opcode
            assert vectorized.tcdm_conflicts == scalar.tcdm_conflicts, opcode
            np.testing.assert_array_equal(
                outputs["vectorized"][0], outputs["scalar"][0], err_msg=str(opcode)
            )

    def test_parity_raw_hazard_fallback(self):
        """In-place AXPY applied twice: exercises the exact fallback path."""
        n = 64

        def build(cluster):
            rng = np.random.default_rng(11)
            a_addr, x_addr, y_addr = cluster.tcdm.alloc_layout([4, n * 4, n * 4])
            cluster.stage_in(a_addr, np.array([2.0], np.float32))
            cluster.stage_in(x_addr, rng.standard_normal(n).astype(np.float32))
            cluster.stage_in(y_addr, rng.standard_normal(n).astype(np.float32))
            command = axpy_commands(n, a_addr, x_addr, y_addr)[0]
            return [(0, command), (0, command)], [y_addr], (n,)

        results, outputs = _run_both(build)
        # Both engines write through the data plane's exact per-op walk here.
        np.testing.assert_array_equal(outputs["vectorized"][0], outputs["scalar"][0])
        assert results["vectorized"] == results["scalar"]

    def test_partial_sum_stores_parity(self):
        """store_level < init_level: running partial sums are written back."""

        def build(cluster):
            rng = np.random.default_rng(3)
            a_addr, b_addr, out_addr = cluster.tcdm.alloc_layout([96, 96, 96])
            cluster.stage_in(a_addr, rng.standard_normal(24).astype(np.float32))
            cluster.stage_in(b_addr, rng.standard_normal(24).astype(np.float32))
            command = NtxCommand(
                opcode=NtxOpcode.MAC,
                loops=LoopConfig.nest(4, 3, 2),
                agu0=AguConfig(base=a_addr, strides=(4, 4, 4, 0, 0)),
                agu1=AguConfig(base=b_addr, strides=(4, -12, 8, 0, 0)),
                agu2=AguConfig(base=out_addr, strides=(0, 4, 8, 0, 0)),
                init_level=2,
                store_level=1,
                init_source=InitSource.ZERO,
            )
            return [(0, command)], [out_addr], (6,)

        results, outputs = _run_both(build)
        np.testing.assert_array_equal(outputs["vectorized"][0], outputs["scalar"][0])
        assert results["vectorized"].cycles == results["scalar"].cycles

    def test_small_cluster_parity(self):
        def build(cluster):
            rng = np.random.default_rng(23)
            _, _, jobs, outs, out_shape = _conv_setup(cluster, rng, (12, 14))
            return jobs[:2], outs[:2], out_shape

        results, outputs = _run_both(build, stagger_cycles=0)
        assert results["vectorized"].cycles == results["scalar"].cycles
        for out_s, out_v in zip(outputs["scalar"], outputs["vectorized"]):
            np.testing.assert_array_equal(out_v, out_s)


class TestEdgeConfigurations:
    def test_zero_setup_and_drain_cycles_terminate(self):
        """A zero-cycle setup/drain phase must not wedge the engine."""
        from repro.core.ntx import NtxConfig

        cycle_counts = {}
        for engine in ("scalar", "vectorized"):
            config = ClusterConfig(
                ntx=NtxConfig(command_setup_cycles=0, writeback_drain_cycles=0)
            )
            cluster = Cluster(config)
            a_addr, x_addr, y_addr = cluster.tcdm.alloc_layout([4, 16, 16])
            cluster.stage_in(a_addr, np.array([2.0], np.float32))
            cluster.stage_in(x_addr, np.ones(4, np.float32))
            cluster.stage_in(y_addr, np.ones(4, np.float32))
            command = axpy_commands(4, a_addr, x_addr, y_addr)[0]
            result = ClusterSimulator(cluster, engine=engine).run(
                [(0, command)], max_cycles=10_000
            )
            cycle_counts[engine] = result.cycles
        assert cycle_counts["vectorized"] == cycle_counts["scalar"]

    def test_fallback_path_does_not_double_count_fpu_stats(self):
        """The exact fallback issues the real FPU; stats must count once."""
        n = 8

        def build(cluster):
            buf = cluster.tcdm.alloc_layout([(n + 1) * 4])[0]
            cluster.stage_in(buf, np.arange(1, n + 2, dtype=np.float32))
            # COPY that reads the word its previous iteration stored: a
            # genuine intra-command RAW hazard, so the array kernel refuses
            # and the exact per-op path runs.
            command = NtxCommand(
                opcode=NtxOpcode.COPY,
                loops=LoopConfig.nest(n),
                agu0=AguConfig(base=buf, strides=(4, 0, 0, 0, 0)),
                agu2=AguConfig(base=buf + 4, strides=(4, 0, 0, 0, 0)),
            )
            return [(0, command)], [buf], (n + 1,)

        from repro.core.vecops import command_plan

        probe = Cluster()
        jobs, _, _ = build(probe)
        assert command_plan(jobs[0][1]).raw_hazard

        # A RAW hazard inside the FIFO window is timing-sensitive on the
        # real machine (reads can beat earlier stores); the data plane
        # resolves it deterministically in program order, i.e. like the
        # per-op walk: buf[0] propagates through the chain.
        functional = Cluster()
        jobs, outs, shape = build(functional)
        execute_functional(functional.ntx[0], jobs[0][1], functional.tcdm)
        expected = functional.stage_out(outs[0], shape)

        cluster = Cluster()
        jobs, outs, shape = build(cluster)
        ClusterSimulator(cluster, engine="vectorized").run(jobs)
        np.testing.assert_array_equal(cluster.stage_out(outs[0], shape), expected)
        assert cluster.ntx[0].fpu.stats.issues == n
        assert cluster.ntx[0].fpu.stats.writebacks == n


#: Without a C compiler every MAC walks per op by design, counted as
#: ``no_compiler`` with the walk's bytes: the fallback checks leave that
#: reason out on such a host and still see every other.
_NO_COMPILER = () if shutil.which("cc") else ("no_compiler",)


def _fallbacks(name="repro_dataplane_fallbacks_total"):
    """Fallback counter ``name`` by reason (metrics switched on)."""
    from repro.obs import metrics

    metrics.set_metrics_enabled(True)
    counter = metrics.REGISTRY.get(name)
    skipped = _NO_COMPILER if name == "repro_dataplane_fallbacks_total" else ()

    def by_reason():
        return {
            reason: value
            for _, pairs, value in counter.samples()
            if (reason := dict(pairs)["reason"]) not in skipped
        }

    return by_reason


class TestFallbackCounter:
    """Every refusal of the array data plane is counted, with its reason."""

    @staticmethod
    def _shift_copy(cluster, n=8):
        """A COPY reading the word its previous iteration stored (RAW)."""
        buf = cluster.tcdm.alloc_layout([(n + 1) * 4])[0]
        cluster.stage_in(buf, np.arange(1, n + 2, dtype=np.float32))
        return NtxCommand(
            opcode=NtxOpcode.COPY,
            loops=LoopConfig.nest(n),
            agu0=AguConfig(base=buf, strides=(4, 0, 0, 0, 0)),
            agu2=AguConfig(base=buf + 4, strides=(4, 0, 0, 0, 0)),
        )

    @staticmethod
    def _refused(command, cluster):
        """Whether the array kernel refuses ``command`` on the live TCDM
        (a stack of one); counts the refusal."""
        from repro.cluster.vecsim import _mac_write_back
        from repro.core.vecops import execute_streams_batched

        view = np.frombuffer(cluster.tcdm.memory.data, dtype="<f4")[:, None]
        return not execute_streams_batched(
            command, command_plan(command), view, cluster.tcdm.base,
            cluster.ntx[0].config.pcs, _mac_write_back(),
        )

    def test_raw_hazard_command_is_counted(self):
        by_reason = _fallbacks()
        cluster = Cluster()
        command = self._shift_copy(cluster)
        ClusterSimulator(cluster).run_data_plane([(0, command)])
        assert by_reason() == {"raw_hazard": 1.0}
        ClusterSimulator(cluster, engine="vectorized").run([(0, command)])
        assert by_reason() == {"raw_hazard": 2.0}

    def test_offloaded_raw_hazard_walks_per_op_and_is_counted(self):
        by_reason = _fallbacks()
        cluster = Cluster()
        command = self._shift_copy(cluster)
        buf = command.agu0.base
        memory = cluster.tcdm.memory
        staged = (memory.reads, memory.writes)
        cluster.offload(command, ntx_id=2)
        assert by_reason() == {"raw_hazard": 1.0}
        fpu_stats = cluster.ntx[2].fpu_stats
        assert fpu_stats.issues == fpu_stats.writebacks == 8
        assert (memory.reads - staged[0], memory.writes - staged[1]) == (8, 8)
        assert cluster.ntx[2].stats.commands == 1
        # The walk runs in program order: word 0 propagates down the chain.
        np.testing.assert_array_equal(
            cluster.stage_out(buf, (9,)), np.ones(9, dtype=np.float32)
        )

    def test_batched_raw_hazard_is_counted_once_per_stack(self):
        from repro.cluster.vecsim import _mac_write_back
        from repro.core.vecops import execute_streams_batched

        by_reason = _fallbacks()
        cluster = Cluster()
        command = self._shift_copy(cluster)
        stack = np.zeros((cluster.tcdm.size // 4, 3), dtype=np.float32)
        assert not execute_streams_batched(
            command, command_plan(command), stack, cluster.tcdm.base,
            cluster.ntx[0].config.pcs, _mac_write_back(),
        )
        assert by_reason() == {"raw_hazard": 1.0}

    def test_outside_tcdm_is_counted_and_a_nan_compare_replays(self):
        """An unaligned command is refused; a MAX over a NaN is not (the
        comparator's NaN rule is an array formula) and stores the walk's
        value."""
        by_reason = _fallbacks()
        cluster = Cluster()
        src, dst = cluster.tcdm.alloc_layout([16, 4])
        cluster.stage_in(src, np.array([1.0, np.nan, 3.0, 0.5], np.float32))
        maximum = NtxCommand(
            opcode=NtxOpcode.MAX,
            loops=LoopConfig.nest(4),
            agu0=AguConfig(base=src, strides=(4, 0, 0, 0, 0)),
            agu2=AguConfig(base=dst, strides=(0, 0, 0, 0, 0)),
            init_level=1,
            store_level=1,
        )
        assert not self._refused(maximum, cluster)
        assert cluster.stage_out(dst, (1,))[0] == 3.0
        unaligned = NtxCommand(
            opcode=NtxOpcode.COPY,
            loops=LoopConfig.nest(2),
            agu0=AguConfig(base=src + 2, strides=(4, 0, 0, 0, 0)),
            agu2=AguConfig(base=dst, strides=(0, 0, 0, 0, 0)),
        )
        assert self._refused(unaligned, cluster)
        assert by_reason() == {"outside_tcdm": 1.0}

    def test_fast_path_counts_nothing(self):
        by_reason = _fallbacks()
        cluster = Cluster()
        _, _, jobs, _, _ = _conv_setup(cluster, np.random.default_rng(5), (10, 12))
        ClusterSimulator(cluster, engine="vectorized").run(jobs)
        assert by_reason() == {}

    def test_non_buffer_backing_fails_loudly(self):
        cluster = Cluster()
        _, _, jobs, _, _ = _conv_setup(cluster, np.random.default_rng(5), (10, 12))
        cluster.tcdm.memory.data = [0] * cluster.tcdm.size
        with pytest.raises(TypeError):
            ClusterSimulator(cluster).run_data_plane(jobs[:1])


class TestEngineSelection:
    def test_unknown_engine_rejected_listing_choices(self):
        """The registry error names every valid engine."""
        with pytest.raises(ValueError, match="vectorized"):
            ClusterSimulator(Cluster(), engine="quantum")
        with pytest.raises(ValueError, match="scalar"):
            ClusterSimulator(Cluster(), engine="quantum")

    def test_simulator_resolves_through_the_registry(self):
        from repro.cluster.engine import available_engines, get_engine

        assert ClusterSimulator(Cluster()).engine == "vectorized"
        for name in available_engines():
            simulator = ClusterSimulator(Cluster(), engine=name)
            assert simulator.engine == name
            assert simulator._engine is get_engine(name)

    def test_timing_signature_starts_with_the_engine_name(self):
        cluster = Cluster()
        command = axpy_commands(4, cluster.tcdm.base, cluster.tcdm.base,
                                cluster.tcdm.base)[0]
        jobs = [(0, command)]
        for engine in ("scalar", "vectorized"):
            signature = ClusterSimulator(cluster, engine=engine).timing_signature(jobs)
            assert signature[0] == engine

    def test_vectorized_honours_max_cycles(self):
        cluster = Cluster()
        rng = np.random.default_rng(1)
        _, _, jobs, _, _ = _conv_setup(cluster, rng, (10, 12))
        with pytest.raises(RuntimeError):
            ClusterSimulator(cluster, engine="vectorized").run(jobs, max_cycles=10)

    def test_vectorized_rejects_bad_ntx_id(self):
        cluster = Cluster()
        command = axpy_commands(4, cluster.tcdm.base, cluster.tcdm.base,
                                cluster.tcdm.base)[0]
        with pytest.raises(ValueError):
            ClusterSimulator(cluster, engine="vectorized").run([(99, command)])

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_results_count_this_runs_requests_only(self, engine):
        """Like cycles and flops, request/conflict counts are per run even
        when one simulator runs several job sets."""
        cluster = Cluster()
        _, _, jobs, _, _ = _conv_setup(cluster, np.random.default_rng(3), (10, 12))
        simulator = ClusterSimulator(cluster, engine=engine)
        first = simulator.run(jobs)
        second = simulator.run(jobs[:4], dma_requests_per_cycle=0.5)
        interconnect = simulator.interconnect
        assert first.tcdm_requests + second.tcdm_requests == interconnect.requests
        assert first.tcdm_conflicts + second.tcdm_conflicts == interconnect.conflicts
        assert 0 < second.tcdm_requests < first.tcdm_requests


# --------------------------------------------------------------------------- #
# The compiled timing core against the scalar engine                          #
# --------------------------------------------------------------------------- #

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)


@st.composite
def _timing_cases(draw):
    """A random machine plus raw per-NTX command queues for it."""
    config = draw_cluster_config(draw)
    jobs = draw_jobs(draw, config)
    num_ntx = config.num_ntx
    return {
        "config": config,
        "jobs": jobs,
        "max_cycles": draw(st.one_of(st.just(1_000_000), st.integers(0, 100))),
        # Decimal rates whose float sums straddle whole numbers pin the
        # accumulator's rounding.
        "dma": draw(st.one_of(
            st.just(0.0), st.sampled_from([0.1, 0.3, 0.7, 1.1, 2.3]),
            st.floats(0.0, 3.0),
        )),
        "stagger": draw(st.integers(-2, 12)),
        # Offsets outside 0..num_masters-1 pin Python's floor modulo.
        "rr_offset": draw(st.integers(-(num_ntx + 2), 2 * (num_ntx + 2))),
    }


def _engine_run(case, engine):
    """One run of ``case`` on ``engine``: everything it reports."""
    cluster = Cluster(case["config"])
    simulator = ClusterSimulator(cluster, engine=engine)
    simulator.interconnect._rr_offset = case["rr_offset"]
    try:
        result = simulator.run(
            case["jobs"], case["max_cycles"], case["dma"], case["stagger"]
        )
    except RuntimeError as error:
        return ("error", str(error))
    interconnect = simulator.interconnect
    return (
        result,
        interconnect.stats,
        interconnect._rr_offset,
        [(n.stats.active_cycles, n.stats.stall_cycles) for n in cluster.ntx],
    )


def _flagged(jobs):
    """Whether a command carries a verdict the compiled loop hands over."""
    return any(
        command_plan(command).raw_hazard or command_plan(command).shared_reads
        for _, command in jobs
    )


def _assert_engines_agree(case):
    assert timing_core.load() is not None, "the compiled timing core did not build"
    by_reason = _fallbacks("repro_timing_core_fallbacks_total")
    before = by_reason()
    vectorized = _engine_run(case, "vectorized")
    if not _flagged(case["jobs"]):
        assert by_reason() == before
    assert vectorized == _engine_run(case, "scalar")


@needs_cc
class TestCompiledTimingCore:
    """The vectorized engine is cycle-exact against the scalar engine; a
    run without either hazard verdict is timed by the compiled loop."""

    @seed(20190325)
    @settings(max_examples=60, deadline=None)
    @given(case=_timing_cases())
    def test_differential_fuzz(self, case):
        _assert_engines_agree(case)

    @pytest.mark.slow
    @seed(22)
    @settings(max_examples=600, deadline=None)
    @given(case=_timing_cases())
    def test_differential_fuzz_deep(self, case):
        _assert_engines_agree(case)

    @pytest.mark.parametrize("name", registered_scenarios())
    def test_registered_scenario_parity_without_fallbacks(self, name):
        from repro.system.memo import TileTimingCache

        by_reason = _fallbacks("repro_timing_core_fallbacks_total")
        compiled = run_scenario(name, timing_cache=TileTimingCache())
        assert by_reason() == {}
        scalar = run_scenario(name, timing_cache=TileTimingCache(), engine="scalar")
        assert compiled.result == scalar.result
        for ours, theirs in zip(compiled.output_arrays(), scalar.output_arrays()):
            np.testing.assert_array_equal(ours, theirs)

    def test_the_scalar_loop_reads_no_command_plan(self, monkeypatch):
        """The scalar loop takes its addresses from the AGUs, never from
        the command plans the compiled loop runs on, so the fuzz compares
        two independent models: with plans refused, it still returns the
        compiled loop's counters."""
        cluster = Cluster()
        _, _, jobs, _, _ = _conv_setup(cluster, np.random.default_rng(5), (10, 12))
        simulator = ClusterSimulator(cluster)
        params = vecsim.timing_params(simulator, 1_000_000, 0.6, 7)
        by_reason = _fallbacks("repro_timing_core_fallbacks_total")
        result = simulator.run(jobs, 1_000_000, 0.6, 7)
        assert by_reason() == {}
        interconnect = simulator.interconnect
        compiled = TimingCounters(
            result.cycles, interconnect.requests, interconnect.grants,
            interconnect.conflicts, interconnect.conflict_cycles,
            interconnect._rr_offset, list(result.per_ntx_active),
            list(result.per_ntx_stall),
        )

        def refuse(command):
            raise AssertionError("the scalar loop read a command plan")

        monkeypatch.setattr(vecops, "command_plan", refuse)
        monkeypatch.setattr(vecsim, "command_plan", refuse)
        queues = [
            [command for ntx_id, command in jobs if ntx_id == ntx]
            for ntx in range(cluster.config.num_ntx)
        ]
        assert scalar_loop(queues, params) == compiled

    def test_library_is_cached_by_source_and_argv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(timing_core, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(timing_core, "_STATE", None)
        assert timing_core.load() is not None
        (library,) = tmp_path.iterdir()  # no half-written temp file left
        assert library.name.startswith("timing_core-")
        built = library.stat().st_mtime_ns
        monkeypatch.setattr(timing_core, "_STATE", None)
        assert timing_core.load() is not None
        assert [p.stat().st_mtime_ns for p in tmp_path.iterdir()] == [built]

    def test_import_neither_builds_nor_loads(self):
        probe = (
            "import repro, repro.scenarios, repro.campaign, repro.report\n"
            "import repro.cluster.vecsim\n"
            "from repro.cluster import timing_core\n"
            "assert timing_core._STATE is None\n"
        )
        src = Path(timing_core.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def _forwarding_case(cluster, distance=4, n=24):
    """A COPY storing ``distance`` words ahead of its reads: each read
    observes a store of the write-back FIFO (``raw_hazard``)."""
    buf = cluster.tcdm.alloc_layout([(n + distance) * 4])[0]
    return [(0, NtxCommand(
        opcode=NtxOpcode.COPY,
        loops=LoopConfig.nest(n),
        agu0=AguConfig(base=buf, strides=(4, 0, 0, 0, 0)),
        agu2=AguConfig(base=buf + 4 * distance, strides=(4, 0, 0, 0, 0)),
    ))]


def _shared_grant_case(cluster, n=32):
    """``x . x`` on every NTX: both operand ports present one address in
    one cycle (``shared_reads``)."""
    x, out = cluster.tcdm.alloc_layout([n * 4, 4 * cluster.config.num_ntx])
    cluster.stage_in(x, np.arange(n, dtype=np.float32) / 8)
    operand = AguConfig(base=x, strides=(4, 0, 0, 0, 0))
    return [
        (ntx_id, NtxCommand(
            opcode=NtxOpcode.MAC,
            loops=LoopConfig.nest(n),
            agu0=operand,
            agu1=operand,
            agu2=AguConfig(base=out + 4 * ntx_id, strides=(0, 0, 0, 0, 0)),
            init_level=1,
            store_level=1,
        ))
        for ntx_id in range(cluster.config.num_ntx)
    ]


def _counters(simulator):
    """Every counter a run leaves on ``simulator``'s cluster: NTX and FPU
    statistics, TCDM bank accesses and memory reads/writes, and the
    interconnect's statistics."""
    cluster = simulator.cluster
    tcdm = cluster.tcdm
    return (
        [(astuple(ntx.stats), astuple(ntx.fpu_stats)) for ntx in cluster.ntx],
        tcdm.bank_accesses.tolist(),
        (tcdm.memory.reads, tcdm.memory.writes),
        simulator.interconnect.stats,
    )


@needs_cc
class TestHandBuiltHazards:
    """Each behaviour the compiled loop leaves out, built by hand: the
    compiled loop alone disagrees with the scalar engine, and the
    vectorized engine returns the scalar engine's timing instead, counted
    under the command's verdict.  The engine changes no byte and no
    counter: both write through the one data plane."""

    @pytest.mark.parametrize(
        "build, verdict",
        [(_forwarding_case, "raw_hazard"), (_shared_grant_case, "shared_reads")],
    )
    def test_vectorized_engine_times_on_the_scalar_engine(
        self, build, verdict, monkeypatch
    ):
        (_, command), *_ = build(Cluster())
        assert getattr(command_plan(command), verdict)
        by_reason = _fallbacks("repro_timing_core_fallbacks_total")

        def run(engine):
            cluster = Cluster()
            jobs = build(cluster)
            simulator = ClusterSimulator(cluster, engine=engine)
            result = simulator.run(jobs)
            return result, bytes(cluster.tcdm.memory.data), _counters(simulator)

        scalar = run("scalar")
        vectorized = run("vectorized")
        assert by_reason() == {verdict: 1.0}
        assert vectorized == scalar
        monkeypatch.setattr(vecsim, "_timing_hazard", lambda queues: None)
        assert run("vectorized")[0] != scalar[0]
        assert by_reason() == {verdict: 1.0}

    def test_forwarded_reads_count_like_the_data_plane(self):
        """A forwarded read presents no TCDM request, yet the NTX, FPU
        and TCDM counters count every read of the command, as the data
        plane accounts it."""
        cluster = Cluster()
        jobs = _forwarding_case(cluster)
        simulator = ClusterSimulator(cluster, engine="scalar")
        simulator.run(jobs)
        plan = command_plan(jobs[0][1])
        stats = cluster.ntx[0].stats
        assert (stats.tcdm_reads, stats.tcdm_writes) == (plan.num_reads, plan.num_stores)
        assert cluster.tcdm.memory.reads == plan.num_reads
        assert cluster.ntx[0].fpu_stats.issues == plan.total
        assert simulator.interconnect.requests < plan.num_reads + plan.num_stores


def _conv_outcome(engine="vectorized"):
    cluster = Cluster()
    _, _, jobs, _, _ = _conv_setup(cluster, np.random.default_rng(8), (12, 14))
    simulator = ClusterSimulator(cluster, engine=engine)
    result = simulator.run(jobs, 1_000_000, 0.6, 7)
    return result, simulator.interconnect.stats, bytes(cluster.tcdm.memory.data)


class TestTimingCoreFallback:
    """Without the library the scalar engine times the run, counted by
    reason."""

    def test_missing_compiler_times_on_the_scalar_engine(self, monkeypatch):
        by_reason = _fallbacks("repro_timing_core_fallbacks_total")
        expected = _conv_outcome("scalar")
        monkeypatch.setattr(timing_core, "_find_compiler", lambda: None)
        monkeypatch.setattr(timing_core, "_STATE", None)
        assert _conv_outcome() == expected
        assert by_reason() == {"no_compiler": 1.0}

    @staticmethod
    def _mac_replays():
        """Conv MACs replayed through the data plane alone, on the live
        TCDM and on a stack of three tile images: the bytes of both."""
        cluster = Cluster()
        _, _, jobs, _, _ = _conv_setup(cluster, np.random.default_rng(4), (10, 12))
        view = np.frombuffer(cluster.tcdm.memory.data, dtype=np.float32)
        stack = np.stack([view, view[::-1], view * 0.5], axis=1)
        simulator = ClusterSimulator(cluster)
        simulator.run_data_plane(jobs)
        simulator.run_data_plane(jobs, stack, cluster.tcdm.base)
        return bytes(cluster.tcdm.memory.data), stack.tobytes(), len(jobs)

    @needs_cc
    def test_missing_compiler_walks_macs_per_op_and_counts_them(self, monkeypatch):
        """Without the library the data plane walks every MAC per op (tile
        by tile on a stack) to the compiled kernel's bytes, counting each
        command once under the library's reason; the timing-core counter
        counts cycle-loop runs only."""
        dataplane = _fallbacks()
        timing = _fallbacks("repro_timing_core_fallbacks_total")
        compiled = self._mac_replays()
        assert dataplane() == {}
        monkeypatch.setattr(timing_core, "_find_compiler", lambda: None)
        monkeypatch.setattr(timing_core, "_STATE", None)
        assert timing_core.mac_kernel() is None
        live, stacked, num_jobs = self._mac_replays()
        assert (live, stacked) == compiled[:2]
        assert dataplane() == {"no_compiler": 2.0 * num_jobs}
        assert timing() == {}
        _conv_outcome()
        assert timing() == {"no_compiler": 1.0}

    @needs_cc
    def test_timing_fallback_keeps_the_mac_kernel_compiled(self):
        """A run the scalar engine times leaves every MAC on the compiled
        kernel: nothing falls back to the per-op walk."""
        dataplane = _fallbacks()
        timing = _fallbacks("repro_timing_core_fallbacks_total")
        cluster = Cluster()
        ClusterSimulator(cluster).run(_shared_grant_case(cluster))
        assert timing() == {"shared_reads": 1.0}
        assert dataplane() == {}

    @needs_cc
    def test_failed_build_and_load_are_counted(self, tmp_path, monkeypatch):
        by_reason = _fallbacks("repro_timing_core_fallbacks_total")
        expected = _conv_outcome("scalar")
        broken = tmp_path / "broken.c"
        broken.write_text("#error this source does not compile\n")
        monkeypatch.setattr(timing_core, "_cache_dir", lambda: tmp_path / "cache")
        monkeypatch.setattr(timing_core, "SOURCE", broken)
        monkeypatch.setattr(timing_core, "_STATE", None)
        assert _conv_outcome() == expected
        assert list((tmp_path / "cache").iterdir()) == []
        not_a_library = tmp_path / "timing_core-bogus.so"
        not_a_library.write_text("not ELF\n")
        monkeypatch.setattr(timing_core, "_build", lambda compiler: not_a_library)
        monkeypatch.setattr(timing_core, "_STATE", None)
        assert _conv_outcome() == expected
        assert by_reason() == {"build_failed": 1.0, "load_failed": 1.0}
