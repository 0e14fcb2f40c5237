"""Golden parity of the vectorized cycle engine against the scalar engine.

The vectorized engine must be a drop-in replacement: identical memory
contents, identical statistics, and identical timing and conflict
statistics on every input.  Both engines write through the one data
plane, so the timing is what differs between their loops: the compiled
timing core models the whole scalar loop, the shared grant of one address
to two ports included, and a fuzz over raw command streams compares the
two engines field by field.  A command that reads its own earlier store
(a read-after-write hazard) is refused by both, before anything is
written.
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
from repro.cluster.timing_core import TimingCounters, TimingInput
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.sim import ClusterSimulator
from repro.cluster.tiling import TileProgram
from repro.core.commands import (
    AguConfig,
    InitSource,
    LoopConfig,
    NtxCommand,
    NtxOpcode,
)
from repro.core.controller import NtxController
from repro.core.ntx import ACTIVE_CYCLES, STALL_CYCLES, STAT_COLUMNS
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

    def test_parity_in_place_axpy_twice(self):
        """In-place AXPY applied twice: each iteration's init read of
        ``y[i]`` precedes its store of ``y[i]``, so no read observes an
        earlier store, and the array data plane runs both commands."""
        n = 64
        by_reason = _fallbacks()

        def build(cluster):
            rng = np.random.default_rng(11)
            a_addr, x_addr, y_addr = cluster.tcdm.alloc_layout([4, n * 4, n * 4])
            cluster.stage_in(a_addr, np.array([2.0], np.float32))
            cluster.stage_in(x_addr, rng.standard_normal(n).astype(np.float32))
            cluster.stage_in(y_addr, rng.standard_normal(n).astype(np.float32))
            command = axpy_commands(n, a_addr, x_addr, y_addr)[0]
            assert not command_plan(command).raw_hazard
            return [(0, command), (0, command)], [y_addr], (n,)

        results, outputs = _run_both(build)
        np.testing.assert_array_equal(outputs["vectorized"][0], outputs["scalar"][0])
        assert results["vectorized"] == results["scalar"]
        assert by_reason() == {}

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

    def test_fallback_path_credits_the_walks_fpu_stats_once(self):
        """The exact fallback steps the cluster's FPU, whose own counts are
        nobody's: the data plane credits the command's FPU statistics
        once, as the walk counted them."""
        n = 8
        # Unaligned reads: the array kernel refuses (``outside_tcdm``) and
        # the exact per-op path runs.
        functional = Cluster()
        command = _unaligned_copy(functional, n)
        execute_functional(functional.fpu, command, functional.tcdm)
        expected = bytes(functional.tcdm.memory.data)
        assert astuple(functional.fpu.stats) == (n, 0, 0, n)

        cluster = Cluster()
        ClusterSimulator(cluster, engine="vectorized").run([(0, _unaligned_copy(cluster, n))])
        assert bytes(cluster.tcdm.memory.data) == expected
        fpu = STAT_COLUMNS.index("issues")
        assert tuple(cluster.ntx_stats[0, fpu:].tolist()) == astuple(functional.fpu.stats)


    def test_program_facts_follow_the_ntx_count_of_their_jobs(self):
        """A program's jobs placed for 4 NTX and run on 8 leave no
        accounts or timing input behind for its 8-NTX jobs."""
        layout = Cluster().tcdm.alloc_layout([4, 64, 64, 4, 64, 64])
        program = TileProgram([
            axpy_commands(16, *layout[:3])[0], axpy_commands(8, *layout[3:])[0]
        ] * 3)

        def run(jobs):
            cluster = Cluster()
            result = ClusterSimulator(cluster).run(jobs)
            return result, cluster.ntx_stats.tolist()

        run(program.jobs(4))
        assert run(program.jobs(8)) == run(list(program.jobs(8)))


def _unaligned_copy(cluster, n=8):
    """A COPY whose reads sit two bytes off word alignment: the array data
    plane refuses it (``outside_tcdm``), so the exact per-op walk runs."""
    src, dst = cluster.tcdm.alloc_layout([(n + 1) * 4, n * 4])
    cluster.stage_in(src, np.arange(1, n + 2, dtype=np.float32))
    return NtxCommand(
        opcode=NtxOpcode.COPY,
        loops=LoopConfig.nest(n),
        agu0=AguConfig(base=src + 2, strides=(4, 0, 0, 0, 0)),
        agu2=AguConfig(base=dst, strides=(4, 0, 0, 0, 0)),
    )


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


def _shift_copy(cluster, n=8):
    """A COPY reading the word its previous iteration stored: a
    read-after-write hazard."""
    buf = cluster.tcdm.alloc_layout([(n + 1) * 4])[0]
    cluster.stage_in(buf, np.arange(1, n + 2, dtype=np.float32))
    return NtxCommand(
        opcode=NtxOpcode.COPY,
        loops=LoopConfig.nest(n),
        agu0=AguConfig(base=buf, strides=(4, 0, 0, 0, 0)),
        agu2=AguConfig(base=buf + 4, strides=(4, 0, 0, 0, 0)),
    )


class TestReadAfterWriteRefusal:
    """A command that reads an address it stored at an earlier iteration
    is refused with ``ValueError`` naming its NTX, by both engines, the
    data plane alone and ``Cluster.offload`` (which the ISS bus drives),
    before any byte or counter is written."""

    @pytest.mark.parametrize("entry", ["scalar", "vectorized", "data_plane", "offload"])
    def test_every_entry_point_refuses_before_writing(self, entry):
        dataplane = _fallbacks()
        timing = _fallbacks("repro_timing_core_fallbacks_total")
        cluster = Cluster()
        command = _shift_copy(cluster)
        assert command_plan(command).raw_hazard
        engine = "scalar" if entry == "scalar" else "vectorized"
        simulator = ClusterSimulator(cluster, engine=engine)
        before = bytes(cluster.tcdm.memory.data), _counters(simulator)
        run = {
            "scalar": lambda: simulator.run([(2, command)]),
            "vectorized": lambda: simulator.run([(2, command)]),
            "data_plane": lambda: simulator.run_data_plane([(2, command)]),
            "offload": lambda: cluster.offload(command, ntx_id=2),
        }[entry]
        with pytest.raises(ValueError, match="NTX 2: .*read-after-write hazard"):
            run()
        assert (bytes(cluster.tcdm.memory.data), _counters(simulator)) == before
        assert dataplane() == {} and timing() == {}
        assert not cluster.ntx_regs[2].busy

    def test_the_forwarding_case_is_refused_by_both_engines(self):
        """A COPY storing four words ahead of its reads: each read would
        observe a store still in the write-back FIFO."""
        for engine in ("scalar", "vectorized"):
            cluster = Cluster()
            with pytest.raises(ValueError, match="NTX 0"):
                ClusterSimulator(cluster, engine=engine).run(_forwarding_case(cluster))


class TestFallbackCounter:
    """Every refusal of the array data plane is counted, with its reason."""

    @staticmethod
    def _refused(command, cluster):
        """Whether the array kernel refuses ``command`` on the live TCDM
        (a stack of one); counts the refusal."""
        from repro.cluster.vecsim import _mac_write_back
        from repro.core.vecops import execute_streams_batched

        view = np.frombuffer(cluster.tcdm.memory.data, dtype="<f4")[:, None]
        return not execute_streams_batched(
            command, command_plan(command), view, cluster.tcdm.base,
            cluster.config.ntx.pcs, _mac_write_back(),
        )

    def test_offloaded_unaligned_command_walks_per_op_and_is_counted(self):
        by_reason = _fallbacks()
        functional = Cluster()
        execute_functional(functional.fpu, _unaligned_copy(functional), functional.tcdm)
        cluster = Cluster()
        command = _unaligned_copy(cluster)
        memory = cluster.tcdm.memory
        staged = (memory.reads, memory.writes)
        cluster.offload(command, ntx_id=2)
        assert by_reason() == {"outside_tcdm": 1.0}
        stats = dict(zip(STAT_COLUMNS, cluster.ntx_stats[2].tolist()))
        assert stats["issues"] == stats["writebacks"] == 8
        assert (memory.reads - staged[0], memory.writes - staged[1]) == (8, 8)
        assert stats["commands"] == 1
        assert bytes(memory.data) == bytes(functional.tcdm.memory.data)

    def test_batched_refusal_is_counted_once_per_stack(self):
        from repro.cluster.vecsim import _mac_write_back
        from repro.core.vecops import execute_streams_batched

        by_reason = _fallbacks()
        cluster = Cluster()
        command = _unaligned_copy(cluster)
        stack = np.zeros((cluster.tcdm.size // 4, 3), dtype=np.float32)
        assert not execute_streams_batched(
            command, command_plan(command), stack, cluster.tcdm.base,
            cluster.config.ntx.pcs, _mac_write_back(),
        )
        assert by_reason() == {"outside_tcdm": 1.0}

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

    def test_simulator_resolves_the_engine_name(self):
        from repro.cluster.engine import available_engines, resolve_engine

        assert ClusterSimulator(Cluster()).engine == "vectorized"
        assert resolve_engine() == "vectorized"
        for name in available_engines():
            assert ClusterSimulator(Cluster(), engine=name).engine == name
            assert resolve_engine(name) == name

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
    """One run of ``case`` on ``engine``: everything it reports.  A run
    refused for a read-after-write hazard must leave the cluster as it
    found it."""
    cluster = Cluster(case["config"])
    simulator = ClusterSimulator(cluster, engine=engine)
    simulator.interconnect._rr_offset = case["rr_offset"]
    before = bytes(cluster.tcdm.memory.data), _counters(simulator)
    try:
        result = simulator.run(
            case["jobs"], case["max_cycles"], case["dma"], case["stagger"]
        )
    except RuntimeError as error:
        return ("error", str(error))
    except ValueError as error:
        assert (bytes(cluster.tcdm.memory.data), _counters(simulator)) == before
        return ("refused", str(error))
    interconnect = simulator.interconnect
    return (
        result,
        interconnect.stats,
        interconnect._rr_offset,
        cluster.ntx_stats[:, [ACTIVE_CYCLES, STALL_CYCLES]].tolist(),
    )


def _assert_engines_agree(case):
    assert timing_core.load() is not None, "the compiled timing core did not build"
    by_reason = _fallbacks("repro_timing_core_fallbacks_total")
    before = by_reason()
    vectorized = _engine_run(case, "vectorized")
    assert by_reason() == before
    hazard = any(command_plan(command).raw_hazard for _, command in case["jobs"])
    assert (vectorized[0] == "refused") == hazard
    assert vectorized == _engine_run(case, "scalar")


@needs_cc
class TestCompiledTimingCore:
    """The vectorized engine is cycle-exact against the scalar engine, and
    the compiled loop times every run it accepts."""

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
    would observe a store of the write-back FIFO (``raw_hazard``)."""
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
        cluster.ntx_stats.tolist(),
        tcdm.bank_accesses.tolist(),
        (tcdm.memory.reads, tcdm.memory.writes),
        simulator.interconnect.stats,
    )


@needs_cc
class TestSharedGrant:
    """``x . x``: one grant serves both operand ports of an NTX that
    present the same address in one cycle, and the compiled loop models
    it like the scalar loop."""

    def test_the_compiled_loop_equals_the_scalar_loop(self):
        cluster = Cluster()
        jobs = _shared_grant_case(cluster)
        n, num_ntx = jobs[0][1].total_iterations, cluster.config.num_ntx
        assert command_plan(jobs[0][1]).shared_reads
        params = vecsim.timing_params(ClusterSimulator(cluster), 1_000_000, 0.0, 7)
        queues = vecsim.plans_per_ntx(num_ntx, jobs)
        base, num_banks = params.tcdm_base, params.num_banks
        compiled = timing_core.load()(
            TimingInput([[plan.banks(base, num_banks) for _, plan in queue]
                         for queue in queues]),
            params,
        )
        assert compiled == scalar_loop(
            [[command for command, _ in queue] for queue in queues], params
        )
        # Each shared pair counts two requests, one grant and one conflict,
        # and no NTX ever waits on its second operand.
        assert compiled.conflicts == n * num_ntx
        assert compiled.stall == [0] * num_ntx

    def test_both_engines_agree_without_a_fallback(self):
        dataplane = _fallbacks()
        timing = _fallbacks("repro_timing_core_fallbacks_total")

        def run(engine):
            cluster = Cluster()
            simulator = ClusterSimulator(cluster, engine=engine)
            result = simulator.run(_shared_grant_case(cluster))
            return result, bytes(cluster.tcdm.memory.data), _counters(simulator)

        assert run("vectorized") == run("scalar")
        assert timing() == {} and dataplane() == {}


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
