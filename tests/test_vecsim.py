"""Golden parity of the vectorized cycle engine against the scalar engine.

The vectorized engine must be a drop-in replacement: identical memory
contents on streaming kernels, identical static counters (flops,
iterations), and timing/conflict statistics that agree with the scalar
reference on fixed-seed golden workloads.  The workloads here are
deterministic, so the assertions are tight — the conflict-statistics
checks are exact where the two machines are behaviourally identical and
tolerance-banded only where the engines may legitimately diverge
(store-to-load forwarding, shared same-address grants).
"""

import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.cluster import timing_core, vecsim
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.sim import ClusterSimulator
from repro.core.commands import (
    NUM_LOOPS,
    AguConfig,
    InitSource,
    LoopConfig,
    NtxCommand,
    NtxOpcode,
)
from repro.core.controller import NtxController
from repro.core.ntx import NtxConfig
from repro.core.vecops import command_plan
from repro.kernels.blas import axpy_commands
from repro.kernels.conv import conv2d_commands
from repro.mem.tcdm import TcdmConfig
from repro.scenarios import registered_scenarios, run_scenario


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

    def test_conv_parity_is_exact(self):
        """Streaming conv: the two machines are behaviourally identical."""

        def build(cluster):
            rng = np.random.default_rng(0xC0FFEE)
            _, _, jobs, outs, out_shape = _conv_setup(cluster, rng)
            return jobs, outs, out_shape

        results, outputs = _run_both(build)
        scalar, vectorized = results["scalar"], results["vectorized"]
        assert vectorized.cycles == scalar.cycles
        assert vectorized.tcdm_requests == scalar.tcdm_requests
        assert vectorized.tcdm_conflicts == scalar.tcdm_conflicts
        assert vectorized.flops == scalar.flops
        assert vectorized.iterations == scalar.iterations
        assert vectorized.per_ntx_active == scalar.per_ntx_active
        assert vectorized.per_ntx_stall == scalar.per_ntx_stall
        for out_s, out_v in zip(outputs["scalar"], outputs["vectorized"]):
            np.testing.assert_allclose(out_v, out_s, rtol=1e-6, atol=1e-7)

    def test_conv_parity_banded_guarantee(self):
        """The documented tolerance guarantee on the golden workload."""

        def build(cluster):
            rng = np.random.default_rng(2019)
            _, _, jobs, outs, out_shape = _conv_setup(cluster, rng, (26, 28))
            return jobs, outs, out_shape

        results, _ = _run_both(build)
        scalar, vectorized = results["scalar"], results["vectorized"]
        assert vectorized.conflict_probability == pytest.approx(
            scalar.conflict_probability, abs=0.01
        )
        assert vectorized.cycles == pytest.approx(scalar.cycles, rel=0.02)
        assert vectorized.utilization == pytest.approx(scalar.utilization, abs=0.02)

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
            np.testing.assert_allclose(
                outputs["vectorized"][0], outputs["scalar"][0], rtol=1e-6, atol=1e-7,
                err_msg=str(opcode),
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
        # The data plane must be bit-exact here (same soft-float path).
        np.testing.assert_array_equal(outputs["vectorized"][0], outputs["scalar"][0])
        assert results["vectorized"].flops == results["scalar"].flops

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
        np.testing.assert_allclose(
            outputs["vectorized"][0], outputs["scalar"][0], rtol=1e-6, atol=1e-7
        )
        assert results["vectorized"].cycles == results["scalar"].cycles

    def test_small_cluster_parity(self):
        def build(cluster):
            rng = np.random.default_rng(23)
            _, _, jobs, outs, out_shape = _conv_setup(cluster, rng, (12, 14))
            return jobs[:2], outs[:2], out_shape

        results, outputs = _run_both(build, stagger_cycles=0)
        assert results["vectorized"].cycles == results["scalar"].cycles
        for out_s, out_v in zip(outputs["scalar"], outputs["vectorized"]):
            np.testing.assert_allclose(out_v, out_s, rtol=1e-6, atol=1e-7)


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
        # real machine (reads can beat earlier stores); the vectorized
        # engine resolves it deterministically in program order, i.e. like
        # the functional executor: buf[0] propagates through the chain.
        functional = Cluster()
        jobs, outs, shape = build(functional)
        functional.ntx[0].execute(jobs[0][1], functional.tcdm)
        expected = functional.stage_out(outs[0], shape)

        cluster = Cluster()
        jobs, outs, shape = build(cluster)
        ClusterSimulator(cluster, engine="vectorized").run(jobs)
        np.testing.assert_array_equal(cluster.stage_out(outs[0], shape), expected)
        assert cluster.ntx[0].fpu.stats.issues == n
        assert cluster.ntx[0].fpu.stats.writebacks == n


def _fallbacks(name="repro_dataplane_fallbacks_total"):
    """Fallback counter ``name`` by reason (metrics switched on)."""
    from repro.obs import metrics

    metrics.set_metrics_enabled(True)
    counter = metrics.REGISTRY.get(name)

    def by_reason():
        return {dict(pairs)["reason"]: value for _, pairs, value in counter.samples()}

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
        from repro.core.vecops import execute_streams_batched

        view = np.frombuffer(cluster.tcdm.memory.data, dtype="<f4")[:, None]
        return not execute_streams_batched(
            command, command_plan(command), view, cluster.tcdm.base
        )

    def test_raw_hazard_command_is_counted(self):
        by_reason = _fallbacks()
        cluster = Cluster()
        command = self._shift_copy(cluster)
        ClusterSimulator(cluster).run_data_plane([(0, command)])
        assert by_reason() == {"raw_hazard": 1.0}
        ClusterSimulator(cluster, engine="vectorized").run([(0, command)])
        assert by_reason() == {"raw_hazard": 2.0}

    def test_batched_raw_hazard_is_counted_once_per_stack(self):
        from repro.core.vecops import execute_streams_batched

        by_reason = _fallbacks()
        cluster = Cluster()
        command = self._shift_copy(cluster)
        stack = np.zeros((cluster.tcdm.size // 4, 3), dtype=np.float32)
        assert not execute_streams_batched(
            command, command_plan(command), stack, cluster.tcdm.base
        )
        assert by_reason() == {"raw_hazard": 1.0}

    def test_outside_tcdm_and_nan_compare_are_counted(self):
        by_reason = _fallbacks()
        cluster = Cluster()
        src, dst = cluster.tcdm.alloc_layout([16, 4])
        cluster.stage_in(src, np.array([1.0, np.nan, 3.0, 0.5], np.float32))
        maximum = NtxCommand(
            opcode=NtxOpcode.MAX,
            loops=LoopConfig.nest(4),
            agu0=AguConfig(base=src, strides=(4, 0, 0, 0, 0)),
            agu2=AguConfig(base=dst, strides=(0, 0, 0, 0, 0)),
        )
        assert self._refused(maximum, cluster)
        unaligned = NtxCommand(
            opcode=NtxOpcode.COPY,
            loops=LoopConfig.nest(2),
            agu0=AguConfig(base=src + 2, strides=(4, 0, 0, 0, 0)),
            agu2=AguConfig(base=dst, strides=(0, 0, 0, 0, 0)),
        )
        assert self._refused(unaligned, cluster)
        assert by_reason() == {"nan_compare": 1.0, "outside_tcdm": 1.0}

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
# The compiled timing core against the Python reference loop                  #
# --------------------------------------------------------------------------- #

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)

#: A base far from both ends of the 32-bit space: an AGU's excursion
#: measured from it never wraps around.
_PROBE_BASE = 1 << 31


@st.composite
def _timing_cases(draw):
    """A random machine plus raw per-NTX command queues for it."""
    num_ntx = draw(st.integers(1, 8))
    num_banks = draw(st.integers(4, 32))
    config = ClusterConfig(
        num_ntx=num_ntx,
        tcdm=TcdmConfig(size_bytes=num_banks * 4 * 512, num_banks=num_banks),
        ntx=NtxConfig(
            command_setup_cycles=draw(st.integers(0, 6)),
            writeback_drain_cycles=draw(st.integers(0, 6)),
            data_fifo_depth=draw(st.integers(1, 6)),
            writeback_fifo_depth=draw(st.integers(1, 4)),
        ),
    )
    tcdm_base, tcdm_words = config.tcdm.base_address, config.tcdm.total_words
    jobs = []
    for ntx_id in range(num_ntx):
        for _ in range(draw(st.integers(0, 3))):
            counts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
            levels = len(counts)
            init_level = draw(st.integers(0, levels))

            def strides():
                words = draw(st.lists(
                    st.integers(-8, 8), min_size=levels, max_size=levels
                ))
                return tuple(4 * w for w in words) + (0,) * (NUM_LOOPS - levels)

            agus = [AguConfig(_PROBE_BASE, strides()) for _ in range(3)]
            command = NtxCommand(
                opcode=draw(st.sampled_from(list(NtxOpcode))),
                loops=LoopConfig.nest(*counts),
                agu0=agus[0], agu1=agus[1], agu2=agus[2],
                init_level=init_level,
                store_level=draw(st.integers(0, init_level)),
                init_source=draw(st.sampled_from(list(InitSource))),
                writeback=draw(st.booleans()),
                scalar=0.5,
            )
            # Place every AGU so its whole address stream lies in the TCDM.
            probe = command_plan(replace(command, opcode=NtxOpcode.MAC))
            placed = {}
            for name, addresses in (
                ("agu0", probe.read0), ("agu1", probe.read1), ("agu2", probe.agu2)
            ):
                words = (addresses - _PROBE_BASE) // 4
                low, high = -int(words.min()), tcdm_words - 1 - int(words.max())
                start = draw(st.integers(low, high))
                placed[name] = AguConfig(
                    tcdm_base + 4 * start, getattr(command, name).strides
                )
            jobs.append((ntx_id, replace(command, **placed)))
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


def _reference_loop():
    """Context in which the engine runs the Python reference loop."""
    return mock.patch.object(timing_core, "load", lambda: None)


def _timed_run(case):
    """One run of ``case``: everything it reports."""
    cluster = Cluster(case["config"])
    simulator = ClusterSimulator(cluster)
    simulator.interconnect._rr_offset = case["rr_offset"]
    try:
        result = vecsim.run_vectorized(
            simulator, case["jobs"], case["max_cycles"], case["dma"], case["stagger"]
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


def _assert_loops_agree(case):
    assert timing_core.load() is not None, "the compiled timing core did not build"
    compiled = _timed_run(case)
    with _reference_loop():
        assert compiled == _timed_run(case)


@needs_cc
class TestCompiledTimingCore:
    """The C loop is cycle-exact against the Python reference loop."""

    @seed(20190325)
    @settings(max_examples=60, deadline=None)
    @given(case=_timing_cases())
    def test_differential_fuzz(self, case):
        _assert_loops_agree(case)

    @pytest.mark.slow
    @seed(22)
    @settings(max_examples=600, deadline=None)
    @given(case=_timing_cases())
    def test_differential_fuzz_deep(self, case):
        _assert_loops_agree(case)

    @pytest.mark.parametrize("name", registered_scenarios())
    def test_registered_scenario_parity_without_fallbacks(self, name):
        from repro.system.memo import TileTimingCache

        by_reason = _fallbacks("repro_timing_core_fallbacks_total")
        compiled = run_scenario(name, timing_cache=TileTimingCache())
        assert by_reason() == {}
        with _reference_loop():
            reference = run_scenario(name, timing_cache=TileTimingCache())
        assert compiled.result == reference.result
        for ours, theirs in zip(compiled.output_arrays(), reference.output_arrays()):
            np.testing.assert_array_equal(ours, theirs)

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


def _conv_outcome():
    cluster = Cluster()
    _, _, jobs, _, _ = _conv_setup(cluster, np.random.default_rng(8), (12, 14))
    simulator = ClusterSimulator(cluster)
    result = vecsim.run_vectorized(simulator, jobs, 1_000_000, 0.6, 7)
    return result, simulator.interconnect.stats


class TestTimingCoreFallback:
    """Without the library the reference loop runs, counted by reason."""

    def test_missing_compiler_runs_the_reference_loop(self, monkeypatch):
        by_reason = _fallbacks("repro_timing_core_fallbacks_total")
        with _reference_loop():
            expected = _conv_outcome()
        monkeypatch.setattr(timing_core, "_find_compiler", lambda: None)
        monkeypatch.setattr(timing_core, "_STATE", None)
        assert _conv_outcome() == expected
        assert by_reason() == {"no_compiler": 1.0}

    @needs_cc
    def test_failed_build_and_load_are_counted(self, tmp_path, monkeypatch):
        by_reason = _fallbacks("repro_timing_core_fallbacks_total")
        with _reference_loop():
            expected = _conv_outcome()
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

