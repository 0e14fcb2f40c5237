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

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.sim import ClusterSimulator
from repro.core.commands import AguConfig, InitSource, LoopConfig, NtxCommand, NtxOpcode
from repro.core.controller import NtxController
from repro.core.vecops import command_streams
from repro.kernels.blas import axpy_commands
from repro.kernels.conv import conv2d_commands
from repro.mem.interconnect import MemoryRequest, TcdmInterconnect
from repro.mem.tcdm import TcdmConfig


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
        streams = command_streams(command)
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
            # genuine intra-command RAW hazard, so execute_streams refuses
            # and the exact per-op path runs.
            command = NtxCommand(
                opcode=NtxOpcode.COPY,
                loops=LoopConfig.nest(n),
                agu0=AguConfig(base=buf, strides=(4, 0, 0, 0, 0)),
                agu2=AguConfig(base=buf + 4, strides=(4, 0, 0, 0, 0)),
            )
            return [(0, command)], [buf], (n + 1,)

        from repro.core.vecops import _raw_hazard, command_streams

        probe = Cluster()
        jobs, _, _ = build(probe)
        assert _raw_hazard(command_streams(jobs[0][1]))

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


def _fallbacks():
    """``repro_dataplane_fallbacks_total`` by reason (metrics switched on)."""
    from repro.obs import metrics

    metrics.set_metrics_enabled(True)
    counter = metrics.REGISTRY.get("repro_dataplane_fallbacks_total")

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

    def test_raw_hazard_command_is_counted(self):
        from repro.core.vecops import execute_streams

        by_reason = _fallbacks()
        cluster = Cluster()
        command = self._shift_copy(cluster)
        assert not execute_streams(command, command_streams(command), cluster.tcdm)
        assert by_reason() == {"raw_hazard": 1.0}
        ClusterSimulator(cluster, engine="vectorized").run([(0, command)])
        assert by_reason() == {"raw_hazard": 2.0}

    def test_batched_raw_hazard_is_counted_once_per_stack(self):
        from repro.core.vecops import execute_streams_batched

        by_reason = _fallbacks()
        cluster = Cluster()
        command = self._shift_copy(cluster)
        images = np.zeros((3, cluster.tcdm.size // 4), dtype=np.float32)
        assert not execute_streams_batched(
            command, command_streams(command), images, cluster.tcdm.base
        )
        assert by_reason() == {"raw_hazard": 1.0}

    def test_outside_tcdm_and_nan_compare_are_counted(self):
        from repro.core.vecops import execute_streams

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
        assert not execute_streams(maximum, command_streams(maximum), cluster.tcdm)
        unaligned = NtxCommand(
            opcode=NtxOpcode.COPY,
            loops=LoopConfig.nest(2),
            agu0=AguConfig(base=src + 2, strides=(4, 0, 0, 0, 0)),
            agu2=AguConfig(base=dst, strides=(0, 0, 0, 0, 0)),
        )
        assert not execute_streams(unaligned, command_streams(unaligned), cluster.tcdm)
        assert by_reason() == {"nan_compare": 1.0, "outside_tcdm": 1.0}

    def test_fast_path_counts_nothing(self):
        by_reason = _fallbacks()
        cluster = Cluster()
        _, _, jobs, _, _ = _conv_setup(cluster, np.random.default_rng(5), (10, 12))
        ClusterSimulator(cluster, engine="vectorized").run(jobs)
        assert by_reason() == {}

    def test_non_buffer_backing_fails_loudly(self):
        from repro.core.vecops import execute_streams

        cluster = Cluster()
        _, _, jobs, _, _ = _conv_setup(cluster, np.random.default_rng(5), (10, 12))
        command = jobs[0][1]
        cluster.tcdm.memory.data = [0] * cluster.tcdm.size
        with pytest.raises(TypeError):
            execute_streams(command, command_streams(command), cluster.tcdm)


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


class TestBatchArbitration:
    """arbitrate_batch must be cycle-for-cycle equivalent to arbitrate."""

    def test_equivalence_over_random_cycles(self):
        rng = np.random.default_rng(99)
        tcdm_config = TcdmConfig()
        cluster = Cluster()
        scalar_ic = TcdmInterconnect(cluster.tcdm, num_masters=10)
        batch_ic = TcdmInterconnect(cluster.tcdm, num_masters=10)
        base = cluster.tcdm.base
        for _ in range(200):
            count = int(rng.integers(0, 24))
            masters = rng.integers(0, 10, size=count)
            words = rng.integers(0, tcdm_config.total_words, size=count)
            addresses = base + words * 4
            requests = [
                MemoryRequest(master=int(m), address=int(a))
                for m, a in zip(masters, addresses)
            ]
            result = scalar_ic.arbitrate(requests)
            banks = words % tcdm_config.num_banks
            granted = batch_ic.arbitrate_batch(banks, masters)
            assert int(granted.sum()) == len(result.granted)
            granted_pairs = {
                (int(m), int(b))
                for m, b in zip(masters[granted], banks[granted])
            }
            reference_pairs = {
                (r.master, cluster.tcdm.bank_of(r.address)) for r in result.granted
            }
            assert granted_pairs == reference_pairs
        assert batch_ic.stats == scalar_ic.stats

    def test_empty_cycle(self):
        cluster = Cluster()
        interconnect = TcdmInterconnect(cluster.tcdm, num_masters=4)
        granted = interconnect.arbitrate_batch(np.empty(0, int), np.empty(0, int))
        assert granted.shape == (0,)
        assert interconnect.cycles == 1
        assert interconnect.requests == 0
