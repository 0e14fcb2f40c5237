"""The NTX cycle model: its address-only timing, and the data its
commands write, checked against the independent golden model."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.vecsim import run_data_plane
from repro.core.commands import AguConfig, LoopConfig, NtxCommand, NtxOpcode
from repro.core.golden import GoldenMemory, golden_execute
from repro.core.ntx import NtxConfig, NtxStepper


def _step_granting_all(command, config=None):
    """Step ``command`` on one NTX whose every request is granted; the
    stepper, the cycle count and every address presented as a read."""
    stepper = NtxStepper(config)
    stepper.start(command)
    cycles = 0
    reads = []
    while stepper.busy:
        requests = stepper.requests()
        reads += requests[:-1] if stepper.presented_write else requests
        stepper.commit(set(requests))
        cycles += 1
        assert cycles < 100_000, "cycle-level execution did not terminate"
    return stepper, cycles, reads


def _dot_command(n, a_base=0x0, b_base=0x400, out=0x800):
    return NtxCommand(
        opcode=NtxOpcode.MAC,
        loops=LoopConfig.nest(n),
        agu0=AguConfig(base=a_base, strides=(4, 0, 0, 0, 0)),
        agu1=AguConfig(base=b_base, strides=(4, 0, 0, 0, 0)),
        agu2=AguConfig.stationary(out),
        init_level=1,
        store_level=1,
    )


def _copy_command(n, src, dst):
    return NtxCommand(
        opcode=NtxOpcode.COPY,
        loops=LoopConfig.nest(n),
        agu0=AguConfig(base=src, strides=(4, 0, 0, 0, 0)),
        agu2=AguConfig(base=dst, strides=(4, 0, 0, 0, 0)),
        init_level=0,
        store_level=0,
    )


def _data_plane_against_golden(command, values, outputs):
    """Run ``command`` on the data plane over TCDM words ``values`` (word
    offset -> value) and on the golden model; the words at ``outputs``."""
    cluster = Cluster()
    base = cluster.tcdm.base
    for word, value in values.items():
        cluster.tcdm.write_f32(base + 4 * word, value)
    run_data_plane(cluster, [(0, command)])
    golden = GoldenMemory({base + 4 * word: value for word, value in values.items()})
    golden_execute(command, golden)
    return (
        [cluster.tcdm.read_f32(base + 4 * word) for word in outputs],
        [golden.read_f32(base + 4 * word) for word in outputs],
    )


class TestDataAgainstGolden:
    def test_dot_product_matches_golden(self, rng):
        n = 37
        values = {}
        for i in range(n):
            values[i] = float(np.float32(rng.standard_normal()))
            values[0x100 + i] = float(np.float32(rng.standard_normal()))
        base = Cluster().tcdm.base
        command = _dot_command(n, base, base + 0x400, base + 0x800)
        (ours,), (golden,) = _data_plane_against_golden(command, values, [0x200])
        assert ours == pytest.approx(golden, rel=1e-6)

    def test_elementwise_copy_matches_golden(self):
        n = 16
        base = Cluster().tcdm.base
        values = {i: float(i) for i in range(n)}
        command = _copy_command(n, base, base + 0x100)
        ours, golden = _data_plane_against_golden(
            command, values, range(0x40, 0x40 + n)
        )
        assert ours == golden == [float(i) for i in range(n)]


class TestCycleLevelTiming:
    def test_conflict_free_throughput_near_one_per_cycle(self):
        n = 512
        stepper, cycles, reads = _step_granting_all(_dot_command(n))
        config = NtxConfig()
        overhead = config.command_setup_cycles + config.writeback_drain_cycles
        assert cycles <= n + overhead + 5
        assert len(reads) == 2 * n

    def test_ideal_cycles_estimate(self):
        config = NtxConfig()
        command = _dot_command(100)
        assert config.ideal_cycles(command) == 100 + config.command_setup_cycles + (
            config.writeback_drain_cycles
        )

    def test_stall_when_requests_denied(self):
        stepper = NtxStepper()
        stepper.start(_dot_command(8))
        # Deny everything for a few cycles after setup: no progress, stalls count.
        for _ in range(NtxConfig().command_setup_cycles):
            assert stepper.requests() == []
            stepper.commit(set())
        stalls_before = stepper.stall
        assert stepper.requests()
        assert not stepper.commit(set())
        assert stepper.stall == stalls_before + 1

    def test_busy_until_writeback_drains(self):
        stepper = NtxStepper()
        stepper.start(_dot_command(4))
        # Grant reads but never the store: the NTX must stay busy.
        for _ in range(200):
            requests = stepper.requests()
            stepper.commit(set(requests[:-1] if stepper.presented_write else requests))
        assert stepper.busy
        # Now allow the write and let it finish.
        for _ in range(200):
            if not stepper.busy:
                break
            stepper.commit(set(stepper.requests()))
        assert not stepper.busy

    def test_start_while_busy_rejected(self):
        stepper = NtxStepper()
        stepper.start(_dot_command(4))
        with pytest.raises(RuntimeError):
            stepper.start(_dot_command(4))

    def test_utilization_statistic(self):
        stepper, cycles, _ = _step_granting_all(_dot_command(64))
        assert stepper.active + stepper.stall == cycles
        assert 0.9 <= stepper.active / cycles <= 1.0
