"""Controller micro-op stream and golden-model equivalence of the per-op executor."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.commands import (
    AguConfig,
    InitSource,
    LoopConfig,
    NtxCommand,
    NtxOpcode,
)
from repro.core.controller import NtxController
from repro.core.golden import GoldenMemory, golden_address, golden_execute
from repro.core.ntx import Ntx
from repro.core.vecops import execute_functional


def _axpy_command(n, a_addr, x_addr, y_addr):
    return NtxCommand(
        opcode=NtxOpcode.MAC,
        loops=LoopConfig.nest(n),
        agu0=AguConfig(base=x_addr, strides=(4, 0, 0, 0, 0)),
        agu1=AguConfig.stationary(a_addr),
        agu2=AguConfig(base=y_addr, strides=(4, 0, 0, 0, 0)),
        init_level=0,
        store_level=0,
        init_source=InitSource.AGU2,
    )


class TestController:
    def test_micro_op_count_matches_command(self):
        command = _axpy_command(10, 0, 100, 200)
        controller = NtxController(command)
        ops = list(controller.micro_ops())
        assert len(ops) == command.total_iterations
        assert ops[-1].last and not ops[0].last

    def test_elementwise_init_and_store_every_iteration(self):
        command = _axpy_command(4, 0, 100, 200)
        ops = list(NtxController(command).micro_ops())
        assert all(op.init for op in ops)
        assert [op.store for op in ops] == [200, 204, 208, 212]
        assert [op.init_read for op in ops] == [200, 204, 208, 212]

    def test_reduction_stores_once(self):
        command = NtxCommand(
            opcode=NtxOpcode.MAC,
            loops=LoopConfig.nest(8),
            agu0=AguConfig.linear(0),
            agu1=AguConfig.linear(64),
            agu2=AguConfig.stationary(256),
            init_level=1,
            store_level=1,
        )
        ops = list(NtxController(command).micro_ops())
        stores = [op.store for op in ops if op.store is not None]
        assert stores == [256]
        assert sum(op.init for op in ops) == 1

    def test_addresses_match_closed_form(self):
        command = NtxCommand(
            opcode=NtxOpcode.MAC,
            loops=LoopConfig.nest(3, 4, 2),
            agu0=AguConfig(base=16, strides=(4, 20, -8, 0, 0)),
            agu1=AguConfig(base=0, strides=(8, -16, 4, 0, 0)),
            agu2=AguConfig(base=96, strides=(0, 4, 12, 0, 0)),
            init_level=1,
            store_level=1,
        )
        counts = command.loops.enabled_counts
        controller = NtxController(command)
        for t, op in enumerate(controller.micro_ops()):
            assert op.read0 == golden_address(command.agu0, counts, t)
            assert op.read1 == golden_address(command.agu1, counts, t)


class TestExecutorAgainstGolden:
    @pytest.mark.parametrize("opcode", list(NtxOpcode))
    def test_every_opcode_matches_golden(self, opcode, rng):
        n, blocks = 6, 3
        elementwise = not opcode.is_reduction
        command = NtxCommand(
            opcode=opcode,
            loops=LoopConfig.nest(n, blocks),
            agu0=AguConfig(base=0x000, strides=(4, 4, 0, 0, 0)),
            agu1=AguConfig(base=0x100, strides=(4, 4, 0, 0, 0)),
            agu2=AguConfig(
                base=0x200,
                strides=((4, 4, 0, 0, 0) if elementwise else (0, 4, 0, 0, 0)),
            ),
            init_level=0 if elementwise else 1,
            store_level=0 if elementwise else 1,
            scalar=0.75,
        )
        values = {}
        for i in range(n * blocks):
            values[0x000 + 4 * i] = float(np.float32(rng.standard_normal()))
            values[0x100 + 4 * i] = float(np.float32(rng.standard_normal()))

        golden_mem = GoldenMemory(dict(values))
        golden_execute(command, golden_mem)

        ntx_mem = GoldenMemory(dict(values))
        execute_functional(Ntx(), command, ntx_mem)

        store_addresses = {
            addr for addr in golden_mem.words if addr >= 0x200
        }
        assert store_addresses, "command under test must write something"
        for addr in store_addresses:
            assert ntx_mem.read_f32(addr) == pytest.approx(
                golden_mem.read_f32(addr), rel=1e-6, abs=1e-6
            )

    def test_gemv_against_golden_and_numpy(self, rng):
        rows, cols = 5, 7
        matrix = rng.standard_normal((rows, cols)).astype(np.float32)
        x = rng.standard_normal(cols).astype(np.float32)
        a_base, x_base, y_base = 0x0, 0x400, 0x600
        values = {}
        for i, value in enumerate(matrix.ravel()):
            values[a_base + 4 * i] = float(value)
        for i, value in enumerate(x):
            values[x_base + 4 * i] = float(value)
        command = NtxCommand(
            opcode=NtxOpcode.MAC,
            loops=LoopConfig.nest(cols, rows),
            agu0=AguConfig(base=a_base, strides=(4, 4, 0, 0, 0)),
            agu1=AguConfig(base=x_base, strides=(4, -(cols - 1) * 4, 0, 0, 0)),
            agu2=AguConfig(base=y_base, strides=(0, 4, 0, 0, 0)),
            init_level=1,
            store_level=1,
        )
        memory = GoldenMemory(values)
        execute_functional(Ntx(), command, memory)
        result = np.array([memory.read_f32(y_base + 4 * i) for i in range(rows)])
        np.testing.assert_allclose(result, matrix @ x, rtol=1e-5, atol=1e-6)

    def test_stats_accumulate_across_commands(self):
        cluster = Cluster()
        base = cluster.tcdm.base
        command = _axpy_command(8, base + 0x300, base + 0x000, base + 0x100)
        cluster.offload(command)
        cluster.offload(command)
        ntx = cluster.ntx[0]
        assert ntx.stats.commands == 2
        assert ntx.stats.iterations == 16
        assert ntx.stats.flops == 32
