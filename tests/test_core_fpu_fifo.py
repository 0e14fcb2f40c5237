"""Unit tests for the NTX FPU datapath and the elastic FIFOs."""

import pytest

from repro.core.commands import NtxOpcode
from repro.core.fifo import Fifo
from repro.core.fpu import NtxFpu


class TestFifo:
    def test_push_pop_order(self):
        fifo = Fifo(4)
        for i in range(3):
            assert fifo.push(i)
        assert [fifo.pop() for _ in range(3)] == [0, 1, 2]

    def test_full_rejects_push(self):
        fifo = Fifo(2)
        assert fifo.push(1) and fifo.push(2)
        assert not fifo.push(3)
        assert fifo.stats["full_stalls"] == 1

    def test_empty_pop_returns_none(self):
        fifo = Fifo(1)
        assert fifo.pop() is None
        assert fifo.stats["empty_stalls"] == 1

    def test_peek_and_clear(self):
        fifo = Fifo(2)
        fifo.push("a")
        assert fifo.peek() == "a"
        fifo.clear()
        assert fifo.is_empty

    def test_occupancy_tracking(self):
        fifo = Fifo(3)
        fifo.push(1)
        fifo.push(2)
        assert fifo.stats["max_occupancy"] == 2

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            Fifo(0)


class TestFpuMac:
    def test_mac_reduction(self):
        fpu = NtxFpu()
        fpu.init_block(NtxOpcode.MAC, None)
        for a, b in [(1.0, 2.0), (3.0, 4.0), (0.5, 8.0)]:
            fpu.issue(NtxOpcode.MAC, a, b, 0.0)
        assert fpu.writeback(NtxOpcode.MAC) == 18.0
        assert fpu.stats.macs == 3
        assert fpu.stats.flops == 6

    def test_mac_init_from_memory(self):
        fpu = NtxFpu()
        fpu.init_block(NtxOpcode.MAC, 10.0)
        fpu.issue(NtxOpcode.MAC, 2.0, 3.0, 0.0)
        assert fpu.writeback(NtxOpcode.MAC) == 16.0

    def test_block_reinitialisation_clears_accumulator(self):
        fpu = NtxFpu()
        fpu.init_block(NtxOpcode.MAC, None)
        fpu.issue(NtxOpcode.MAC, 5.0, 5.0, 0.0)
        fpu.init_block(NtxOpcode.MAC, None)
        fpu.issue(NtxOpcode.MAC, 1.0, 1.0, 0.0)
        assert fpu.writeback(NtxOpcode.MAC) == 1.0


class TestFpuComparator:
    def test_max_min(self):
        fpu = NtxFpu()
        fpu.init_block(NtxOpcode.MAX, None)
        for value in (1.0, -3.0, 7.0, 2.0):
            fpu.issue(NtxOpcode.MAX, value, None, 0.0)
        assert fpu.writeback(NtxOpcode.MAX) == 7.0

        fpu.init_block(NtxOpcode.MIN, None)
        for value in (1.0, -3.0, 7.0):
            fpu.issue(NtxOpcode.MIN, value, None, 0.0)
        assert fpu.writeback(NtxOpcode.MIN) == -3.0

    def test_argmax_uses_index_counter(self):
        fpu = NtxFpu()
        fpu.init_block(NtxOpcode.ARGMAX, None)
        for value in (1.0, 9.0, 3.0, 9.0):
            fpu.issue(NtxOpcode.ARGMAX, value, None, 0.0)
        # First occurrence of the maximum wins.
        assert fpu.writeback(NtxOpcode.ARGMAX) == 1.0

    def test_argmin(self):
        fpu = NtxFpu()
        fpu.init_block(NtxOpcode.ARGMIN, None)
        for value in (4.0, -1.0, 0.0):
            fpu.issue(NtxOpcode.ARGMIN, value, None, 0.0)
        assert fpu.writeback(NtxOpcode.ARGMIN) == 1.0

    def test_max_with_all_negative_values(self):
        fpu = NtxFpu()
        fpu.init_block(NtxOpcode.MAX, None)
        for value in (-5.0, -2.0, -9.0):
            fpu.issue(NtxOpcode.MAX, value, None, 0.0)
        assert fpu.writeback(NtxOpcode.MAX) == -2.0


class TestFpuElementwise:
    @pytest.mark.parametrize(
        "opcode,a,b,scalar,expected",
        [
            (NtxOpcode.MUL, 3.0, 4.0, 0.0, 12.0),
            (NtxOpcode.ADD, 3.0, 4.0, 0.0, 7.0),
            (NtxOpcode.SUB, 3.0, 4.0, 0.0, -1.0),
            (NtxOpcode.RELU, -3.0, None, 0.0, 0.0),
            (NtxOpcode.RELU, 3.0, None, 0.0, 3.0),
            (NtxOpcode.THRESHOLD, 3.0, None, 2.0, 1.0),
            (NtxOpcode.THRESHOLD, 1.0, None, 2.0, 0.0),
            (NtxOpcode.MASK, 3.0, 1.0, 0.0, 3.0),
            (NtxOpcode.MASK, 3.0, 0.0, 0.0, 0.0),
            (NtxOpcode.COPY, 5.5, None, 0.0, 5.5),
            (NtxOpcode.FILL, None, None, 2.5, 2.5),
        ],
    )
    def test_single_issue(self, opcode, a, b, scalar, expected):
        fpu = NtxFpu()
        fpu.init_block(opcode, None)
        fpu.issue(opcode, a, b, scalar)
        assert fpu.writeback(opcode) == expected

    def test_results_rounded_to_binary32(self):
        fpu = NtxFpu()
        fpu.init_block(NtxOpcode.ADD, None)
        fpu.issue(NtxOpcode.ADD, 1.0, 2.0**-30, 0.0)
        # A binary32 register cannot hold 1 + 2^-30.
        assert fpu.writeback(NtxOpcode.ADD) == 1.0
