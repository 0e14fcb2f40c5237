"""Unit tests for the memory-mapped register interface of NTX."""

import pytest

from repro.core.commands import (
    AguConfig,
    InitSource,
    LoopConfig,
    NtxCommand,
    NtxOpcode,
)
from repro.core.registers import NtxRegisterFile, RegisterMap


def _example_command() -> NtxCommand:
    return NtxCommand(
        opcode=NtxOpcode.MAC,
        loops=LoopConfig.nest(12, 3),
        agu0=AguConfig(base=0x1000_0000, strides=(4, 8, 0, 0, 0)),
        agu1=AguConfig(base=0x1000_0400, strides=(4, -44, 0, 0, 0)),
        agu2=AguConfig(base=0x1000_0800, strides=(0, 4, 0, 0, 0)),
        init_level=1,
        store_level=1,
        init_source=InitSource.AGU2,
        scalar=1.5,
    )


class TestRegisterMap:
    def test_offsets_do_not_collide(self):
        offsets = {RegisterMap.STATUS, RegisterMap.CMD, RegisterMap.SCALAR,
                   RegisterMap.INIT_LEVEL, RegisterMap.STORE_LEVEL,
                   RegisterMap.OUTER_LEVEL, RegisterMap.INIT_SOURCE,
                   RegisterMap.WRITEBACK_EN}
        for level in range(5):
            offsets.add(RegisterMap.loop_count(level))
        for agu in range(3):
            offsets.add(RegisterMap.agu_base(agu))
            for level in range(5):
                offsets.add(RegisterMap.agu_stride(agu, level))
        assert len(offsets) == 8 + 5 + 3 * 6

    def test_opcode_encoding_round_trip(self):
        for opcode in NtxOpcode:
            value = RegisterMap.opcode_to_value(opcode)
            assert RegisterMap.value_to_opcode(value) is opcode

    def test_invalid_opcode_value(self):
        with pytest.raises(ValueError):
            RegisterMap.value_to_opcode(255)


class TestRegisterFile:
    def test_issue_reconstructs_command(self):
        regs = NtxRegisterFile()
        command = _example_command()
        assert regs.issue(command)
        staged = regs.next_command()
        assert staged is not None
        assert regs.next_command() is None
        assert staged.opcode is command.opcode
        assert staged.loops == command.loops
        assert staged.agu0 == command.agu0
        assert staged.agu1 == command.agu1
        assert staged.agu2 == command.agu2
        assert staged.init_level == command.init_level
        assert staged.store_level == command.store_level
        assert staged.init_source is command.init_source
        assert staged.scalar == pytest.approx(command.scalar)

    def test_negative_strides_survive_the_bus(self):
        regs = NtxRegisterFile()
        regs.issue(_example_command())
        staged = regs.next_command()
        assert staged.agu1.strides[1] == -44

    def test_double_buffering_depth(self):
        regs = NtxRegisterFile()
        command = _example_command()
        assert regs.issue(command)
        assert regs.issue(command)
        # A third command must be rejected until one is drained.
        assert not regs.issue(command)
        assert regs.rejected_writes == 1
        assert regs.next_command() is not None
        assert regs.issue(command)

    def test_status_reflects_queue_and_busy(self):
        regs = NtxRegisterFile()
        assert regs.read(RegisterMap.STATUS) == 0
        regs.issue(_example_command())
        status = regs.read(RegisterMap.STATUS)
        assert status & 1  # busy because a command is queued
        assert status >> 1 == 1  # one queued command
        regs.next_command()
        regs.set_busy(False)
        assert regs.read(RegisterMap.STATUS) == 0

    def test_readback_of_staged_registers(self):
        regs = NtxRegisterFile()
        regs.write(RegisterMap.loop_count(2), 77)
        assert regs.read(RegisterMap.loop_count(2)) == 77
        regs.write(RegisterMap.agu_base(1), 0x2000)
        assert regs.read(RegisterMap.agu_base(1)) == 0x2000

    def test_unmapped_access_raises(self):
        regs = NtxRegisterFile()
        with pytest.raises(ValueError):
            regs.read(0xFFC)
        with pytest.raises(ValueError):
            regs.write(0xFFC, 1)

    def test_commands_issued_counter(self):
        regs = NtxRegisterFile()
        regs.issue(_example_command())
        assert regs.commands_issued == 1
