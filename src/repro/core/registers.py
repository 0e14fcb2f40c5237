"""Memory-mapped register interface of one NTX co-processor.

Each NTX exposes a set of configuration registers mapped into the address
space of the associated RISC-V core: loop bounds, AGU base addresses and
strides, the init/store/outer levels, a scalar operand and the command
register.  Writing the command register snapshots the staged configuration
into an internal buffer and enqueues it for execution, so the core can start
preparing the next command immediately — this is the "double-buffered
command staging area" of Figure 2.  All NTX attached to one core are also
aliased at a broadcast address so common configuration values can be written
once; the broadcast handling lives in the cluster model.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.core.commands import (
    NUM_AGUS,
    NUM_LOOPS,
    AguConfig,
    InitSource,
    LoopConfig,
    NtxCommand,
    NtxOpcode,
)
from repro.core.fifo import Fifo

__all__ = ["RegisterMap", "NtxRegisterFile"]


class RegisterMap:
    """Byte offsets of the NTX configuration registers.

    The numeric layout is a modelling choice (the paper does not publish the
    register map); what matters architecturally is which state exists and
    that one 32 bit store to :data:`CMD` launches a command.
    """

    STATUS = 0x000
    CMD = 0x004
    SCALAR = 0x008
    INIT_LEVEL = 0x00C
    STORE_LEVEL = 0x010
    OUTER_LEVEL = 0x014
    INIT_SOURCE = 0x018
    WRITEBACK_EN = 0x01C
    LOOP_COUNT_BASE = 0x020  # 5 registers, 4 bytes apart
    AGU_BASE = 0x040  # per AGU: base + 5 strides, 0x20 apart
    AGU_SPAN = 0x020
    SIZE = 0x040 + NUM_AGUS * 0x020

    #: Ordered list of opcodes; the CMD register value is an index into it.
    OPCODES = tuple(NtxOpcode)

    @classmethod
    def loop_count(cls, level: int) -> int:
        if not 0 <= level < NUM_LOOPS:
            raise ValueError(f"loop level {level} out of range")
        return cls.LOOP_COUNT_BASE + 4 * level

    @classmethod
    def agu_base(cls, agu: int) -> int:
        if not 0 <= agu < NUM_AGUS:
            raise ValueError(f"AGU index {agu} out of range")
        return cls.AGU_BASE + agu * cls.AGU_SPAN

    @classmethod
    def agu_stride(cls, agu: int, level: int) -> int:
        if not 0 <= level < NUM_LOOPS:
            raise ValueError(f"stride level {level} out of range")
        return cls.agu_base(agu) + 4 + 4 * level

    @classmethod
    def opcode_to_value(cls, opcode: NtxOpcode) -> int:
        return cls.OPCODES.index(opcode)

    @classmethod
    def value_to_opcode(cls, value: int) -> NtxOpcode:
        if not 0 <= value < len(cls.OPCODES):
            raise ValueError(f"invalid command register value {value}")
        return cls.OPCODES[value]


def _float_to_u32(value: float) -> int:
    return struct.unpack("<I", struct.pack("<f", value))[0]


def _u32_to_float(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]


def _u32_to_s32(bits: int) -> int:
    bits &= 0xFFFFFFFF
    return bits - (1 << 32) if bits & (1 << 31) else bits


@dataclass
class _StagedConfig:
    """The mutable staging area written by the RISC-V core."""

    scalar_bits: int = 0
    init_level: int = 0
    store_level: int = 0
    outer_level: int = 0
    init_source: int = 0
    writeback_en: int = 1
    loop_counts: list = None
    agu_bases: list = None
    agu_strides: list = None

    def __post_init__(self) -> None:
        if self.loop_counts is None:
            self.loop_counts = [1] * NUM_LOOPS
        if self.agu_bases is None:
            self.agu_bases = [0] * NUM_AGUS
        if self.agu_strides is None:
            self.agu_strides = [[0] * NUM_LOOPS for _ in range(NUM_AGUS)]

    def to_command(self, opcode: NtxOpcode) -> NtxCommand:
        """Snapshot the staged state into an immutable command."""
        loops = LoopConfig(
            counts=tuple(self.loop_counts), outer_level=self.outer_level
        )
        agus = [
            AguConfig(base=self.agu_bases[i], strides=tuple(self.agu_strides[i]))
            for i in range(NUM_AGUS)
        ]
        return NtxCommand(
            opcode=opcode,
            loops=loops,
            agu0=agus[0],
            agu1=agus[1],
            agu2=agus[2],
            init_level=self.init_level,
            store_level=self.store_level,
            init_source=InitSource.AGU2 if self.init_source else InitSource.ZERO,
            scalar=_u32_to_float(self.scalar_bits),
            writeback=bool(self.writeback_en),
        )


class NtxRegisterFile:
    """The register interface with double-buffered command staging.

    Writes update the staging area; a write to ``CMD`` converts the staged
    state into an :class:`NtxCommand` and pushes it into a two-deep command
    queue, from which the execution engine takes it (:meth:`next_command`).
    """

    #: Depth of the command queue: the command currently executing plus one
    #: staged command, i.e. double buffering.
    QUEUE_DEPTH = 2

    def __init__(self) -> None:
        self._staged = _StagedConfig()
        self.command_queue: Fifo[NtxCommand] = Fifo(self.QUEUE_DEPTH, name="cmd_queue")
        self._busy = False
        self.commands_issued = 0
        self.rejected_writes = 0

    # -- status ---------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """Whether a command is executing or pending."""
        return self._busy or not self.command_queue.is_empty

    def set_busy(self, busy: bool) -> None:
        """The execution engine reports whether it is currently running."""
        self._busy = busy

    # -- bus interface -----------------------------------------------------------

    def read(self, offset: int) -> int:
        """Read a configuration register (32 bit value)."""
        staged = self._staged
        if offset == RegisterMap.STATUS:
            status = int(self.busy)
            status |= self.command_queue.occupancy << 1
            return status
        if offset == RegisterMap.SCALAR:
            return staged.scalar_bits
        if offset == RegisterMap.INIT_LEVEL:
            return staged.init_level
        if offset == RegisterMap.STORE_LEVEL:
            return staged.store_level
        if offset == RegisterMap.OUTER_LEVEL:
            return staged.outer_level
        if offset == RegisterMap.INIT_SOURCE:
            return staged.init_source
        if offset == RegisterMap.WRITEBACK_EN:
            return staged.writeback_en
        for level in range(NUM_LOOPS):
            if offset == RegisterMap.loop_count(level):
                return staged.loop_counts[level]
        for agu in range(NUM_AGUS):
            if offset == RegisterMap.agu_base(agu):
                return staged.agu_bases[agu]
            for level in range(NUM_LOOPS):
                if offset == RegisterMap.agu_stride(agu, level):
                    return staged.agu_strides[agu][level] & 0xFFFFFFFF
        raise ValueError(f"read from unmapped NTX register offset {offset:#x}")

    def write(self, offset: int, value: int) -> bool:
        """Write a configuration register.

        Returns False when a command write had to be rejected because the
        command queue is full (the core must poll STATUS and retry — in
        hardware the bus would simply stall).
        """
        value &= 0xFFFFFFFF
        staged = self._staged
        if offset == RegisterMap.CMD:
            opcode = RegisterMap.value_to_opcode(value)
            command = staged.to_command(opcode)
            if not self.command_queue.push(command):
                self.rejected_writes += 1
                return False
            self.commands_issued += 1
            return True
        if offset == RegisterMap.STATUS:
            return True  # read-only; writes ignored
        if offset == RegisterMap.SCALAR:
            staged.scalar_bits = value
        elif offset == RegisterMap.INIT_LEVEL:
            staged.init_level = value
        elif offset == RegisterMap.STORE_LEVEL:
            staged.store_level = value
        elif offset == RegisterMap.OUTER_LEVEL:
            staged.outer_level = value
        elif offset == RegisterMap.INIT_SOURCE:
            staged.init_source = value & 1
        elif offset == RegisterMap.WRITEBACK_EN:
            staged.writeback_en = value & 1
        else:
            for level in range(NUM_LOOPS):
                if offset == RegisterMap.loop_count(level):
                    staged.loop_counts[level] = value
                    return True
            for agu in range(NUM_AGUS):
                if offset == RegisterMap.agu_base(agu):
                    staged.agu_bases[agu] = value
                    return True
                for level in range(NUM_LOOPS):
                    if offset == RegisterMap.agu_stride(agu, level):
                        staged.agu_strides[agu][level] = _u32_to_s32(value)
                        return True
            raise ValueError(f"write to unmapped NTX register offset {offset:#x}")
        return True

    # -- convenience (used by Cluster.offload) -------------------------------------

    def write_scalar(self, value: float) -> None:
        self.write(RegisterMap.SCALAR, _float_to_u32(value))

    def stage_command(self, command: NtxCommand) -> None:
        """Program the full staging area from an :class:`NtxCommand`.

        This performs the same sequence of register writes the RISC-V
        driver would issue, which keeps the register-file path exercised
        even when commands are constructed programmatically.
        """
        self.write_scalar(command.scalar)
        self.write(RegisterMap.INIT_LEVEL, command.init_level)
        self.write(RegisterMap.STORE_LEVEL, command.store_level)
        self.write(RegisterMap.OUTER_LEVEL, command.loops.outer_level)
        self.write(
            RegisterMap.INIT_SOURCE,
            1 if command.init_source is InitSource.AGU2 else 0,
        )
        self.write(RegisterMap.WRITEBACK_EN, int(command.writeback))
        for level in range(NUM_LOOPS):
            self.write(RegisterMap.loop_count(level), command.loops.counts[level])
        for agu_index, agu in enumerate((command.agu0, command.agu1, command.agu2)):
            self.write(RegisterMap.agu_base(agu_index), agu.base)
            for level in range(NUM_LOOPS):
                self.write(
                    RegisterMap.agu_stride(agu_index, level),
                    agu.strides[level] & 0xFFFFFFFF,
                )

    def issue(self, command: NtxCommand) -> bool:
        """Stage ``command`` and write the command register."""
        self.stage_command(command)
        return self.write(RegisterMap.CMD, RegisterMap.opcode_to_value(command.opcode))

    def next_command(self) -> Optional[NtxCommand]:
        """Pop the next queued command for execution (engine side)."""
        return self.command_queue.pop()
