"""NTX command format and opcode set.

A single NTX *command* describes an entire nested-loop reduction: up to five
loop bounds, the strides of the three address generation units at each loop
level, the loop levels at which the accumulator is initialised and written
back, the FPU operation applied in the innermost loop, and an optional
scalar operand.  The RISC-V core assembles a command in the staging area of
the register interface and kicks it off with a single store to the command
register; the co-processor then runs for thousands of cycles without any
further intervention.

This module is purely descriptive — the controller and the functional
executor interpret the commands — but it also knows how to answer the
static questions the schedulers and performance models ask: how many
innermost iterations a command performs, how many flops it contributes, how
much data it moves and which memory footprint it touches.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace
from typing import Iterator

__all__ = [
    "NtxOpcode",
    "InitSource",
    "AguConfig",
    "LoopConfig",
    "NtxCommand",
    "NUM_LOOPS",
    "NUM_AGUS",
    "LOOP_COUNTER_BITS",
]

#: Number of cascaded hardware loops in NTX.
NUM_LOOPS = 5
#: Number of address generation units.
NUM_AGUS = 3
#: Width of each hardware-loop counter.
LOOP_COUNTER_BITS = 16
#: Word size of the streaming datapath (binary32).
WORD_BYTES = 4


class NtxOpcode(enum.Enum):
    """Operations the FPU can apply in the innermost loop (Figure 3b).

    Every opcode reads up to two streamed operands (``*AGU0`` and ``*AGU1``),
    updates the accumulator / comparator / index-counter state, and the
    result is written to ``*AGU2`` at the store level.  The per-cycle
    throughput of every opcode is one element; ``flops_per_element``
    captures how many floating-point operations that element contributes
    (two for a fused multiply-add, one for additions/comparisons, zero for
    pure data movement).
    """

    #: acc += *AGU0 * *AGU1  — inner products, convolutions, GEMM/GEMV.
    MAC = "mac"
    #: acc = *AGU0 * *AGU1 — element-wise / outer products.
    MUL = "mul"
    #: acc = *AGU0 + *AGU1 — vector addition.
    ADD = "add"
    #: acc = *AGU0 - *AGU1 — vector subtraction.
    SUB = "sub"
    #: acc = max(acc, *AGU0) — running maximum (pooling, reductions).
    MAX = "max"
    #: acc = min(acc, *AGU0) — running minimum.
    MIN = "min"
    #: acc = index of the running maximum of *AGU0 (uses the index counter).
    ARGMAX = "argmax"
    #: acc = index of the running minimum of *AGU0.
    ARGMIN = "argmin"
    #: acc = max(*AGU0, 0) — rectified linear unit.
    RELU = "relu"
    #: acc = (*AGU0 > scalar) ? 1.0 : 0.0 — thresholding.
    THRESHOLD = "threshold"
    #: acc = (*AGU1 != 0) ? *AGU0 : 0 — masking.
    MASK = "mask"
    #: acc = *AGU0 — streaming copy (memcpy).
    COPY = "copy"
    #: acc = scalar — streaming fill (memset).
    FILL = "fill"

    @property
    def flops_per_element(self) -> int:
        """Floating-point operations contributed by one innermost iteration."""
        if self is NtxOpcode.MAC:
            return 2
        if self in (NtxOpcode.COPY, NtxOpcode.FILL):
            return 0
        return 1

    @property
    def reads_operand0(self) -> bool:
        """Whether the opcode streams a value through AGU0."""
        return self is not NtxOpcode.FILL

    @property
    def reads_operand1(self) -> bool:
        """Whether the opcode streams a value through AGU1."""
        return self in (
            NtxOpcode.MAC,
            NtxOpcode.MUL,
            NtxOpcode.ADD,
            NtxOpcode.SUB,
            NtxOpcode.MASK,
        )

    @property
    def is_reduction(self) -> bool:
        """Whether the opcode carries state across innermost iterations."""
        return self in (
            NtxOpcode.MAC,
            NtxOpcode.MAX,
            NtxOpcode.MIN,
            NtxOpcode.ARGMAX,
            NtxOpcode.ARGMIN,
        )


class InitSource(enum.Enum):
    """Where the accumulator is initialised from at the init level."""

    #: Clear to zero (for MAC) / the operation's identity element.
    ZERO = "zero"
    #: Read the current value at ``*AGU2`` (e.g. the running ``y`` of AXPY).
    AGU2 = "agu2"


@dataclass(frozen=True)
class AguConfig:
    """Configuration of a single address generation unit.

    ``base`` is the initial byte address; ``strides`` holds one byte stride
    per loop level.  Every innermost iteration the AGU adds exactly one of
    these strides — the one selected by the outermost loop that advances in
    that cycle — so a stride of zero at level 0 keeps the pointer stationary
    during the innermost loop.
    """

    base: int = 0
    strides: tuple[int, ...] = (0,) * NUM_LOOPS

    def __post_init__(self) -> None:
        if not 0 <= self.base < (1 << 32):
            raise ValueError(f"AGU base address out of 32 bit range: {self.base:#x}")
        if len(self.strides) != NUM_LOOPS:
            raise ValueError(
                f"expected {NUM_LOOPS} strides, got {len(self.strides)}"
            )
        for stride in self.strides:
            if not -(1 << 31) <= stride < (1 << 31):
                raise ValueError(f"stride out of 32 bit range: {stride}")

    @classmethod
    def linear(cls, base: int, stride: int = WORD_BYTES) -> "AguConfig":
        """A pointer that advances by ``stride`` bytes every iteration."""
        return cls(base=base, strides=(stride,) * NUM_LOOPS)

    @classmethod
    def stationary(cls, base: int) -> "AguConfig":
        """A pointer that never moves (scalar operand / broadcast)."""
        return cls(base=base, strides=(0,) * NUM_LOOPS)


@dataclass(frozen=True)
class LoopConfig:
    """Bounds of the hardware-loop cascade.

    ``counts[k]`` is the iteration count of loop ``k`` (loop 0 is the
    innermost).  Loops above ``outer_level`` are ignored (treated as a
    single iteration), matching the "outer level" programmability of
    Figure 3(a).
    """

    counts: tuple[int, ...] = (1,) * NUM_LOOPS
    outer_level: int = 0

    def __post_init__(self) -> None:
        if len(self.counts) != NUM_LOOPS:
            raise ValueError(f"expected {NUM_LOOPS} loop counts, got {len(self.counts)}")
        for count in self.counts:
            if not 1 <= count <= (1 << LOOP_COUNTER_BITS):
                raise ValueError(
                    f"loop count {count} outside 1..{1 << LOOP_COUNTER_BITS}"
                )
        if not 0 <= self.outer_level < NUM_LOOPS:
            raise ValueError(f"outer_level {self.outer_level} outside 0..{NUM_LOOPS - 1}")

    @classmethod
    def nest(cls, *counts: int) -> "LoopConfig":
        """Build a loop nest from innermost to outermost counts."""
        if not 1 <= len(counts) <= NUM_LOOPS:
            raise ValueError(f"between 1 and {NUM_LOOPS} loop counts required")
        padded = tuple(counts) + (1,) * (NUM_LOOPS - len(counts))
        return cls(counts=padded, outer_level=len(counts) - 1)

    @property
    def enabled_counts(self) -> tuple[int, ...]:
        """The counts of the loops that actually run (up to outer_level)."""
        return self.counts[: self.outer_level + 1]

    @functools.cached_property
    def total_iterations(self) -> int:
        """Number of innermost iterations the nest performs."""
        total = 1
        for count in self.enabled_counts:
            total *= count
        return total


@dataclass(frozen=True)
class NtxCommand:
    """A complete NTX command as staged in the register interface."""

    opcode: NtxOpcode
    loops: LoopConfig
    agu0: AguConfig = field(default_factory=AguConfig)
    agu1: AguConfig = field(default_factory=AguConfig)
    agu2: AguConfig = field(default_factory=AguConfig)
    #: Loop level whose iterations (re)initialise the accumulator.
    init_level: int = 0
    #: Loop level at whose completion the accumulator is written back.
    store_level: int = 0
    init_source: InitSource = InitSource.ZERO
    #: Scalar operand for FILL / THRESHOLD.
    scalar: float = 0.0
    #: Whether the command writes results back at all (pure reductions into
    #: the ALU register, e.g. an argmax that the core reads from a register,
    #: still write by default; disable for probe-style commands).
    writeback: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.init_level <= self.loops.outer_level + 1:
            raise ValueError(
                f"init_level {self.init_level} outside 0..{self.loops.outer_level + 1}"
            )
        if not 0 <= self.store_level <= self.loops.outer_level + 1:
            raise ValueError(
                f"store_level {self.store_level} outside 0..{self.loops.outer_level + 1}"
            )
        if self.store_level > self.init_level:
            raise ValueError(
                "store_level must not be above init_level: the accumulator "
                "would be written back before it is re-initialised"
            )

    # -- static accounting --------------------------------------------------

    @property
    def total_iterations(self) -> int:
        """Innermost iterations performed by this command."""
        return self.loops.total_iterations

    @property
    def num_stores(self) -> int:
        """Number of accumulator write-backs this command performs."""
        if not self.writeback:
            return 0
        total = 1
        for count in self.loops.enabled_counts[self.store_level :]:
            total *= count
        return total

    @property
    def num_inits(self) -> int:
        """Number of accumulator (re)initialisations."""
        total = 1
        for count in self.loops.enabled_counts[self.init_level :]:
            total *= count
        return total

    @property
    def flops(self) -> int:
        """Floating-point operations performed by the command."""
        return self.total_iterations * self.opcode.flops_per_element

    @property
    def reads_per_iteration(self) -> int:
        """TCDM read requests per innermost iteration (excluding init reads)."""
        return int(self.opcode.reads_operand0) + int(self.opcode.reads_operand1)

    @property
    def tcdm_reads(self) -> int:
        """Total TCDM read requests (streamed operands plus init reads)."""
        reads = self.total_iterations * self.reads_per_iteration
        if self.init_source is InitSource.AGU2:
            reads += self.num_inits
        return reads

    @property
    def tcdm_writes(self) -> int:
        """Total TCDM write requests."""
        return self.num_stores

    @property
    def bytes_moved(self) -> int:
        """Bytes read from or written to the TCDM by this command."""
        return (self.tcdm_reads + self.tcdm_writes) * WORD_BYTES

    @functools.cached_property
    def timing_signature(self) -> tuple:
        """Hashable summary of everything that determines this command's timing.

        The cycle-level engines generate TCDM request streams from the loop
        nest and the AGU bases/strides alone — the values flowing through the
        datapath never influence arbitration or stall behaviour.  Two commands
        with equal signatures therefore take exactly the same number of cycles
        on the same cluster, even when they stream different data.  ``scalar``
        is deliberately excluded (FILL/THRESHOLD timing does not depend on the
        immediate operand).
        """
        return (
            self.opcode.value,
            self.loops.counts,
            self.loops.outer_level,
            (self.agu0.base, self.agu0.strides),
            (self.agu1.base, self.agu1.strides),
            (self.agu2.base, self.agu2.strides),
            self.init_level,
            self.store_level,
            self.init_source.value,
            self.writeback,
        )

    def with_bases(self, base0: int, base1: int, base2: int) -> "NtxCommand":
        """Return a copy with rebased AGU pointers (used by the tile scheduler)."""
        return replace(
            self,
            agu0=replace(self.agu0, base=base0),
            agu1=replace(self.agu1, base=base1),
            agu2=replace(self.agu2, base=base2),
        )

    # -- address-stream helpers (used by tests and the golden model) --------

    def iterate_indices(self) -> Iterator[tuple[int, ...]]:
        """Yield the loop index tuples (innermost first) in execution order."""
        counts = self.loops.enabled_counts
        indices = [0] * len(counts)
        total = self.loops.total_iterations
        for _ in range(total):
            yield tuple(indices)
            for level in range(len(counts)):
                indices[level] += 1
                if indices[level] < counts[level]:
                    break
                indices[level] = 0

    def describe(self) -> str:
        """Human-readable one-line summary used in logs and reports."""
        counts = "x".join(str(c) for c in reversed(self.loops.enabled_counts))
        return (
            f"{self.opcode.value} loops={counts} init@L{self.init_level} "
            f"store@L{self.store_level} ({self.flops} flops, "
            f"{self.bytes_moved} bytes)"
        )
