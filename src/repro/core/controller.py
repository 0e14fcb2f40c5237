"""The NTX main controller.

The controller decodes an offloaded command into the per-cycle
micro-instructions issued to the FPU and the TCDM ports: for every innermost
iteration it determines which addresses are read, whether the accumulator is
(re)initialised, which operation the FPU executes, and whether (and where)
the result is written back.  The cycle-approximate model
(:class:`repro.core.ntx.NtxStepper`) and the data plane's exact per-op fallback
(:func:`repro.core.vecops.execute_functional`) consume this micro-op stream,
and the data plane's command plans (:func:`repro.core.vecops.command_plan`)
are its closed form, so they can never disagree about *what* is executed —
only about *when*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.agu import AddressGenerationUnit
from repro.core.commands import InitSource, NtxCommand
from repro.core.hwloop import HardwareLoopNest

__all__ = ["MicroOp", "NtxController"]


@dataclass(frozen=True)
class MicroOp:
    """One innermost iteration worth of work.

    Attributes:
        index: sequence number of the micro-op within the command.
        read0: byte address streamed through AGU0, or None if the opcode
            does not consume operand 0.
        read1: byte address streamed through AGU1, or None likewise.
        init: whether the accumulator is (re)initialised before this
            iteration executes.
        init_read: byte address of the init value (AGU2) when the command
            initialises from memory, else None.
        store: byte address the accumulator is written to after this
            iteration, or None when no write-back happens this cycle.
        last: True for the final micro-op of the command.
    """

    index: int
    read0: Optional[int]
    read1: Optional[int]
    init: bool
    init_read: Optional[int]
    store: Optional[int]
    last: bool


class NtxController:
    """Decodes one :class:`NtxCommand` into a stream of micro-operations."""

    def __init__(self, command: NtxCommand) -> None:
        self.command = command
        self._loops = HardwareLoopNest(command.loops)
        self._agu0 = AddressGenerationUnit(command.agu0)
        self._agu1 = AddressGenerationUnit(command.agu1)
        self._agu2 = AddressGenerationUnit(command.agu2)
        self._issued = 0

    @property
    def done(self) -> bool:
        return self._loops.done

    def micro_ops(self) -> Iterator[MicroOp]:
        """Yield every micro-op of the command in issue order."""
        while not self.done:
            yield self.step()

    def step(self) -> MicroOp:
        """Produce the next micro-op and advance loops and AGUs."""
        command = self.command
        step = self._loops.step()

        init = step.first_of_level[min(command.init_level, self._loops.num_levels)]
        store_due = (
            command.writeback
            and step.last_of_level[min(command.store_level, self._loops.num_levels)]
        )

        read0 = self._agu0.address if command.opcode.reads_operand0 else None
        read1 = self._agu1.address if command.opcode.reads_operand1 else None
        init_read = (
            self._agu2.address
            if init and command.init_source is InitSource.AGU2
            else None
        )
        store = self._agu2.address if store_due else None

        micro_op = MicroOp(
            index=self._issued,
            read0=read0,
            read1=read1,
            init=init,
            init_read=init_read,
            store=store,
            last=step.done,
        )
        self._issued += 1

        # Advance the pointers for the next iteration using the wrap level of
        # the cascade in this cycle.
        self._agu0.advance(step.wrap_level)
        self._agu1.advance(step.wrap_level)
        self._agu2.advance(step.wrap_level)
        return micro_op
