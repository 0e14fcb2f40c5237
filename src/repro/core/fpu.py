"""The NTX floating-point unit.

The FPU contains the fast FMAC built around the partial-carry-save
accumulator (see :mod:`repro.softfloat.pcs`), a comparator, an index counter
used for argmax/argmin, and an ALU register holding the comparator's running
extremum.  All commands of Figure 3(b) are realised as per-cycle issues into
this unit, and the write-back value is produced by :meth:`writeback`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.commands import NtxOpcode
from repro.softfloat.pcs import PcsAccumulator, PcsConfig

__all__ = ["NtxFpu", "FpuStats"]


def _to_f32(value: float) -> float:
    """Round to binary32 the way a 32 bit register would hold the value."""
    return float(np.float32(value))


def _first_nan(a: float, b: float, result: float) -> float:
    """``result`` of ``a op b``, except that when both operands are NaN the
    first one propagates.  A host float operation returns whichever NaN
    its compiled operand order picks, and CPython's generic and
    specialized float paths order them differently, so the model fixes
    the choice."""
    if a != a and b != b:
        return a
    return result


@dataclass
class FpuStats:
    """Operation counters maintained by the FPU."""

    issues: int = 0
    macs: int = 0
    comparisons: int = 0
    writebacks: int = 0

    @property
    def flops(self) -> int:
        """Floating-point operations executed (MACs count twice)."""
        return self.issues + self.macs


class NtxFpu:
    """Functional model of the NTX FPU datapath.

    The unit is issued one operation per innermost iteration.  Reductions
    (MAC, MIN/MAX, ARGMIN/ARGMAX) carry state between issues; element-wise
    operations overwrite the result state each cycle.  A write-back merges
    the partial-carry-save accumulator, rounds once to binary32 and returns
    the value to be stored through AGU2.
    """

    def __init__(self, pcs_config: Optional[PcsConfig] = None) -> None:
        self._acc = PcsAccumulator(pcs_config)
        self._alu_register = 0.0  # comparator extremum / element-wise result
        self._index_counter = 0  # running element index within the block
        self._best_index = 0  # index of the current extremum
        self._use_accumulator = False
        self._use_index = False
        self._has_extremum = False
        self.stats = FpuStats()

    # -- block control -------------------------------------------------------

    def init_block(self, opcode: NtxOpcode, init_value: Optional[float]) -> None:
        """(Re)initialise the reduction state at the init level.

        ``init_value`` is the value read through AGU2 when the command's
        init source is ``AGU2``; ``None`` selects the operation's identity
        element (zero for MAC, -inf/+inf for MAX/MIN, ...).
        """
        self._index_counter = 0
        self._best_index = 0
        self._has_extremum = False
        self._use_accumulator = opcode is NtxOpcode.MAC
        self._use_index = opcode in (NtxOpcode.ARGMAX, NtxOpcode.ARGMIN)

        if self._use_accumulator:
            if init_value is None:
                self._acc.clear()
            else:
                self._acc.init_from(_to_f32(init_value))
            return

        if opcode is NtxOpcode.MAX:
            self._alu_register = float("-inf") if init_value is None else _to_f32(init_value)
            self._has_extremum = init_value is not None
        elif opcode is NtxOpcode.MIN:
            self._alu_register = float("inf") if init_value is None else _to_f32(init_value)
            self._has_extremum = init_value is not None
        else:
            self._alu_register = 0.0 if init_value is None else _to_f32(init_value)

    # -- per-cycle issue -------------------------------------------------------

    def issue(
        self,
        opcode: NtxOpcode,
        operand0: Optional[float],
        operand1: Optional[float],
        scalar: float,
    ) -> None:
        """Execute one innermost iteration of ``opcode``."""
        self.stats.issues += 1
        a = None if operand0 is None else _to_f32(operand0)
        b = None if operand1 is None else _to_f32(operand1)

        if opcode is NtxOpcode.MAC:
            self.stats.macs += 1
            self._acc.fma(a, b)
        elif opcode is NtxOpcode.MUL:
            self._alu_register = _to_f32(_first_nan(a, b, a * b))
        elif opcode is NtxOpcode.ADD:
            self._alu_register = _to_f32(_first_nan(a, b, a + b))
        elif opcode is NtxOpcode.SUB:
            self._alu_register = _to_f32(_first_nan(a, b, a - b))
        elif opcode is NtxOpcode.MAX:
            self.stats.comparisons += 1
            if not self._has_extremum or a > self._alu_register:
                self._alu_register = a
                self._has_extremum = True
        elif opcode is NtxOpcode.MIN:
            self.stats.comparisons += 1
            if not self._has_extremum or a < self._alu_register:
                self._alu_register = a
                self._has_extremum = True
        elif opcode is NtxOpcode.ARGMAX:
            self.stats.comparisons += 1
            if not self._has_extremum or a > self._alu_register:
                self._alu_register = a
                self._best_index = self._index_counter
                self._has_extremum = True
        elif opcode is NtxOpcode.ARGMIN:
            self.stats.comparisons += 1
            if not self._has_extremum or a < self._alu_register:
                self._alu_register = a
                self._best_index = self._index_counter
                self._has_extremum = True
        elif opcode is NtxOpcode.RELU:
            self.stats.comparisons += 1
            self._alu_register = a if a > 0.0 else 0.0
        elif opcode is NtxOpcode.THRESHOLD:
            self.stats.comparisons += 1
            self._alu_register = 1.0 if a > _to_f32(scalar) else 0.0
        elif opcode is NtxOpcode.MASK:
            self._alu_register = a if b != 0.0 else 0.0
        elif opcode is NtxOpcode.COPY:
            self._alu_register = a
        elif opcode is NtxOpcode.FILL:
            self._alu_register = _to_f32(scalar)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unsupported opcode {opcode}")

        self._index_counter += 1

    # -- write-back --------------------------------------------------------------

    def writeback(self, opcode: NtxOpcode) -> float:
        """Produce the binary32 value written through AGU2 at the store level."""
        self.stats.writebacks += 1
        if opcode is NtxOpcode.MAC:
            return self._acc.to_float()
        if opcode in (NtxOpcode.ARGMAX, NtxOpcode.ARGMIN):
            # The index is written back as a float, as the datapath is 32 bit FP.
            return float(self._best_index)
        return _to_f32(self._alu_register)
