"""The NTX streaming co-processor model.

The subpackage mirrors the block diagram of Figure 2 of the paper:

* :mod:`repro.core.commands` — the offloaded command format (loop bounds,
  AGU strides, init/store levels, opcode) and the supported opcodes of
  Figure 3(b).
* :mod:`repro.core.hwloop` — the five cascaded 16 bit hardware loops.
* :mod:`repro.core.agu` — the three address generation units.
* :mod:`repro.core.fifo` — the elastic buffers between the blocks.
* :mod:`repro.core.registers` — the memory-mapped register interface with
  its double-buffered command staging area.
* :mod:`repro.core.fpu` — the FPU: fast FMAC around the partial-carry-save
  accumulator, comparator, index counter and ALU register.
* :mod:`repro.core.controller` — command decode into per-cycle micro-ops.
* :mod:`repro.core.ntx` — the NTX co-processor itself: its configuration,
  the columns of a cluster's per-NTX statistics array and its
  address-only cycle model, which contends for TCDM banks.
* :mod:`repro.core.vecops` — command plans and the array data plane every
  executed command runs on, with its exact per-op fallback.
* :mod:`repro.core.golden` — NumPy reference semantics for every command,
  used as the oracle in the test-suite.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.agu import AddressGenerationUnit
    from repro.core.commands import (
        AguConfig,
        InitSource,
        LoopConfig,
        NtxCommand,
        NtxOpcode,
    )
    from repro.core.controller import MicroOp, NtxController
    from repro.core.fifo import Fifo
    from repro.core.fpu import NtxFpu
    from repro.core.hwloop import HardwareLoopNest
    from repro.core.ntx import NtxConfig
    from repro.core.registers import NtxRegisterFile, RegisterMap

__all__ = [
    "NtxCommand",
    "NtxOpcode",
    "AguConfig",
    "LoopConfig",
    "InitSource",
    "HardwareLoopNest",
    "AddressGenerationUnit",
    "Fifo",
    "NtxRegisterFile",
    "RegisterMap",
    "NtxFpu",
    "NtxController",
    "MicroOp",
    "NtxConfig",
]

# Public name -> defining submodule, imported on first access (repro._lazy).
_EXPORTS = {
    "NtxCommand": "commands",
    "NtxOpcode": "commands",
    "AguConfig": "commands",
    "LoopConfig": "commands",
    "InitSource": "commands",
    "HardwareLoopNest": "hwloop",
    "AddressGenerationUnit": "agu",
    "Fifo": "fifo",
    "NtxRegisterFile": "registers",
    "RegisterMap": "registers",
    "NtxFpu": "fpu",
    "NtxController": "controller",
    "MicroOp": "controller",
    "NtxConfig": "ntx",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
