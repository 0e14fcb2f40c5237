"""A small RV32IM instruction-set simulator.

The processing cluster pairs the NTX co-processors with one RI5CY RISC-V
core (RV32IMC) whose job is address calculation, DMA programming and NTX
offloading.  This subpackage provides a faithful functional stand-in:

* :mod:`repro.riscv.registers` — the 32-entry integer register file with ABI
  names.
* :mod:`repro.riscv.decoder` — RV32IM instruction decoding.
* :mod:`repro.riscv.cpu` — the instruction-set simulator with a pluggable
  data bus, instruction-cache timing and cycle/instruction counters.
* :mod:`repro.riscv.assembler` — a two-pass assembler for the subset needed
  to write cluster control programs in tests and examples.

The compressed (C) extension only affects code size, not behaviour, so the
ISS executes the 32 bit encodings; the half-rate clocking of the core
relative to the NTX/TCDM domain is handled by the cluster model.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.riscv.assembler import AssemblerError, assemble
    from repro.riscv.cpu import BusPort, Cpu, CpuConfig, Trap
    from repro.riscv.decoder import DecodeError, Instruction, decode
    from repro.riscv.registers import ABI_NAMES, RegisterFile, reg_index

__all__ = [
    "RegisterFile",
    "ABI_NAMES",
    "reg_index",
    "decode",
    "Instruction",
    "DecodeError",
    "Cpu",
    "CpuConfig",
    "Trap",
    "BusPort",
    "assemble",
    "AssemblerError",
]

# Public name -> defining submodule, imported on first access (repro._lazy).
_EXPORTS = {
    "RegisterFile": "registers",
    "ABI_NAMES": "registers",
    "reg_index": "registers",
    "decode": "decoder",
    "Instruction": "decoder",
    "DecodeError": "decoder",
    "Cpu": "cpu",
    "CpuConfig": "cpu",
    "Trap": "cpu",
    "BusPort": "cpu",
    "assemble": "assembler",
    "AssemblerError": "assembler",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
