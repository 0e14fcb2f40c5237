"""RV32IM instruction decoding.

The decoder turns a 32 bit instruction word into a small
:class:`Instruction` record: a mnemonic, the register operands and the
sign-extended immediate.  Only the RV32I base integer ISA and the M
extension (multiply/divide) are implemented — that is everything the cluster
control code needs (RI5CY's DSP extensions are not used by the NTX driver).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Instruction", "DecodeError", "decode"]


class DecodeError(Exception):
    """Raised for unknown or malformed instruction words."""


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction."""

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    csr: int = 0
    raw: int = 0

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.mnemonic} rd=x{self.rd} rs1=x{self.rs1} rs2=x{self.rs2} "
            f"imm={self.imm}"
        )


def _sign_extend(value: int, bits: int) -> int:
    mask = 1 << (bits - 1)
    return (value ^ mask) - mask


def _imm_i(word: int) -> int:
    return _sign_extend(word >> 20, 12)


def _imm_s(word: int) -> int:
    imm = ((word >> 25) << 5) | ((word >> 7) & 0x1F)
    return _sign_extend(imm, 12)


def _imm_b(word: int) -> int:
    imm = (
        (((word >> 31) & 0x1) << 12)
        | (((word >> 7) & 0x1) << 11)
        | (((word >> 25) & 0x3F) << 5)
        | (((word >> 8) & 0xF) << 1)
    )
    return _sign_extend(imm, 13)


def _imm_u(word: int) -> int:
    return _sign_extend(word & 0xFFFFF000, 32)


def _imm_j(word: int) -> int:
    imm = (
        (((word >> 31) & 0x1) << 20)
        | (((word >> 12) & 0xFF) << 12)
        | (((word >> 20) & 0x1) << 11)
        | (((word >> 21) & 0x3FF) << 1)
    )
    return _sign_extend(imm, 21)


_BRANCHES = {0b000: "beq", 0b001: "bne", 0b100: "blt", 0b101: "bge", 0b110: "bltu", 0b111: "bgeu"}
_LOADS = {0b000: "lb", 0b001: "lh", 0b010: "lw", 0b100: "lbu", 0b101: "lhu"}
_STORES = {0b000: "sb", 0b001: "sh", 0b010: "sw"}
_OP_IMM = {0b000: "addi", 0b010: "slti", 0b011: "sltiu", 0b100: "xori", 0b110: "ori", 0b111: "andi"}
_OP = {
    (0b000, 0b0000000): "add",
    (0b000, 0b0100000): "sub",
    (0b001, 0b0000000): "sll",
    (0b010, 0b0000000): "slt",
    (0b011, 0b0000000): "sltu",
    (0b100, 0b0000000): "xor",
    (0b101, 0b0000000): "srl",
    (0b101, 0b0100000): "sra",
    (0b110, 0b0000000): "or",
    (0b111, 0b0000000): "and",
}
_OP_M = {
    0b000: "mul",
    0b001: "mulh",
    0b010: "mulhsu",
    0b011: "mulhu",
    0b100: "div",
    0b101: "divu",
    0b110: "rem",
    0b111: "remu",
}
_CSR = {0b001: "csrrw", 0b010: "csrrs", 0b011: "csrrc", 0b101: "csrrwi", 0b110: "csrrsi", 0b111: "csrrci"}


def decode(word: int) -> Instruction:
    """Decode a 32 bit RV32IM instruction word."""
    word &= 0xFFFFFFFF
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = (word >> 25) & 0x7F

    if opcode == 0b0110111:
        return Instruction("lui", rd=rd, imm=_imm_u(word), raw=word)
    if opcode == 0b0010111:
        return Instruction("auipc", rd=rd, imm=_imm_u(word), raw=word)
    if opcode == 0b1101111:
        return Instruction("jal", rd=rd, imm=_imm_j(word), raw=word)
    if opcode == 0b1100111 and funct3 == 0:
        return Instruction("jalr", rd=rd, rs1=rs1, imm=_imm_i(word), raw=word)
    if opcode == 0b1100011:
        if funct3 not in _BRANCHES:
            raise DecodeError(f"unknown branch funct3 {funct3:#05b}")
        return Instruction(_BRANCHES[funct3], rs1=rs1, rs2=rs2, imm=_imm_b(word), raw=word)
    if opcode == 0b0000011:
        if funct3 not in _LOADS:
            raise DecodeError(f"unknown load funct3 {funct3:#05b}")
        return Instruction(_LOADS[funct3], rd=rd, rs1=rs1, imm=_imm_i(word), raw=word)
    if opcode == 0b0100011:
        if funct3 not in _STORES:
            raise DecodeError(f"unknown store funct3 {funct3:#05b}")
        return Instruction(_STORES[funct3], rs1=rs1, rs2=rs2, imm=_imm_s(word), raw=word)
    if opcode == 0b0010011:
        if funct3 == 0b001:
            if funct7 != 0:
                raise DecodeError("invalid slli encoding")
            return Instruction("slli", rd=rd, rs1=rs1, imm=rs2, raw=word)
        if funct3 == 0b101:
            if funct7 == 0b0000000:
                return Instruction("srli", rd=rd, rs1=rs1, imm=rs2, raw=word)
            if funct7 == 0b0100000:
                return Instruction("srai", rd=rd, rs1=rs1, imm=rs2, raw=word)
            raise DecodeError("invalid shift-right immediate encoding")
        return Instruction(_OP_IMM[funct3], rd=rd, rs1=rs1, imm=_imm_i(word), raw=word)
    if opcode == 0b0110011:
        if funct7 == 0b0000001:
            return Instruction(_OP_M[funct3], rd=rd, rs1=rs1, rs2=rs2, raw=word)
        key = (funct3, funct7)
        if key not in _OP:
            raise DecodeError(f"unknown OP encoding funct3={funct3} funct7={funct7}")
        return Instruction(_OP[key], rd=rd, rs1=rs1, rs2=rs2, raw=word)
    if opcode == 0b0001111:
        return Instruction("fence", raw=word)
    if opcode == 0b1110011:
        if funct3 == 0:
            if word >> 20 == 0:
                return Instruction("ecall", raw=word)
            if word >> 20 == 1:
                return Instruction("ebreak", raw=word)
            raise DecodeError(f"unknown SYSTEM instruction {word:#010x}")
        if funct3 in _CSR:
            return Instruction(
                _CSR[funct3], rd=rd, rs1=rs1, csr=(word >> 20) & 0xFFF, raw=word
            )
        raise DecodeError(f"unknown CSR funct3 {funct3:#05b}")
    raise DecodeError(f"unknown opcode {opcode:#09b} in word {word:#010x}")
