"""A small two-pass RV32IM assembler.

It covers the subset of the ISA the decoder understands plus the usual
pseudo-instructions (``li``, ``mv``, ``nop``, ``j``, ``ret``, ``beqz`` …) and
labels, which is enough to write the cluster control programs used by the
tests and examples (program the DMA, program the NTX register files, poll
status, halt).  The output is a list of 32 bit instruction words together
with the symbol table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.riscv.registers import reg_index

__all__ = ["AssemblerError", "Program", "assemble"]


class AssemblerError(Exception):
    """Raised for syntax errors, unknown mnemonics or out-of-range operands."""


@dataclass
class Program:
    """Result of assembling a source listing."""

    words: List[int]
    symbols: Dict[str, int]
    base_address: int = 0

    @property
    def size_bytes(self) -> int:
        return 4 * len(self.words)

    def to_bytes(self) -> bytes:
        import struct

        return b"".join(struct.pack("<I", w) for w in self.words)


# --------------------------------------------------------------------------- #
# Encoding helpers                                                             #
# --------------------------------------------------------------------------- #


def _check_range(value: int, bits: int, signed: bool, what: str) -> None:
    if signed:
        low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        low, high = 0, (1 << bits) - 1
    if not low <= value <= high:
        raise AssemblerError(f"{what} {value} does not fit in {bits} bits")


def _r_type(opcode: int, funct3: int, funct7: int, rd: int, rs1: int, rs2: int) -> int:
    return (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def _i_type(opcode: int, funct3: int, rd: int, rs1: int, imm: int) -> int:
    _check_range(imm, 12, True, "immediate")
    return ((imm & 0xFFF) << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def _s_type(opcode: int, funct3: int, rs1: int, rs2: int, imm: int) -> int:
    _check_range(imm, 12, True, "store offset")
    imm &= 0xFFF
    return (
        ((imm >> 5) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | ((imm & 0x1F) << 7)
        | opcode
    )


def _b_type(opcode: int, funct3: int, rs1: int, rs2: int, imm: int) -> int:
    _check_range(imm, 13, True, "branch offset")
    if imm % 2:
        raise AssemblerError("branch offset must be even")
    imm &= 0x1FFF
    return (
        (((imm >> 12) & 0x1) << 31)
        | (((imm >> 5) & 0x3F) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (((imm >> 1) & 0xF) << 8)
        | (((imm >> 11) & 0x1) << 7)
        | opcode
    )


def _u_type(opcode: int, rd: int, imm: int) -> int:
    _check_range(imm, 20, False, "upper immediate")
    return ((imm & 0xFFFFF) << 12) | (rd << 7) | opcode


def _j_type(opcode: int, rd: int, imm: int) -> int:
    _check_range(imm, 21, True, "jump offset")
    if imm % 2:
        raise AssemblerError("jump offset must be even")
    imm &= 0x1FFFFF
    return (
        (((imm >> 20) & 0x1) << 31)
        | (((imm >> 1) & 0x3FF) << 21)
        | (((imm >> 11) & 0x1) << 20)
        | (((imm >> 12) & 0xFF) << 12)
        | (rd << 7)
        | opcode
    )


_OP_ENCODINGS = {
    "add": (0b000, 0b0000000),
    "sub": (0b000, 0b0100000),
    "sll": (0b001, 0b0000000),
    "slt": (0b010, 0b0000000),
    "sltu": (0b011, 0b0000000),
    "xor": (0b100, 0b0000000),
    "srl": (0b101, 0b0000000),
    "sra": (0b101, 0b0100000),
    "or": (0b110, 0b0000000),
    "and": (0b111, 0b0000000),
    "mul": (0b000, 0b0000001),
    "mulh": (0b001, 0b0000001),
    "mulhsu": (0b010, 0b0000001),
    "mulhu": (0b011, 0b0000001),
    "div": (0b100, 0b0000001),
    "divu": (0b101, 0b0000001),
    "rem": (0b110, 0b0000001),
    "remu": (0b111, 0b0000001),
}
_OP_IMM_ENCODINGS = {
    "addi": 0b000,
    "slti": 0b010,
    "sltiu": 0b011,
    "xori": 0b100,
    "ori": 0b110,
    "andi": 0b111,
}
_LOAD_ENCODINGS = {"lb": 0b000, "lh": 0b001, "lw": 0b010, "lbu": 0b100, "lhu": 0b101}
_STORE_ENCODINGS = {"sb": 0b000, "sh": 0b001, "sw": 0b010}
_BRANCH_ENCODINGS = {
    "beq": 0b000,
    "bne": 0b001,
    "blt": 0b100,
    "bge": 0b101,
    "bltu": 0b110,
    "bgeu": 0b111,
}
_CSR_ENCODINGS = {"csrrw": 0b001, "csrrs": 0b010, "csrrc": 0b011}
_CSR_NAMES = {"cycle": 0xC00, "instret": 0xC02, "mcycle": 0xB00, "minstret": 0xB02}


# --------------------------------------------------------------------------- #
# Parsing                                                                      #
# --------------------------------------------------------------------------- #

_MEM_OPERAND = re.compile(r"^(?P<offset>[-+]?\w+)\((?P<base>\w+)\)$")


def _parse_int(token: str, symbols: Dict[str, int] | None = None) -> int:
    token = token.strip()
    if symbols and token in symbols:
        return symbols[token]
    try:
        return int(token, 0)
    except ValueError as exc:
        raise AssemblerError(f"cannot parse integer operand {token!r}") from exc


def _split_operands(rest: str) -> List[str]:
    return [part.strip() for part in rest.split(",") if part.strip()] if rest else []


@dataclass
class _Line:
    mnemonic: str
    operands: List[str]
    source: str
    number: int


def _tokenize(source: str) -> Tuple[List[_Line], Dict[str, int]]:
    """First pass: strip comments, collect labels, expand pseudo-instructions."""
    lines: List[_Line] = []
    labels: Dict[str, int] = {}
    pc = 0
    for number, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#")[0].split("//")[0].strip()
        if not line:
            continue
        while ":" in line:
            label, _, line = line.partition(":")
            label = label.strip()
            if not label:
                raise AssemblerError(f"line {number}: empty label")
            if label in labels:
                raise AssemblerError(f"line {number}: duplicate label {label!r}")
            labels[label] = pc
            line = line.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = _split_operands(parts[1] if len(parts) > 1 else "")
        expansion = _expand_pseudo(mnemonic, operands, number)
        for exp_mnemonic, exp_operands in expansion:
            lines.append(_Line(exp_mnemonic, exp_operands, raw, number))
            pc += 4
    return lines, labels


def _expand_pseudo(
    mnemonic: str, operands: List[str], number: int
) -> List[Tuple[str, List[str]]]:
    """Expand pseudo-instructions into base instructions (worst-case size)."""
    if mnemonic == "nop":
        return [("addi", ["x0", "x0", "0"])]
    if mnemonic == "mv":
        return [("addi", [operands[0], operands[1], "0"])]
    if mnemonic == "not":
        return [("xori", [operands[0], operands[1], "-1"])]
    if mnemonic == "neg":
        return [("sub", [operands[0], "x0", operands[1]])]
    if mnemonic == "j":
        return [("jal", ["x0", operands[0]])]
    if mnemonic == "jr":
        return [("jalr", ["x0", operands[0], "0"])]
    if mnemonic == "ret":
        return [("jalr", ["x0", "ra", "0"])]
    if mnemonic == "call":
        return [("jal", ["ra", operands[0]])]
    if mnemonic == "beqz":
        return [("beq", [operands[0], "x0", operands[1]])]
    if mnemonic == "bnez":
        return [("bne", [operands[0], "x0", operands[1]])]
    if mnemonic == "blez":
        return [("bge", ["x0", operands[0], operands[1]])]
    if mnemonic == "bgtz":
        return [("blt", ["x0", operands[0], operands[1]])]
    if mnemonic == "bltz":
        return [("blt", [operands[0], "x0", operands[1]])]
    if mnemonic == "bgez":
        return [("bge", [operands[0], "x0", operands[1]])]
    if mnemonic == "seqz":
        return [("sltiu", [operands[0], operands[1], "1"])]
    if mnemonic == "snez":
        return [("sltu", [operands[0], "x0", operands[1]])]
    if mnemonic in ("li", "la"):
        # Always expand to lui+addi so label addresses resolved in pass two
        # cannot change the program size.
        return [("_li_hi", operands), ("_li_lo", operands)]
    return [(mnemonic, operands)]


# --------------------------------------------------------------------------- #
# Second pass: encoding                                                        #
# --------------------------------------------------------------------------- #


def assemble(source: str, base_address: int = 0) -> Program:
    """Assemble ``source`` into a :class:`Program` loaded at ``base_address``."""
    lines, labels = _tokenize(source)
    symbols = {name: base_address + offset for name, offset in labels.items()}
    words: List[int] = []
    for index, line in enumerate(lines):
        pc = base_address + 4 * index
        try:
            words.append(_encode(line, pc, symbols))
        except AssemblerError as exc:
            raise AssemblerError(f"line {line.number}: {exc} (in {line.source!r})") from exc
    return Program(words=words, symbols=symbols, base_address=base_address)


def _resolve(token: str, symbols: Dict[str, int]) -> int:
    return _parse_int(token, symbols)


def _encode(line: _Line, pc: int, symbols: Dict[str, int]) -> int:
    m = line.mnemonic
    ops = line.operands

    if m == "_li_hi":
        value = _resolve(ops[1], symbols) & 0xFFFFFFFF
        low = value & 0xFFF
        if low & 0x800:
            low -= 0x1000
        high = ((value - low) >> 12) & 0xFFFFF
        return _u_type(0b0110111, reg_index(ops[0]), high)
    if m == "_li_lo":
        value = _resolve(ops[1], symbols) & 0xFFFFFFFF
        low = value & 0xFFF
        if low & 0x800:
            low -= 0x1000
        return _i_type(0b0010011, 0b000, reg_index(ops[0]), reg_index(ops[0]), low)

    if m in _OP_ENCODINGS:
        funct3, funct7 = _OP_ENCODINGS[m]
        return _r_type(
            0b0110011, funct3, funct7, reg_index(ops[0]), reg_index(ops[1]), reg_index(ops[2])
        )
    if m in _OP_IMM_ENCODINGS:
        return _i_type(
            0b0010011,
            _OP_IMM_ENCODINGS[m],
            reg_index(ops[0]),
            reg_index(ops[1]),
            _resolve(ops[2], symbols),
        )
    if m in ("slli", "srli", "srai"):
        shamt = _resolve(ops[2], symbols)
        _check_range(shamt, 5, False, "shift amount")
        funct7 = 0b0100000 if m == "srai" else 0
        funct3 = 0b001 if m == "slli" else 0b101
        return _r_type(0b0010011, funct3, funct7, reg_index(ops[0]), reg_index(ops[1]), shamt)
    if m in _LOAD_ENCODINGS:
        offset, base = _parse_mem_operand(ops[1], symbols)
        return _i_type(0b0000011, _LOAD_ENCODINGS[m], reg_index(ops[0]), base, offset)
    if m in _STORE_ENCODINGS:
        offset, base = _parse_mem_operand(ops[1], symbols)
        return _s_type(0b0100011, _STORE_ENCODINGS[m], base, reg_index(ops[0]), offset)
    if m in _BRANCH_ENCODINGS:
        target = _resolve(ops[2], symbols)
        return _b_type(
            0b1100011, _BRANCH_ENCODINGS[m], reg_index(ops[0]), reg_index(ops[1]), target - pc
        )
    if m == "lui":
        return _u_type(0b0110111, reg_index(ops[0]), _resolve(ops[1], symbols))
    if m == "auipc":
        return _u_type(0b0010111, reg_index(ops[0]), _resolve(ops[1], symbols))
    if m == "jal":
        if len(ops) == 1:
            ops = ["ra", ops[0]]
        target = _resolve(ops[1], symbols)
        return _j_type(0b1101111, reg_index(ops[0]), target - pc)
    if m == "jalr":
        if len(ops) == 2:
            ops = [ops[0], ops[1], "0"]
        return _i_type(
            0b1100111, 0b000, reg_index(ops[0]), reg_index(ops[1]), _resolve(ops[2], symbols)
        )
    if m == "ecall":
        return 0x00000073
    if m == "ebreak":
        return 0x00100073
    if m == "fence":
        return 0x0000000F
    if m in _CSR_ENCODINGS:
        csr = _CSR_NAMES.get(ops[1], None)
        csr = csr if csr is not None else _resolve(ops[1], symbols)
        return (
            ((csr & 0xFFF) << 20)
            | (reg_index(ops[2]) << 15)
            | (_CSR_ENCODINGS[m] << 12)
            | (reg_index(ops[0]) << 7)
            | 0b1110011
        )
    if m == "csrr":
        csr = _CSR_NAMES.get(ops[1], None)
        csr = csr if csr is not None else _resolve(ops[1], symbols)
        return ((csr & 0xFFF) << 20) | (0 << 15) | (0b010 << 12) | (reg_index(ops[0]) << 7) | 0b1110011
    raise AssemblerError(f"unknown mnemonic {m!r}")


def _parse_mem_operand(token: str, symbols: Dict[str, int]) -> Tuple[int, int]:
    match = _MEM_OPERAND.match(token.replace(" ", ""))
    if not match:
        raise AssemblerError(f"malformed memory operand {token!r}")
    offset = _parse_int(match.group("offset"), symbols)
    base = reg_index(match.group("base"))
    return offset, base
