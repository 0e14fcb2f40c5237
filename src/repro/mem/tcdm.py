"""The tightly-coupled data memory (TCDM).

The cluster's 64 kB L1 scratchpad is divided into 32 banks that are
word-interleaved: consecutive 32 bit words map to consecutive banks, so unit
stride streams spread across all banks and the eight NTX co-processors can
each sustain multiple accesses per cycle as long as they do not collide on a
bank.  The TCDM offers single-cycle access latency through the logarithmic
interconnect (see :mod:`repro.mem.interconnect`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mem.memory import Memory

__all__ = ["TcdmConfig", "Tcdm"]


@dataclass(frozen=True)
class TcdmConfig:
    """Geometry of the TCDM.

    The taped-out cluster uses 64 kB in 32 banks (the TC-paper configuration
    used 128 kB); both are expressible here, and the bank count is the knob
    for the banking-conflict ablation.
    """

    size_bytes: int = 64 * 1024
    num_banks: int = 32
    word_bytes: int = 4
    base_address: int = 0x1000_0000

    def __post_init__(self) -> None:
        if self.size_bytes % (self.num_banks * self.word_bytes) != 0:
            raise ValueError("TCDM size must be a multiple of banks * word size")

    @property
    def words_per_bank(self) -> int:
        return self.size_bytes // (self.num_banks * self.word_bytes)

    @property
    def total_words(self) -> int:
        return self.size_bytes // self.word_bytes


class Tcdm:
    """The multi-banked L1 scratchpad."""

    def __init__(self, config: TcdmConfig | None = None) -> None:
        self.config = config or TcdmConfig()
        self.memory = Memory(
            self.config.size_bytes, base=self.config.base_address, name="tcdm"
        )
        self.bank_accesses = np.zeros(self.config.num_banks, dtype=np.int64)

    # -- address mapping -------------------------------------------------------

    @property
    def base(self) -> int:
        return self.config.base_address

    @property
    def size(self) -> int:
        return self.config.size_bytes

    def contains(self, address: int, length: int = 1) -> bool:
        return self.memory.contains(address, length)

    def bank_of(self, address: int) -> int:
        """Bank index of a byte address (word-interleaved mapping)."""
        word_index = (address - self.config.base_address) // self.config.word_bytes
        return int(word_index % self.config.num_banks)

    # -- data access (single-cycle; arbitration handled by the interconnect) ----

    def read_f32(self, address: int) -> float:
        self.bank_accesses[self.bank_of(address)] += 1
        return self.memory.read_f32(address)

    def write_f32(self, address: int, value: float) -> None:
        self.bank_accesses[self.bank_of(address)] += 1
        self.memory.write_f32(address, value)

    def read_u32(self, address: int) -> int:
        self.bank_accesses[self.bank_of(address)] += 1
        return self.memory.read_u32(address)

    def write_u32(self, address: int, value: int) -> None:
        self.bank_accesses[self.bank_of(address)] += 1
        self.memory.write_u32(address, value)

    # -- bulk helpers (used by the DMA / kernel setup, not cycle-timed) ----------

    def store_array(self, address: int, array: np.ndarray) -> None:
        self.memory.store_array(address, array)

    def load_array(self, address: int, shape: tuple, dtype=np.float32) -> np.ndarray:
        return self.memory.load_array(address, shape, dtype)

    def alloc_layout(self, sizes_bytes: list[int], align: int = 4) -> list[int]:
        """Lay out buffers back-to-back from the TCDM base and return their addresses.

        Raises ``MemoryError`` when the buffers do not fit — the tiling code
        relies on this to validate tile sizes against the 64 kB budget.
        """
        addresses = []
        cursor = self.config.base_address
        for size in sizes_bytes:
            cursor = (cursor + align - 1) // align * align
            addresses.append(cursor)
            cursor += size
        if cursor > self.config.base_address + self.config.size_bytes:
            raise MemoryError(
                f"TCDM allocation of {cursor - self.config.base_address} bytes "
                f"exceeds the {self.config.size_bytes} byte scratchpad"
            )
        return addresses

    @property
    def bank_utilization(self) -> np.ndarray:
        """Per-bank access counts (used by the conflict analysis)."""
        return self.bank_accesses.copy()
