"""The backing contract of :class:`repro.mem.memory.Memory`.

Every memory in the model (HMC, L2, TCDM) is a writable ``memoryview``
over a private anonymous map: zero on first touch, resident only where a
run writes, viewable by NumPy without a copy, and private to the process
that wrote it.
"""

import os

import numpy as np
import pytest

from repro.mem.hmc import Hmc
from repro.mem.memory import Memory

_STATM = "/proc/self/statm"


def _resident_bytes() -> int:
    with open(_STATM, "r", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


class TestBacking:
    def test_data_is_a_writable_zeroed_memoryview(self):
        memory = Memory(3 * 4096 + 12, base=0x100)
        assert isinstance(memory.data, memoryview)
        assert not memory.data.readonly
        assert len(memory.data) == memory.size
        assert not any(memory.data)

    def test_numpy_views_without_copying(self):
        memory = Memory(64)
        words = np.frombuffer(memory.data, dtype="<f4")
        assert words.flags.writeable
        assert words.shape == (16,)
        memory.write_f32(8, 1.5)
        assert words[2] == np.float32(1.5)
        words[5] = np.float32(-2.25)
        assert memory.read_f32(20) == -2.25

    def test_bytes_snapshot(self):
        memory = Memory(16)
        memory.write_u32(4, 0xDEADBEEF)
        snapshot = bytes(memory.data)
        assert snapshot == bytes(4) + b"\xef\xbe\xad\xde" + bytes(8)
        memory.write_u32(4, 0)
        assert snapshot[4:8] == b"\xef\xbe\xad\xde"

    def test_fill_is_gone(self):
        assert not hasattr(Memory, "fill")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_stay_private(self):
        memory = Memory(4096)
        memory.write_u32(0, 0x01020304)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 0
            try:
                memory.write_u32(0, 0xCAFEF00D)
                memory.write_u32(64, 0x5A5A5A5A)
                code = 0 if memory.read_u32(0) == 0xCAFEF00D else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert memory.read_u32(0) == 0x01020304
        assert memory.read_u32(64) == 0

    @pytest.mark.skipif(not os.path.exists(_STATM), reason="needs /proc/self/statm")
    def test_default_hmc_is_not_made_resident_up_front(self):
        before = _resident_bytes()
        hmc = Hmc()
        grown = _resident_bytes() - before
        assert hmc.memory.size == 64 * 1024 * 1024
        assert grown < 16 * 1024 * 1024
        # Touching one word makes only its page resident.
        hmc.memory.write_u32(hmc.base + hmc.memory.size - 4, 1)
        assert _resident_bytes() - before < 16 * 1024 * 1024
