"""Build, cache and call the compiled core (``timing_core.c``).

The library holds two entry points, both over precomputed integer
streams: the vectorized engine's per-cycle loop (:func:`load`) and the
data plane's MAC write-back (:func:`mac_kernel`), which replays a MAC
command over a word-major stack of TCDM images bit-identically to the
partial-carry-save register.  It is compiled on first use with the
system C compiler (:data:`CFLAGS`: ``-O2 -ftree-vectorize`` so the MAC's
lane loop over tiles vectorizes, ``-ffp-contract=off`` and no
``-ffast-math``, so every double operation rounds as written — the DMA
accumulator must round like Python floats, and the MAC's TwoSum
certificates rely on it).  The shared library is cached per user under
``~/.cache/repro`` as ``timing_core-<sha256>.so``, keyed by the source
text and the compiler command line, and published through a temporary
file plus :func:`os.replace`, so concurrent builders (separate processes
sharing the cache directory) never load a half-written library.  It is
loaded with :mod:`ctypes`.

Nothing happens at import: the first :func:`load` or :func:`mac_kernel`
call builds and loads.  When the library cannot be had — no ``cc`` on
``PATH``, a failed compile, a failed load — both return ``None`` and
:func:`unavailable_reason` names why (``no_compiler``, ``build_failed``,
``load_failed``).  The engine then runs the Python reference loop
(:func:`repro.cluster.vecsim._reference_loop`) instead, with identical
results, and every such cycle-loop run is counted in
``repro_timing_core_fallbacks_total{reason}``; the data plane walks MACs
per op and counts them itself (``repro_dataplane_fallbacks_total``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.obs import metrics as _metrics

__all__ = [
    "TimingCounters",
    "TimingInput",
    "TimingParams",
    "load",
    "mac_kernel",
    "unavailable_reason",
]

SOURCE = Path(__file__).with_name("timing_core.c")
CFLAGS = ("-O2", "-ftree-vectorize", "-ffp-contract=off", "-shared", "-fPIC")

_FALLBACKS = _metrics.counter(
    "repro_timing_core_fallbacks_total",
    "Cycle-loop runs the compiled timing core refused to the Python loop",
    labelnames=("reason",),
)

#: Columns of the per-command table (``enum`` in ``timing_core.c``).
_COLUMNS = 10
_EXCEEDED = 1
_NO_MEMORY = -1


class TimingParams(NamedTuple):
    """Machine and run parameters of one cycle loop."""

    num_banks: int
    num_masters: int
    window: int
    wb_depth: int
    setup_cycles: int
    drain_cycles: int
    stagger: int
    max_cycles: int
    dma_requests_per_cycle: float
    tcdm_words: int
    rr_offset: int


class TimingCounters(NamedTuple):
    """What one cycle loop reports back."""

    cycles: int
    requests: int
    grants: int
    conflicts: int
    conflict_cycles: int
    rr_offset: int
    active: List[int]
    stall: List[int]


class _Config(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_int64)
        for name in (
            "num_ntx", "num_banks", "num_masters", "window", "wb_depth",
            "setup_cycles", "drain_cycles", "stagger", "max_cycles",
            "tcdm_words", "rr_offset",
        )
    ] + [("dma_rate", ctypes.c_double)]


class _Counters(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_int64)
        for name in (
            "cycles", "requests", "grants", "conflicts", "conflict_cycles",
            "rr_offset",
        )
    ]


class _Library(NamedTuple):
    """The loaded entry points of ``timing_core.c``."""

    run: Callable
    mac: Callable


#: The loaded library, or the reason it is unavailable.
_STATE: Union[None, str, _Library] = None


def _find_compiler() -> Optional[str]:
    return shutil.which("cc")


def _cache_dir() -> Path:
    return Path.home() / ".cache" / "repro"


def _build(compiler: str) -> Optional[Path]:
    """The cached library for ``compiler``, compiling it if absent."""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(
        source + "\0".join((compiler, *CFLAGS)).encode()
    ).hexdigest()
    library = _cache_dir() / f"timing_core-{key[:32]}.so"
    if library.exists():
        return library
    library.parent.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(
        dir=library.parent, prefix=".timing_core-", suffix=".so"
    )
    os.close(handle)
    try:
        built = subprocess.run(
            [compiler, *CFLAGS, "-o", partial, str(SOURCE)],
            capture_output=True,
        )
        if built.returncode != 0:
            return None
        os.replace(partial, library)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return library


def _open() -> Union[str, _Library]:
    compiler = _find_compiler()
    if compiler is None:
        return "no_compiler"
    try:
        library = _build(compiler)
    except OSError:
        library = None
    if library is None:
        return "build_failed"
    try:
        handle = ctypes.CDLL(str(library))
        run, mac = handle.tc_run, handle.tc_mac
    except (OSError, AttributeError):
        return "load_failed"
    run.argtypes = [
        ctypes.POINTER(_Config), ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(_Counters),
    ]
    run.restype = ctypes.c_int
    int64, pointer = ctypes.c_int64, ctypes.c_void_p
    mac.argtypes = [pointer] + [int64] * 4 + [pointer] * 4 + [int64] * 2
    mac.restype = ctypes.c_int
    return _Library(run, mac)


def _library() -> Optional[_Library]:
    """The library, built and loaded on the first call of the process."""
    global _STATE
    if _STATE is None:
        _STATE = _open()
    return None if isinstance(_STATE, str) else _STATE


def unavailable_reason() -> Optional[str]:
    """Why the library could not be had, or ``None`` when it is loaded
    (or not tried yet)."""
    return _STATE if isinstance(_STATE, str) else None


def load() -> Optional[Callable]:
    """The compiled loop as ``loop(timing_input, params)``, or ``None``.

    Builds and loads the library on the first call of the process; a
    ``None`` is counted as one fallback under its reason every time.
    """
    if _library() is None:
        _FALLBACKS.inc(reason=_STATE)
        return None
    return _compiled_loop


def mac_kernel() -> Optional[Callable]:
    """The compiled MAC write-back as ``mac(stack, plan, words, pcs)``,
    or ``None`` (counted by the caller, see :func:`unavailable_reason`).

    Separate from :func:`load`, so swapping the cycle loop for the
    reference loop leaves the data plane compiled.
    """
    return None if _library() is None else _compiled_mac


class TimingInput:
    """Every NTX's queue of :class:`~repro.core.vecops.BankStreams`, in
    issue order, laid out once for the compiled loop: a queue-start index
    per NTX and one row of ``_COLUMNS`` integers per command, whose stream
    offsets index the concatenation of ``chunks``.  The arrays are
    read-only, so a tile program keeps its input for every run of it.
    The streams themselves are concatenated per run (:meth:`streams`, a
    few microseconds): kept, they would duplicate the plans' bank
    streams.
    """

    __slots__ = ("queues", "starts", "commands", "chunks")

    def __init__(self, queues: Sequence[Sequence]) -> None:
        self.queues = tuple(tuple(queue) for queue in queues)
        starts = [0]
        rows = []
        chunks = []
        filled = 0

        def place(stream: Optional[np.ndarray]) -> int:
            nonlocal filled
            if stream is None:
                return -1
            chunks.append(stream)
            filled += len(stream)
            return filled - len(stream)

        for queue in self.queues:
            for plan in queue:
                rows.append((
                    plan.total, plan.period_init, plan.period_store,
                    plan.num_init_reads, plan.num_stores,
                    place(plan.p0_banks), place(plan.p1_banks),
                    place(plan.init_banks), place(plan.init_ts),
                    place(plan.store_banks),
                ))
            starts.append(len(rows))
        self.starts = _frozen(np.array(starts, dtype=np.int64))
        self.commands = _frozen(np.array(rows or [(0,) * _COLUMNS], dtype=np.int64))
        self.chunks = tuple(chunks)

    def streams(self) -> np.ndarray:
        """Every bank stream, concatenated in the order the rows index."""
        if not self.chunks:
            return np.zeros(1, dtype=np.int32)
        return np.concatenate(self.chunks, dtype=np.int32)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _compiled_loop(timing_input: TimingInput, params: TimingParams) -> TimingCounters:
    """Run the cycle loop in C over ``timing_input``'s packed streams."""
    num_ntx = len(timing_input.queues)
    per_ntx = np.zeros(max(2 * num_ntx, 1), dtype=np.int64)
    config = _Config(
        num_ntx, params.num_banks, params.num_masters, params.window,
        params.wb_depth, params.setup_cycles, params.drain_cycles,
        params.stagger, params.max_cycles, params.tcdm_words,
        params.rr_offset, params.dma_requests_per_cycle,
    )
    counters = _Counters()
    streams = timing_input.streams()
    status = _STATE.run(
        ctypes.byref(config), timing_input.starts.ctypes.data,
        timing_input.commands.ctypes.data, streams.ctypes.data,
        per_ntx.ctypes.data, ctypes.byref(counters),
    )
    if status == _EXCEEDED:
        raise RuntimeError(
            f"simulation did not finish within {params.max_cycles} cycles"
        )
    if status != 0:
        raise MemoryError("timing core could not allocate its scratch state")
    return TimingCounters(
        counters.cycles, counters.requests, counters.grants,
        counters.conflicts, counters.conflict_cycles, counters.rr_offset,
        per_ntx[:num_ntx].tolist(), per_ntx[num_ntx:2 * num_ntx].tolist(),
    )


def _compiled_mac(stack: np.ndarray, plan, words, pcs) -> None:
    """Replay a MAC command over ``stack`` in place: ``plan`` is its
    :class:`~repro.core.vecops.CommandPlan`, ``words`` its word-index
    streams into ``stack`` (:class:`~repro.core.vecops.WordStreams`) and
    ``pcs`` the accumulator geometry."""
    if stack.dtype != np.float32 or not stack.flags.c_contiguous:
        raise ValueError("the MAC kernel needs a C-contiguous float32 stack")
    if not stack.flags.writeable:
        raise ValueError("the MAC kernel needs a writable stack")
    status = _STATE.mac(
        stack.ctypes.data, stack.shape[1], plan.total, plan.period_init,
        plan.period_store, *words.pointers, pcs.lsb_exponent, pcs.width,
    )
    if status == _NO_MEMORY:
        raise MemoryError("the MAC kernel could not allocate its scratch state")
