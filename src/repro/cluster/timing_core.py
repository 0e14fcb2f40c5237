"""Build, cache and call the compiled timing core (``timing_core.c``).

The vectorized engine's per-cycle loop is integer-only over precomputed
bank streams, so it is written once in C and compiled on first use with
the system C compiler (``cc -O2 -shared -fPIC``; no ``-ffast-math``, the
DMA accumulator must round like Python floats).  The shared library is
cached per user under ``~/.cache/repro`` as ``timing_core-<sha256>.so``,
keyed by the source text and the compiler command line, and published
through a temporary file plus :func:`os.replace`, so concurrent builders
(forked campaign workers, server threads) never load a half-written
library.  It is loaded with :mod:`ctypes`.

Nothing happens at import: :func:`load` builds and loads on the first
call.  When the library cannot be had — no ``cc`` on ``PATH``, a failed
compile, a failed load — :func:`load` returns ``None`` and the engine
runs the Python reference loop (:func:`repro.cluster.vecsim._reference_loop`)
instead, with identical results.  Every such run is counted in
``repro_timing_core_fallbacks_total{reason}`` (``no_compiler``,
``build_failed``, ``load_failed``).
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

__all__ = ["TimingParams", "TimingCounters", "load"]

SOURCE = Path(__file__).with_name("timing_core.c")
CFLAGS = ("-O2", "-shared", "-fPIC")

_FALLBACKS = _metrics.counter(
    "repro_timing_core_fallbacks_total",
    "Cycle-loop runs the compiled timing core refused to the Python loop",
    labelnames=("reason",),
)

#: Columns of the per-command table (``enum`` in ``timing_core.c``).
_COLUMNS = 10
_EXCEEDED = 1


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


#: The loaded ``tc_run`` function, or the reason it is unavailable.
_STATE: Union[None, str, Callable] = None


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


def _open() -> Union[str, Callable]:
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
        function = ctypes.CDLL(str(library)).tc_run
    except (OSError, AttributeError):
        return "load_failed"
    function.argtypes = [
        ctypes.POINTER(_Config), ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(_Counters),
    ]
    function.restype = ctypes.c_int
    return function


def load() -> Optional[Callable]:
    """The compiled loop as ``loop(jobs_per_ntx, params)``, or ``None``.

    Builds and loads the library on the first call of the process; a
    ``None`` is counted as one fallback under its reason every time.
    """
    global _STATE
    if _STATE is None:
        _STATE = _open()
    if isinstance(_STATE, str):
        _FALLBACKS.inc(reason=_STATE)
        return None
    return _compiled_loop


def _compiled_loop(jobs_per_ntx: Sequence[Sequence], params: TimingParams) -> TimingCounters:
    """Run the cycle loop in C over ``jobs_per_ntx``' bank streams."""
    num_ntx = len(jobs_per_ntx)
    queue_start = [0]
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

    for plans in jobs_per_ntx:
        for plan in plans:
            rows.append((
                plan.total, plan.period_init, plan.period_store,
                plan.num_init_reads, plan.num_stores,
                place(plan.p0_banks), place(plan.p1_banks),
                place(plan.init_banks), place(plan.init_ts),
                place(plan.store_banks),
            ))
        queue_start.append(len(rows))
    queues = np.array(queue_start, dtype=np.int64)
    commands = np.array(rows or [(0,) * _COLUMNS], dtype=np.int64)
    streams = (
        np.concatenate(chunks, dtype=np.int32) if chunks
        else np.zeros(1, dtype=np.int32)
    )
    per_ntx = np.zeros(max(2 * num_ntx, 1), dtype=np.int64)
    config = _Config(
        num_ntx, params.num_banks, params.num_masters, params.window,
        params.wb_depth, params.setup_cycles, params.drain_cycles,
        params.stagger, params.max_cycles, params.tcdm_words,
        params.rr_offset, params.dma_requests_per_cycle,
    )
    counters = _Counters()
    status = _STATE(
        ctypes.byref(config), queues.ctypes.data, commands.ctypes.data,
        streams.ctypes.data, per_ntx.ctypes.data, ctypes.byref(counters),
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
