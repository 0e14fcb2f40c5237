"""The two cycle engines of the cluster simulator by name, and the
scalar reference loop.

The repository ships two timing models of the same machine — the scalar
per-micro-op loop (:func:`scalar_loop`, the golden reference) and the
compiled loop of the vectorized engine (:mod:`repro.cluster.vecsim`:
precomputed bank streams and a compiled timing core).  Both engines run
through one routine (:func:`repro.cluster.vecsim.run_cycles`): the one
data plane, :func:`repro.cluster.vecsim.run_data_plane`, writes a run's
data and credits its statistics, then a loop that sees addresses only
returns the run's :class:`~repro.cluster.timing_core.TimingCounters`.
The engines differ only in that loop, so an engine is a name: it never
changes bytes or counters, only how fast the cycles are counted.

* :func:`available_engines` / :func:`describe_engines` /
  :func:`resolve_engine` — the two names and their descriptions.
  Everything that accepts an engine name
  (:class:`~repro.cluster.sim.ClusterSimulator`,
  :class:`~repro.options.ExecutionOptions`, the scenario specs, the eval
  and bench CLIs) resolves it here, so an unknown name fails once,
  early, with the list of valid choices.
* :func:`scalar_loop` — the reference loop itself.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.core.commands import NtxCommand

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.cluster.timing_core import TimingCounters, TimingParams

__all__ = [
    "DEFAULT_ENGINE",
    "available_engines",
    "describe_engines",
    "resolve_engine",
    "scalar_loop",
]

#: Engine used when none is named explicitly.
DEFAULT_ENGINE = "vectorized"

#: ``name -> description`` of every engine: the vectorized engine times a
#: run with the compiled loop (with :func:`scalar_loop` when the library
#: is unavailable), the scalar engine always with :func:`scalar_loop`.
_ENGINES: Dict[str, str] = {
    "vectorized": (
        "NumPy streams and data plane, compiled C timing core (default, ~200x faster)"
    ),
    "scalar": "per-micro-op golden reference interpreter",
}


def available_engines() -> Tuple[str, ...]:
    """Names of every engine, the default first."""
    return tuple(_ENGINES)


def describe_engines() -> Dict[str, str]:
    """``name -> description`` of every engine."""
    return dict(_ENGINES)


def resolve_engine(name: Optional[str] = None) -> str:
    """The engine ``name`` (``None`` selects :data:`DEFAULT_ENGINE`);
    an unknown name raises :class:`ValueError` listing the choices."""
    key = DEFAULT_ENGINE if name is None else name
    if key not in _ENGINES:
        raise ValueError(
            f"unknown engine {key!r}; registered engines: {available_engines()}"
        )
    return key


# --------------------------------------------------------------------------- #
# The scalar reference loop                                                    #
# --------------------------------------------------------------------------- #


def scalar_loop(
    queues: Sequence[Sequence[NtxCommand]], params: "TimingParams"
) -> "TimingCounters":
    """The reference cycle loop: each NTX's ``queues`` entry in order,
    timed per micro-op over addresses only.

    The compiled loop's counterpart (same shape, same counters): one
    :class:`~repro.core.ntx.NtxStepper` per co-processor presents its
    ports' requests each cycle, background DMA beats walk the TCDM one
    word each (``params.dma_requests_per_cycle``), and a
    :class:`~repro.mem.interconnect.TcdmInterconnect` whose round-robin
    order starts at ``params.rr_offset`` grants one request per bank.
    Co-processor ``i`` starts its first command at cycle
    ``i * params.stagger``: that reproduces how the RISC-V core programs
    the co-processors one after the other, and keeps identical
    phase-locked streams from conflicting in lockstep.  Addresses come
    from the AGUs (:class:`~repro.core.controller.NtxController`), never
    from command plans, so the two loops stay independent models.
    """
    from repro.cluster.timing_core import TimingCounters
    from repro.core.ntx import NtxConfig, NtxStepper
    from repro.mem.interconnect import TcdmInterconnect

    config = NtxConfig(
        command_setup_cycles=params.setup_cycles,
        writeback_drain_cycles=params.drain_cycles,
        data_fifo_depth=params.window,
        writeback_fifo_depth=params.wb_depth,
    )
    num_ntx = len(queues)
    steppers = [NtxStepper(config) for _ in range(num_ntx)]
    waiting = [deque(queue) for queue in queues]
    start_cycle = [i * params.stagger for i in range(num_ntx)]
    interconnect = TcdmInterconnect(params.num_masters, params.rr_offset)
    base, num_banks = params.tcdm_base, params.num_banks
    dma_accumulator, dma_word = 0.0, 0
    no_grant: frozenset = frozenset()
    cycles = 0
    while cycles < params.max_cycles:
        stepping, waiting_start = [], False
        for ntx_id, stepper in enumerate(steppers):
            queue = waiting[ntx_id]
            if queue and not stepper.busy and cycles >= start_cycle[ntx_id]:
                stepper.start(queue.popleft())
            if stepper.busy:
                stepping.append((ntx_id, stepper))
            elif queue:
                waiting_start = True
        if not stepping and not waiting_start:
            break

        requests = [
            (ntx_id, ((address - base) >> 2) % num_banks, address)
            for ntx_id, stepper in stepping
            for address in stepper.requests()
        ]
        dma_accumulator += params.dma_requests_per_cycle
        while dma_accumulator >= 1.0:
            requests.append((num_ntx, dma_word % num_banks, base + 4 * dma_word))
            dma_word = (dma_word + 1) % params.tcdm_words
            dma_accumulator -= 1.0
        granted = interconnect.arbitrate(requests)
        for ntx_id, stepper in stepping:
            stepper.commit(granted.get(ntx_id, no_grant))
        cycles += 1
    else:
        raise RuntimeError(f"simulation did not finish within {params.max_cycles} cycles")
    return TimingCounters(
        cycles, interconnect.requests, interconnect.grants, interconnect.conflicts,
        interconnect.conflict_cycles, interconnect._rr_offset,
        [stepper.active for stepper in steppers],
        [stepper.stall for stepper in steppers],
    )
