"""The two cycle engines of the cluster simulator, and their registry.

The repository ships two timing models of the same machine — the scalar
per-micro-op interpreter (the golden reference) and the vectorized engine
(:mod:`repro.cluster.vecsim`: precomputed request streams and a compiled
timing core).  Both share one data plane,
:func:`repro.cluster.vecsim.run_data_plane`, which applies a run's data
effects on the live TCDM or on a word-major stack of batched tile images;
an engine only names the mode that data plane replays in:

* :class:`Engine` — what an engine is: ``run`` (the full cycle-level
  simulation), ``timing_signature`` (the hashable key under which a run's
  timing may be memoized, one recipe for both) and ``exact_replay``, the
  data plane's mode for its runs and timing-cache hits.  The scalar
  engine replays certified-exact — bit-identical to its per-op soft-float
  walk on every input; the vectorized engine keeps the float64 running
  sum of MAC products (see :mod:`repro.core.vecops`).
* :func:`get_engine` / :func:`available_engines` /
  :func:`describe_engines` — the registry of the two.  Everything that
  accepts an engine name (:class:`~repro.cluster.sim.ClusterSimulator`,
  :class:`~repro.system.config.SystemConfig`, the eval and bench CLIs)
  resolves it here, so an unknown name fails once, early, with the list
  of valid choices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.core.commands import NtxCommand

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.cluster.sim import ClusterSimulator, SimulationResult

__all__ = [
    "DEFAULT_ENGINE",
    "Engine",
    "ScalarEngine",
    "VectorizedEngine",
    "available_engines",
    "describe_engines",
    "get_engine",
]

Jobs = Sequence[Tuple[int, NtxCommand]]


@runtime_checkable
class Engine(Protocol):
    """A cycle engine: a timing model over the shared data plane.

    Engines are stateless: all mutable state lives in the
    :class:`~repro.cluster.sim.ClusterSimulator` (cluster, interconnect)
    they are handed, so one registered instance serves every simulator.
    """

    #: Registry key (``"scalar"`` or ``"vectorized"``).
    name: str
    #: One-line description shown in CLI help.
    description: str
    #: The data plane's mode for this engine's runs and timing-cache hits:
    #: ``True`` replays certified-exact, ``False`` with the float64 running
    #: sum (see :mod:`repro.core.vecops`).
    exact_replay: bool

    def run(
        self,
        simulator: "ClusterSimulator",
        jobs: Jobs,
        max_cycles: int,
        dma_requests_per_cycle: float,
        stagger_cycles: int,
    ) -> "SimulationResult":
        """Simulate ``jobs`` cycle by cycle until every command completed."""
        ...  # pragma: no cover - protocol

    def timing_signature(
        self,
        simulator: "ClusterSimulator",
        jobs: Jobs,
        dma_requests_per_cycle: float,
        stagger_cycles: int,
    ) -> tuple:
        """Hashable key under which a run's timing may be memoized."""
        ...  # pragma: no cover - protocol


class _EngineBase:
    """Shared timing-signature canonicalization.

    Both engines generate request streams from command structure alone and
    start from a fresh interconnect, so the signature is the same recipe:
    engine name, background-DMA rate, stagger, the full cluster
    configuration, and each command's structural signature.  The data
    flowing through the TCDM is deliberately absent — it cannot influence
    arbitration.
    """

    name = "abstract"
    description = ""

    def timing_signature(
        self,
        simulator: "ClusterSimulator",
        jobs: Jobs,
        dma_requests_per_cycle: float = 0.0,
        stagger_cycles: int = 7,
    ) -> tuple:
        return (
            self.name,
            float(dma_requests_per_cycle),
            int(stagger_cycles),
            simulator.cluster.config,
            tuple((ntx_id, command.timing_signature) for ntx_id, command in jobs),
        )


class VectorizedEngine(_EngineBase):
    """NumPy stream precompute + compiled timing core (:mod:`repro.cluster.vecsim`)."""

    name = "vectorized"
    description = (
        "NumPy streams and data plane, compiled C timing core (default, ~200x faster)"
    )
    exact_replay = False

    def run(self, simulator, jobs, max_cycles, dma_requests_per_cycle, stagger_cycles):
        from repro.cluster.vecsim import run_vectorized

        return run_vectorized(
            simulator, jobs, max_cycles, dma_requests_per_cycle, stagger_cycles
        )


class ScalarEngine(_EngineBase):
    """The original per-micro-op interpreter, kept as the golden reference."""

    name = "scalar"
    description = "per-micro-op golden reference interpreter"
    # Timing-cache hits replay certified-exact (the per-op soft-float walk
    # for whatever the kernel cannot certify), so memoized scalar runs stay
    # bit-identical to uncached ones.
    exact_replay = True

    def run(self, simulator, jobs, max_cycles, dma_requests_per_cycle, stagger_cycles):
        return _run_scalar(
            simulator, jobs, max_cycles, dma_requests_per_cycle, stagger_cycles
        )


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #

_REGISTRY: Dict[str, Engine] = {
    engine.name: engine for engine in (VectorizedEngine(), ScalarEngine())
}

#: Engine used when none is named explicitly.
DEFAULT_ENGINE = "vectorized"


def available_engines() -> Tuple[str, ...]:
    """Names of every registered engine, in registration order."""
    return tuple(_REGISTRY)


def describe_engines() -> Dict[str, str]:
    """``name -> description`` of every registered engine."""
    return {name: engine.description for name, engine in _REGISTRY.items()}


def get_engine(name: Optional[str] = None) -> Engine:
    """Resolve an engine by name (``None`` selects :data:`DEFAULT_ENGINE`)."""
    key = DEFAULT_ENGINE if name is None else name
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown engine {key!r}; registered engines: {available_engines()}"
        ) from None


# --------------------------------------------------------------------------- #
# The scalar reference implementation                                          #
# --------------------------------------------------------------------------- #


def _run_scalar(
    simulator: "ClusterSimulator",
    jobs: Jobs,
    max_cycles: int = 5_000_000,
    dma_requests_per_cycle: float = 0.0,
    stagger_cycles: int = 7,
) -> "SimulationResult":
    """Reference per-micro-op cycle loop (see ``ClusterSimulator.run``).

    ``jobs`` is a list of ``(ntx_id, command)`` pairs; each co-processor
    executes its commands in order.  ``dma_requests_per_cycle`` injects
    background TCDM traffic from the DMA engine (a double-buffered
    transfer touches one word per bank-interleaved address per beat) to
    model compute/copy interference.

    ``stagger_cycles`` delays the first command of co-processor ``i`` by
    ``i * stagger_cycles`` cycles.  This reproduces how the RISC-V core
    programs the co-processors one after the other (a handful of stores
    each); without it, identical phase-locked access patterns suffer
    systematically correlated bank conflicts that the real system does
    not exhibit.
    """
    from repro.cluster.sim import SimulationResult
    from repro.mem.interconnect import MemoryRequest

    cluster = simulator.cluster
    num_ntx = cluster.config.num_ntx
    queues = [[] for _ in range(num_ntx)]
    for ntx_id, command in jobs:
        if not 0 <= ntx_id < num_ntx:
            raise ValueError(f"NTX index {ntx_id} out of range")
        queues[ntx_id].append(command)
    start_cycle = [i * max(stagger_cycles, 0) for i in range(num_ntx)]

    # Reset per-run statistics on the co-processors we use.
    start_flops = [n.stats.flops for n in cluster.ntx]
    start_iterations = [n.stats.iterations for n in cluster.ntx]
    start_active = [n.stats.active_cycles for n in cluster.ntx]
    start_stall = [n.stats.stall_cycles for n in cluster.ntx]
    interconnect = simulator.interconnect
    start_requests = interconnect.requests
    start_conflicts = interconnect.conflicts

    dma_address = cluster.tcdm.base
    dma_accumulator = 0.0
    cycles = 0
    while cycles < max_cycles:
        # Start new commands on idle co-processors.
        any_busy = False
        for ntx_id in range(num_ntx):
            ntx = cluster.ntx[ntx_id]
            if not ntx.busy and queues[ntx_id] and cycles >= start_cycle[ntx_id]:
                ntx.start(queues[ntx_id].pop(0))
            if ntx.busy or queues[ntx_id]:
                any_busy = True
        if not any_busy:
            break

        requests = []
        for ntx_id in range(num_ntx):
            ntx = cluster.ntx[ntx_id]
            if not ntx.busy:
                continue
            for address, is_write in ntx.cycle_requests():
                requests.append(
                    MemoryRequest(master=ntx_id, address=address, is_write=is_write)
                )

        # Optional background DMA traffic.
        dma_accumulator += dma_requests_per_cycle
        while dma_accumulator >= 1.0:
            requests.append(
                MemoryRequest(master=num_ntx, address=dma_address, is_write=False)
            )
            dma_address = cluster.tcdm.base + (
                (dma_address - cluster.tcdm.base + 4) % cluster.tcdm.size
            )
            dma_accumulator -= 1.0

        result = interconnect.arbitrate(requests)
        granted_by_master = result.granted_addresses_by_master

        for ntx_id in range(num_ntx):
            ntx = cluster.ntx[ntx_id]
            if not ntx.busy:
                continue
            granted = granted_by_master.get(ntx_id, set())
            ntx.cycle_commit(granted, cluster.tcdm)

        cycles += 1
    else:
        raise RuntimeError(f"simulation did not finish within {max_cycles} cycles")

    per_ntx_active = [
        cluster.ntx[i].stats.active_cycles - start_active[i] for i in range(num_ntx)
    ]
    per_ntx_stall = [
        cluster.ntx[i].stats.stall_cycles - start_stall[i] for i in range(num_ntx)
    ]
    flops = sum(cluster.ntx[i].stats.flops - start_flops[i] for i in range(num_ntx))
    iterations = sum(
        cluster.ntx[i].stats.iterations - start_iterations[i] for i in range(num_ntx)
    )
    return SimulationResult(
        cycles=cycles,
        flops=flops,
        iterations=iterations,
        tcdm_requests=interconnect.requests - start_requests,
        tcdm_conflicts=interconnect.conflicts - start_conflicts,
        per_ntx_active=per_ntx_active,
        per_ntx_stall=per_ntx_stall,
        frequency_hz=cluster.config.ntx_frequency_hz,
    )
