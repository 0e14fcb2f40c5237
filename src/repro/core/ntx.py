"""The NTX co-processor.

A cluster keeps the statistics of its co-processors as one int64 array,
one row per NTX (:attr:`repro.cluster.cluster.Cluster.ntx_stats`), whose
columns are :data:`STAT_COLUMNS`: the :class:`NtxStats` counters and then
the :class:`~repro.core.fpu.FpuStats` counters.  Every execution of a
command — both cycle engines, timing-cache hits, batched replay and
:meth:`repro.cluster.cluster.Cluster.offload` — writes its data through
the one shared data plane (:func:`repro.cluster.vecsim.run_data_plane`),
which credits every statistic but the cycles as one array add, and
refuses a command that reads its own earlier store.

:class:`NtxStepper` is the cycle model of one NTX for one run, over
addresses only; the scalar cycle engine
(:func:`repro.cluster.engine.scalar_loop`) steps one per co-processor.
It models the elastic decoupling of Figure 2: the address generators run
ahead of the FPU through per-port address/data FIFOs, so an isolated bank
conflict only delays one operand fetch rather than the whole pipeline;
the FPU stalls only when a FIFO runs dry or the write-back FIFO fills.
Sustained throughput is therefore limited by the per-port conflict
probability — the ~13 % the paper measures — rather than by its square,
which is what lets the cluster reach ~87 % of its peak.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from typing import AbstractSet, Deque, List, Optional, Tuple

from repro.core.commands import NtxCommand
from repro.core.controller import NtxController
from repro.core.fpu import FpuStats
from repro.softfloat.pcs import PcsConfig

__all__ = ["NtxConfig", "NtxStats", "STAT_COLUMNS", "NtxStepper"]


@dataclass(frozen=True)
class NtxConfig:
    """Micro-architectural parameters of one NTX co-processor.

    The defaults correspond to the 22FDX implementation: one FMAC issued per
    cycle, a handful of cycles of pipeline fill when a command starts, and a
    short drain when the partial-carry-save accumulator is merged and
    rounded at write-back.  FIFO depths are those annotated in Figure 2 for
    a TCDM read latency of one cycle.
    """

    #: Cycles to accept a command from the staging area and fill the pipeline.
    command_setup_cycles: int = 5
    #: Additional pipeline latency at the end of a command (merge of the
    #: partial-carry-save segments plus rounding of the last write-back).
    writeback_drain_cycles: int = 5
    #: Depth of the address FIFOs between the AGUs and the TCDM ports; this
    #: is how far the address generation may run ahead of the FPU.
    address_fifo_depth: int = 4
    #: Depth of the read-data FIFOs between the TCDM and the FPU.
    data_fifo_depth: int = 4
    #: Depth of the write-back FIFO.
    writeback_fifo_depth: int = 4
    #: Geometry of the partial-carry-save accumulator.
    pcs: PcsConfig = field(default_factory=PcsConfig)

    def ideal_cycles(self, command: NtxCommand) -> int:
        """Cycle count of ``command`` with a conflict-free TCDM.

        One innermost iteration retires per cycle; on top of that the
        command pays a fixed setup cost and a drain cost at the end.
        """
        return (
            self.command_setup_cycles
            + command.total_iterations
            + self.writeback_drain_cycles
        )


@dataclass
class NtxStats:
    """The statistics of one NTX: the first columns of its row of
    :attr:`repro.cluster.cluster.Cluster.ntx_stats`, in field order."""

    commands: int = 0
    iterations: int = 0
    flops: int = 0
    tcdm_reads: int = 0
    tcdm_writes: int = 0
    ideal_cycles: int = 0
    active_cycles: int = 0
    stall_cycles: int = 0


#: The columns of a cluster's per-NTX counter array: the :class:`NtxStats`
#: fields, then the :class:`~repro.core.fpu.FpuStats` fields, each in
#: ``astuple`` order.
STAT_COLUMNS: Tuple[str, ...] = tuple(
    column.name for column in fields(NtxStats) + fields(FpuStats)
)
#: Indices of the columns the engines credit one by one.
ITERATIONS, FLOPS, TCDM_READS, TCDM_WRITES, ACTIVE_CYCLES, STALL_CYCLES = map(
    STAT_COLUMNS.index,
    ("iterations", "flops", "tcdm_reads", "tcdm_writes", "active_cycles", "stall_cycles"),
)


#: One micro-op in the operand FIFOs: ``[reads pending, store address or
#: None, last of its command]``; it may retire once no read is pending.
_Entry = List


class NtxStepper:
    """The cycle state of one NTX over one run: addresses only.

    :meth:`start` a command, then each cycle present :meth:`requests`
    and :meth:`commit` the addresses the interconnect granted.  Each of
    the three TCDM ports presents at most one request per cycle: AGU0 and
    AGU1 the oldest outstanding read of their address FIFO, AGU2 its
    oldest init read or — with no read waiting — the oldest entry of the
    write-back FIFO; a grant serves every port presenting its address.
    No read waits on a store: the engines refuse such commands.
    ``active`` / ``stall`` count the busy cycles that did / did not make
    progress.
    """

    __slots__ = (
        "_window", "_wb_depth", "_setup_cycles", "_drain_cycles", "active",
        "stall", "_controller", "_inflight", "_ports", "_writebacks",
        "presented_write", "_setup_left", "_drain_left",
    )

    def __init__(self, config: Optional[NtxConfig] = None) -> None:
        config = config or NtxConfig()
        self._window = config.data_fifo_depth
        self._wb_depth = config.writeback_fifo_depth
        self._setup_cycles = config.command_setup_cycles
        self._drain_cycles = config.writeback_drain_cycles
        self.active = 0
        self.stall = 0
        self._controller: Optional[NtxController] = None
        self._inflight: Deque[_Entry] = deque()
        #: Per port, the ``(entry, address)`` reads awaiting a grant.
        self._ports: Tuple[Deque[Tuple[_Entry, int]], ...] = (deque(), deque(), deque())
        #: Store addresses awaiting a grant, oldest first.
        self._writebacks: Deque[int] = deque()
        #: Whether the last :meth:`requests` ended with a write.
        self.presented_write = False
        self._setup_left = 0
        self._drain_left = 0

    @property
    def busy(self) -> bool:
        """Whether a command is in flight (including setup/drain phases)."""
        return (
            self._controller is not None
            or bool(self._inflight)
            or bool(self._writebacks)
            or self._setup_left > 0
            or self._drain_left > 0
        )

    def start(self, command: NtxCommand) -> None:
        """Begin ``command``: its setup phase runs first."""
        if self.busy:
            raise RuntimeError("NTX is busy")
        self._controller = NtxController(command)
        self._setup_left = self._setup_cycles

    def requests(self) -> List[int]:
        """The addresses the ports present this cycle; a write, if any,
        comes last."""
        self.presented_write = False
        if self._setup_left > 0:
            return []
        self._refill_window()
        read0, read1, init = self._ports
        addresses = [queue[0][1] for queue in (read0, read1) if queue]
        if init:
            addresses.append(init[0][1])
        elif self._writebacks:
            addresses.append(self._writebacks[0])
            self.presented_write = True
        return addresses

    def commit(self, granted: AbstractSet[int]) -> bool:
        """Advance one cycle given the addresses granted to this NTX.

        A grant serves every port presenting its address.  Returns True
        when the NTX retired a micro-op or advanced a setup/drain phase.
        """
        if self._setup_left > 0:
            self._setup_left -= 1
            self.active += 1
            return True
        for queue in self._ports:
            if queue and queue[0][1] in granted:
                queue.popleft()[0][0] -= 1
        writebacks = self._writebacks
        if self.presented_write and writebacks and writebacks[0] in granted:
            writebacks.popleft()

        inflight = self._inflight
        if inflight and not inflight[0][0]:
            _, store, last = inflight[0]
            if store is None or len(writebacks) < self._wb_depth:
                inflight.popleft()
                if store is not None:
                    writebacks.append(store)
                if last:
                    self._drain_left = self._drain_cycles
                self.active += 1
                return True
        if (
            self._controller is None
            and not inflight
            and not writebacks
            and self._drain_left > 0
        ):
            self._drain_left -= 1
            self.active += 1
            return True
        if self.busy:
            self.stall += 1
        return False

    def _refill_window(self) -> None:
        """Let the AGUs run ahead and fill the operand FIFOs."""
        controller = self._controller
        if controller is None:
            return
        inflight, ports = self._inflight, self._ports
        while len(inflight) < self._window and not controller.done:
            op = controller.step()
            entry = [0, op.store, op.last]
            for queue, address in zip(ports, (op.read0, op.read1, op.init_read)):
                if address is not None:
                    entry[0] += 1
                    queue.append((entry, address))
            inflight.append(entry)
        if controller.done:
            self._controller = None
