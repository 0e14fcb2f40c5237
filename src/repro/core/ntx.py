"""The NTX co-processor.

Two views of the same machine are provided:

* :meth:`Ntx.execute` — the *functional executor*: it walks the controller's
  micro-op stream, performs every read, FPU issue and write against a memory
  object, and returns an estimate of the cycles the command would have taken
  in the absence of TCDM bank conflicts.  This is the work-horse used by the
  kernel library and the golden-model tests.
* the *cycle interface* (:meth:`start`, :meth:`cycle_requests`,
  :meth:`cycle_commit`) — used by the cluster simulator.  It models the
  elastic decoupling of Figure 2: the address generators run ahead of the
  FPU through per-port address/data FIFOs, so an isolated bank conflict only
  delays one operand fetch rather than the whole pipeline; the FPU stalls
  only when a FIFO runs dry or the write-back FIFO fills.  Sustained
  throughput is therefore limited by the per-port conflict probability —
  the ~13 % the paper measures — rather than by its square, which is what
  lets the cluster reach ~87 % of its peak.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core.commands import NtxCommand, NtxOpcode
from repro.core.controller import MicroOp, NtxController
from repro.core.fpu import FpuStats, NtxFpu
from repro.softfloat.pcs import PcsConfig

__all__ = ["MemoryPort", "NtxConfig", "NtxStats", "Ntx"]


class MemoryPort(Protocol):
    """What NTX needs from the memory it streams from: 32 bit float access."""

    def read_f32(self, address: int) -> float: ...

    def write_f32(self, address: int, value: float) -> None: ...


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
    """Aggregate statistics of one NTX instance."""

    commands: int = 0
    iterations: int = 0
    flops: int = 0
    tcdm_reads: int = 0
    tcdm_writes: int = 0
    ideal_cycles: int = 0
    active_cycles: int = 0
    stall_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.active_cycles + self.stall_cycles

    @property
    def utilization(self) -> float:
        """Fraction of busy cycles in which a micro-op retired."""
        total = self.total_cycles
        return self.active_cycles / total if total else 0.0

    def merge(self, other: "NtxStats") -> None:
        self.commands += other.commands
        self.iterations += other.iterations
        self.flops += other.flops
        self.tcdm_reads += other.tcdm_reads
        self.tcdm_writes += other.tcdm_writes
        self.ideal_cycles += other.ideal_cycles
        self.active_cycles += other.active_cycles
        self.stall_cycles += other.stall_cycles


class _InflightOp:
    """One micro-op travelling through the operand FIFOs."""

    __slots__ = ("op", "values", "pending")

    def __init__(self, op: MicroOp) -> None:
        self.op = op
        #: slot name -> operand value, filled as reads return.
        self.values: Dict[str, float] = {}
        #: slot name -> address still waiting for its TCDM grant.
        self.pending: Dict[str, int] = {}

    @property
    def ready(self) -> bool:
        return not self.pending


#: The FIFOs of an NTX that has not started a command: empty, and read-only.
_NO_FIFO: Deque = ()  # type: ignore[assignment]

#: TCDM ports of one NTX: AGU0 and AGU1 feed the two read ports, AGU2 owns
#: the third port for accumulator-init reads and result writes.
_PORT_SLOTS = ((0, "a"), (1, "b"), (2, "init"))


class Ntx:
    """One NTX streaming co-processor."""

    def __init__(self, config: Optional[NtxConfig] = None, ntx_id: int = 0) -> None:
        self.config = config or NtxConfig()
        self.ntx_id = ntx_id
        self.stats = NtxStats()
        #: The FPU's counters, kept here so an engine that credits them
        #: wholesale (the vectorized one) never builds the datapath.
        self.fpu_stats = FpuStats()
        self._fpu: Optional[NtxFpu] = None
        # Cycle-interface state.  :meth:`start` builds each command's
        # operand and write-back FIFOs; an NTX never started reads as empty.
        self._controller: Optional[NtxController] = None
        self._command: Optional[NtxCommand] = None
        self._inflight: Deque[_InflightOp] = _NO_FIFO
        self._port_queues: Sequence[Deque[Tuple[_InflightOp, str, int]]] = (
            _NO_FIFO,
        ) * 3
        self._wb_queue: Deque[Tuple[int, float]] = _NO_FIFO
        self._presented_write = False
        self._setup_cycles_left = 0
        self._drain_cycles_left = 0

    @property
    def fpu(self) -> NtxFpu:
        """The FPU/partial-carry-save datapath, built on first use: only
        :meth:`execute` and the cycle interface step it."""
        if self._fpu is None:
            self._fpu = NtxFpu(self.config.pcs, stats=self.fpu_stats)
        return self._fpu

    # ------------------------------------------------------------------ #
    # Functional execution                                               #
    # ------------------------------------------------------------------ #

    def execute(self, command: NtxCommand, memory: MemoryPort) -> NtxStats:
        """Run ``command`` to completion against ``memory``.

        Returns the statistics of this command only (the instance-level
        :attr:`stats` are updated as well).  Timing is the conflict-free
        ideal; use the cluster simulator for contention effects.
        """
        controller = NtxController(command)
        fpu = self.fpu
        opcode = command.opcode
        scalar = command.scalar

        for op in controller.micro_ops():
            if op.init:
                init_value = (
                    memory.read_f32(op.init_read) if op.init_read is not None else None
                )
                fpu.init_block(opcode, init_value)
            operand0 = memory.read_f32(op.read0) if op.read0 is not None else None
            operand1 = memory.read_f32(op.read1) if op.read1 is not None else None
            fpu.issue(opcode, operand0, operand1, scalar)
            if op.store is not None:
                memory.write_f32(op.store, fpu.writeback(opcode))

        local = NtxStats(
            commands=1,
            iterations=command.total_iterations,
            flops=command.flops,
            tcdm_reads=command.tcdm_reads,
            tcdm_writes=command.tcdm_writes,
            ideal_cycles=self.config.ideal_cycles(command),
            active_cycles=self.config.ideal_cycles(command),
            stall_cycles=0,
        )
        self.stats.merge(local)
        return local

    # ------------------------------------------------------------------ #
    # Cycle-level co-simulation interface                                #
    # ------------------------------------------------------------------ #

    @property
    def busy(self) -> bool:
        """Whether a command is in flight (including setup/drain phases)."""
        return (
            self._controller is not None
            or self._command is not None
            or bool(self._inflight)
            or bool(self._wb_queue)
            or self._setup_cycles_left > 0
            or self._drain_cycles_left > 0
        )

    def start(self, command: NtxCommand) -> None:
        """Begin cycle-level execution of ``command``."""
        if self.busy:
            raise RuntimeError(f"NTX {self.ntx_id} is busy")
        self._command = command
        self._controller = NtxController(command)
        self._fpu = self.fpu  # built here; the per-cycle path reads _fpu
        self._setup_cycles_left = self.config.command_setup_cycles
        self._drain_cycles_left = 0
        self._inflight = deque()
        self._port_queues = (deque(), deque(), deque())
        self._wb_queue = deque()
        self.stats.commands += 1

    def cycle_requests(self) -> List[Tuple[int, bool]]:
        """Memory requests (address, is_write) the NTX presents this cycle.

        Each of the three TCDM ports presents at most one request: the two
        operand ports present the oldest outstanding read of their address
        FIFO, the AGU2 port presents either its oldest init read or — if no
        read is waiting — the oldest entry of the write-back FIFO.
        """
        self._presented_write = False
        if self._setup_cycles_left > 0:
            return []
        self._refill_window()
        requests: List[Tuple[int, bool]] = []
        for port in (0, 1):
            queue = self._port_queues[port]
            if queue:
                requests.append((queue[0][2], False))
        port2 = self._port_queues[2]
        if port2:
            requests.append((port2[0][2], False))
        elif self._wb_queue:
            requests.append((self._wb_queue[0][0], True))
            self._presented_write = True
        return requests

    def cycle_commit(self, granted: set, memory: MemoryPort) -> bool:
        """Advance one cycle given the set of granted request addresses.

        Returns True when the NTX retired a micro-op (or advanced a
        setup/drain phase); False when the cycle ended without a retirement.
        """
        if self._setup_cycles_left > 0:
            self._setup_cycles_left -= 1
            self.stats.active_cycles += 1
            return True

        # 1. Collect returning read data on each port.
        for port, _slot in _PORT_SLOTS:
            queue = self._port_queues[port]
            if queue and queue[0][2] in granted:
                entry, slot, address = queue.popleft()
                entry.values[slot] = memory.read_f32(address)
                entry.pending.pop(slot, None)
                self.stats.tcdm_reads += 1

        # 2. Drain the write-back FIFO if its request won the port this cycle.
        if self._presented_write and self._wb_queue and self._wb_queue[0][0] in granted:
            address, value = self._wb_queue.popleft()
            memory.write_f32(address, value)
            self.stats.tcdm_writes += 1

        # 3. Retire the oldest in-flight micro-op if its operands are ready.
        retired = False
        if self._inflight and self._inflight[0].ready:
            entry = self._inflight[0]
            op = entry.op
            wb_full = len(self._wb_queue) >= self.config.writeback_fifo_depth
            if op.store is None or not wb_full:
                self._inflight.popleft()
                self._compute(entry)
                if op.store is not None:
                    self._wb_queue.append(
                        (op.store, self._fpu.writeback(self._command.opcode))
                    )
                retired = True
                if op.last:
                    self._command_body_done()

        # 4. Handle the drain phase once everything has left the pipeline.
        if (
            not retired
            and self._controller is None
            and not self._inflight
            and not self._wb_queue
            and self._drain_cycles_left > 0
        ):
            self._drain_cycles_left -= 1
            self.stats.active_cycles += 1
            return True

        if retired:
            self.stats.active_cycles += 1
            return True
        if self.busy:
            self.stats.stall_cycles += 1
        return False

    # -- cycle-interface internals ------------------------------------------------

    def _refill_window(self) -> None:
        """Let the AGUs run ahead and fill the operand FIFOs."""
        if self._controller is None:
            return
        window = self.config.data_fifo_depth
        while len(self._inflight) < window and not self._controller.done:
            op = self._controller.step()
            entry = _InflightOp(op)
            reads = []
            if op.read0 is not None:
                reads.append((0, "a", op.read0))
            if op.read1 is not None:
                reads.append((1, "b", op.read1))
            if op.init_read is not None:
                reads.append((2, "init", op.init_read))
            for port, slot, address in reads:
                forwarded = self._forward_from_writeback(address)
                if forwarded is not None:
                    entry.values[slot] = forwarded
                    continue
                entry.pending[slot] = address
                self._port_queues[port].append((entry, slot, address))
            self._inflight.append(entry)
        if self._controller.done:
            self._controller = None

    def _forward_from_writeback(self, address: int) -> Optional[float]:
        """Store-to-load forwarding from the write-back FIFO (newest wins)."""
        for pending_address, value in reversed(self._wb_queue):
            if pending_address == address:
                return value
        return None

    def _compute(self, entry: _InflightOp) -> None:
        opcode = self._command.opcode
        op = entry.op
        if op.init:
            init_value = entry.values.get("init") if op.init_read is not None else None
            self._fpu.init_block(opcode, init_value)
        operand0 = entry.values.get("a") if op.read0 is not None else None
        operand1 = entry.values.get("b") if op.read1 is not None else None
        self._fpu.issue(opcode, operand0, operand1, self._command.scalar)
        self.stats.iterations += 1
        self.stats.flops += opcode.flops_per_element

    def _command_body_done(self) -> None:
        """Last micro-op retired: account the command and arm the drain phase."""
        if self._command is not None:
            self.stats.ideal_cycles += self.config.ideal_cycles(self._command)
        self._command = None
        self._controller = None
        self._drain_cycles_left = self.config.writeback_drain_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ntx(id={self.ntx_id}, busy={self.busy})"
