"""Tiling and double buffering.

Kernels whose working set exceeds the 64 kB TCDM are subdivided into tiles.
The DMA engine copies input data into and results out of the TCDM in a
double-buffering scheme: the NTX co-processors operate on one buffer while
the DMA operates on the other, so computation and data movement overlap and
the memory latency of the HMC is hidden (§II-E).

Between tiles of one kernel only the off-cluster (HMC) addresses change:
the control core stages the same command in the register interface and
the DMA moves the same TCDM rows.  So a tile is split in two here:

* :class:`TileProgram` — what every tile of one kernel shares: the NTX
  commands, their placements and the TCDM side of each DMA transfer.  It
  is frozen and hashed by value once, and everything that is a function of
  the program alone (jobs, command plans, the batched-replay gate verdict,
  the scheduling cost, the timing signature, ...) is derived on first use
  and kept on it (:meth:`TileProgram.derived`), keyed by the context it
  depends on.
* :class:`TileSchedule` — one tile: its program plus the HMC side (start
  address and pitch) of each transfer.  Whole
  :class:`~repro.mem.dma.DmaTransfer` objects are derived only for the
  inline DMA path.

Also here: the analytical double-buffered overlap timing
(:func:`overlap_cycles`) the system simulator applies per cluster.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.commands import NtxCommand
from repro.mem.dma import DmaTransfer

__all__ = [
    "ProgramJobs",
    "TcdmRows",
    "TileProgram",
    "TileSchedule",
    "overlap_cycles",
    "program_facts",
]

T = TypeVar("T")


class TcdmRows(NamedTuple):
    """The TCDM side of one DMA transfer: ``rows`` rows of ``row_bytes``
    starting at ``address``, ``pitch`` bytes apart (0: back to back)."""

    address: int
    row_bytes: int
    rows: int = 1
    pitch: int = 0

    @property
    def total_bytes(self) -> int:
        return self.row_bytes * self.rows

    def row_addresses(self) -> List[int]:
        """The TCDM address of every row."""
        pitch = self.pitch or self.row_bytes
        return [self.address + row * pitch for row in range(self.rows)]


class ProgramJobs(tuple):
    """A program's ``(ntx_id, command)`` pairs for ``num_ntx`` co-processors.

    Carries its :class:`TileProgram`, so the engines read the program's
    derived facts (command plans, timing-core input, accounting totals)
    instead of deriving them per run; a slice or any other sequence of
    jobs is derived from its commands as usual.
    """

    program: "TileProgram"
    num_ntx: int


class TileProgram:
    """What every tile of one kernel shares: commands, placements and the
    TCDM side of each DMA-in/out transfer.

    ``placements`` optionally pins each command to a co-processor.  The
    default (``None``) spreads independent commands round-robin; workloads
    whose commands form dependent chains (e.g. a stencil's accumulate
    passes, a training step's forward/backward sequence) place each chain
    on one NTX so both cycle engines execute it in program order.

    A program is frozen and compares by value; its hash is computed once.
    Facts derived from it are kept on it (:meth:`derived`) and never
    pickled: a copy carries only the four fields.
    """

    __slots__ = ("commands", "placements", "dma_in", "dma_out", "_hash", "_facts")

    commands: Tuple[NtxCommand, ...]
    placements: Optional[Tuple[int, ...]]
    dma_in: Tuple[TcdmRows, ...]
    dma_out: Tuple[TcdmRows, ...]

    def __init__(
        self,
        commands: Iterable[NtxCommand] = (),
        placements: Optional[Iterable[int]] = None,
        dma_in: Iterable[TcdmRows] = (),
        dma_out: Iterable[TcdmRows] = (),
    ) -> None:
        fields = (
            tuple(commands),
            None if placements is None else tuple(placements),
            tuple(TcdmRows(*rows) for rows in dma_in),
            tuple(TcdmRows(*rows) for rows in dma_out),
        )
        setattr_ = object.__setattr__
        for name, value in zip(self.__slots__, fields):
            setattr_(self, name, value)
        setattr_(self, "_hash", hash(fields))
        setattr_(self, "_facts", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TileProgram is frozen; cannot set {name!r}")

    def _fields(self) -> tuple:
        return (self.commands, self.placements, self.dma_in, self.dma_out)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TileProgram):
            return NotImplemented
        return self._hash == other._hash and self._fields() == other._fields()

    def __reduce__(self):
        # Neither the hash (string hashes differ between processes) nor
        # the derived facts travel.
        return (TileProgram, self._fields())

    def __repr__(self) -> str:
        return (
            f"TileProgram({len(self.commands)} commands, "
            f"{len(self.dma_in)} in, {len(self.dma_out)} out)"
        )

    def derived(self, key: Hashable, derive: Callable[[], T]) -> T:
        """``derive()``, computed on the first call under ``key`` and kept.

        ``key`` names the fact and everything besides the program it
        depends on (a cluster configuration, a TCDM geometry, an engine);
        ``derive`` must be a function of those alone.  Concurrent first
        calls may both derive; one result is kept.
        """
        facts = self._facts
        try:
            return facts[key]
        except KeyError:
            return facts.setdefault(key, derive())

    def jobs(self, num_ntx: int) -> ProgramJobs:
        """The ``(ntx_id, command)`` pairs a cluster simulator executes."""
        return self.derived(("jobs", num_ntx), lambda: self._jobs(num_ntx))

    def _jobs(self, num_ntx: int) -> ProgramJobs:
        if self.placements is None:
            pairs = [
                (index % num_ntx, command)
                for index, command in enumerate(self.commands)
            ]
        else:
            if len(self.placements) != len(self.commands):
                raise ValueError(
                    f"{len(self.placements)} placements for "
                    f"{len(self.commands)} commands"
                )
            for ntx_id in self.placements:
                if not 0 <= ntx_id < num_ntx:
                    raise ValueError(
                        f"placement {ntx_id} out of range for {num_ntx} NTX"
                    )
            pairs = list(zip(self.placements, self.commands))
        jobs = ProgramJobs(pairs)
        jobs.program = self
        jobs.num_ntx = num_ntx
        return jobs

    def plans(self, num_ntx: int) -> Tuple[Tuple[Tuple[NtxCommand, Any], ...], ...]:
        """Each NTX's commands with their shared
        :class:`~repro.core.vecops.CommandPlan`, in issue order."""

        def derive():
            from repro.core.vecops import command_plan

            queues: List[list] = [[] for _ in range(num_ntx)]
            for ntx_id, command in self.jobs(num_ntx):
                queues[ntx_id].append((command, command_plan(command)))
            return tuple(tuple(queue) for queue in queues)

        return self.derived(("plans", num_ntx), derive)

    @property
    def flops(self) -> int:
        return self.derived("flops", lambda: sum(c.flops for c in self.commands))

    @property
    def bytes_in(self) -> int:
        return sum(rows.total_bytes for rows in self.dma_in)

    @property
    def bytes_out(self) -> int:
        return sum(rows.total_bytes for rows in self.dma_out)


def program_facts(
    tiles: Iterable["TileSchedule"],
    key: Hashable,
    derive: Callable[[TileProgram], T],
) -> List[T]:
    """``derive(program)`` of every tile's program, kept on the program
    under ``key`` (:meth:`TileProgram.derived`): one lookup per distinct
    program, one derivation per program and ``key``."""
    seen: Dict[TileProgram, T] = {}
    facts = []
    for tile in tiles:
        program = tile.program
        fact = seen.get(program)
        if fact is None:
            fact = seen[program] = program.derived(key, lambda: derive(program))
        facts.append(fact)
    return facts


#: The HMC side of one transfer: start address and pitch (0: back to back).
HmcRows = Tuple[int, int]


class TileSchedule:
    """One tile: its :class:`TileProgram` plus the HMC side of each of its
    DMA-in and DMA-out transfers (``hmc_in[i]`` goes with
    ``program.dma_in[i]``)."""

    __slots__ = ("program", "hmc_in", "hmc_out")

    def __init__(
        self,
        program: TileProgram,
        hmc_in: Sequence[HmcRows] = (),
        hmc_out: Sequence[HmcRows] = (),
    ) -> None:
        if len(hmc_in) != len(program.dma_in) or len(hmc_out) != len(program.dma_out):
            raise ValueError(
                f"{len(hmc_in)}/{len(hmc_out)} HMC regions for a program of "
                f"{len(program.dma_in)}/{len(program.dma_out)} transfers"
            )
        self.program = program
        self.hmc_in = tuple(hmc_in)
        self.hmc_out = tuple(hmc_out)

    @classmethod
    def from_transfers(
        cls,
        transfers_in: Sequence[DmaTransfer] = (),
        commands: Sequence[NtxCommand] = (),
        transfers_out: Sequence[DmaTransfer] = (),
        placements: Optional[Sequence[int]] = None,
    ) -> "TileSchedule":
        """A tile, and a program of its own, from whole DMA transfers
        (inbound ones read the HMC, outbound ones write it)."""
        program = TileProgram(
            commands,
            placements,
            dma_in=[(t.dst, t.row_bytes, t.rows, t.dst_pitch) for t in transfers_in],
            dma_out=[(t.src, t.row_bytes, t.rows, t.src_pitch) for t in transfers_out],
        )
        return cls(
            program,
            [(t.src, t.src_pitch) for t in transfers_in],
            [(t.dst, t.dst_pitch) for t in transfers_out],
        )

    def __repr__(self) -> str:
        return f"TileSchedule({self.program!r}, in={self.hmc_in}, out={self.hmc_out})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TileSchedule):
            return NotImplemented
        return (self.program, self.hmc_in, self.hmc_out) == (
            other.program, other.hmc_in, other.hmc_out
        )

    __hash__ = None  # type: ignore[assignment]  # tiles compare by value

    @property
    def commands(self) -> Tuple[NtxCommand, ...]:
        return self.program.commands

    @property
    def placements(self) -> Optional[Tuple[int, ...]]:
        return self.program.placements

    def jobs(self, num_ntx: int) -> ProgramJobs:
        """The ``(ntx_id, command)`` pairs a cluster simulator executes."""
        return self.program.jobs(num_ntx)

    @property
    def transfers_in(self) -> List[DmaTransfer]:
        """The DMA-in transfers, HMC to TCDM (built on every access)."""
        return [
            DmaTransfer(
                src=src, dst=rows.address, row_bytes=rows.row_bytes,
                rows=rows.rows, src_pitch=pitch, dst_pitch=rows.pitch,
            )
            for rows, (src, pitch) in zip(self.program.dma_in, self.hmc_in)
        ]

    @property
    def transfers_out(self) -> List[DmaTransfer]:
        """The DMA-out transfers, TCDM to HMC (built on every access)."""
        return [
            DmaTransfer(
                src=rows.address, dst=dst, row_bytes=rows.row_bytes,
                rows=rows.rows, src_pitch=rows.pitch, dst_pitch=pitch,
            )
            for rows, (dst, pitch) in zip(self.program.dma_out, self.hmc_out)
        ]

    @property
    def bytes_in(self) -> int:
        return self.program.bytes_in

    @property
    def bytes_out(self) -> int:
        return self.program.bytes_out

    @property
    def flops(self) -> int:
        return self.program.flops


def overlap_cycles(
    compute_cycles_per_tile: Sequence[float], dma_cycles_per_tile: Sequence[float]
) -> float:
    """Total cycles of a double-buffered pipeline over the given tiles.

    The first tile's input transfer cannot be hidden and the last tile's
    output transfer cannot be hidden either; every tile in between overlaps
    its data movement with the computation of its neighbour, so its cost is
    the maximum of the two.  This is the execution-time model of [12] that
    the paper's roofline and DNN numbers are based on.
    """
    if len(compute_cycles_per_tile) != len(dma_cycles_per_tile):
        raise ValueError("per-tile sequences must have equal length")
    if not compute_cycles_per_tile:
        return 0.0
    n = len(compute_cycles_per_tile)
    # Prologue: first tile's DMA-in (approximated as half its DMA cost,
    # the other half being the write-back that trails the last tile).
    prologue = dma_cycles_per_tile[0] / 2.0
    epilogue = dma_cycles_per_tile[-1] / 2.0
    steady = sum(
        max(compute_cycles_per_tile[i], dma_cycles_per_tile[i]) for i in range(n)
    )
    return prologue + steady + epilogue
