"""The TCDM logarithmic interconnect.

The interconnect connects the request ports of the RISC-V core, the DMA and
the eight NTX co-processors (each with multiple ports) to the 32 TCDM banks.
Every cycle each bank can serve exactly one request; when two masters hit
the same bank in the same cycle one of them is stalled.  The paper measures
the resulting stall probability at roughly 13 % for streaming kernels, which
caps the practically achievable performance at about 17.4 Gflop/s out of the
20 Gflop/s peak.

Arbitration here is round-robin across masters (starting offset rotates each
cycle) which matches the fairness property of the logarithmic interconnect's
arbitration tree without modelling its exact topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["MemoryRequest", "ArbitrationResult", "TcdmInterconnect"]


@dataclass(frozen=True)
class MemoryRequest:
    """One master→bank request presented in a cycle."""

    master: int
    address: int
    is_write: bool = False


@dataclass
class ArbitrationResult:
    """Outcome of one arbitration cycle."""

    granted: List[MemoryRequest] = field(default_factory=list)
    stalled: List[MemoryRequest] = field(default_factory=list)

    @property
    def granted_addresses_by_master(self) -> Dict[int, set]:
        out: Dict[int, set] = {}
        for req in self.granted:
            out.setdefault(req.master, set()).add(req.address)
        return out


class TcdmInterconnect:
    """Single-cycle, per-bank arbitrated crossbar."""

    def __init__(self, tcdm, num_masters: int) -> None:
        self.tcdm = tcdm
        self.num_masters = num_masters
        self._rr_offset = 0
        # Statistics.
        self.cycles = 0
        self.requests = 0
        self.grants = 0
        self.conflicts = 0
        self.conflict_cycles = 0

    def arbitrate(self, requests: Sequence[MemoryRequest]) -> ArbitrationResult:
        """Grant at most one request per bank; stall the rest.

        Within a bank the request whose master index comes first in the
        current round-robin order wins.  The round-robin offset advances
        every cycle so no master is systematically favoured.
        """
        self.cycles += 1
        self.requests += len(requests)
        by_bank: Dict[int, List[MemoryRequest]] = {}
        for request in requests:
            bank = self.tcdm.bank_of(request.address)
            by_bank.setdefault(bank, []).append(request)

        result = ArbitrationResult()
        had_conflict = False
        for bank, bank_requests in by_bank.items():
            if len(bank_requests) == 1:
                result.granted.append(bank_requests[0])
                continue
            had_conflict = True
            self.conflicts += len(bank_requests) - 1
            winner = min(
                bank_requests,
                key=lambda r: (r.master - self._rr_offset) % self.num_masters,
            )
            result.granted.append(winner)
            result.stalled.extend(r for r in bank_requests if r is not winner)

        if had_conflict:
            self.conflict_cycles += 1
        self.grants += len(result.granted)
        self._rr_offset = (self._rr_offset + 1) % max(self.num_masters, 1)
        return result

    @property
    def conflict_probability(self) -> float:
        """Fraction of requests that were stalled by a bank conflict."""
        return self.conflicts / self.requests if self.requests else 0.0

    @property
    def stats(self) -> dict:
        return {
            "cycles": self.cycles,
            "requests": self.requests,
            "grants": self.grants,
            "conflicts": self.conflicts,
            "conflict_cycles": self.conflict_cycles,
            "conflict_probability": self.conflict_probability,
        }
