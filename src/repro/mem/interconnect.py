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

from typing import Dict, Sequence, Set, Tuple

__all__ = ["TcdmInterconnect"]

#: One request presented in a cycle: ``(master, bank, address)``.
Request = Tuple[int, int, int]


class TcdmInterconnect:
    """Single-cycle, per-bank arbitrated crossbar, and its statistics.

    The round-robin order starts at ``rr_offset`` and rotates every
    cycle.
    """

    def __init__(self, num_masters: int, rr_offset: int = 0) -> None:
        self.num_masters = num_masters
        self._rr_offset = rr_offset
        # Statistics.
        self.cycles = 0
        self.requests = 0
        self.grants = 0
        self.conflicts = 0
        self.conflict_cycles = 0

    def arbitrate(self, requests: Sequence[Request]) -> Dict[int, Set[int]]:
        """Grant at most one of ``requests`` per bank; return the granted
        addresses by master.

        Within a bank the request whose master comes first in the current
        round-robin order wins, the first presented on a tie (one master's
        ports).  A grant serves every port of its master that presents
        the granted address.  The offset advances every cycle so no
        master is systematically favoured.
        """
        rr, num_masters = self._rr_offset, self.num_masters
        winners: Dict[int, Tuple[int, Request]] = {}
        for request in requests:
            priority = (request[0] - rr) % num_masters
            best = winners.get(request[1])
            if best is None or priority < best[0]:
                winners[request[1]] = (priority, request)
        self.cycles += 1
        self.requests += len(requests)
        self.grants += len(winners)
        if len(winners) != len(requests):
            self.conflicts += len(requests) - len(winners)
            self.conflict_cycles += 1
        self._rr_offset = (rr + 1) % max(num_masters, 1)
        granted: Dict[int, Set[int]] = {}
        for _, (master, _, address) in winners.values():
            granted.setdefault(master, set()).add(address)
        return granted

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
