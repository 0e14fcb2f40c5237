"""Configuration of a multi-cluster NTX system on one HMC.

The paper's system-level evaluation (§V, Table II) places many processing
clusters on the logic base of a Hybrid Memory Cube: one or more clusters
per vault, every cluster attached to the main LoB interconnect.  A
:class:`SystemConfig` describes one such instantiation — how many vaults
are populated, how many clusters sit in each, and the per-cluster
configuration they share — and knows the two system-level ceilings that
govern scale-out:

* the aggregate *compute* peak (clusters × per-cluster peak), and
* the aggregate *memory bandwidth* the populated vaults can deliver, which
  caps the DMA traffic of all clusters together.

It describes hardware only: which cycle engine simulates it is an
execution choice (:class:`~repro.options.ExecutionOptions`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import ClusterConfig
from repro.mem.hmc import HmcConfig

__all__ = ["SystemConfig"]


@dataclass(frozen=True)
class SystemConfig:
    """One multi-cluster NTX instantiation on an HMC logic base."""

    #: Number of HMC vaults populated with processing clusters.
    num_vaults: int = 2
    #: Processing clusters placed in each populated vault.
    clusters_per_vault: int = 4
    #: Configuration shared by every cluster (8 NTX, 64 kB TCDM, ...).
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    #: The cube the clusters live in (shared by all of them).
    hmc: HmcConfig = field(default_factory=HmcConfig)
    #: Per-cluster NTX start stagger (see ``ClusterSimulator.run``).
    stagger_cycles: int = 7

    def __post_init__(self) -> None:
        if self.num_vaults <= 0:
            raise ValueError("a system needs at least one populated vault")
        if self.clusters_per_vault <= 0:
            raise ValueError("a system needs at least one cluster per vault")
        if self.num_vaults > self.hmc.num_vaults:
            raise ValueError(
                f"cannot populate {self.num_vaults} vaults of a "
                f"{self.hmc.num_vaults}-vault cube"
            )

    # -- derived figures -----------------------------------------------------

    @property
    def num_clusters(self) -> int:
        return self.num_vaults * self.clusters_per_vault

    @property
    def peak_flops(self) -> float:
        """Aggregate peak compute of all clusters."""
        return self.num_clusters * self.cluster.peak_flops

    @property
    def hmc_bandwidth_bytes_per_s(self) -> float:
        """DRAM bandwidth of the populated vaults.

        A cluster's DMA traffic is served primarily by the vault controller
        it sits under (that is the point of near-memory placement), so the
        bandwidth ceiling grows with the number of populated vaults rather
        than jumping straight to the cube's full 320 GB/s aggregate.
        """
        return self.num_vaults * self.hmc.vault_bandwidth_bytes_per_s

    @property
    def vault_of_cluster(self):
        """Mapping ``cluster_id -> vault_id`` (clusters fill vaults in order)."""
        return {
            cluster_id: cluster_id // self.clusters_per_vault
            for cluster_id in range(self.num_clusters)
        }

    def describe(self) -> str:
        return (
            f"{self.num_clusters} clusters "
            f"({self.num_vaults} vaults x {self.clusters_per_vault}), "
            f"peak {self.peak_flops / 1e9:.0f} Gflop/s, "
            f"HMC bandwidth {self.hmc_bandwidth_bytes_per_s / 1e9:.0f} GB/s"
        )
