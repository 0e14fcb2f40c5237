"""Unit tests for the TCDM interconnect, the DMA engine, I-cache, AXI and HMC."""

import numpy as np
import pytest

from repro.mem.axi import AxiConfig, AxiPort
from repro.mem.dma import DmaConfig, DmaEngine, DmaTransfer
from repro.mem.hmc import Hmc, HmcConfig
from repro.mem.icache import ICacheConfig, InstructionCache
from repro.mem.interconnect import TcdmInterconnect
from repro.mem.memory import Memory


class TestInterconnect:
    """Requests are ``(master, bank, address)``; ``arbitrate`` returns the
    granted addresses by master."""

    BASE = 0x1000_0000

    def _interconnect(self):
        return TcdmInterconnect(num_masters=4)

    def test_no_conflict_all_granted(self):
        ic = self._interconnect()
        requests = [(i, i, self.BASE + 4 * i) for i in range(4)]
        granted = ic.arbitrate(requests)
        assert granted == {i: {self.BASE + 4 * i} for i in range(4)}
        assert ic.conflict_probability == 0.0

    def test_same_bank_conflict_grants_one(self):
        ic = self._interconnect()
        # Same bank: addresses 0 and 0 + 32 words.
        granted = ic.arbitrate([(0, 0, self.BASE), (1, 0, self.BASE + 4 * 32)])
        assert len(granted) == 1
        assert ic.conflicts == 1 and ic.conflict_cycles == 1

    def test_round_robin_rotates_winner(self):
        ic = self._interconnect()
        winners = []
        for _ in range(4):
            granted = ic.arbitrate([(0, 0, self.BASE), (1, 0, self.BASE)])
            (winner,) = granted
            winners.append(winner)
        assert set(winners) == {0, 1}

    def test_round_robin_starts_at_the_offset(self):
        ic = TcdmInterconnect(num_masters=4, rr_offset=1)
        assert list(ic.arbitrate([(0, 0, self.BASE), (1, 0, self.BASE)])) == [1]

    def test_granted_addresses_by_master(self):
        """A grant serves every port of its master presenting its address."""
        ic = self._interconnect()
        granted = ic.arbitrate([(2, 2, self.BASE + 8), (2, 2, self.BASE + 8)])
        assert granted == {2: {self.BASE + 8}}
        assert ic.conflicts == 1

    def test_stats_dictionary(self):
        ic = self._interconnect()
        ic.arbitrate([(0, 0, self.BASE)])
        stats = ic.stats
        assert stats["cycles"] == 1 and stats["requests"] == 1 and stats["grants"] == 1


class TestDma:
    def test_1d_copy(self, rng):
        dma = DmaEngine()
        src = Memory(256, name="src")
        dst = Memory(256, name="dst")
        data = rng.integers(0, 255, 64, dtype=np.uint8).tobytes()
        src.write_bytes(0, data)
        cycles = dma.execute(DmaTransfer(src=0, dst=16, row_bytes=64), src, dst)
        assert dst.read_bytes(16, 64) == data
        assert cycles > 0

    def test_2d_copy_with_pitches(self):
        dma = DmaEngine()
        src = Memory(4096)
        dst = Memory(4096)
        for row in range(4):
            src.write_bytes(row * 64, bytes([row + 1] * 16))
        transfer = DmaTransfer(
            src=0, dst=0, row_bytes=16, rows=4, src_pitch=64, dst_pitch=16
        )
        dma.execute(transfer, src, dst)
        assert dst.read_bytes(0, 64) == b"".join(bytes([r + 1] * 16) for r in range(4))

    def test_transfer_cycle_model_scales_with_size(self):
        dma = DmaEngine()
        small = dma.transfer_cycles(DmaTransfer(src=0, dst=0, row_bytes=64))
        large = dma.transfer_cycles(DmaTransfer(src=0, dst=0, row_bytes=4096))
        assert large > small
        # Payload cycles alone: 4096 B over an 8 B bus is 512 beats.
        assert large >= 512

    def test_bandwidth_approaches_bus_width_for_long_bursts(self):
        dma = DmaEngine(DmaConfig())
        transfer = DmaTransfer(src=0, dst=0, row_bytes=1 << 16)
        assert dma.bandwidth_bytes_per_cycle(transfer) > 5.0  # of 8 B/cycle peak

    def test_invalid_transfer(self):
        with pytest.raises(ValueError):
            DmaTransfer(src=0, dst=0, row_bytes=0)

    def test_stats_accumulate(self):
        dma = DmaEngine()
        src, dst = Memory(128), Memory(128)
        dma.execute(DmaTransfer(src=0, dst=0, row_bytes=32), src, dst)
        dma.execute(DmaTransfer(src=0, dst=0, row_bytes=32), src, dst)
        assert dma.stats.transfers == 2
        assert dma.stats.bytes_moved == 64


class TestICache:
    def test_first_access_misses_then_hits(self):
        icache = InstructionCache(ICacheConfig(prefetch=False))
        assert icache.access(0x100) == icache.config.miss_latency
        assert icache.access(0x104) == icache.config.hit_latency

    def test_linear_prefetch_hides_next_line(self):
        icache = InstructionCache(ICacheConfig(prefetch=True))
        icache.access(0x000)  # miss, prefetches line 1
        assert icache.access(0x020) == icache.config.hit_latency

    def test_loop_converges_to_high_hit_rate(self):
        icache = InstructionCache()
        for _ in range(10):
            for pc in range(0x0, 0x80, 4):
                icache.access(pc)
        assert icache.hit_rate > 0.95

    def test_capacity_conflict(self):
        config = ICacheConfig(size_bytes=64, line_bytes=32, prefetch=False)
        icache = InstructionCache(config)
        icache.access(0x00)
        icache.access(0x40)  # maps to the same line (2-line cache)
        assert icache.access(0x00) == config.miss_latency

    def test_invalidate(self):
        icache = InstructionCache(ICacheConfig(prefetch=False))
        icache.access(0x0)
        icache.invalidate()
        assert icache.access(0x0) == icache.config.miss_latency


class TestAxiAndHmc:
    def test_axi_peak_bandwidth_matches_paper(self):
        axi = AxiConfig()
        assert axi.peak_bandwidth_gbs == pytest.approx(5.0)
        assert AxiConfig(width_bits=128).peak_bandwidth_gbs == pytest.approx(10.0)
        assert AxiConfig(width_bits=256).peak_bandwidth_gbs == pytest.approx(20.0)

    def test_axi_transfer_cycles(self):
        port = AxiPort()
        assert port.transfer_cycles(64) == 8
        port.record(64, 8)
        assert port.achieved_bandwidth_bytes_per_s == pytest.approx(
            64 / (8 / 625e6)
        )

    def test_axi_invalid_width(self):
        with pytest.raises(ValueError):
            AxiConfig(width_bits=12)

    def test_hmc_vault_interleaving(self):
        hmc = Hmc()
        v0 = hmc.vault_of(hmc.base)
        v1 = hmc.vault_of(hmc.base + 256)
        assert v0.index == 0 and v1.index == 1
        assert hmc.vault_of(hmc.base + 256 * 32).index == 0

    def test_hmc_data_access_and_stats(self, rng):
        hmc = Hmc(HmcConfig(capacity_bytes=1 << 20))
        data = rng.standard_normal(32).astype(np.float32)
        hmc.store_array(hmc.base + 1024, data)
        np.testing.assert_array_equal(hmc.load_array(hmc.base + 1024, (32,)), data)
        assert hmc.stats["total_bytes"] > 0

    def test_hmc_aggregate_bandwidth(self):
        config = HmcConfig()
        assert config.aggregate_vault_bandwidth == pytest.approx(320e9)
        hmc = Hmc(config)
        assert hmc.supports_cluster_count(32, per_cluster_gbs=5.0)
        assert not hmc.supports_cluster_count(128, per_cluster_gbs=5.0)

    def test_vault_service_time(self):
        vault = Hmc().vaults[0]
        assert vault.service_time_s(256) > vault.latency_ns * 1e-9
