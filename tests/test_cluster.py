"""Cluster-level tests: address map, bus routing, offload, DMA, tiling."""

import numpy as np
import pytest

from repro.cluster.addressmap import AddressMap
from repro.cluster.bus import DmaRegisterMap
from repro.cluster.cluster import ClusterConfig
from repro.cluster.tiling import overlap_cycles
from repro.core.commands import NtxOpcode
from repro.core.registers import RegisterMap
from repro.kernels.blas import axpy_commands, axpy_reference
from repro.mem.dma import DmaTransfer


class TestClusterConfig:
    def test_peak_figures_match_table1(self):
        config = ClusterConfig()
        assert config.peak_flops == pytest.approx(20e9)
        assert config.peak_bandwidth_bytes_per_s == pytest.approx(5e9)
        assert config.machine_balance_flop_per_byte == pytest.approx(4.0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_ntx=0)


class TestAddressMap:
    def test_regions_are_disjoint(self):
        amap = AddressMap()
        tcdm = amap.tcdm_base
        assert amap.is_tcdm(tcdm) and not amap.is_l2(tcdm) and not amap.is_ntx(tcdm)
        ntx0 = amap.ntx_window(0, 8)
        assert amap.is_ntx(ntx0) and not amap.is_tcdm(ntx0)
        assert amap.is_dma(amap.dma_base)
        assert amap.is_hmc(amap.hmc_base)
        assert amap.is_ntx_broadcast(amap.ntx_broadcast)

    def test_ntx_window_bounds(self):
        amap = AddressMap()
        with pytest.raises(ValueError):
            amap.ntx_window(8, 8)


class TestBusRouting:
    def test_tcdm_and_l2_access(self, cluster):
        cluster.bus.write_u32(cluster.amap.tcdm_base + 8, 0xABCD)
        assert cluster.bus.read_u32(cluster.amap.tcdm_base + 8) == 0xABCD
        cluster.bus.write_u32(cluster.amap.l2_base + 0x100, 42)
        assert cluster.bus.read_u32(cluster.amap.l2_base + 0x100) == 42

    def test_hmc_window(self, cluster):
        cluster.bus.write_u32(cluster.amap.hmc_base + 4, 99)
        assert cluster.bus.read_u32(cluster.amap.hmc_base + 4) == 99

    def test_byte_and_halfword_access(self, cluster):
        base = cluster.amap.tcdm_base
        cluster.bus.write_u32(base, 0x11223344)
        cluster.bus.write_u8(base + 1, 0xEE)
        assert cluster.bus.read_u32(base) == 0x1122EE44
        cluster.bus.write_u16(base + 2, 0xBEEF)
        assert cluster.bus.read_u16(base + 2) == 0xBEEF

    def test_unmapped_access_raises(self, cluster):
        with pytest.raises(IndexError):
            cluster.bus.read_u32(0x7000_0000)

    def test_ntx_register_access_via_bus(self, cluster):
        window = cluster.amap.ntx_window(3, cluster.config.num_ntx)
        cluster.bus.write_u32(window + RegisterMap.loop_count(0), 33)
        assert cluster.bus.read_u32(window + RegisterMap.loop_count(0)) == 33
        # Other co-processors are unaffected.
        other = cluster.amap.ntx_window(0, cluster.config.num_ntx)
        assert cluster.bus.read_u32(other + RegisterMap.loop_count(0)) == 1

    def test_broadcast_write_reaches_every_ntx(self, cluster):
        cluster.bus.write_u32(
            cluster.amap.ntx_broadcast + RegisterMap.loop_count(1), 17
        )
        for regs in cluster.ntx_regs:
            assert regs.read(RegisterMap.loop_count(1)) == 17

    def test_dma_registers_trigger_transfer(self, cluster, rng):
        data = rng.standard_normal(32).astype(np.float32)
        cluster.stage_in(cluster.amap.hmc_base, data)
        dma = cluster.amap.dma_base
        cluster.bus.write_u32(dma + DmaRegisterMap.SRC, cluster.amap.hmc_base)
        cluster.bus.write_u32(dma + DmaRegisterMap.DST, cluster.amap.tcdm_base)
        cluster.bus.write_u32(dma + DmaRegisterMap.ROW_BYTES, data.nbytes)
        cluster.bus.write_u32(dma + DmaRegisterMap.ROWS, 1)
        cluster.bus.write_u32(dma + DmaRegisterMap.START, 1)
        np.testing.assert_array_equal(
            cluster.stage_out(cluster.amap.tcdm_base, (32,)), data
        )
        assert cluster.bus.read_u32(dma + DmaRegisterMap.STATUS) == 0


class TestOffload:
    def test_offload_executes_on_selected_ntx(self, cluster, rng):
        x = rng.standard_normal(32).astype(np.float32)
        y = rng.standard_normal(32).astype(np.float32)
        a_addr, x_addr, y_addr = cluster.tcdm.alloc_layout([4, x.nbytes, y.nbytes])
        cluster.stage_in(a_addr, np.array([2.0], np.float32))
        cluster.stage_in(x_addr, x)
        cluster.stage_in(y_addr, y)
        command = axpy_commands(32, a_addr, x_addr, y_addr)[0]
        cluster.offload(command, ntx_id=5)
        np.testing.assert_allclose(
            cluster.stage_out(y_addr, (32,)), axpy_reference(2.0, x, y), rtol=1e-6
        )
        assert cluster.ntx[5].stats.commands == 1
        assert cluster.ntx[0].stats.commands == 0

    def test_offload_invalid_ntx(self, cluster):
        command = axpy_commands(4, cluster.tcdm.base, cluster.tcdm.base, cluster.tcdm.base)[0]
        with pytest.raises(ValueError):
            cluster.offload(command, ntx_id=99)

    def test_round_robin_distribution(self, cluster, rng):
        commands = []
        for i in range(cluster.config.num_ntx):
            base = cluster.tcdm.base + i * 256
            commands.append(axpy_commands(8, base, base + 4, base + 64)[0])
        cluster.offload_round_robin(commands)
        assert all(ntx.stats.commands == 1 for ntx in cluster.ntx)

    def test_dma_and_stats(self, cluster, rng):
        data = rng.standard_normal(64).astype(np.float32)
        cluster.stage_in(cluster.amap.hmc_base + 0x1000, data)
        cycles = cluster.run_dma(
            DmaTransfer(
                src=cluster.amap.hmc_base + 0x1000,
                dst=cluster.tcdm.base,
                row_bytes=data.nbytes,
            )
        )
        np.testing.assert_array_equal(cluster.stage_out(cluster.tcdm.base, (64,)), data)
        assert cluster.dma.stats.transfers == 1
        assert cluster.dma.stats.bytes_moved == data.nbytes
        assert cluster.dma.stats.busy_cycles == cycles
        assert cluster.axi.bytes_transferred == data.nbytes


class TestTiling:
    def test_overlap_cycles_hides_shorter_phase(self):
        compute = [100.0] * 4
        dma = [60.0] * 4
        total = overlap_cycles(compute, dma)
        assert total == pytest.approx(sum(compute) + 60.0)

    def test_overlap_cycles_memory_bound(self):
        compute = [10.0] * 3
        dma = [50.0] * 3
        assert overlap_cycles(compute, dma) == pytest.approx(150.0 + 50.0)


class TestRiscvIntegration:
    def test_control_program_drives_dma_and_reads_tcdm(self, cluster):
        """A RISC-V program programs the DMA to copy HMC data into the TCDM."""
        hmc = cluster.amap.hmc_base
        cluster.hmc.memory.write_u32(hmc + 0x40, 1234)
        source = f"""
            li t0, {cluster.amap.dma_base}
            li t1, {hmc + 0x40}
            sw t1, {DmaRegisterMap.SRC}(t0)
            li t1, {cluster.amap.tcdm_base}
            sw t1, {DmaRegisterMap.DST}(t0)
            li t1, 4
            sw t1, {DmaRegisterMap.ROW_BYTES}(t0)
            li t1, 1
            sw t1, {DmaRegisterMap.ROWS}(t0)
            sw t1, {DmaRegisterMap.START}(t0)
            li t2, {cluster.amap.tcdm_base}
            lw a0, 0(t2)
            ecall
        """
        exit_code = cluster.run_program(source)
        assert exit_code == 1234

    def test_control_program_offloads_ntx_command(self, cluster):
        """A RISC-V program fills a TCDM buffer through NTX's FILL command."""
        tcdm = cluster.amap.tcdm_base
        ntx0 = cluster.amap.ntx_window(0, cluster.config.num_ntx)
        fill_opcode = RegisterMap.opcode_to_value(NtxOpcode.FILL)
        source = f"""
            li t0, {ntx0}
            # loop 0 runs 8 times, writing the scalar to consecutive words
            li t1, 8
            sw t1, {RegisterMap.loop_count(0)}(t0)
            li t1, 0x40A00000        # 5.0f
            sw t1, {RegisterMap.SCALAR}(t0)
            li t1, {tcdm + 0x200}
            sw t1, {RegisterMap.agu_base(2)}(t0)
            li t1, 4
            sw t1, {RegisterMap.agu_stride(2, 0)}(t0)
            li t1, {fill_opcode}
            sw t1, {RegisterMap.CMD}(t0)
            # read back the last element the co-processor wrote
            li t2, {tcdm + 0x200 + 7 * 4}
            lw a0, 0(t2)
            ecall
        """
        exit_code = cluster.run_program(source)
        assert exit_code == 0x40A00000
        np.testing.assert_array_equal(
            cluster.stage_out(tcdm + 0x200, (8,)),
            np.full(8, 5.0, dtype=np.float32),
        )
