#!/usr/bin/env python3
"""Drive the NTX co-processors from a RISC-V control program.

This example exercises the full offload path the paper describes in §II-E:
a small RV32IM program (assembled by :mod:`repro.riscv.assembler`, executed
on the instruction-set simulator) programs the DMA to copy a vector from the
HMC into the TCDM, configures an NTX register file through memory-mapped
stores, kicks off a streaming command with a single store to the command
register and finally reads back a result.

Run with ``python examples/riscv_offload.py``.
"""

import numpy as np

from repro import Cluster
from repro.cluster.bus import DmaRegisterMap
from repro.core.commands import NtxOpcode
from repro.core.ntx import STAT_COLUMNS
from repro.core.registers import RegisterMap


def main() -> None:
    cluster = Cluster()
    amap = cluster.amap
    rng = np.random.default_rng(11)

    # Input data lives in the HMC, as in the paper's system: the cluster
    # pulls tiles in through its DMA engine.
    n = 64
    data = rng.standard_normal(n).astype(np.float32)
    cluster.stage_in(amap.hmc_base + 0x1_0000, data)

    tcdm_in = amap.tcdm_base
    tcdm_out = amap.tcdm_base + 0x400
    ntx0 = amap.ntx_window(0, cluster.config.num_ntx)
    relu_opcode = RegisterMap.opcode_to_value(NtxOpcode.RELU)

    source = f"""
        # ---- 1. DMA the input vector from the HMC into the TCDM ----------
        li   t0, {amap.dma_base}
        li   t1, {amap.hmc_base + 0x1_0000}
        sw   t1, {DmaRegisterMap.SRC}(t0)
        li   t1, {tcdm_in}
        sw   t1, {DmaRegisterMap.DST}(t0)
        li   t1, {n * 4}
        sw   t1, {DmaRegisterMap.ROW_BYTES}(t0)
        li   t1, 1
        sw   t1, {DmaRegisterMap.ROWS}(t0)
        sw   t1, {DmaRegisterMap.START}(t0)

        # ---- 2. Configure NTX 0 for a streaming ReLU over the vector ------
        li   t0, {ntx0}
        li   t1, {n}
        sw   t1, {RegisterMap.loop_count(0)}(t0)
        li   t1, {tcdm_in}
        sw   t1, {RegisterMap.agu_base(0)}(t0)
        li   t1, 4
        sw   t1, {RegisterMap.agu_stride(0, 0)}(t0)
        li   t1, {tcdm_out}
        sw   t1, {RegisterMap.agu_base(2)}(t0)
        li   t1, 4
        sw   t1, {RegisterMap.agu_stride(2, 0)}(t0)
        sw   x0, {RegisterMap.INIT_LEVEL}(t0)
        sw   x0, {RegisterMap.STORE_LEVEL}(t0)
        sw   x0, {RegisterMap.OUTER_LEVEL}(t0)

        # ---- 3. One store to the command register launches the command ----
        li   t1, {relu_opcode}
        sw   t1, {RegisterMap.CMD}(t0)

        # ---- 4. Poll the status register until the co-processor is idle ---
    wait:
        lw   t2, {RegisterMap.STATUS}(t0)
        bnez t2, wait

        # ---- 5. Return the number of elements processed in a0 -------------
        li   a0, {n}
        ecall
    """

    exit_code = cluster.run_program(source)
    result = cluster.stage_out(tcdm_out, (n,))
    expected = np.maximum(data, 0.0)

    print(f"control program retired {cluster.cpu.instructions_retired} instructions "
          f"({cluster.cpu.cycles} core cycles, "
          f"I-cache hit rate {cluster.cpu.icache.hit_rate:.1%})")
    print(f"exit code                : {exit_code}")
    # One row of counters per NTX; the columns are named in STAT_COLUMNS.
    ntx0 = dict(zip(STAT_COLUMNS, cluster.ntx_stats[0].tolist()))
    print(f"NTX 0 executed           : {ntx0['commands']} command, "
          f"{ntx0['iterations']} elements")
    print(f"ReLU result matches NumPy: {np.array_equal(result, expected)}")
    assert np.array_equal(result, expected)


if __name__ == "__main__":
    main()
