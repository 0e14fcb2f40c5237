"""`Cluster.offload` runs on the cycle engines' shared data plane.

Every ``run_*`` helper of the kernel library is checked against the same
commands walked per op (:func:`repro.core.vecops.execute_functional`) on a
twin cluster whose ``drain_ntx`` credits each command the way the per-op
offload path did: outputs, TCDM bytes, every per-NTX counter (the
``NtxStats`` and ``FpuStats`` columns of ``Cluster.ntx_stats``), bank
accesses and memory counters must be equal.  The examples'
CI runner (``scripts/run_example.py``) fails on any fallback the data
plane or the timing core counts.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.commands import AguConfig, LoopConfig, NtxCommand, NtxOpcode
from repro.core.fpu import FpuStats
from repro.core.ntx import STAT_COLUMNS, NtxStats
from repro.core.registers import RegisterMap
from repro.core.vecops import execute_functional
from repro.kernels.blas import run_axpy, run_gemm, run_gemv
from repro.kernels.conv import run_conv2d, run_conv2d_multichannel
from repro.kernels.reductions import run_reduction
from repro.kernels.stencil import run_diffusion, run_laplace

REPO = Path(__file__).resolve().parent.parent

_SPECIALS = np.array(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-40, -3e-39], dtype=np.float32
)


def _walk_drain(cluster, ntx_id):
    """The per-op reference of ``Cluster.drain_ntx``: walk every queued
    command on the cluster's FPU and credit its statistics at ideal
    timing, the FPU counters as the FPU counted them."""
    regs = cluster.ntx_regs[ntx_id]
    fpu = cluster.fpu
    while (command := regs.next_command()) is not None:
        before = dataclasses.astuple(fpu.stats)
        execute_functional(fpu, command, cluster.tcdm)
        ideal = cluster.config.ntx.ideal_cycles(command)
        stats = NtxStats(
            commands=1, iterations=command.total_iterations, flops=command.flops,
            tcdm_reads=command.tcdm_reads, tcdm_writes=command.tcdm_writes,
            ideal_cycles=ideal, active_cycles=ideal,
        )
        fpu_counts = np.subtract(dataclasses.astuple(fpu.stats), before)
        cluster.ntx_stats[ntx_id] += (*dataclasses.astuple(stats), *fpu_counts)


def _data(rng, kind, *shape):
    if kind == "lattice":
        return (rng.integers(-16, 17, size=shape) / 8).astype(np.float32)
    values = rng.standard_normal(shape).astype(np.float32)
    if kind == "special":
        flat = values.reshape(-1)
        picks = rng.choice(flat.size, size=max(1, flat.size // 5), replace=False)
        flat[picks] = rng.choice(_SPECIALS, size=picks.size)
    return values


#: name -> run(cluster, draw) with draw(*shape) giving one operand.
_KERNELS = {
    "axpy": lambda c, d: run_axpy(c, 1.5, d(40), d(40), ntx_id=3),
    "gemv": lambda c, d: run_gemv(c, d(6, 9), d(9)),
    "gemv-accumulate": lambda c, d: run_gemv(c, d(6, 9), d(9), d(6)),
    "gemm": lambda c, d: run_gemm(c, d(8, 5), d(5, 7), d(8, 7)),
    "conv2d": lambda c, d: run_conv2d(c, d(10, 11), d(3, 3)),
    "conv2d-multichannel": lambda c, d: run_conv2d_multichannel(
        c, d(3, 8, 9), d(3, 3, 3)
    ),
    **{
        operation: lambda c, d, op=operation: run_reduction(c, op, d(50))
        for operation in ("sum", "max", "min", "argmax", "argmin")
    },
    "laplace-1d": lambda c, d: run_laplace(c, d(30)),
    "laplace-2d": lambda c, d: run_laplace(c, d(9, 10)),
    "laplace-3d": lambda c, d: run_laplace(c, d(5, 6, 5)),
    "diffusion-3d": lambda c, d: run_diffusion(c, d(7, 6, 6)),
}


def _observed(cluster, result):
    tcdm = cluster.tcdm
    return {
        "output": np.asarray(result, dtype=np.float32).tobytes(),
        "tcdm": bytes(tcdm.memory.data),
        "stats": cluster.ntx_stats.tolist(),
        "bank_accesses": tcdm.bank_accesses.tolist(),
        "memory": (tcdm.memory.reads, tcdm.memory.writes),
    }


@pytest.mark.parametrize("kind", ["lattice", "normal", "special"])
@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_kernel_library_matches_the_per_op_walk(kernel, kind):
    observed = []
    for walk in (False, True):
        rng = np.random.default_rng(7)
        cluster = Cluster()
        if walk:
            cluster.drain_ntx = lambda ntx_id, c=cluster: _walk_drain(c, ntx_id)
        result = _KERNELS[kernel](cluster, lambda *shape: _data(rng, kind, *shape))
        observed.append(_observed(cluster, result))
    on_data_plane, walked = observed
    assert any(row[0] for row in on_data_plane["stats"])  # commands
    for field in walked:
        assert on_data_plane[field] == walked[field], field


def test_stats_credit_every_field_at_ideal_timing():
    cluster = Cluster()
    run_axpy(cluster, 2.0, np.ones(16, np.float32), np.ones(16, np.float32), ntx_id=2)
    config = cluster.config.ntx
    ideal = config.command_setup_cycles + 16 + config.writeback_drain_cycles
    assert NtxStats(*cluster.ntx_stats[2, :8].tolist()) == NtxStats(
        commands=1, iterations=16, flops=32, tcdm_reads=48, tcdm_writes=16,
        ideal_cycles=ideal, active_cycles=ideal, stall_cycles=0,
    )
    assert FpuStats(*cluster.ntx_stats[2, 8:].tolist()) == FpuStats(
        issues=16, macs=16, writebacks=16
    )
    assert not cluster.ntx_stats[[0, 1, 3, 4, 5, 6, 7]].any()


def test_dependent_commands_queued_through_the_bus_run_in_order(cluster):
    """A COPY and an ADD that reads its output, queued together on NTX 0:
    the ADD must see the copied words."""
    n = 16
    src, copy, other, dst = cluster.tcdm.alloc_layout([n * 4] * 4)
    x = np.arange(1, n + 1, dtype=np.float32)
    y = np.full(n, 0.5, dtype=np.float32)
    cluster.stage_in(src, x)
    cluster.stage_in(copy, np.full(n, -100.0, dtype=np.float32))
    cluster.stage_in(other, y)
    linear = (4, 0, 0, 0, 0)
    copy_command = NtxCommand(
        opcode=NtxOpcode.COPY,
        loops=LoopConfig.nest(n),
        agu0=AguConfig(base=src, strides=linear),
        agu2=AguConfig(base=copy, strides=linear),
    )
    add_command = NtxCommand(
        opcode=NtxOpcode.ADD,
        loops=LoopConfig.nest(n),
        agu0=AguConfig(base=copy, strides=linear),
        agu1=AguConfig(base=other, strides=linear),
        agu2=AguConfig(base=dst, strides=linear),
    )
    regs = cluster.ntx_regs[0]
    assert regs.issue(copy_command)
    regs.stage_command(add_command)
    assert regs.command_queue.occupancy == 1
    # The control core's store to CMD queues the ADD behind the COPY and
    # the cluster drains both.
    window = cluster.amap.ntx_window(0, cluster.config.num_ntx)
    cluster.bus.write_u32(
        window + RegisterMap.CMD, RegisterMap.opcode_to_value(NtxOpcode.ADD)
    )
    assert regs.command_queue.is_empty and not regs.busy
    np.testing.assert_array_equal(cluster.stage_out(copy, (n,)), x)
    np.testing.assert_array_equal(cluster.stage_out(dst, (n,)), x + y)
    assert cluster.ntx_stats[0, STAT_COLUMNS.index("commands")] == 2


def _refused_from_the_bus(cluster, command, message):
    """The control core's store to CMD starts ``command`` on NTX 0: the
    store raises ``message`` before the command writes anything, and the
    NTX is left idle."""
    tcdm = cluster.tcdm
    before = (
        bytes(tcdm.memory.data), cluster.ntx_stats.tolist(),
        tcdm.bank_accesses.tolist(), (tcdm.memory.reads, tcdm.memory.writes),
    )
    regs = cluster.ntx_regs[0]
    regs.stage_command(command)
    window = cluster.amap.ntx_window(0, cluster.config.num_ntx)
    with pytest.raises(ValueError, match=f"NTX 0: .*{message}"):
        cluster.bus.write_u32(
            window + RegisterMap.CMD, RegisterMap.opcode_to_value(command.opcode)
        )
    assert (
        bytes(tcdm.memory.data), cluster.ntx_stats.tolist(),
        tcdm.bank_accesses.tolist(), (tcdm.memory.reads, tcdm.memory.writes),
    ) == before
    assert not regs.busy


def test_a_read_after_write_command_from_the_bus_is_refused(cluster):
    """A COPY that reads the word its previous iteration stored."""
    buf = cluster.tcdm.alloc_layout([9 * 4])[0]
    cluster.stage_in(buf, np.arange(1, 10, dtype=np.float32))
    _refused_from_the_bus(cluster, NtxCommand(
        opcode=NtxOpcode.COPY,
        loops=LoopConfig.nest(8),
        agu0=AguConfig(base=buf, strides=(4, 0, 0, 0, 0)),
        agu2=AguConfig(base=buf + 4, strides=(4, 0, 0, 0, 0)),
    ), "read-after-write hazard")


def test_an_off_tcdm_command_from_the_bus_is_refused(cluster):
    """A COPY whose last four stores pass the end of the TCDM."""
    src = cluster.tcdm.alloc_layout([8 * 4])[0]
    cluster.stage_in(src, np.arange(1, 9, dtype=np.float32))
    end = cluster.tcdm.base + cluster.tcdm.size
    _refused_from_the_bus(cluster, NtxCommand(
        opcode=NtxOpcode.COPY,
        loops=LoopConfig.nest(8),
        agu0=AguConfig(base=src, strides=(4, 0, 0, 0, 0)),
        agu2=AguConfig(base=end - 16, strides=(4, 0, 0, 0, 0)),
    ), "off the TCDM")


#: An example that offloads one MAC with the compiled library made
#: unavailable, so the data plane walks it per op.
_WALKING_EXAMPLE = """
import numpy as np
from repro import Cluster
from repro.cluster import timing_core
from repro.core.commands import AguConfig, LoopConfig, NtxCommand, NtxOpcode

timing_core._find_compiler = lambda: None
cluster = Cluster()
x, y, out = cluster.tcdm.alloc_layout([8 * 4, 8 * 4, 4])
cluster.stage_in(x, np.arange(1, 9, dtype=np.float32))
cluster.stage_in(y, np.full(8, 0.5, dtype=np.float32))
cluster.offload(NtxCommand(
    opcode=NtxOpcode.MAC,
    loops=LoopConfig.nest(8),
    agu0=AguConfig(base=x, strides=(4, 0, 0, 0, 0)),
    agu1=AguConfig(base=y, strides=(4, 0, 0, 0, 0)),
    agu2=AguConfig(base=out, strides=(0, 0, 0, 0, 0)),
    init_level=1,
    store_level=1,
))
assert cluster.stage_out(out, (1,))[0] == 18.0
"""


def _run_example(path):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    command = [
        sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
        str(REPO / "scripts" / "run_example.py"), str(path),
    ]
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)


def test_example_runner_passes_an_example_without_fallbacks():
    done = _run_example(REPO / "examples" / "riscv_offload.py")
    assert done.returncode == 0, done.stderr


def test_example_runner_fails_on_a_silent_fallback(tmp_path):
    example = tmp_path / "walking.py"
    example.write_text(_WALKING_EXAMPLE, encoding="utf-8")
    done = _run_example(example)
    assert done.returncode == 1, done.stderr
    assert "repro_dataplane_fallbacks_total{'reason': 'no_compiler'} = 1" in done.stderr
