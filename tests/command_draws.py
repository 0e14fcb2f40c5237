"""Random machines and placed NTX command queues, drawn for the fuzzes.

Plain functions of a Hypothesis ``draw``, called from inside
``st.composite`` strategies: the compiled timing core's differential
fuzz (``tests/test_vecsim.py``) and the system walker's program fuzz
(``tests/test_batch_parity.py``) draw their machines and commands here.
"""

from dataclasses import replace

from hypothesis import strategies as st

from repro.cluster.cluster import ClusterConfig
from repro.core.commands import (
    NUM_LOOPS,
    AguConfig,
    InitSource,
    LoopConfig,
    NtxCommand,
    NtxOpcode,
)
from repro.core.ntx import NtxConfig
from repro.core.vecops import command_plan
from repro.mem.tcdm import TcdmConfig

#: A base far from both ends of the 32-bit space: an AGU's excursion
#: measured from it never wraps around.
_PROBE_BASE = 1 << 31


def draw_cluster_config(draw) -> ClusterConfig:
    """A cluster of 1-8 NTX on a TCDM of 4-32 banks (512 words each),
    with random setup/drain cycles and FIFO depths."""
    num_ntx = draw(st.integers(1, 8))
    num_banks = draw(st.integers(4, 32))
    return ClusterConfig(
        num_ntx=num_ntx,
        tcdm=TcdmConfig(size_bytes=num_banks * 4 * 512, num_banks=num_banks),
        ntx=NtxConfig(
            command_setup_cycles=draw(st.integers(0, 6)),
            writeback_drain_cycles=draw(st.integers(0, 6)),
            data_fifo_depth=draw(st.integers(1, 6)),
            writeback_fifo_depth=draw(st.integers(1, 4)),
        ),
    )


def draw_jobs(draw, config: ClusterConfig):
    """0-3 commands per NTX of ``config`` as ``(ntx_id, command)`` jobs:
    any opcode, loop nest, init/store level and source, and strides, each
    AGU placed so its whole address stream lies in the TCDM.  Nothing is
    carved out: read-after-write hazards and shared reads come up."""
    tcdm_base, tcdm_words = config.tcdm.base_address, config.tcdm.total_words
    jobs = []
    for ntx_id in range(config.num_ntx):
        for _ in range(draw(st.integers(0, 3))):
            counts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
            levels = len(counts)
            init_level = draw(st.integers(0, levels))

            def strides():
                words = draw(st.lists(
                    st.integers(-8, 8), min_size=levels, max_size=levels
                ))
                return tuple(4 * w for w in words) + (0,) * (NUM_LOOPS - levels)

            agus = [AguConfig(_PROBE_BASE, strides()) for _ in range(3)]
            command = NtxCommand(
                opcode=draw(st.sampled_from(list(NtxOpcode))),
                loops=LoopConfig.nest(*counts),
                agu0=agus[0], agu1=agus[1], agu2=agus[2],
                init_level=init_level,
                store_level=draw(st.integers(0, init_level)),
                init_source=draw(st.sampled_from(list(InitSource))),
                writeback=draw(st.booleans()),
                scalar=0.5,
            )
            # Place every AGU so its whole address stream lies in the TCDM.
            probe = command_plan(replace(command, opcode=NtxOpcode.MAC))
            placed = {}
            for name, addresses in (
                ("agu0", probe.read0), ("agu1", probe.read1), ("agu2", probe.agu2)
            ):
                words = (addresses - _PROBE_BASE) // 4
                low, high = -int(words.min()), tcdm_words - 1 - int(words.max())
                start = draw(st.integers(low, high))
                placed[name] = AguConfig(
                    tcdm_base + 4 * start, getattr(command, name).strides
                )
            jobs.append((ntx_id, replace(command, **placed)))
    return jobs
