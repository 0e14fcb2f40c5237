"""Simple streaming reductions and element-wise operations.

These builders cover the rest of the command set of Figure 3(b): sums,
minima/maxima and their argument indices, ReLU, thresholding, masking, and
memcpy/memset-style data movement.  They appear in DNN training (ReLU and
its backward mask, max-pooling, softmax argmax) and in general data
analytics on edge devices, the low-power deployment scenario the paper
mentions in its conclusion.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.commands import (
    AguConfig,
    LoopConfig,
    NtxCommand,
    NtxOpcode,
)

__all__ = [
    "reduce_sum_command",
    "reduce_max_command",
    "reduce_min_command",
    "argmax_command",
    "argmin_command",
    "relu_commands",
    "threshold_commands",
    "mask_commands",
    "copy_command",
    "fill_command",
    "elementwise_commands",
    "run_reduction",
]

_WORD = 4


def _linear(base: int) -> AguConfig:
    return AguConfig(base=base, strides=(_WORD, 0, 0, 0, 0))


def reduce_sum_command(n: int, src_addr: int, ones_addr: int, dst_addr: int) -> NtxCommand:
    """``dst[0] = sum(src)`` via MAC against a stationary 1.0 operand."""
    return NtxCommand(
        opcode=NtxOpcode.MAC,
        loops=LoopConfig.nest(n),
        agu0=_linear(src_addr),
        agu1=AguConfig.stationary(ones_addr),
        agu2=AguConfig.stationary(dst_addr),
        init_level=1,
        store_level=1,
    )


def reduce_max_command(n: int, src_addr: int, dst_addr: int) -> NtxCommand:
    """``dst[0] = max(src)`` using the comparator."""
    return NtxCommand(
        opcode=NtxOpcode.MAX,
        loops=LoopConfig.nest(n),
        agu0=_linear(src_addr),
        agu2=AguConfig.stationary(dst_addr),
        init_level=1,
        store_level=1,
    )


def reduce_min_command(n: int, src_addr: int, dst_addr: int) -> NtxCommand:
    """``dst[0] = min(src)`` using the comparator."""
    return NtxCommand(
        opcode=NtxOpcode.MIN,
        loops=LoopConfig.nest(n),
        agu0=_linear(src_addr),
        agu2=AguConfig.stationary(dst_addr),
        init_level=1,
        store_level=1,
    )


def argmax_command(n: int, src_addr: int, dst_addr: int) -> NtxCommand:
    """``dst[0] = float(argmax(src))`` using the comparator and index counter."""
    return NtxCommand(
        opcode=NtxOpcode.ARGMAX,
        loops=LoopConfig.nest(n),
        agu0=_linear(src_addr),
        agu2=AguConfig.stationary(dst_addr),
        init_level=1,
        store_level=1,
    )


def argmin_command(n: int, src_addr: int, dst_addr: int) -> NtxCommand:
    """``dst[0] = float(argmin(src))``."""
    return NtxCommand(
        opcode=NtxOpcode.ARGMIN,
        loops=LoopConfig.nest(n),
        agu0=_linear(src_addr),
        agu2=AguConfig.stationary(dst_addr),
        init_level=1,
        store_level=1,
    )


def relu_commands(n: int, src_addr: int, dst_addr: int) -> List[NtxCommand]:
    """Element-wise ``dst[i] = max(src[i], 0)``."""
    return [
        NtxCommand(
            opcode=NtxOpcode.RELU,
            loops=LoopConfig.nest(n),
            agu0=_linear(src_addr),
            agu2=_linear(dst_addr),
            init_level=0,
            store_level=0,
        )
    ]


def threshold_commands(
    n: int, src_addr: int, dst_addr: int, threshold: float
) -> List[NtxCommand]:
    """Element-wise ``dst[i] = 1.0 if src[i] > threshold else 0.0``."""
    return [
        NtxCommand(
            opcode=NtxOpcode.THRESHOLD,
            loops=LoopConfig.nest(n),
            agu0=_linear(src_addr),
            agu2=_linear(dst_addr),
            init_level=0,
            store_level=0,
            scalar=threshold,
        )
    ]


def mask_commands(
    n: int, src_addr: int, mask_addr: int, dst_addr: int
) -> List[NtxCommand]:
    """Element-wise ``dst[i] = src[i] if mask[i] != 0 else 0`` (ReLU backward)."""
    return [
        NtxCommand(
            opcode=NtxOpcode.MASK,
            loops=LoopConfig.nest(n),
            agu0=_linear(src_addr),
            agu1=_linear(mask_addr),
            agu2=_linear(dst_addr),
            init_level=0,
            store_level=0,
        )
    ]


def copy_command(n: int, src_addr: int, dst_addr: int) -> NtxCommand:
    """Streaming memcpy of ``n`` words."""
    return NtxCommand(
        opcode=NtxOpcode.COPY,
        loops=LoopConfig.nest(n),
        agu0=_linear(src_addr),
        agu2=_linear(dst_addr),
        init_level=0,
        store_level=0,
    )


def fill_command(n: int, dst_addr: int, value: float) -> NtxCommand:
    """Streaming memset of ``n`` words to ``value``."""
    return NtxCommand(
        opcode=NtxOpcode.FILL,
        loops=LoopConfig.nest(n),
        agu2=_linear(dst_addr),
        init_level=0,
        store_level=0,
        scalar=value,
    )


def elementwise_commands(
    opcode: NtxOpcode, n: int, a_addr: int, b_addr: int, dst_addr: int
) -> List[NtxCommand]:
    """Element-wise binary operation (ADD, SUB, MUL) over two vectors."""
    if opcode not in (NtxOpcode.ADD, NtxOpcode.SUB, NtxOpcode.MUL):
        raise ValueError(f"{opcode} is not an element-wise binary opcode")
    return [
        NtxCommand(
            opcode=opcode,
            loops=LoopConfig.nest(n),
            agu0=_linear(a_addr),
            agu1=_linear(b_addr),
            agu2=_linear(dst_addr),
            init_level=0,
            store_level=0,
        )
    ]


def run_reduction(
    cluster: Cluster, operation: str, data: np.ndarray, ntx_id: int = 0
) -> float:
    """Run a named scalar reduction ("sum", "max", "min", "argmax", "argmin")."""
    data = np.asarray(data, dtype=np.float32).ravel()
    n = data.size
    src_addr, aux_addr, dst_addr = cluster.tcdm.alloc_layout(
        [data.nbytes, _WORD, _WORD]
    )
    cluster.stage_in(src_addr, data)
    cluster.stage_in(aux_addr, np.array([1.0], dtype=np.float32))
    builders = {
        "sum": lambda: reduce_sum_command(n, src_addr, aux_addr, dst_addr),
        "max": lambda: reduce_max_command(n, src_addr, dst_addr),
        "min": lambda: reduce_min_command(n, src_addr, dst_addr),
        "argmax": lambda: argmax_command(n, src_addr, dst_addr),
        "argmin": lambda: argmin_command(n, src_addr, dst_addr),
    }
    if operation not in builders:
        raise ValueError(f"unknown reduction {operation!r}")
    cluster.offload(builders[operation](), ntx_id)
    return float(cluster.stage_out(dst_addr, (1,))[0])
