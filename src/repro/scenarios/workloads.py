"""Workload families of the scenario subsystem.

Every family turns a :class:`~repro.scenarios.spec.ScenarioSpec` into a
list of :class:`~repro.cluster.tiling.TileSchedule` objects staged in the
shared HMC — the same schedule format the system simulator executes — plus
the NumPy golden reference of every output region, so a run can always be
verified end to end (:meth:`ScenarioWorkload.verify`).

Four families ship, all built on the existing kernel library:

* ``conv`` — independent 2D-convolution tiles, output rows banded across
  the co-processors (the port of
  :func:`repro.system.workloads.conv_tiled_workload`).
* ``matmul`` — tiled GEMM (:mod:`repro.kernels.blas`), output rows split
  across the co-processors.
* ``stencil`` — the 2D discrete Laplace operator
  (:mod:`repro.kernels.stencil`): a horizontal init pass and a vertical
  accumulate pass, pinned to one NTX per tile because the passes are
  dependent.
* ``dnn`` — one training micro-step of a small convolution layer
  (forward, loss gradient, weight gradient, SGD update), one dependent
  command chain per output channel, chains spread across the
  co-processors.
* ``opstream`` — one streaming command of a single NTX opcode on one
  co-processor (no bank conflicts possible), the campaign-stack port of
  the Figure 3(b) throughput harness: every opcode's cycles/element is
  measured from a golden-verified scenario run instead of a bespoke
  simulator loop.

Two further families are *compiled* rather than hand-written — their
``params`` are declarative specs that :mod:`repro.scenarios.compiler`
turns into command streams plus auto-derived goldens:

* ``cstencil`` — one :class:`~repro.scenarios.compiler.StencilSpec`
  (neighborhood/radius/per-distance coefficients/2D-3D grid/boundary)
  per scenario; 2D tiles compile to a single convolution command, 3D
  tiles to per-plane accumulate chains spread across the co-processors.
* ``pipeline`` — a :class:`~repro.scenarios.compiler.PipelineSpec` stage
  chain (stencils, optionally ending in a streaming reduction) whose
  intermediate buffers stay resident in the TCDM; the whole chain is one
  dependent command stream pinned to one NTX per tile.

**Data discipline.**  All generators draw operands from a power-of-two
lattice (multiples of 1/16 in [-2, 2)).  Every intermediate of every
family then stays exactly representable in float64, so the scalar
engine's partial-carry-save accumulator, the vectorized engine's float64
data plane and the NumPy golden model all round the *same exact value* to
binary32 — making scalar-vs-vectorized HMC contents bit-identical, not
merely close (``tests/test_system.py`` asserts this per family).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import ClusterConfig
from repro.cluster.tiling import TileSchedule
from repro.core.commands import (
    AguConfig,
    InitSource,
    LoopConfig,
    NtxCommand,
    NtxOpcode,
)
from repro.kernels.blas import axpy_commands, gemm_commands
from repro.kernels.conv import (
    conv2d_commands,
    conv2d_f64,
    conv2d_multichannel_commands,
    conv2d_reference,
)
from repro.kernels.stencil import LAPLACE_TAPS, laplace_2d_reference, laplace_commands
from repro.scenarios.compiler import PipelineSpec, StencilSpec
from repro.scenarios.families import FAMILIES, WorkloadFamily
from repro.mem.dma import DmaTransfer
from repro.mem.hmc import Hmc
from repro.mem.tcdm import TcdmConfig
from repro.scenarios.spec import ScenarioSpec
from repro.system.workloads import conv_tiled_workload, verify_references

__all__ = [
    "FAMILIES",
    "ScenarioWorkload",
    "WorkloadFamily",
    "build_workload",
    "compiled_stencil_workload",
    "conv_workload",
    "dnn_step_workload",
    "matmul_workload",
    "opstream_workload",
    "pipeline_workload",
    "stencil_workload",
]

_WORD = 4


@dataclass
class ScenarioWorkload:
    """Tiles plus everything needed to verify the run end to end."""

    family: str
    tiles: List[TileSchedule]
    #: ``(hmc_addr, expected float32 array)`` per verified output region.
    references: List[Tuple[int, np.ndarray]] = field(default_factory=list)

    def verify(self, hmc: Hmc, rtol: float = 1e-6, atol: float = 1e-7) -> None:
        """Assert every output region in the HMC matches its golden model."""
        verify_references(hmc, self.references, rtol, atol)

    @property
    def total_flops(self) -> int:
        return sum(tile.flops for tile in self.tiles)


# --------------------------------------------------------------------------- #
# Shared plumbing                                                              #
# --------------------------------------------------------------------------- #


def _lattice(rng: np.random.Generator, shape) -> np.ndarray:
    """Float32 operands on the 1/16 lattice in [-2, 2).

    Products and partial sums of lattice values stay exact in float64 (and
    in the PCS accumulator), which is what pins the two cycle engines and
    the golden model to identical binary32 results.  The bounded int32
    draw takes the same values from the same stream as an int64 one, and
    scaling in float32 is exact, so the bytes equal
    ``(rng.integers(-32, 32, size=shape) / 16.0).astype(np.float32)``.
    """
    values = rng.integers(-32, 32, shape, dtype=np.int32).astype(np.float32)
    values *= np.float32(0.0625)
    return values


class _Cursor:
    """Bump allocator over a fixed address window (TCDM or HMC)."""

    def __init__(self, base: int, size: int, what: str) -> None:
        self.base = base
        self.limit = base + size
        self.position = base
        self.what = what

    def alloc(self, nbytes: int) -> int:
        address = self.position
        self.position += nbytes
        if self.position > self.limit:
            raise MemoryError(
                f"workload exceeds the {self.what} "
                f"({self.position - self.base} > {self.limit - self.base} bytes)"
            )
        return address


def _stage(hmc: Hmc, cursor: _Cursor, array: np.ndarray) -> int:
    """Allocate HMC space for ``array``, store it, return the address."""
    address = cursor.alloc(array.nbytes)
    hmc.memory.store_array(address, array)
    return address


def _transfer(src: int, dst: int, nbytes: int) -> DmaTransfer:
    return DmaTransfer(src=src, dst=dst, row_bytes=nbytes)


# --------------------------------------------------------------------------- #
# conv — independent banded convolution tiles                                  #
# --------------------------------------------------------------------------- #


def conv_workload(
    spec: ScenarioSpec, hmc: Hmc, cluster: ClusterConfig
) -> ScenarioWorkload:
    """Independent 2D convolutions, one tile each, output rows banded.

    The port of :func:`repro.system.workloads.conv_tiled_workload` — the
    banding/staging logic is shared with it; only the data generator
    differs (lattice values for cross-engine bit-identity).
    """
    params = spec.merged_params()
    legacy = conv_tiled_workload(
        hmc,
        spec.num_tiles,
        image_shape=params["image_shape"],
        kernel=params["kernel"],
        num_ntx=cluster.num_ntx,
        tcdm=cluster.tcdm,
        seed=spec.seed,
        draw=_lattice,
    )
    return ScenarioWorkload(
        family="conv", tiles=legacy.tiles, references=legacy.references
    )


# --------------------------------------------------------------------------- #
# matmul — tiled GEMM                                                          #
# --------------------------------------------------------------------------- #


def matmul_workload(
    spec: ScenarioSpec, hmc: Hmc, cluster: ClusterConfig
) -> ScenarioWorkload:
    """Independent ``m x k @ k x n`` tiles, output rows split across NTX."""
    params = spec.merged_params()
    m, k, n = params["m"], params["k"], params["n"]
    if min(m, k, n) <= 0:
        raise ValueError("matrix dimensions must be positive")
    tcdm: TcdmConfig = cluster.tcdm

    a_bytes, b_bytes, c_bytes = m * k * _WORD, k * n * _WORD, m * n * _WORD
    layout = _Cursor(tcdm.base_address, tcdm.size_bytes, "TCDM")
    tcdm_a = layout.alloc(a_bytes)
    tcdm_b = layout.alloc(b_bytes)
    tcdm_c = layout.alloc(c_bytes)

    rng = np.random.default_rng(spec.seed)
    cursor = _Cursor(hmc.base, hmc.config.capacity_bytes, "HMC")
    workload = ScenarioWorkload(family="matmul", tiles=[])
    for _ in range(spec.num_tiles):
        a = _lattice(rng, (m, k))
        b = _lattice(rng, (k, n))
        hmc_a = _stage(hmc, cursor, a)
        hmc_b = _stage(hmc, cursor, b)
        hmc_c = cursor.alloc(c_bytes)

        commands = gemm_commands(
            m, k, n, tcdm_a, tcdm_b, tcdm_c, split_rows=cluster.num_ntx
        )
        workload.tiles.append(
            TileSchedule(
                transfers_in=[
                    _transfer(hmc_a, tcdm_a, a_bytes),
                    _transfer(hmc_b, tcdm_b, b_bytes),
                ],
                commands=commands,
                transfers_out=[_transfer(tcdm_c, hmc_c, c_bytes)],
            )
        )
        expected = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
        workload.references.append((hmc_c, expected))
    return workload


# --------------------------------------------------------------------------- #
# stencil — the 2D discrete Laplace operator                                   #
# --------------------------------------------------------------------------- #


def stencil_workload(
    spec: ScenarioSpec, hmc: Hmc, cluster: ClusterConfig
) -> ScenarioWorkload:
    """Independent Laplace tiles; each tile's two passes run on one NTX.

    The horizontal pass initialises the output, the vertical pass
    accumulates into it (``init_source=AGU2``), so the command stream of a
    tile is order-dependent — pinning it to one co-processor makes both
    cycle engines execute it in program order.  Parallelism comes from
    scheduling many tiles across clusters.
    """
    params = spec.merged_params()
    height, width = params["field_shape"]
    out_h, out_w = height - 2, width - 2
    if out_h <= 0 or out_w <= 0:
        raise ValueError("field too small for the 3-point stencil")
    tcdm: TcdmConfig = cluster.tcdm

    field_bytes = height * width * _WORD
    out_bytes = out_h * out_w * _WORD
    layout = _Cursor(tcdm.base_address, tcdm.size_bytes, "TCDM")
    tcdm_field = layout.alloc(field_bytes)
    tcdm_taps = layout.alloc(LAPLACE_TAPS.nbytes)
    tcdm_out = layout.alloc(out_bytes)

    rng = np.random.default_rng(spec.seed)
    cursor = _Cursor(hmc.base, hmc.config.capacity_bytes, "HMC")
    hmc_taps = _stage(hmc, cursor, LAPLACE_TAPS)
    workload = ScenarioWorkload(family="stencil", tiles=[])
    for _ in range(spec.num_tiles):
        field_data = _lattice(rng, (height, width))
        hmc_field = _stage(hmc, cursor, field_data)
        hmc_out = cursor.alloc(out_bytes)

        commands = laplace_commands(
            2, (height, width), tcdm_field, tcdm_taps, tcdm_out
        )
        workload.tiles.append(
            TileSchedule(
                transfers_in=[
                    _transfer(hmc_field, tcdm_field, field_bytes),
                    _transfer(hmc_taps, tcdm_taps, LAPLACE_TAPS.nbytes),
                ],
                commands=commands,
                transfers_out=[_transfer(tcdm_out, hmc_out, out_bytes)],
                placements=[0] * len(commands),
            )
        )
        workload.references.append((hmc_out, laplace_2d_reference(field_data)))
    return workload


# --------------------------------------------------------------------------- #
# dnn — one training micro-step of a convolution layer                         #
# --------------------------------------------------------------------------- #


def dnn_step_workload(
    spec: ScenarioSpec, hmc: Hmc, cluster: ClusterConfig
) -> ScenarioWorkload:
    """One SGD step of a small conv layer, per-output-channel chains.

    Per tile (one sample) and output channel ``co`` the chain is:

    1. forward — ``out[co] = sum_ci conv2d(image[ci], w[co, ci])``
       (accumulate-in-place, one command per input channel);
    2. loss gradient — ``grad[co] = out[co] - target[co]`` (one SUB);
    3. weight gradient — ``dW[co, ci] = conv2d(image[ci], grad[co])``
       (the correlation of the input with the output gradient, one
       command per input channel); and
    4. update — ``w[co, :] -= lr * dW[co, :]`` (one in-place AXPY).

    Chains for different output channels are independent, so chain ``co``
    is placed on co-processor ``co % num_ntx``; within a chain the
    commands are dependent and execute in order on their NTX.  Verified
    outputs are the updated weights and the loss gradients.
    """
    params = spec.merged_params()
    in_channels = params["in_channels"]
    out_channels = params["out_channels"]
    size = params["image_size"]
    kernel = params["kernel"]
    lr = params["learning_rate"]
    out_size = size - kernel + 1
    if out_size <= 0:
        raise ValueError("kernel larger than image")
    num_ntx = cluster.num_ntx
    tcdm: TcdmConfig = cluster.tcdm

    plane = size * size * _WORD
    filt = kernel * kernel * _WORD
    grad_plane = out_size * out_size * _WORD
    image_bytes = in_channels * plane
    weights_bytes = out_channels * in_channels * filt
    target_bytes = out_channels * grad_plane

    layout = _Cursor(tcdm.base_address, tcdm.size_bytes, "TCDM")
    tcdm_image = layout.alloc(image_bytes)
    tcdm_weights = layout.alloc(weights_bytes)
    tcdm_target = layout.alloc(target_bytes)
    tcdm_neg_lr = layout.alloc(_WORD)
    tcdm_out = layout.alloc(target_bytes)
    tcdm_grad = layout.alloc(target_bytes)
    tcdm_dw = layout.alloc(weights_bytes)

    neg_lr = np.array([-lr], dtype=np.float32)
    rng = np.random.default_rng(spec.seed)
    cursor = _Cursor(hmc.base, hmc.config.capacity_bytes, "HMC")
    hmc_neg_lr = _stage(hmc, cursor, neg_lr)
    workload = ScenarioWorkload(family="dnn", tiles=[])
    for _ in range(spec.num_tiles):
        image = _lattice(rng, (in_channels, size, size))
        weights = _lattice(rng, (out_channels, in_channels, kernel, kernel))
        target = _lattice(rng, (out_channels, out_size, out_size))
        hmc_image = _stage(hmc, cursor, image)
        hmc_weights = _stage(hmc, cursor, weights)
        hmc_target = _stage(hmc, cursor, target)
        hmc_grad = cursor.alloc(target_bytes)

        commands: List[NtxCommand] = []
        placements: List[int] = []
        for co in range(out_channels):
            chain: List[NtxCommand] = []
            out_co = tcdm_out + co * grad_plane
            grad_co = tcdm_grad + co * grad_plane
            target_co = tcdm_target + co * grad_plane
            # 1) forward: accumulate the input channels into out[co].
            chain.extend(
                conv2d_multichannel_commands(
                    in_channels,
                    size,
                    size,
                    kernel,
                    tcdm_image,
                    tcdm_weights + co * in_channels * filt,
                    out_co,
                )
            )
            # 2) loss gradient: grad[co] = out[co] - target[co].
            chain.append(
                NtxCommand(
                    opcode=NtxOpcode.SUB,
                    loops=LoopConfig.nest(out_size * out_size),
                    agu0=AguConfig(base=out_co, strides=(_WORD, 0, 0, 0, 0)),
                    agu1=AguConfig(base=target_co, strides=(_WORD, 0, 0, 0, 0)),
                    agu2=AguConfig(base=grad_co, strides=(_WORD, 0, 0, 0, 0)),
                    init_level=0,
                    store_level=0,
                )
            )
            # 3) weight gradient: correlate each input channel with grad[co]
            # (a conv2d whose "kernel" is the out_size x out_size gradient).
            for ci in range(in_channels):
                chain.append(
                    conv2d_commands(
                        size,
                        size,
                        out_size,
                        tcdm_image + ci * plane,
                        grad_co,
                        tcdm_dw + (co * in_channels + ci) * filt,
                    )[0]
                )
            # 4) SGD update over the channel's whole weight block.
            chain.append(
                axpy_commands(
                    in_channels * kernel * kernel,
                    tcdm_neg_lr,
                    tcdm_dw + co * in_channels * filt,
                    tcdm_weights + co * in_channels * filt,
                )[0]
            )
            commands.extend(chain)
            placements.extend([co % num_ntx] * len(chain))

        workload.tiles.append(
            TileSchedule(
                transfers_in=[
                    _transfer(hmc_image, tcdm_image, image_bytes),
                    _transfer(hmc_weights, tcdm_weights, weights_bytes),
                    _transfer(hmc_target, tcdm_target, target_bytes),
                    _transfer(hmc_neg_lr, tcdm_neg_lr, _WORD),
                ],
                commands=commands,
                transfers_out=[
                    _transfer(tcdm_weights, hmc_weights, weights_bytes),
                    _transfer(tcdm_grad, hmc_grad, target_bytes),
                ],
                placements=placements,
            )
        )

        # Golden model, rounding to binary32 exactly where the engines do.
        grad_ref = np.empty((out_channels, out_size, out_size), dtype=np.float32)
        w_new = np.empty_like(weights)
        for co in range(out_channels):
            out_co = conv2d_reference(image[0], weights[co, 0])
            for ci in range(1, in_channels):
                out_co = (
                    out_co.astype(np.float64)
                    + conv2d_f64(image[ci], weights[co, ci])
                ).astype(np.float32)
            grad_ref[co] = (
                out_co.astype(np.float64) - target[co].astype(np.float64)
            ).astype(np.float32)
            for ci in range(in_channels):
                dw = conv2d_reference(image[ci], grad_ref[co])
                w_new[co, ci] = (
                    weights[co, ci].astype(np.float64)
                    - np.float64(lr) * dw.astype(np.float64)
                ).astype(np.float32)
        workload.references.append((hmc_weights, w_new))
        workload.references.append((hmc_grad, grad_ref))
    return workload


# --------------------------------------------------------------------------- #
# opstream — one streaming command of a single opcode (Figure 3b)              #
# --------------------------------------------------------------------------- #


def _opstream_reference(
    opcode: NtxOpcode, a: np.ndarray, b: np.ndarray, scalar: float
) -> np.ndarray:
    """Golden output of one ``n``-element streaming command of ``opcode``.

    Mirrors the reference semantics of :func:`repro.core.golden.golden_execute`
    for a zero-initialised single-loop stream: reductions produce one word,
    element-wise opcodes produce ``n`` words.  Operands come from the
    power-of-two lattice, so float64 accumulation rounds to the same
    binary32 values as both cycle engines.
    """
    a64 = a.astype(np.float64)
    b64 = b.astype(np.float64)
    if opcode is NtxOpcode.MAC:
        return np.array([np.sum(a64 * b64)], dtype=np.float32)
    if opcode is NtxOpcode.MUL:
        return (a64 * b64).astype(np.float32)
    if opcode is NtxOpcode.ADD:
        return (a64 + b64).astype(np.float32)
    if opcode is NtxOpcode.SUB:
        return (a64 - b64).astype(np.float32)
    if opcode is NtxOpcode.MAX:
        return np.array([np.max(a)], dtype=np.float32)
    if opcode is NtxOpcode.MIN:
        return np.array([np.min(a)], dtype=np.float32)
    if opcode is NtxOpcode.ARGMAX:
        return np.array([np.argmax(a)], dtype=np.float32)
    if opcode is NtxOpcode.ARGMIN:
        return np.array([np.argmin(a)], dtype=np.float32)
    if opcode is NtxOpcode.RELU:
        return np.maximum(a, np.float32(0.0))
    if opcode is NtxOpcode.THRESHOLD:
        return (a > np.float32(scalar)).astype(np.float32)
    if opcode is NtxOpcode.MASK:
        return np.where(b != 0.0, a, np.float32(0.0))
    if opcode is NtxOpcode.COPY:
        return a.copy()
    if opcode is NtxOpcode.FILL:
        return np.full(a.shape, np.float32(scalar), dtype=np.float32)
    raise ValueError(f"unsupported opcode {opcode}")  # pragma: no cover


def opstream_workload(
    spec: ScenarioSpec, hmc: Hmc, cluster: ClusterConfig
) -> ScenarioWorkload:
    """One streaming command per tile, pinned to co-processor 0.

    The single-co-processor placement reproduces the conflict-free
    conditions of the paper's Figure 3(b) throughput table: with one NTX
    streaming, no TCDM banking conflicts are possible and every opcode
    sustains one element per cycle.  Reductions write one word, element-wise
    opcodes write the full output stream; both are verified against
    :func:`_opstream_reference`.
    """
    params = spec.merged_params()
    try:
        opcode = NtxOpcode(params["opcode"])
    except ValueError:
        raise ValueError(
            f"unknown opcode {params['opcode']!r}; accepted: "
            f"{sorted(op.value for op in NtxOpcode)}"
        ) from None
    n = params["n"]
    if n <= 0:
        raise ValueError("stream length must be positive")
    scalar = 0.5  # on the lattice, so THRESHOLD comparisons stay exact
    elementwise = not opcode.is_reduction
    out_words = n if elementwise else 1
    tcdm: TcdmConfig = cluster.tcdm

    layout = _Cursor(tcdm.base_address, tcdm.size_bytes, "TCDM")
    tcdm_a = layout.alloc(n * _WORD)
    tcdm_b = layout.alloc(n * _WORD)
    tcdm_out = layout.alloc(out_words * _WORD)

    rng = np.random.default_rng(spec.seed)
    cursor = _Cursor(hmc.base, hmc.config.capacity_bytes, "HMC")
    workload = ScenarioWorkload(family="opstream", tiles=[])
    for _ in range(spec.num_tiles):
        a = _lattice(rng, n)
        b = _lattice(rng, n)
        hmc_a = _stage(hmc, cursor, a)
        hmc_b = _stage(hmc, cursor, b)
        hmc_out = cursor.alloc(out_words * _WORD)

        command = NtxCommand(
            opcode=opcode,
            loops=LoopConfig.nest(n),
            agu0=AguConfig(base=tcdm_a, strides=(_WORD, 0, 0, 0, 0)),
            agu1=AguConfig(base=tcdm_b, strides=(_WORD, 0, 0, 0, 0)),
            agu2=AguConfig(
                base=tcdm_out,
                strides=((_WORD if elementwise else 0), 0, 0, 0, 0),
            ),
            init_level=0 if elementwise else 1,
            store_level=0 if elementwise else 1,
            init_source=InitSource.ZERO,
            scalar=scalar,
        )
        transfers_in = []
        if opcode.reads_operand0:
            transfers_in.append(_transfer(hmc_a, tcdm_a, n * _WORD))
        if opcode.reads_operand1:
            transfers_in.append(_transfer(hmc_b, tcdm_b, n * _WORD))
        workload.tiles.append(
            TileSchedule(
                transfers_in=transfers_in,
                commands=[command],
                transfers_out=[
                    _transfer(tcdm_out, hmc_out, out_words * _WORD)
                ],
                placements=[0],
            )
        )
        workload.references.append(
            (hmc_out, _opstream_reference(opcode, a, b, scalar))
        )
    return workload


# --------------------------------------------------------------------------- #
# cstencil — compiled declarative stencils                                     #
# --------------------------------------------------------------------------- #


def compiled_stencil_workload(
    spec: ScenarioSpec, hmc: Hmc, cluster: ClusterConfig
) -> ScenarioWorkload:
    """Independent compiled-stencil tiles from a :class:`StencilSpec`.

    The spec's ``params`` *are* the declarative stencil; compilation
    expands the neighborhood into a dense kernel and emits the command
    stream plus chain ids (see :meth:`StencilSpec.commands`).  2D tiles
    are a single command; 3D tiles place each output plane's dependent
    accumulate chain on co-processor ``plane % num_ntx``.  Boundary
    padding happens here, host-side, when the field is staged.
    """
    params = spec.merged_params()
    stencil = StencilSpec.from_params(params)
    kernel = stencil.dense_kernel()
    field_bytes = int(np.prod(stencil.padded_shape)) * _WORD
    out_bytes = int(np.prod(stencil.output_shape)) * _WORD
    tcdm: TcdmConfig = cluster.tcdm

    layout = _Cursor(tcdm.base_address, tcdm.size_bytes, "TCDM")
    tcdm_field = layout.alloc(field_bytes)
    tcdm_kernel = layout.alloc(kernel.nbytes)
    tcdm_out = layout.alloc(out_bytes)

    rng = np.random.default_rng(spec.seed)
    cursor = _Cursor(hmc.base, hmc.config.capacity_bytes, "HMC")
    hmc_kernel = _stage(hmc, cursor, kernel)
    workload = ScenarioWorkload(family="cstencil", tiles=[])
    num_ntx = cluster.num_ntx
    for _ in range(spec.num_tiles):
        grid = _lattice(rng, stencil.grid_shape)
        hmc_field = _stage(hmc, cursor, stencil.pad(grid))
        hmc_out = cursor.alloc(out_bytes)

        commands, chains = stencil.commands(tcdm_field, tcdm_kernel, tcdm_out)
        workload.tiles.append(
            TileSchedule(
                transfers_in=[
                    _transfer(hmc_field, tcdm_field, field_bytes),
                    _transfer(hmc_kernel, tcdm_kernel, kernel.nbytes),
                ],
                commands=commands,
                transfers_out=[_transfer(tcdm_out, hmc_out, out_bytes)],
                placements=[chain % num_ntx for chain in chains],
            )
        )
        workload.references.append((hmc_out, stencil.reference(grid)))
    return workload


# --------------------------------------------------------------------------- #
# pipeline — compiled stage chains                                             #
# --------------------------------------------------------------------------- #


def pipeline_workload(
    spec: ScenarioSpec, hmc: Hmc, cluster: ClusterConfig
) -> ScenarioWorkload:
    """Compiled stage chains from a :class:`PipelineSpec`.

    Stage outputs stay resident in the TCDM and feed the next stage, so
    each tile's whole chain is dependent and pinned to co-processor 0
    (parallelism comes from scheduling many tiles across clusters).  Only
    the staged input leaves and the final output returns via DMA — the
    intermediates never touch the HMC.
    """
    params = spec.merged_params()
    pipe = PipelineSpec.from_params(params)
    first = pipe.stages[0]
    staged_shape = (
        first.padded_shape if isinstance(first, StencilSpec) else pipe.grid_shape
    )
    input_bytes = int(np.prod(staged_shape)) * _WORD
    out_bytes = int(np.prod(pipe.output_shape)) * _WORD
    tcdm: TcdmConfig = cluster.tcdm

    layout = _Cursor(tcdm.base_address, tcdm.size_bytes, "TCDM")
    tcdm_input = layout.alloc(input_bytes)
    constants: List[Tuple[int, np.ndarray]] = []  # (tcdm_addr, value)
    constant_addrs: Dict[int, int] = {}
    for index, stage in enumerate(pipe.stages):
        if isinstance(stage, StencilSpec):
            value: np.ndarray = stage.dense_kernel()
        elif stage.op == "sum":
            value = np.ones(1, dtype=np.float32)  # MAC against stationary 1.0
        else:
            continue  # max/min reductions need no constant
        address = layout.alloc(value.nbytes)
        constants.append((address, value))
        constant_addrs[index] = address
    commands, tcdm_out = pipe.compile(layout.alloc, tcdm_input, constant_addrs)

    rng = np.random.default_rng(spec.seed)
    cursor = _Cursor(hmc.base, hmc.config.capacity_bytes, "HMC")
    staged_constants = [
        (_stage(hmc, cursor, value), address, value.nbytes)
        for address, value in constants
    ]
    workload = ScenarioWorkload(family="pipeline", tiles=[])
    for _ in range(spec.num_tiles):
        grid = _lattice(rng, pipe.grid_shape)
        staged = first.pad(grid) if isinstance(first, StencilSpec) else grid
        hmc_input = _stage(hmc, cursor, staged)
        hmc_out = cursor.alloc(out_bytes)

        transfers_in = [_transfer(hmc_input, tcdm_input, input_bytes)]
        transfers_in.extend(
            _transfer(src, dst, nbytes) for src, dst, nbytes in staged_constants
        )
        workload.tiles.append(
            TileSchedule(
                transfers_in=transfers_in,
                commands=list(commands),
                transfers_out=[_transfer(tcdm_out, hmc_out, out_bytes)],
                placements=[0] * len(commands),
            )
        )
        workload.references.append((hmc_out, pipe.reference(grid)))
    return workload


def build_workload(
    spec: ScenarioSpec, hmc: Hmc, cluster: Optional[ClusterConfig] = None
) -> ScenarioWorkload:
    """Build ``spec``'s workload staged in ``hmc`` for ``cluster``'s TCDM."""
    builder = globals()[FAMILIES[spec.family].builder]  # name validated by the spec
    return builder(spec, hmc, cluster or ClusterConfig())
