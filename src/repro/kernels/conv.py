"""Convolution kernels (1D and 2D, single- and multi-channel).

Convolutions are the workhorse of the paper's DNN training evaluation and
the extrapolation anchor of its roofline (the 3x3 convolution is the kernel
that was simulated at gate level).  Each output pixel of a k x k convolution
performs k^2 MACs; since the input tile is held in the TCDM and reused for
every kernel position — and, in the DNN setting, partial sums accumulate
over input channels in place — the off-cluster traffic per pixel is close to
one input read plus one (amortised) output write, which is what places the
CONV kernels firmly in the compute-bound region of Figure 5.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.commands import (
    AguConfig,
    InitSource,
    LoopConfig,
    NtxCommand,
    NtxOpcode,
)
from repro.kernels.specs import KernelSpec

__all__ = [
    "conv1d_commands",
    "conv2d_f64",
    "conv2d_reference",
    "conv2d_commands",
    "conv2d_spec",
    "run_conv2d",
    "conv2d_multichannel_reference",
    "conv2d_multichannel_commands",
    "run_conv2d_multichannel",
    "conv3d_reference",
    "conv3d_commands",
]

_WORD = 4


# --------------------------------------------------------------------------- #
# 1D convolution (building block for separable stencils)                       #
# --------------------------------------------------------------------------- #


def conv1d_commands(
    num_outputs: int,
    num_taps: int,
    src_addr: int,
    weights_addr: int,
    dst_addr: int,
    src_stride_elems: int = 1,
    dst_stride_elems: int = 1,
    accumulate: bool = False,
    tap_stride_elems: Optional[int] = None,
) -> List[NtxCommand]:
    """Weighted-neighbourhood reduction along an arbitrary axis.

    The general form computed is
    ``dst[i] (+)= sum_t src[i * src_stride + t * tap_stride] * w[t]``.
    With ``tap_stride_elems`` left at its default (equal to the source
    stride) this is a plain valid 1D convolution, ``dst[i] = sum_t
    src[i + t] * w[t]``; giving the taps their own stride expresses the
    cross-axis passes of separable 3D stencils (outputs walk along x while
    the taps look up or down the z axis).
    """
    if num_outputs <= 0 or num_taps <= 0:
        raise ValueError("convolution dimensions must be positive")
    src_step = src_stride_elems * _WORD
    tap_step = (
        tap_stride_elems * _WORD if tap_stride_elems is not None else src_step
    )
    dst_step = dst_stride_elems * _WORD
    command = NtxCommand(
        opcode=NtxOpcode.MAC,
        loops=LoopConfig.nest(num_taps, num_outputs),
        agu0=AguConfig(
            base=src_addr,
            strides=(tap_step, src_step - (num_taps - 1) * tap_step, 0, 0, 0),
        ),
        agu1=AguConfig(
            base=weights_addr,
            strides=(_WORD, -(num_taps - 1) * _WORD, 0, 0, 0),
        ),
        agu2=AguConfig(base=dst_addr, strides=(0, dst_step, 0, 0, 0)),
        init_level=1,
        store_level=1,
        init_source=InitSource.AGU2 if accumulate else InitSource.ZERO,
    )
    return [command]


# --------------------------------------------------------------------------- #
# 2D convolution, single channel                                               #
# --------------------------------------------------------------------------- #


def conv2d_f64(image: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Unrounded (float64) valid 2D cross-correlation.

    :func:`conv2d_reference` is this plus the final rounding to binary32;
    callers that emulate the engines' accumulate-and-round sequences across
    several commands (the DNN training golden, the 3D stencil golden) need
    the unrounded partial to add further contributions before rounding.

    The last two axes are the image and kernel planes; leading axes
    broadcast, so a ``(tiles, H, W)`` stack with a ``(tiles, k, k)`` stack
    of kernels correlates every tile in one pass.  Each output is
    bit-identical to its own call: the float32 x float32 products are
    formed in float64 and summed in the same ``(dy, dx)`` order.
    """
    image = np.asarray(image, dtype=np.float32)
    weights = np.asarray(weights, dtype=np.float32)
    height, width = image.shape[-2:]
    k_h, k_w = weights.shape[-2:]
    out_h, out_w = height - k_h + 1, width - k_w + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel larger than image")
    # Work on flattened rows of the full image width, so every tap is one
    # contiguous run per image: output (y, x) sits at y * width + x, and
    # the k_w - 1 columns past out_w (fed by the zero padding at the end)
    # are dropped from the result.
    lead_image, lead_weights = image.shape[:-2], weights.shape[:-2]
    lead = (
        lead_image
        if lead_image == lead_weights
        else np.broadcast_shapes(lead_image, lead_weights)
    )
    span = out_h * width
    flat = np.zeros(lead_image + (height * width + k_w - 1,), dtype=np.float64)
    flat[..., : height * width] = image.reshape(lead_image + (-1,))
    # (..., k_h * k_w, 1): tap dy * k_w + dx broadcasts over its outputs.
    taps = weights.reshape(lead_weights + (-1, 1)).astype(np.float64)
    out = np.zeros(lead + (span,), dtype=np.float64)
    product = np.empty_like(out)
    for dy in range(k_h):
        for dx in range(k_w):
            start = dy * width + dx
            np.multiply(
                taps[..., dy * k_w + dx, :], flat[..., start : start + span], out=product
            )
            np.add(out, product, out=out)
    return out.reshape(lead + (out_h, width))[..., :out_w]


def conv2d_reference(image: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Valid (no padding) 2D cross-correlation in float32."""
    return conv2d_f64(image, weights).astype(np.float32)


def conv2d_commands(
    height: int,
    width: int,
    kernel: int,
    image_addr: int,
    weights_addr: int,
    out_addr: int,
    accumulate: bool = False,
) -> List[NtxCommand]:
    """One four-deep loop nest covering the whole valid 2D convolution.

    Loop order (innermost to outermost): kernel column, kernel row, output
    column, output row.  The accumulator is re-initialised and written back
    at loop level 2, i.e. once per output pixel.
    """
    out_h, out_w = height - kernel + 1, width - kernel + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel larger than image")
    row = width * _WORD
    command = NtxCommand(
        opcode=NtxOpcode.MAC,
        loops=LoopConfig.nest(kernel, kernel, out_w, out_h),
        agu0=AguConfig(
            base=image_addr,
            strides=(
                _WORD,  # next kernel column
                row - (kernel - 1) * _WORD,  # next kernel row
                (1 - (kernel - 1) * width - (kernel - 1)) * _WORD,  # next output col
                (width - (kernel - 1) * width - (out_w - 1) - (kernel - 1))
                * _WORD,  # next output row
                0,
            ),
        ),
        agu1=AguConfig(
            base=weights_addr,
            strides=(
                _WORD,
                _WORD,
                -(kernel * kernel - 1) * _WORD,
                -(kernel * kernel - 1) * _WORD,
                0,
            ),
        ),
        agu2=AguConfig(base=out_addr, strides=(0, 0, _WORD, _WORD, 0)),
        init_level=2,
        store_level=2,
        init_source=InitSource.AGU2 if accumulate else InitSource.ZERO,
    )
    return [command]


def conv2d_spec(
    kernel: int,
    out_pixels: int = 112 * 112,
    channels: int = 64,
    dnn_style: bool = True,
) -> KernelSpec:
    """Workload spec of a k x k convolution layer.

    With ``dnn_style`` accounting (the paper's setting) the partial sums stay
    resident in the TCDM while the kernel accumulates over the input
    channels, so per input pixel only its own 4 byte load crosses the AXI
    port and the reuse factor equals k^2 (``§III-B2``).  Setting
    ``dnn_style=False`` accounts a single-channel convolution where each
    output write also crosses the port.
    """
    flops = 2 * kernel * kernel * out_pixels * channels
    if dnn_style:
        dram_bytes = _WORD * out_pixels * channels  # inputs streamed once
        dram_bytes += _WORD * out_pixels  # amortised output write-back
    else:
        dram_bytes = 2 * _WORD * out_pixels * channels
    return KernelSpec(
        name=f"CONV {kernel}x{kernel}",
        flops=flops,
        dram_bytes=int(dram_bytes),
        num_commands=max(1, channels),
        iterations=kernel * kernel * out_pixels * channels,
        params={"kernel": kernel, "out_pixels": out_pixels, "channels": channels},
    )


def run_conv2d(
    cluster: Cluster, image: np.ndarray, weights: np.ndarray, ntx_id: int = 0
) -> np.ndarray:
    """Stage, execute and read back a single-channel valid 2D convolution."""
    image = np.asarray(image, dtype=np.float32)
    weights = np.asarray(weights, dtype=np.float32)
    height, width = image.shape
    k_h, k_w = weights.shape
    if k_h != k_w:
        raise ValueError("only square kernels are supported by this helper")
    out_h, out_w = height - k_h + 1, width - k_w + 1
    img_addr, w_addr, out_addr = cluster.tcdm.alloc_layout(
        [image.nbytes, weights.nbytes, out_h * out_w * _WORD]
    )
    cluster.stage_in(img_addr, image)
    cluster.stage_in(w_addr, weights)
    for command in conv2d_commands(height, width, k_h, img_addr, w_addr, out_addr):
        cluster.offload(command, ntx_id)
    return cluster.stage_out(out_addr, (out_h, out_w))


# --------------------------------------------------------------------------- #
# 2D convolution, multiple input channels (DNN layer style)                    #
# --------------------------------------------------------------------------- #


def conv2d_multichannel_reference(
    image: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Reference for a (C_in, H, W) image with (C_in, k, k) weights -> (H', W')."""
    image = np.asarray(image, dtype=np.float32)
    weights = np.asarray(weights, dtype=np.float32)
    channels = image.shape[0]
    out = None
    for c in range(channels):
        partial = conv2d_reference(image[c], weights[c]).astype(np.float64)
        out = partial if out is None else out + partial
    return out.astype(np.float32)


def conv2d_multichannel_commands(
    channels: int,
    height: int,
    width: int,
    kernel: int,
    image_addr: int,
    weights_addr: int,
    out_addr: int,
) -> List[NtxCommand]:
    """One accumulate-in-place command per input channel.

    This is exactly how the RISC-V driver schedules a DNN convolution layer:
    the partial sums live in the TCDM and every channel's contribution is
    added with ``init_source=AGU2``, the first channel initialising from
    zero.
    """
    commands = []
    plane_bytes = height * width * _WORD
    weight_bytes = kernel * kernel * _WORD
    for c in range(channels):
        commands.extend(
            conv2d_commands(
                height,
                width,
                kernel,
                image_addr + c * plane_bytes,
                weights_addr + c * weight_bytes,
                out_addr,
                accumulate=(c > 0),
            )
        )
    return commands


# --------------------------------------------------------------------------- #
# 3D convolution (dense volumetric stencils)                                    #
# --------------------------------------------------------------------------- #


def conv3d_reference(volume: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Valid 3D cross-correlation with the engines' per-command rounding.

    Mirrors :func:`conv3d_commands` exactly: output plane ``z`` is
    initialised by the ``dz=0`` in-plane 2D correlation and then accumulates
    one plane contribution per further ``dz``, rounding to binary32 after
    each command the way the NTX store path does (``init_source=AGU2``
    re-reads the rounded partial).  With lattice-valued operands every
    partial stays exact, so the rounding points are harmless — but keeping
    them in the reference pins the golden model to the command stream, not
    to an idealised single-rounding convolution.
    """
    volume = np.asarray(volume, dtype=np.float32)
    weights = np.asarray(weights, dtype=np.float32)
    depth = volume.shape[0]
    k = weights.shape[0]
    out_d = depth - k + 1
    if out_d <= 0:
        raise ValueError("kernel larger than volume")
    planes = []
    for z in range(out_d):
        acc = conv2d_f64(volume[z], weights[0]).astype(np.float32)
        for dz in range(1, k):
            acc = (
                acc.astype(np.float64) + conv2d_f64(volume[z + dz], weights[dz])
            ).astype(np.float32)
        planes.append(acc)
    return np.stack(planes)


def conv3d_commands(
    depth: int,
    height: int,
    width: int,
    kernel: int,
    volume_addr: int,
    weights_addr: int,
    out_addr: int,
    accumulate: bool = False,
) -> List[NtxCommand]:
    """Per-plane decomposition of a dense valid k x k x k 3D convolution.

    Output plane ``z`` is the sum over ``dz`` of the 2D correlation of
    input plane ``z + dz`` with weight plane ``dz``; the first contribution
    initialises the plane (unless ``accumulate``), later ones add in place
    (``init_source=AGU2``).  The command list is plane-major: exactly
    ``kernel`` dependent commands per output plane, so callers can place
    each output plane's chain on its own co-processor (chains for different
    planes write disjoint regions and are independent).
    """
    out_d = depth - kernel + 1
    if out_d <= 0:
        raise ValueError("kernel larger than volume")
    plane_bytes = height * width * _WORD
    weight_plane_bytes = kernel * kernel * _WORD
    out_plane_bytes = (height - kernel + 1) * (width - kernel + 1) * _WORD
    commands: List[NtxCommand] = []
    for z in range(out_d):
        for dz in range(kernel):
            commands.extend(
                conv2d_commands(
                    height,
                    width,
                    kernel,
                    volume_addr + (z + dz) * plane_bytes,
                    weights_addr + dz * weight_plane_bytes,
                    out_addr + z * out_plane_bytes,
                    accumulate=accumulate or dz > 0,
                )
            )
    return commands


def run_conv2d_multichannel(
    cluster: Cluster, image: np.ndarray, weights: np.ndarray, ntx_id: int = 0
) -> np.ndarray:
    """Stage, execute and read back a multi-channel convolution (one output map)."""
    image = np.asarray(image, dtype=np.float32)
    weights = np.asarray(weights, dtype=np.float32)
    channels, height, width = image.shape
    _, k_h, k_w = weights.shape
    out_h, out_w = height - k_h + 1, width - k_w + 1
    img_addr, w_addr, out_addr = cluster.tcdm.alloc_layout(
        [image.nbytes, weights.nbytes, out_h * out_w * _WORD]
    )
    cluster.stage_in(img_addr, image)
    cluster.stage_in(w_addr, weights)
    commands = conv2d_multichannel_commands(
        channels, height, width, k_h, img_addr, w_addr, out_addr
    )
    for command in commands:
        cluster.offload(command, ntx_id)
    return cluster.stage_out(out_addr, (out_h, out_w))
