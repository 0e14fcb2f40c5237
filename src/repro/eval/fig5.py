"""Figure 5 — roofline of one NTX cluster over the evaluated kernels.

The x-axis is operational intensity (flop per byte of AXI traffic), the
y-axis achieved Gflop/s; the roofs are the 20 Gflop/s peak and the 5 GB/s
AXI bandwidth.  The kernel set matches the figure: AXPY and GEMV at two
problem sizes, GEMM at five, the 3x3/5x5/7x7 convolutions, the 1D/2D/3D
discrete Laplace operators and the diffusion stencil.
"""

from __future__ import annotations

from typing import List, Optional

from repro.kernels.blas import axpy_spec, gemm_spec, gemv_spec
from repro.kernels.conv import conv2d_spec
from repro.kernels.specs import KernelSpec
from repro.kernels.stencil import diffusion_spec, laplace_spec
from repro.perf.roofline import RooflineModel, RooflinePoint

__all__ = ["figure5_kernels", "run", "PAPER_EXPECTATIONS"]

#: Qualitative expectations read off Figure 5 of the paper, used by the
#: benchmark to assert that the *shape* of the reproduction holds.
PAPER_EXPECTATIONS = {
    "memory_bound": ["AXPY 16", "AXPY 16384", "GEMV 16", "GEMV 16384",
                      "LAP1D", "LAP2D", "LAP3D", "DIFF", "GEMM 16"],
    "compute_bound": ["CONV 3x3", "CONV 5x5", "CONV 7x7", "GEMM 128", "GEMM 1024"],
    "peak_gflops": 20.0,
    "bandwidth_gbs": 5.0,
    "practical_gflops": 17.4,
    "practical_bandwidth_gbs": 4.35,
}


def figure5_kernels() -> List[KernelSpec]:
    """The kernel instances plotted in Figure 5."""
    specs: List[KernelSpec] = []
    specs.append(axpy_spec(16))
    specs.append(axpy_spec(16384))
    specs.append(gemv_spec(16))
    specs.append(gemv_spec(16384))
    for n in (16, 32, 64, 128, 1024):
        specs.append(gemm_spec(n))
    for kernel in (3, 5, 7):
        specs.append(conv2d_spec(kernel))
    for dims in (1, 2, 3):
        specs.append(laplace_spec(dims))
    specs.append(diffusion_spec())
    return specs


def run(roofline: Optional[RooflineModel] = None) -> List[RooflinePoint]:
    """Place every Figure 5 kernel on the cluster roofline."""
    model = roofline or RooflineModel()
    return model.place_all(figure5_kernels(), practical=True)
