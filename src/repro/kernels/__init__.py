"""Kernel library: generalized reduction workloads compiled to NTX commands.

Every kernel comes in three forms:

* a **NumPy reference** (``*_reference``) used as the oracle in tests;
* a **command builder** (``*_commands``) that emits the
  :class:`~repro.core.commands.NtxCommand` stream for data resident in the
  TCDM — this is what the RISC-V driver programs into the co-processors;
* a **workload spec** (``*_spec``) describing flops and off-cluster traffic,
  consumed by the roofline and execution-time models of :mod:`repro.perf`.

Plus ``run_*`` helpers that stage NumPy arrays into a cluster, execute the
command stream functionally and read the result back — the quickest way to
use the library (see ``examples/quickstart.py``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.kernels.blas import (
        axpy_commands,
        axpy_reference,
        axpy_spec,
        gemm_commands,
        gemm_reference,
        gemm_spec,
        gemv_commands,
        gemv_reference,
        gemv_spec,
        run_axpy,
        run_gemm,
        run_gemv,
    )
    from repro.kernels.conv import (
        conv1d_commands,
        conv2d_commands,
        conv2d_multichannel_commands,
        conv2d_multichannel_reference,
        conv2d_reference,
        conv2d_spec,
        run_conv2d,
        run_conv2d_multichannel,
    )
    from repro.kernels.reductions import (
        argmax_command,
        copy_command,
        fill_command,
        reduce_max_command,
        reduce_sum_command,
        relu_commands,
        run_reduction,
    )
    from repro.kernels.specs import KernelSpec
    from repro.kernels.stencil import (
        diffusion_commands,
        diffusion_reference,
        diffusion_spec,
        laplace_1d_reference,
        laplace_2d_reference,
        laplace_3d_reference,
        laplace_commands,
        laplace_spec,
        run_diffusion,
        run_laplace,
    )

__all__ = [
    "KernelSpec",
    "axpy_commands",
    "axpy_reference",
    "axpy_spec",
    "run_axpy",
    "gemv_commands",
    "gemv_reference",
    "gemv_spec",
    "run_gemv",
    "gemm_commands",
    "gemm_reference",
    "gemm_spec",
    "run_gemm",
    "conv1d_commands",
    "conv2d_commands",
    "conv2d_reference",
    "conv2d_spec",
    "run_conv2d",
    "conv2d_multichannel_commands",
    "conv2d_multichannel_reference",
    "run_conv2d_multichannel",
    "laplace_1d_reference",
    "laplace_2d_reference",
    "laplace_3d_reference",
    "laplace_commands",
    "laplace_spec",
    "run_laplace",
    "diffusion_reference",
    "diffusion_commands",
    "diffusion_spec",
    "run_diffusion",
    "reduce_sum_command",
    "reduce_max_command",
    "argmax_command",
    "relu_commands",
    "fill_command",
    "copy_command",
    "run_reduction",
]

# Public name -> defining submodule, imported on first access (repro._lazy).
_EXPORTS = {
    "KernelSpec": "specs",
    "axpy_commands": "blas",
    "axpy_reference": "blas",
    "axpy_spec": "blas",
    "run_axpy": "blas",
    "gemv_commands": "blas",
    "gemv_reference": "blas",
    "gemv_spec": "blas",
    "run_gemv": "blas",
    "gemm_commands": "blas",
    "gemm_reference": "blas",
    "gemm_spec": "blas",
    "run_gemm": "blas",
    "conv1d_commands": "conv",
    "conv2d_commands": "conv",
    "conv2d_reference": "conv",
    "conv2d_spec": "conv",
    "run_conv2d": "conv",
    "conv2d_multichannel_commands": "conv",
    "conv2d_multichannel_reference": "conv",
    "run_conv2d_multichannel": "conv",
    "laplace_1d_reference": "stencil",
    "laplace_2d_reference": "stencil",
    "laplace_3d_reference": "stencil",
    "laplace_commands": "stencil",
    "laplace_spec": "stencil",
    "run_laplace": "stencil",
    "diffusion_reference": "stencil",
    "diffusion_commands": "stencil",
    "diffusion_spec": "stencil",
    "run_diffusion": "stencil",
    "reduce_sum_command": "reductions",
    "reduce_max_command": "reductions",
    "argmax_command": "reductions",
    "relu_commands": "reductions",
    "fill_command": "reductions",
    "copy_command": "reductions",
    "run_reduction": "reductions",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
