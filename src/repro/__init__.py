"""repro — a Python reproduction of the NTX streaming accelerator (DATE 2019).

The package models the full system described in the paper "NTX: An
Energy-efficient Streaming Accelerator for Floating-point Generalized
Reduction Workloads in 22 nm FD-SOI" by Schuiki, Schaffner and Benini:

* :mod:`repro.softfloat` — bit-exact IEEE-754 binary32 arithmetic and the
  wide partial-carry-save (PCS) accumulator used by the NTX FMAC unit.
* :mod:`repro.core` — the NTX co-processor itself: hardware loops, address
  generation units, the command set, the controller and the FPU datapath,
  the cycle-approximate model and the array data plane that replays a
  command's data effects.
* :mod:`repro.mem` — the memory substrate: TCDM, logarithmic interconnect,
  2D DMA engine, instruction cache, AXI port and the Hybrid Memory Cube.
* :mod:`repro.riscv` — a small RV32IM instruction-set simulator standing in
  for the RI5CY control core.
* :mod:`repro.cluster` — the processing cluster tying the above together:
  command offload through the register files, the two cycle engines over
  one shared data plane, and tile programs with the double-buffering
  model.
* :mod:`repro.kernels` — BLAS, convolution and stencil kernels compiled to
  NTX command streams.
* :mod:`repro.dnn` — DNN training workloads (AlexNet … ResNet-152).
* :mod:`repro.perf` — roofline, execution-time, area, energy and technology
  scaling models plus literature baselines.
* :mod:`repro.system` — multi-cluster scale-out: many clusters on one HMC,
  work-queue tile scheduling and vault-bandwidth contention.
* :mod:`repro.scenarios` — declarative workload scenarios: serializable
  specs, a named registry, and workload families built, run and verified
  against NumPy golden models.
* :mod:`repro.campaign` — resumable design-space sweeps over scenarios,
  run in-process with one shared tile-timing cache.
* :mod:`repro.report` — the paper-artifact pipeline behind
  ``docs/paper_results.md``.
* :mod:`repro.eval` — one harness per paper table/figure plus the
  ``python -m repro.eval`` command line (``report``, ``scenario``,
  ``campaign`` and ``trace`` subcommands).
* :mod:`repro.options` — :class:`ExecutionOptions`, the one serializable
  object carrying every execution knob through all of the above.
"""

__version__ = "1.0.0"

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cluster.cluster import Cluster, ClusterConfig
    from repro.core.commands import NtxCommand, NtxOpcode
    from repro.core.ntx import Ntx, NtxConfig
    from repro.options import ExecutionOptions

__all__ = [
    "Ntx",
    "NtxConfig",
    "NtxCommand",
    "NtxOpcode",
    "Cluster",
    "ClusterConfig",
    "ExecutionOptions",
    "__version__",
]

# Public name -> defining submodule, imported on first access (PEP 562):
# ``import repro`` and its subpackages stay NumPy-free until a name that
# needs the simulator is used.
_EXPORTS = {
    "Ntx": "core.ntx",
    "NtxConfig": "core.ntx",
    "NtxCommand": "core.commands",
    "NtxOpcode": "core.commands",
    "Cluster": "cluster.cluster",
    "ClusterConfig": "cluster.cluster",
    "ExecutionOptions": "options",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
