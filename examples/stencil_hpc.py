#!/usr/bin/env python3
"""Stencil codes on NTX: the HPC workloads of §III-B3 and §IV.

Runs the discrete Laplace operators (1D/2D/3D) and the 13-coefficient
diffusion stencil through the functional model, verifies them against
NumPy, then uses the cycle-level cluster simulator to measure the TCDM
banking-conflict probability and achieved throughput with all eight NTX
streamers active, and finally compares an NTX 16x system against the Green
Wave seismic accelerator and a GPU on the 8th-order Laplacian stencil.

The Green Wave comparison is printed as the registered ``greenwave``
paper artifact of ``repro.report``, built into a throwaway campaign store.

Run with ``python examples/stencil_hpc.py``.
"""

from tempfile import TemporaryDirectory

import numpy as np

from repro import Cluster
from repro.cluster.sim import ClusterSimulator
from repro.kernels import (
    laplace_spec,
    diffusion_spec,
    run_diffusion,
    run_laplace,
)
from repro.kernels.conv import conv2d_commands
from repro.kernels.stencil import (
    diffusion_reference,
    laplace_2d_reference,
    laplace_3d_reference,
)
from repro.perf import KernelExecutionModel, RooflineModel
from repro.report import render_artifact, run_report


def main() -> None:
    rng = np.random.default_rng(7)

    print("=== Functional stencils on one cluster ===")
    field2d = rng.standard_normal((40, 40)).astype(np.float32)
    out2d = run_laplace(Cluster(), field2d)
    assert np.allclose(out2d, laplace_2d_reference(field2d), rtol=1e-4, atol=1e-4)
    print("  LAP2D on a 40x40 field   : OK")

    field3d = rng.standard_normal((10, 12, 14)).astype(np.float32)
    out3d = run_laplace(Cluster(), field3d)
    assert np.allclose(out3d, laplace_3d_reference(field3d), rtol=1e-4, atol=1e-4)
    print("  LAP3D on a 10x12x14 field: OK")

    fieldd = rng.standard_normal((12, 10, 10)).astype(np.float32)
    outd = run_diffusion(Cluster(), fieldd)
    assert np.allclose(outd, diffusion_reference(fieldd), rtol=1e-3, atol=1e-4)
    print("  DIFF (13 coefficients)   : OK")

    print("\n=== Roofline placement (memory bound, §III-C) ===")
    roofline = RooflineModel()
    model = KernelExecutionModel()
    for spec in (laplace_spec(1), laplace_spec(2), laplace_spec(3), diffusion_spec()):
        point = roofline.place(spec)
        perf = model.evaluate(spec)
        print(
            f"  {spec.name:6s} OI {point.operational_intensity:4.2f} flop/B -> "
            f"{point.performance_gflops:5.2f} Gflop/s roofline, "
            f"{perf.achieved_bandwidth_gbs:4.2f} GB/s sustained"
        )

    print("\n=== Cycle-level contention: 8 NTX streaming a 3x3 stencil ===")
    cluster = Cluster()
    img = rng.standard_normal((26, 28)).astype(np.float32)
    w = rng.standard_normal((3, 3)).astype(np.float32)
    addresses = cluster.tcdm.alloc_layout([img.nbytes, w.nbytes, 24 * 26 * 4] * 8)
    jobs = []
    for i in range(8):
        img_addr, w_addr, out_addr = addresses[3 * i : 3 * i + 3]
        cluster.stage_in(img_addr, img)
        cluster.stage_in(w_addr, w)
        jobs.append((i, conv2d_commands(26, 28, 3, img_addr, w_addr, out_addr)[0]))
    result = ClusterSimulator(cluster).run(jobs)
    summary = result.summary()
    print(
        f"  conflicts {summary['conflict_probability']:.1%} (paper ~13%), "
        f"achieved {summary['gflops']:.1f} Gflop/s (paper practical max ~17.4)"
    )

    print("\n=== Green Wave comparison (§IV) ===")
    with TemporaryDirectory() as store_dir:
        (result,) = run_report(["greenwave"], quick=True, store_dir=store_dir)
    print(render_artifact(result))


if __name__ == "__main__":
    main()
