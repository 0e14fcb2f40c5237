"""Benchmark: regenerate Figure 5 (roofline of one NTX cluster).

Checks the roofs (20 Gflop/s, 5 GB/s, 17.4 Gflop/s practical), the
memory/compute-bound classification of every kernel, and the AXI-width
sweep of §III-C (128/256 bit ports move the ridge point to 2 and 1 flop/B).
"""

import pytest

from repro.eval import fig5
from repro.perf.roofline import RooflineModel


def test_fig5_roofline(benchmark):
    points = benchmark(fig5.run)
    model = RooflineModel()
    expectations = fig5.PAPER_EXPECTATIONS
    assert model.peak_flops / 1e9 == pytest.approx(expectations["peak_gflops"])
    assert model.peak_bandwidth / 1e9 == pytest.approx(expectations["bandwidth_gbs"])
    assert model.practical_flops / 1e9 == pytest.approx(
        expectations["practical_gflops"], rel=0.01
    )
    by_name = {p.name: p for p in points}
    for name in expectations["memory_bound"]:
        assert by_name[name].bound == "memory", name
    for name in expectations["compute_bound"]:
        assert by_name[name].bound == "compute", name
    # Compute-bound kernels achieve close to the practical peak; memory-bound
    # stencils achieve close to the practical bandwidth roof.
    for name in ("CONV 3x3", "CONV 5x5", "CONV 7x7", "GEMM 1024"):
        assert by_name[name].performance_gflops > 15.0
    for name in ("LAP1D", "LAP2D", "LAP3D", "DIFF"):
        roof = by_name[name].operational_intensity * model.practical_bandwidth / 1e9
        assert by_name[name].performance_gflops == pytest.approx(roof, rel=0.15)
    # AXI width sweep (§III-C).
    sweep = model.bandwidth_sweep([64, 128, 256])
    assert sweep[128]["ridge_flop_per_byte"] == pytest.approx(2.0)
    assert sweep[256]["ridge_flop_per_byte"] == pytest.approx(1.0)
