"""Benchmark: §IV — the Green Wave seismic stencil comparison.

The paper estimates NTX 16x at ~130 Gflop/s and ~11 Gflop/s W on the
8th-order Laplacian stencil, versus Green Wave (82.5 Gflop/s, 1.25 Gflop/s W)
and a GPU (145 Gflop/s, 0.33 Gflop/s W).
"""

import pytest

from repro.eval import greenwave


def test_greenwave_seismic_stencil(benchmark):
    result = benchmark(greenwave.run)
    assert result.ntx16_gflops == pytest.approx(130.0, rel=0.25)
    assert result.ntx16_gflops_w == pytest.approx(11.0, rel=0.25)
    # The qualitative claim: NTX is an order of magnitude more efficient
    # than both Green Wave and the GPU, at comparable throughput.
    assert result.ntx16_gflops_w > 5 * greenwave.PAPER_VALUES["Green Wave"]["gflops_w"]
    assert result.ntx16_gflops_w > 20 * greenwave.PAPER_VALUES["GPU"]["gflops_w"]
    assert result.ntx16_gflops > 0.5 * greenwave.PAPER_VALUES["GPU"]["gflops"]
