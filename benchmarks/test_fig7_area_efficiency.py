"""Benchmark: regenerate Figure 7 (compute density, Gop/s per mm^2).

Headline claims: NTX 32x in 22 nm offers ~6.5x and NTX 64x in 14 nm ~10.4x
the peak-throughput-per-area of GPUs in comparable technology nodes.
"""

import pytest

from repro.eval import fig7


def test_fig7_area_efficiency_comparison(benchmark):
    result = benchmark(fig7.run)
    assert result.ratio_22nm_vs_gpu == pytest.approx(
        fig7.PAPER_RATIOS["22nm_vs_gpu"], abs=1.0
    )
    assert result.ratio_14nm_vs_gpu == pytest.approx(
        fig7.PAPER_RATIOS["14nm_vs_gpu"], abs=1.5
    )
    ntx_bars = {k: v for k, v in result.bars.items() if k.startswith("NTX")}
    other_bars = {k: v for k, v in result.bars.items() if not k.startswith("NTX")}
    assert min(ntx_bars.values()) > max(other_bars.values())
