"""Benchmark: regenerate Figure 6 (training efficiency vs GPUs and NS).

Headline claims: NTX 32x in 22 nm achieves ~2.5x and NTX 64x in 14 nm ~3x
the geometric-mean training efficiency of GPUs in comparable nodes.
"""

import pytest

from repro.eval import fig6


def test_fig6_energy_efficiency_comparison(benchmark):
    result = benchmark(fig6.run)
    assert result.ratio_22nm_vs_gpu == pytest.approx(
        fig6.PAPER_RATIOS["22nm_vs_gpu"], abs=0.5
    )
    assert result.ratio_14nm_vs_gpu == pytest.approx(
        fig6.PAPER_RATIOS["14nm_vs_gpu"], abs=0.7
    )
    ntx_bars = {k: v for k, v in result.bars.items() if k.startswith("NTX")}
    other_bars = {k: v for k, v in result.bars.items() if not k.startswith("NTX")}
    assert min(ntx_bars.values()) > max(other_bars.values())
