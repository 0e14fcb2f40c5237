"""Benchmark: §II-C — RMSE of the PCS accumulator vs a conventional FP32 FPU.

The paper reports the NTX accumulator's RMSE to be 1.7x lower than a 32 bit
FPU on a DNN convolution layer; the benchmark reproduces the experiment on
synthetic convolution-window reductions.
"""

from repro.eval import precision


def test_precision_rmse_improvement(benchmark):
    result = benchmark(precision.run)
    assert result.rmse_pcs < result.rmse_float32
    assert 1.2 <= result.improvement <= 3.0
