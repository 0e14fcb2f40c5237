"""Benchmark: regenerate Table II (DNN training energy efficiency).

For every NTX configuration the modelled geometric-mean training efficiency
is compared against the paper's value; the platform-characteristic columns
(area, LiM, frequency, peak) must match closely, the efficiencies must
reproduce the paper's ordering and magnitude (the model is calibrated only
against the single-cluster silicon figures, not against Table II itself).
"""

import pytest

from repro.eval import table2


def test_table2_dnn_training_efficiency(benchmark):
    rows = benchmark(table2.run)
    for row in rows:
        paper = row.paper
        summary = row.config.summary()
        assert summary["freq_ghz"] == pytest.approx(paper["freq_ghz"], rel=0.10)
        assert summary["peak_tops"] == pytest.approx(paper["peak_tops"], rel=0.07)
        assert summary["area_mm2"] == pytest.approx(paper["area_mm2"], rel=0.05)
        assert summary["lim"] == paper["lim"]
        assert row.geomean == pytest.approx(paper["geomean"], rel=0.30)
    # The paper's qualitative ordering: every NTX configuration beats every
    # GPU, and ScaleDeep remains ahead of the largest NTX configuration.
    geomeans = {row.name: row.geomean for row in rows}
    from repro.perf.baselines import GPU_BASELINES, ACCELERATOR_BASELINES

    best_gpu = max(g.geomean_efficiency for g in GPU_BASELINES)
    assert min(geomeans.values()) > best_gpu
    scaledeep = next(a for a in ACCELERATOR_BASELINES if a.name == "ScaleDeep")
    assert geomeans["NTX (512x) 14nm"] < scaledeep.geomean_efficiency * 1.1
