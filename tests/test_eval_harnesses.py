"""Tests of the analytic per-table / per-figure harnesses, and of the
rendered artifacts that print their rows."""

import math
import warnings

import numpy as np
import pytest

from repro.eval import fig5, fig6, fig7, greenwave, precision, table1, table2
from repro.report import render_artifact, run_report
from repro.softfloat import PcsAccumulator, fmac_chain_float32, fmac_chains_float32, rmse
from repro.softfloat.fmac import exact_dot, fixed_to_float


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    """The quick artifacts built on the harnesses, rendered as Markdown."""
    store_dir = tmp_path_factory.mktemp("harness-stores")
    results = run_report(
        ["table1", "table2", "fig5", "fig6", "precision"],
        quick=True,
        store_dir=store_dir,
    )
    return {result.artifact.name: render_artifact(result) for result in results}


class TestTable1:
    def test_every_metric_within_five_percent(self):
        for name, paper, model in table1.run():
            assert model == pytest.approx(paper, rel=0.05), name

    def test_rendered_artifact_contains_key_rows(self, rendered):
        text = rendered["table1"]
        assert "peak_gflops" in text and "energy_per_flop_pj" in text


class TestTable2:
    def test_rows_cover_all_nine_configurations(self):
        rows = table2.run()
        assert len(rows) == 9
        assert {row.name for row in rows} == set(table2.PAPER_NTX_ROWS)

    def test_geomeans_within_thirty_percent_of_paper(self):
        for row in table2.run():
            paper = row.paper["geomean"]
            assert row.geomean == pytest.approx(paper, rel=0.30), row.name

    def test_efficiency_ordering_matches_paper(self):
        """Larger configurations are more efficient; 14nm beats 22nm."""
        rows = {row.name: row.geomean for row in table2.run()}
        assert rows["NTX (16x) 22FDX"] < rows["NTX (32x) 22FDX"] < rows["NTX (64x) 22FDX"]
        assert rows["NTX (16x) 14nm"] < rows["NTX (64x) 14nm"] < rows["NTX (512x) 14nm"]
        assert rows["NTX (16x) 14nm"] > rows["NTX (16x) 22FDX"]

    def test_given_workloads_are_used_even_when_empty(self, monkeypatch):
        def no_build(batch):
            raise AssertionError("workloads were rebuilt")

        monkeypatch.setattr(table2, "build_workloads", no_build)
        rows = table2.run(workloads={})
        assert rows and all(row.efficiency == {} for row in rows)

    def test_batch_with_workloads_is_rejected(self):
        with pytest.raises(ValueError, match="batch=16"):
            table2.run(batch=16, workloads={})

    def test_rendered_artifact_lists_baselines(self, rendered):
        text = rendered["table2"]
        assert "ScaleDeep" in text and "Tesla P100" in text


class TestFig5:
    def test_kernel_set_matches_figure(self):
        names = {spec.name for spec in fig5.figure5_kernels()}
        assert {"AXPY 16", "AXPY 16384", "GEMV 16", "GEMV 16384", "GEMM 1024",
                "CONV 3x3", "CONV 7x7", "LAP1D", "LAP3D", "DIFF"} <= names

    def test_bound_classification_matches_paper(self):
        points = {p.name: p for p in fig5.run()}
        for name in fig5.PAPER_EXPECTATIONS["memory_bound"]:
            assert points[name].bound == "memory", name
        for name in fig5.PAPER_EXPECTATIONS["compute_bound"]:
            assert points[name].bound == "compute", name

    def test_compute_bound_kernels_near_practical_peak(self):
        points = {p.name: p for p in fig5.run()}
        for name in ("CONV 3x3", "CONV 5x5", "CONV 7x7", "GEMM 1024"):
            assert points[name].performance_gflops > 15.0

    def test_larger_problems_outperform_small_ones(self):
        points = {p.name: p for p in fig5.run()}
        assert points["AXPY 16384"].performance_gflops > points["AXPY 16"].performance_gflops
        assert points["GEMM 1024"].performance_gflops > points["GEMM 16"].performance_gflops

    def test_rendered_artifact_mentions_roofs(self, rendered):
        assert "20.0 Gflop/s" in rendered["fig5"]


class TestFig6:
    def test_headline_ratios(self):
        result = fig6.run()
        assert result.ratio_22nm_vs_gpu == pytest.approx(2.5, abs=0.5)
        assert result.ratio_14nm_vs_gpu == pytest.approx(3.0, abs=0.7)

    def test_ntx_beats_every_gpu_bar(self):
        result = fig6.run()
        ntx_bars = [v for k, v in result.bars.items() if k.startswith("NTX")]
        gpu_bars = [v for k, v in result.bars.items() if not k.startswith("NTX") and not k.startswith("NS")]
        assert min(ntx_bars) > max(gpu_bars)

    def test_given_workloads_are_used(self):
        workloads = table2.build_workloads()
        alexnet_only = fig6.run(workloads={"AlexNet": workloads["AlexNet"]})
        assert alexnet_only.bars != fig6.run(workloads=workloads).bars
        assert fig6.run(workloads=workloads) == fig6.run()

    def test_batch_with_workloads_is_rejected(self):
        with pytest.raises(ValueError, match="batch=16"):
            fig6.run(batch=16, workloads=table2.build_workloads())

    def test_rendered_artifact_quotes_the_paper_ratio(self, rendered):
        assert "paper: 2.5x" in rendered["fig6"]


class TestFig7:
    def test_headline_ratios(self):
        result = fig7.run()
        assert result.ratio_22nm_vs_gpu == pytest.approx(6.5, abs=1.0)
        assert result.ratio_14nm_vs_gpu == pytest.approx(10.4, abs=1.5)

    def test_ntx_density_dominates(self):
        result = fig7.run()
        ntx = [v for k, v in result.bars.items() if k.startswith("NTX")]
        others = [v for k, v in result.bars.items() if not k.startswith("NTX")]
        assert min(ntx) > max(others)


def _precision_oracle(
    outputs: int = 256,
    reduction_length: int = 9,
    seed: int = 2019,
    scale_spread: float = 1.0,
) -> precision.PrecisionResult:
    """``precision.run`` as a per-output scalar loop: one scalar binary32
    chain and one ``PcsAccumulator`` walk per output."""
    rng = np.random.default_rng(seed)
    errors_f32 = []
    errors_pcs = []
    exact_values = []
    for _ in range(outputs):
        magnitudes_a = 10.0 ** rng.uniform(-scale_spread / 2, scale_spread / 2, reduction_length)
        magnitudes_b = 10.0 ** rng.uniform(-scale_spread / 2, scale_spread / 2, reduction_length)
        a64 = rng.choice([-1.0, 1.0], reduction_length) * magnitudes_a
        b64 = rng.choice([-1.0, 1.0], reduction_length) * magnitudes_b
        exact = fixed_to_float(*exact_dot(a64.tolist(), b64.tolist()))
        with np.errstate(over="ignore"):  # out of range rounds to ±inf
            a = a64.astype(np.float32)
            b = b64.astype(np.float32)
        errors_f32.append(fmac_chain_float32(a, b))
        acc = PcsAccumulator()
        acc.init_from(0.0)
        for x, y in zip(a.tolist(), b.tolist()):
            acc.fma(x, y)
        errors_pcs.append(acc.to_float())
        exact_values.append(exact)
    return precision.PrecisionResult(
        rmse_float32=rmse(errors_f32, exact_values),
        rmse_pcs=rmse(errors_pcs, exact_values),
    )


class TestPrecision:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"outputs": 64, "reduction_length": 81},
            {"reduction_length": 1},
            {"seed": 1},
            {"seed": 7},
            {"seed": 31337},
            {"outputs": 128, "scale_spread": 12.0},
            {"outputs": 64, "scale_spread": 60.0},
            {"outputs": 64, "scale_spread": 80.0},
        ],
        ids=[
            "defaults", "long", "single-mac", "seed-1", "seed-7", "seed-31337",
            "wide-spread", "finite-and-overflowing-rows", "non-finite-operand-rows",
        ],
    )
    def test_matches_the_scalar_loop_bit_for_bit(self, kwargs):
        got, want = precision.run(**kwargs), _precision_oracle(**kwargs)
        assert got.rmse_float32.hex() == want.rmse_float32.hex()
        assert got.rmse_pcs.hex() == want.rmse_pcs.hex()

    def test_mixed_cases_hold_finite_and_non_finite_rows(self):
        """What the two mixed oracle cases exercise: at a spread of 60
        decades every operand is finite but some rows overflow binary32,
        and at 80 some operands themselves round to ±inf."""
        for spread, inf_operands in ((60.0, False), (80.0, True)):
            rng = np.random.default_rng(2019)
            draws = [
                [
                    rng.uniform(-spread / 2, spread / 2, 9),
                    rng.uniform(-spread / 2, spread / 2, 9),
                    rng.choice([-1.0, 1.0], 9),
                    rng.choice([-1.0, 1.0], 9),
                ]
                for _ in range(64)
            ]
            with np.errstate(over="ignore"):
                a = np.array([s * 10.0**e for e, _, s, _ in draws]).astype(np.float32)
                b = np.array([s * 10.0**e for _, e, _, s in draws]).astype(np.float32)
            rows = fmac_chains_float32(a, b)
            assert np.isinf(a).any() == inf_operands
            assert np.isfinite(rows).any() and not np.isfinite(rows).all()

    def test_binary64_reference_rows_equal_exact_dot(self):
        """Dekker rows and the rows that fall back to ``exact_dot``
        (huge, tiny, zero and subnormal operands) round the same exact
        sum."""
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 9)) * 10.0 ** rng.uniform(-20, 20, (40, 9))
        b = rng.standard_normal((40, 9)) * 10.0 ** rng.uniform(-20, 20, (40, 9))
        # Two products overflow binary64 and cancel exactly.
        a[1, 3:5], b[1, 3:5] = (1e300, -1e300), (1e10, 1e10)
        a[2, 0], b[2, 0] = 2.0**1000, 2.0**-90  # the split overflows
        a[3, :], b[3, :] = 1e-160, 1e-160  # products below 2**-900
        a[4, 4] = 0.0
        a[5, 2], b[5, 2] = 5e-324, 3.0  # a subnormal operand
        a[6, 1::2], b[6, 1::2] = -a[6, 0:8:2], b[6, 0:8:2]
        a[6, 8] = 0.0  # the row sums to exactly zero
        got = precision._exact_dots(a, b)
        want = [
            fixed_to_float(*exact_dot(x.tolist(), y.tolist())) for x, y in zip(a, b)
        ]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_pcs_is_more_accurate_by_a_similar_factor(self):
        result = precision.run()
        assert result.rmse_pcs < result.rmse_float32
        # Paper: 1.7x lower RMSE; accept a band around it for synthetic data.
        assert 1.2 <= result.improvement <= 3.0

    def test_default_rmse_values_are_pinned(self):
        """The rendered document shows three digits; pin every bit."""
        result = precision.run()
        assert result.rmse_float32 == 4.7576098879309437e-07
        assert result.rmse_pcs == 2.918101916901257e-07

    def test_out_of_range_operands_run_without_warnings(self):
        """Scales beyond binary32 round to ±inf without an overflow warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = precision.run(outputs=8, scale_spread=80)
        assert math.isinf(result.rmse_float32) and math.isinf(result.rmse_pcs)

    def test_longer_reductions_widen_the_gap(self):
        short = precision.run(outputs=64, reduction_length=9)
        long = precision.run(outputs=64, reduction_length=81)
        assert long.improvement > short.improvement

    def test_rendered_artifact_quotes_the_paper_ratio(self, rendered):
        assert "paper: 1.7x" in rendered["precision"]


class TestGreenWave:
    def test_ntx16_estimate_in_paper_band(self):
        result = greenwave.run()
        # Paper estimates 130 Gflop/s at 11 Gflop/s W for NTX 16.
        assert result.ntx16_gflops == pytest.approx(130.0, rel=0.25)
        assert result.ntx16_gflops_w == pytest.approx(11.0, rel=0.25)

    def test_ntx_more_efficient_than_green_wave_and_gpu(self):
        result = greenwave.run()
        assert result.ntx16_gflops_w > greenwave.PAPER_VALUES["Green Wave"]["gflops_w"]
        assert result.ntx16_gflops_w > greenwave.PAPER_VALUES["GPU"]["gflops_w"]

