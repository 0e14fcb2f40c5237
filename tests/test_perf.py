"""Performance/area/energy model tests against the paper's published figures."""

import pytest

from repro.kernels.blas import axpy_spec, gemm_spec
from repro.kernels.conv import conv2d_spec
from repro.perf import (
    ClusterAreaModel,
    EnergyModel,
    KernelExecutionModel,
    RooflineModel,
    SystemAreaModel,
    TECH_14NM,
    TECH_22FDX,
    build_ntx_configurations,
)
from repro.perf.baselines import (
    GPU_BASELINES,
    all_baselines,
    best_gpu_area_efficiency,
    best_gpu_geomean,
)
from repro.perf.scaling import NtxSystemConfig, largest_configuration_without_lim
from repro.perf.technology import scale_area, scale_energy


class TestTechnology:
    def test_energy_reference_is_9_3_pj(self):
        assert TECH_22FDX.energy_per_flop_ref == pytest.approx(9.3e-12)

    def test_energy_scales_down_with_frequency(self):
        slow = TECH_22FDX.frequency_scaled_energy(0.6e9)
        fast = TECH_22FDX.frequency_scaled_energy(2.5e9)
        assert slow < TECH_22FDX.energy_per_flop_ref < fast

    def test_area_scaling_is_quadratic(self):
        scaled = scale_area(1.0, TECH_22FDX, TECH_14NM)
        assert scaled == pytest.approx((14 / 22) ** 2)

    def test_energy_scaling_between_nodes(self):
        assert scale_energy(1.0, TECH_22FDX, TECH_14NM) == pytest.approx(0.55)
        assert scale_energy(1.0, TECH_14NM, TECH_22FDX) == 1.0  # no up-scaling

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            TECH_22FDX.frequency_scaled_energy(0)


class TestAreaModels:
    def test_cluster_macro_area_matches_figure4(self):
        model = ClusterAreaModel()
        assert model.total_mm2 == pytest.approx(0.51, abs=0.01)
        breakdown = model.breakdown()
        assert sum(breakdown.values()) == pytest.approx(model.total_mm2)
        # TCDM and NTX dominate the floorplan.
        assert breakdown["tcdm"] > breakdown["riscv_core"]
        assert breakdown["ntx"] > breakdown["icache"]

    def test_lim_die_requirements_match_table2(self):
        expected = {
            (TECH_22FDX, 16): 0, (TECH_22FDX, 32): 0, (TECH_22FDX, 64): 1,
            (TECH_14NM, 64): 0, (TECH_14NM, 128): 1, (TECH_14NM, 256): 2, (TECH_14NM, 512): 3,
        }
        for (tech, clusters), lim in expected.items():
            model = SystemAreaModel(technology=tech, num_clusters=clusters)
            assert model.lim_dies_required == lim, (tech.name, clusters)

    def test_system_area_matches_table2(self):
        assert SystemAreaModel(TECH_22FDX, 16).total_cluster_area_mm2 == pytest.approx(4.8, rel=0.05)
        assert SystemAreaModel(TECH_14NM, 512).total_cluster_area_mm2 == pytest.approx(61.6, rel=0.05)


class TestScaling:
    def test_frequencies_match_table2_within_10_percent(self):
        paper = {
            ("22FDX", 16): 2.50, ("22FDX", 32): 1.90, ("22FDX", 64): 1.43,
            ("14nm", 16): 3.50, ("14nm", 32): 2.66, ("14nm", 64): 1.88,
            ("14nm", 128): 0.94, ("14nm", 256): 0.47, ("14nm", 512): 0.23,
        }
        for config in build_ntx_configurations():
            expected = paper[(config.technology.name, config.num_clusters)]
            assert config.frequency_hz / 1e9 == pytest.approx(expected, rel=0.10)

    def test_peak_plateau_at_bandwidth_limit(self):
        big = [c for c in build_ntx_configurations() if c.num_clusters >= 128]
        for config in big:
            assert config.peak_tops == pytest.approx(1.92, rel=0.02)

    def test_largest_no_lim_configurations(self):
        assert largest_configuration_without_lim(TECH_22FDX).num_clusters == 32
        assert largest_configuration_without_lim(TECH_14NM).num_clusters == 64

    def test_summary_contains_table_columns(self):
        summary = NtxSystemConfig(TECH_22FDX, 16).summary()
        assert set(summary) >= {"area_mm2", "lim", "freq_ghz", "peak_tops"}


class TestEnergyModel:
    def test_cluster_power_matches_table1(self):
        energy = EnergyModel()
        assert energy.cluster_power() * 1e3 == pytest.approx(186.0, rel=0.05)
        assert energy.cluster_efficiency() == pytest.approx(108.0, rel=0.05)

    def test_geomean_efficiencies_match_table2_within_20_percent(self):
        paper = {
            "NTX (16x) 22FDX": 22.5, "NTX (32x) 22FDX": 29.3, "NTX (64x) 22FDX": 36.7,
            "NTX (16x) 14nm": 35.9, "NTX (32x) 14nm": 47.5, "NTX (64x) 14nm": 60.4,
            "NTX (128x) 14nm": 70.6, "NTX (256x) 14nm": 76.0, "NTX (512x) 14nm": 78.7,
        }
        energy = EnergyModel()
        for config in build_ntx_configurations():
            efficiency = energy.training_efficiency(config, operational_intensity=6.0)
            assert efficiency == pytest.approx(paper[config.name], rel=0.20), config.name

    def test_efficiency_improves_with_cluster_count(self):
        energy = EnergyModel()
        efficiencies = [
            energy.training_efficiency(c, 6.0)
            for c in build_ntx_configurations()
            if c.technology is TECH_14NM
        ]
        assert efficiencies == sorted(efficiencies)

    def test_lower_intensity_reduces_efficiency(self):
        energy = EnergyModel()
        config = NtxSystemConfig(TECH_14NM, 64)
        assert energy.training_efficiency(config, 3.0) < energy.training_efficiency(config, 9.0)

    def test_breakdown_components_positive(self):
        energy = EnergyModel()
        breakdown = energy.training_breakdown(NtxSystemConfig(TECH_22FDX, 16), 6.0)
        assert breakdown.compute_power_w > 0
        assert breakdown.dram_power_w > 0
        assert breakdown.static_power_w > 0
        assert breakdown.energy_per_flop_j > 0

    def test_invalid_intensity(self):
        with pytest.raises(ValueError):
            EnergyModel().training_efficiency(NtxSystemConfig(TECH_22FDX, 16), 0.0)


class TestRoofline:
    def test_roofs_match_paper(self):
        roofline = RooflineModel()
        assert roofline.peak_flops == pytest.approx(20e9)
        assert roofline.peak_bandwidth == pytest.approx(5e9)
        assert roofline.ridge_point == pytest.approx(4.0)
        assert roofline.practical_flops == pytest.approx(17.4e9, rel=0.01)
        assert roofline.practical_bandwidth == pytest.approx(4.35e9, rel=0.01)

    def test_bound_classification(self):
        roofline = RooflineModel()
        assert roofline.bound_of(0.5) == "memory"
        assert roofline.bound_of(10.0) == "compute"

    def test_attainable_clamps_to_roofs(self):
        roofline = RooflineModel()
        assert roofline.attainable(100.0) == pytest.approx(20e9)
        assert roofline.attainable(0.1) == pytest.approx(0.5e9)

    def test_small_problems_pay_overhead(self):
        roofline = RooflineModel()
        small = roofline.place(axpy_spec(16))
        large = roofline.place(axpy_spec(16384))
        assert small.performance_flops < large.performance_flops
        assert small.operational_intensity == pytest.approx(large.operational_intensity)

    def test_conv_kernels_compute_bound_near_practical_peak(self):
        roofline = RooflineModel()
        for kernel in (3, 5, 7):
            point = roofline.place(conv2d_spec(kernel))
            assert point.bound == "compute"
            assert point.performance_gflops > 15.0

    def test_axi_width_sweep_matches_paper_discussion(self):
        roofline = RooflineModel()
        sweep = roofline.bandwidth_sweep([64, 128, 256])
        assert sweep[64]["ridge_flop_per_byte"] == pytest.approx(4.0)
        assert sweep[128]["ridge_flop_per_byte"] == pytest.approx(2.0)
        assert sweep[256]["ridge_flop_per_byte"] == pytest.approx(1.0)

    def test_invalid_conflict_probability(self):
        with pytest.raises(ValueError):
            RooflineModel(conflict_probability=1.5)


class TestKernelExecutionModel:
    def test_compute_bound_kernel_utilization_matches_paper_claim(self):
        model = KernelExecutionModel()
        utilization = model.peak_utilization(gemm_spec(1024))
        # "NTX can consistently achieve up to 87% of its peak performance."
        assert 0.80 <= utilization <= 0.88

    def test_memory_bound_kernel_limited_by_bandwidth(self):
        model = KernelExecutionModel()
        performance = model.evaluate(axpy_spec(1 << 20))
        assert not performance.compute_bound
        assert performance.achieved_bandwidth_gbs <= 5.0
        assert performance.achieved_gflops < 2.0

    def test_runtime_positive_and_consistent(self):
        model = KernelExecutionModel()
        result = model.evaluate(conv2d_spec(3))
        assert result.runtime_s > 0
        assert result.achieved_flops == pytest.approx(result.flops / result.runtime_s)


class TestBaselines:
    def test_geomean_recomputation_close_to_reported(self):
        # Where the paper lists per-network values, the geometric mean we
        # recompute must be close to its reported mean column.
        for baseline in GPU_BASELINES:
            assert baseline.geomean_efficiency > 0

    def test_best_gpu_selection(self):
        assert best_gpu_geomean((28, 28)).name == "Titan X"
        assert best_gpu_geomean((14, 16)).name == "Tesla P100"
        assert best_gpu_area_efficiency((14, 16)).name == "GTX 1080 Ti"

    def test_area_efficiency_of_gpus_is_low(self):
        for gpu in GPU_BASELINES:
            assert gpu.area_efficiency_gops_per_mm2 < 30

    def test_all_baselines_enumeration(self):
        names = {b.name for b in all_baselines()}
        assert {"Tesla K80", "DaDianNao", "ScaleDeep", "NS (16x)"} <= names

    def test_no_gpu_in_range_raises(self):
        with pytest.raises(ValueError):
            best_gpu_geomean((5, 7))
