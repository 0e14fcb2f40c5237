"""The declarative scenario compiler: neighborhoods, coefficient rings,
validation error paths, compiled goldens, the differential pin against the
hand-written stencil family, and pipeline chaining."""

import json

import numpy as np
import pytest

from repro.kernels.conv import conv2d_f64, conv3d_reference
from repro.scenarios import ScenarioSpec, get_scenario, run_scenario
from repro.scenarios.compiler import (
    COEFFICIENT_LATTICE,
    PipelineSpec,
    ReduceSpec,
    StencilSpec,
    bilateral_coefficients,
    distance_classes,
    gaussian_coefficients,
    laplacian_coefficients,
    neighborhood_offsets,
)


class TestNeighborhoods:
    def test_moore_radius1_3d_is_the_27_point_cube(self):
        offsets = neighborhood_offsets("moore", 1, 3)
        assert len(offsets) == 27
        # L1 distance grades the cube into center/faces/edges/corners.
        by_distance = {}
        for _, distance in offsets:
            by_distance[distance] = by_distance.get(distance, 0) + 1
        assert by_distance == {0: 1, 1: 6, 2: 12, 3: 8}

    def test_von_neumann_radius1_3d_is_the_7_point_diamond(self):
        assert len(neighborhood_offsets("von_neumann", 1, 3)) == 7

    def test_von_neumann_radius2_2d_is_the_13_point_diamond(self):
        assert len(neighborhood_offsets("von_neumann", 2, 2)) == 13

    def test_distance_class_counts(self):
        assert distance_classes("von_neumann", 2, 3) == 3
        assert distance_classes("moore", 2, 3) == 7
        assert distance_classes("moore", 1, 2) == 3

    def test_unknown_neighborhood_names_the_field(self):
        with pytest.raises(ValueError, match="^neighborhood:"):
            neighborhood_offsets("hexagonal", 1, 2)


class TestCoefficients:
    def test_laplacian_rings_sum_to_zero(self):
        for neighborhood, radius, dims in (
            ("moore", 1, 3),
            ("von_neumann", 2, 2),
        ):
            coeffs = laplacian_coefficients(neighborhood, radius, dims)
            total = 0.0
            for _, distance in neighborhood_offsets(neighborhood, radius, dims):
                total += coeffs[distance]
            assert total == 0.0

    def test_gaussian_rings_are_on_the_lattice_and_decreasing(self):
        coeffs = gaussian_coefficients(radius=2, dims=2)
        assert len(coeffs) == distance_classes("moore", 2, 2)
        for value in coeffs:
            assert value * COEFFICIENT_LATTICE == round(value * COEFFICIENT_LATTICE)
            assert value > 0.0
        assert list(coeffs) == sorted(coeffs, reverse=True)

    def test_bilateral_attenuates_far_rings_harder_than_gaussian(self):
        gauss = gaussian_coefficients(radius=2, dims=2)
        bilateral = bilateral_coefficients(radius=2, dims=2, range_weight=0.25)
        # Normalized ring profiles: the bilateral's relative tail weight is
        # smaller (the fixed range kernel multiplies the spatial Gaussian).
        assert bilateral[-1] / bilateral[0] < gauss[-1] / gauss[0]


class TestStencilSpecValidation:
    """Satellite: every documented error path names the offending field."""

    def test_unknown_neighborhood(self):
        with pytest.raises(ValueError, match="^neighborhood: unknown"):
            StencilSpec(neighborhood="hexagonal")

    def test_radius_zero(self):
        with pytest.raises(ValueError, match="^radius: .*>= 1"):
            StencilSpec(radius=0)

    def test_coefficient_count_mismatch(self):
        # Moore r=1 2D has 3 distance classes; 2 coefficients must fail.
        with pytest.raises(ValueError, match=r"^coefficients: 2 .*3 .*distance"):
            StencilSpec(neighborhood="moore", radius=1, coefficients=(1.0, -1.0))

    def test_coefficients_neither_auto_nor_array(self):
        with pytest.raises(ValueError, match="^coefficients: expected 'auto'"):
            StencilSpec(coefficients="gaussian")

    def test_bad_grid_shapes(self):
        with pytest.raises(ValueError, match="^grid_shape:"):
            StencilSpec(grid_shape=(16,))  # 1D
        with pytest.raises(ValueError, match="^grid_shape:"):
            StencilSpec(grid_shape=(8, -4))
        with pytest.raises(ValueError, match="^grid_shape: .*too small"):
            StencilSpec(radius=2, grid_shape=(4, 4), boundary="valid")

    def test_unknown_boundary(self):
        with pytest.raises(ValueError, match="^boundary: unknown"):
            StencilSpec(boundary="mirror")

    def test_errors_surface_at_scenario_spec_construction(self):
        """The family's validate hook fires before any simulation."""
        with pytest.raises(ValueError, match="radius"):
            ScenarioSpec(name="bad", family="cstencil", params={"radius": 0})
        with pytest.raises(ValueError, match="neighborhood"):
            ScenarioSpec(
                name="bad", family="cstencil", params={"neighborhood": "hex"}
            )

    def test_coefficients_quantize_to_the_lattice(self):
        spec = StencilSpec(
            neighborhood="von_neumann", radius=1, coefficients=(0.1, 0.2)
        )
        for value in spec.resolved_coefficients():
            assert value * COEFFICIENT_LATTICE == round(value * COEFFICIENT_LATTICE)


class TestPipelineValidation:
    """Satellite: pipeline error paths name the stage index and field."""

    def _stage(self, **overrides):
        stage = {
            "kind": "stencil",
            "neighborhood": "von_neumann",
            "radius": 1,
            "coefficients": "auto",
            "boundary": "valid",
        }
        stage.update(overrides)
        return stage

    def test_stage_grid_shape_mismatch(self):
        # Stage 0 shrinks (10, 10) to (8, 8); a stage declaring (10, 10) fails.
        with pytest.raises(ValueError, match=r"^stages\[1\]\.grid_shape:"):
            PipelineSpec.from_params(
                {
                    "grid_shape": (10, 10),
                    "stages": (
                        self._stage(),
                        self._stage(grid_shape=(10, 10)),
                    ),
                }
            )

    def test_reduce_must_be_last(self):
        with pytest.raises(ValueError, match=r"^stages\[0\]\.kind: .*last"):
            PipelineSpec(
                grid_shape=(8, 8),
                stages=(ReduceSpec("sum"), StencilSpec(grid_shape=(8, 8))),
            )

    def test_padding_only_on_the_first_stage(self):
        with pytest.raises(ValueError, match=r"^stages\[1\]\.boundary:"):
            PipelineSpec.from_params(
                {
                    "grid_shape": (10, 10),
                    "stages": (
                        self._stage(),
                        self._stage(boundary="edge"),
                    ),
                }
            )

    def test_unknown_stage_kind_and_reduce_op(self):
        with pytest.raises(ValueError, match=r"^stages\[0\]\.kind: unknown"):
            PipelineSpec.from_params(
                {"grid_shape": (8, 8), "stages": ({"kind": "fft"},)}
            )
        with pytest.raises(ValueError, match=r"^stages\[0\]\.op: unknown"):
            PipelineSpec.from_params(
                {"grid_shape": (8, 8), "stages": ({"kind": "reduce", "op": "mean"},)}
            )

    def test_empty_pipeline(self):
        with pytest.raises(ValueError, match="^stages:"):
            PipelineSpec.from_params({"grid_shape": (8, 8), "stages": ()})

    def test_stage_errors_carry_the_stencil_field_name(self):
        with pytest.raises(ValueError, match=r"^stages\[0\]\.radius:"):
            PipelineSpec.from_params(
                {"grid_shape": (8, 8), "stages": (self._stage(radius=0),)}
            )


class TestCompiledGoldens:
    def test_dense_27_point_laplacian_kernel(self):
        spec = StencilSpec(
            neighborhood="moore", radius=1, grid_shape=(4, 4, 4)
        )
        kernel = spec.dense_kernel()
        assert kernel.shape == (3, 3, 3)
        assert kernel[1, 1, 1] == -26.0  # center balances the 26 neighbors
        assert kernel[0, 1, 1] == 1.0  # face (L1 = 1)
        assert kernel[0, 0, 1] == 1.0  # edge (L1 = 2)
        assert kernel[0, 0, 0] == 1.0  # corner (L1 = 3)
        assert float(kernel.sum()) == 0.0

    def test_auto_von_neumann_radius1_2d_is_the_5_point_laplacian(self):
        spec = StencilSpec(
            neighborhood="von_neumann", radius=1, grid_shape=(6, 6)
        )
        expected = np.array(
            [[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=np.float32
        )
        assert np.array_equal(spec.dense_kernel(), expected)

    def test_2d_reference_matches_direct_convolution(self):
        rng = np.random.default_rng(5)
        grid = (rng.integers(-32, 32, size=(8, 9)) / 16.0).astype(np.float32)
        spec = StencilSpec(
            neighborhood="moore", radius=1, grid_shape=(8, 9), boundary="valid"
        )
        expected = conv2d_f64(grid, spec.dense_kernel()).astype(np.float32)
        assert np.array_equal(spec.reference(grid), expected)

    def test_3d_reference_matches_kernel_library(self):
        rng = np.random.default_rng(6)
        grid = (rng.integers(-32, 32, size=(5, 6, 6)) / 16.0).astype(np.float32)
        spec = StencilSpec(
            neighborhood="von_neumann",
            radius=1,
            grid_shape=(5, 6, 6),
            boundary="valid",
        )
        expected = conv3d_reference(grid, spec.dense_kernel())
        assert np.array_equal(spec.reference(grid), expected)

    def test_padded_boundary_keeps_the_grid_shape(self):
        for boundary in ("constant", "edge", "wrap"):
            spec = StencilSpec(grid_shape=(6, 7), boundary=boundary)
            assert spec.output_shape == (6, 7)
            assert spec.padded_shape == (8, 9)

    def test_pipeline_reference_composes_stage_goldens(self):
        pipe = PipelineSpec.from_params(
            {
                "grid_shape": (8, 8),
                "stages": (
                    {
                        "kind": "stencil",
                        "neighborhood": "moore",
                        "radius": 1,
                        "coefficients": gaussian_coefficients(radius=1, dims=2),
                        "boundary": "edge",
                    },
                    {
                        "kind": "stencil",
                        "neighborhood": "von_neumann",
                        "radius": 1,
                        "coefficients": "auto",
                        "boundary": "valid",
                    },
                    {"kind": "reduce", "op": "sum"},
                ),
            }
        )
        assert pipe.stage_shapes == ((8, 8), (8, 8), (6, 6), (1,))
        rng = np.random.default_rng(7)
        grid = (rng.integers(-32, 32, size=(8, 8)) / 16.0).astype(np.float32)
        blurred = pipe.stages[0].reference(grid)
        sharpened = pipe.stages[1].reference(blurred)
        expected = np.array(
            [sharpened.ravel().astype(np.float64).sum()], dtype=np.float32
        )
        assert np.array_equal(pipe.reference(grid), expected)


class TestDifferentialAgainstHandWritten:
    """Satellite: the compiled vN r=1 Laplace pins to the proven builder.

    The hand-written ``stencil`` family computes the 5-point Laplacian as
    two separable (1, -2, 1) passes with an intermediate binary32 rounding;
    the compiler emits one dense 3x3 convolution.  On lattice-valued fields
    both paths are exact, so tile-for-tile the staged inputs, the goldens
    AND the simulated HMC output regions must be *byte*-identical.  (Whole
    HMC images differ by construction: the families stage different
    constants — 3 taps vs a 9-word dense kernel — so the layouts shift.)
    """

    def test_compiled_laplace_matches_stencil_family_byte_for_byte(self):
        compiled = run_scenario("cstencil-laplace2d-vn", num_tiles=3)
        hand_written = run_scenario("stencil-laplace2d", num_tiles=3)
        assert len(compiled.workload.references) == 3
        assert len(hand_written.workload.references) == 3
        for (_, golden_c), (_, golden_h) in zip(
            compiled.workload.references, hand_written.workload.references
        ):
            assert golden_c.tobytes() == golden_h.tobytes()
        for produced_c, produced_h in zip(
            compiled.output_arrays(), hand_written.output_arrays()
        ):
            assert produced_c.tobytes() == produced_h.tobytes()


class TestCompiledScenarioRoundTrips:
    def test_registered_compiled_specs_survive_json(self):
        for name in (
            "cstencil-laplace27",
            "cstencil-heat3d",
            "cstencil-gauss-blur",
            "cstencil-bilateral",
            "pipeline-blur-stencil-reduce",
        ):
            spec = get_scenario(name)
            assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_pipeline_run_verifies_and_reduces_to_one_word(self):
        outcome = run_scenario(
            "pipeline-blur-stencil-reduce", num_tiles=2, num_vaults=1,
            clusters_per_vault=1,
        )
        assert outcome.verified
        for produced in outcome.output_arrays():
            assert produced.shape == (1,)
