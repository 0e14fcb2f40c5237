"""Declarative stencil and pipeline descriptions, validated without NumPy.

This is the plain-data front end of the scenario compiler
(:mod:`repro.scenarios.compiler`): the neighborhood and coefficient
helpers and the parameter validation of stencil/pipeline scenarios.  It
imports only the standard library, so building and validating a
:class:`~repro.scenarios.spec.ScenarioSpec` of the compiled families —
which every registry import does — needs neither NumPy nor the kernel
library.  The compiler subclasses the classes here and adds the dense
kernels, command streams and golden models.

**Neighborhoods and distance classes.**  Following the ``stencil_code``
exemplars (``neighbor_definition`` groups sharing one coefficient,
``laplacian_27pt``'s alpha/beta/gamma/delta rings), a neighbor's distance
class is its Manhattan (L1) distance from the center:

* ``von_neumann`` radius ``r`` — offsets with L1 norm <= r; distance
  classes ``0..r`` (the classic diamond).
* ``moore`` radius ``r`` — offsets with Chebyshev (L-infinity) norm <= r;
  the L1 distance still grades them, giving classes ``0..dims*r``.  The
  Moore radius-1 cube in 3D is exactly the 27-point stencil: one center,
  six faces (L1=1), twelve edges (L1=2), eight corners (L1=3) — the
  alpha/beta/gamma/delta coefficient rings of ``laplacian_27pt``.

**Coefficient lattice.**  Coefficients are quantized to the binary lattice
of multiples of ``1/256`` at construction (grid data already comes from
the 1/16 lattice), so every product is a small dyadic rational and every
accumulation is exact in float64 (see the compiler's exactness model).

Validation raises ``ValueError`` messages that start with the offending
field name (``neighborhood:``, ``radius:``, ``coefficients:``,
``grid_shape:``, ``boundary:``, ``stages[i].<field>:``), so a bad
declarative spec fails before any simulation starts and names what to fix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple, Union

__all__ = [
    "BOUNDARIES",
    "COEFFICIENT_LATTICE",
    "NEIGHBORHOODS",
    "PipelineParams",
    "ReduceParams",
    "StencilParams",
    "bilateral_coefficients",
    "distance_classes",
    "gaussian_coefficients",
    "laplacian_coefficients",
    "neighborhood_offsets",
]

#: The supported neighborhood names (the ``stencil_code`` pair).
NEIGHBORHOODS = ("moore", "von_neumann")
#: The supported boundary rules.  ``valid`` shrinks the output window by
#: the radius; the padded modes keep the grid shape by pre-padding the
#: staged field (``constant`` pads 0.0, ``edge`` replicates, ``wrap`` is
#: periodic).
BOUNDARIES = ("valid", "constant", "edge", "wrap")
#: Coefficients snap to multiples of ``1/COEFFICIENT_LATTICE`` so every
#: product with the 1/16-lattice grid data stays exact in float64.
COEFFICIENT_LATTICE = 256


# --------------------------------------------------------------------------- #
# Neighborhoods                                                                #
# --------------------------------------------------------------------------- #


def distance_classes(neighborhood: str, radius: int, dims: int) -> int:
    """Number of distance classes (coefficient slots) of a neighborhood.

    Distance class = Manhattan distance from the center, so a von Neumann
    neighborhood has ``radius + 1`` classes and a Moore neighborhood
    ``dims * radius + 1`` (its corners sit at L1 distance ``dims * r``).
    """
    if neighborhood == "von_neumann":
        return radius + 1
    if neighborhood == "moore":
        return dims * radius + 1
    raise ValueError(
        f"neighborhood: unknown neighborhood {neighborhood!r}; "
        f"expected one of {NEIGHBORHOODS}"
    )


def neighborhood_offsets(
    neighborhood: str, radius: int, dims: int
) -> List[Tuple[Tuple[int, ...], int]]:
    """Every ``(offset, distance_class)`` of the neighborhood.

    Offsets are produced in lexicographic order and include the center
    ``(0, ..., 0)`` at distance 0; ``distance_class`` indexes the
    per-distance coefficient array.
    """
    distance_classes(neighborhood, radius, dims)  # validates the name
    offsets = []
    for offset in itertools.product(range(-radius, radius + 1), repeat=dims):
        l1 = sum(abs(step) for step in offset)
        if neighborhood == "von_neumann" and l1 > radius:
            continue
        offsets.append((offset, l1))
    return offsets


# --------------------------------------------------------------------------- #
# Coefficient helpers                                                          #
# --------------------------------------------------------------------------- #


def _quantize(value: float) -> float:
    """Snap ``value`` to the nearest multiple of 1/256 (exact in binary32)."""
    return round(float(value) * COEFFICIENT_LATTICE) / COEFFICIENT_LATTICE


def laplacian_coefficients(
    neighborhood: str, radius: int, dims: int
) -> Tuple[float, ...]:
    """The generalized Laplacian: ring weight 1, sum-zero center.

    Every non-center neighbor contributes with coefficient 1 and the center
    balances the sum to zero (``-N`` for ``N`` neighbors) — the discrete
    Laplace operator of the neighborhood, and what ``coefficients="auto"``
    resolves to.  All values are integers, hence lattice-exact.
    """
    offsets = neighborhood_offsets(neighborhood, radius, dims)
    neighbors = len(offsets) - 1
    return (-float(neighbors),) + (1.0,) * (distance_classes(neighborhood, radius, dims) - 1)


def gaussian_coefficients(
    radius: int, dims: int, sigma: float | None = None, neighborhood: str = "moore"
) -> Tuple[float, ...]:
    """Gaussian blur coefficients per distance ring, lattice-quantized.

    The ring at distance class ``d`` gets ``exp(-d^2 / (2 sigma^2))``
    (``sigma`` defaults to the radius); the dense kernel is normalized to
    unit sum *before* quantization, and quantized ring weights are clamped
    away from zero so every declared neighbor still contributes.
    """
    sigma = float(sigma if sigma is not None else max(radius, 1))
    classes = distance_classes(neighborhood, radius, dims)
    raw = [math.exp(-(d * d) / (2.0 * sigma * sigma)) for d in range(classes)]
    ring_sizes = [0] * classes
    for _, distance in neighborhood_offsets(neighborhood, radius, dims):
        ring_sizes[distance] += 1
    total = sum(w * n for w, n in zip(raw, ring_sizes))
    return tuple(
        max(_quantize(w / total), 1.0 / COEFFICIENT_LATTICE) for w in raw
    )


def bilateral_coefficients(
    radius: int,
    dims: int,
    sigma_space: float | None = None,
    range_weight: float = 0.5,
    neighborhood: str = "moore",
) -> Tuple[float, ...]:
    """Linearized bilateral filter coefficients per distance ring.

    A true bilateral filter weighs each neighbor by a *data-dependent*
    range kernel; the linear-stencil model replaces it with a fixed
    per-ring attenuation ``range_weight ** d`` multiplying the spatial
    Gaussian — the standard constant-range linearization that keeps the
    filter a compilable stencil (edges still attenuate far rings harder
    than a plain blur).  Normalized and lattice-quantized like
    :func:`gaussian_coefficients`.
    """
    sigma = float(sigma_space if sigma_space is not None else max(radius, 1))
    classes = distance_classes(neighborhood, radius, dims)
    raw = [
        math.exp(-(d * d) / (2.0 * sigma * sigma)) * range_weight**d
        for d in range(classes)
    ]
    ring_sizes = [0] * classes
    for _, distance in neighborhood_offsets(neighborhood, radius, dims):
        ring_sizes[distance] += 1
    total = sum(w * n for w, n in zip(raw, ring_sizes))
    return tuple(
        max(_quantize(w / total), 1.0 / COEFFICIENT_LATTICE) for w in raw
    )


# --------------------------------------------------------------------------- #
# StencilParams                                                                #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class StencilParams:
    """One declarative stencil: neighborhood + radius + coefficients + grid.

    ``coefficients`` is either the literal string ``"auto"`` (resolved to
    :func:`laplacian_coefficients`) or one coefficient per distance class
    (see :func:`distance_classes`); values snap to the 1/256 lattice at
    construction.  Validation raises ``ValueError`` naming the offending
    field.  :class:`~repro.scenarios.compiler.StencilSpec` adds the
    compilation.
    """

    neighborhood: str = "moore"
    radius: int = 1
    coefficients: Union[str, Tuple[float, ...]] = "auto"
    grid_shape: Tuple[int, ...] = (12, 14)
    boundary: str = "valid"

    def __post_init__(self) -> None:
        if self.neighborhood not in NEIGHBORHOODS:
            raise ValueError(
                f"neighborhood: unknown neighborhood {self.neighborhood!r}; "
                f"expected one of {NEIGHBORHOODS}"
            )
        if not isinstance(self.radius, int) or self.radius < 1:
            raise ValueError(
                f"radius: stencil radius must be an integer >= 1, got {self.radius!r}"
            )
        shape = tuple(self.grid_shape)
        if len(shape) not in (2, 3) or not all(
            isinstance(n, int) and n > 0 for n in shape
        ):
            raise ValueError(
                f"grid_shape: expected a 2D or 3D shape of positive sizes, "
                f"got {self.grid_shape!r}"
            )
        object.__setattr__(self, "grid_shape", shape)
        if self.boundary not in BOUNDARIES:
            raise ValueError(
                f"boundary: unknown boundary {self.boundary!r}; "
                f"expected one of {BOUNDARIES}"
            )
        classes = distance_classes(self.neighborhood, self.radius, self.dims)
        if self.coefficients != "auto":
            if isinstance(self.coefficients, str):
                raise ValueError(
                    f"coefficients: expected 'auto' or one coefficient per "
                    f"distance class, got {self.coefficients!r}"
                )
            coeffs = tuple(_quantize(c) for c in self.coefficients)
            if len(coeffs) != classes:
                raise ValueError(
                    f"coefficients: {len(coeffs)} coefficient(s) for the "
                    f"{classes} neighbor distance classes of a "
                    f"{self.neighborhood} radius-{self.radius} stencil on a "
                    f"{self.dims}D grid"
                )
            object.__setattr__(self, "coefficients", coeffs)
        if self.boundary == "valid" and min(self.output_shape) <= 0:
            raise ValueError(
                f"grid_shape: grid {shape} is too small for a radius-"
                f"{self.radius} stencil with 'valid' boundary handling "
                f"(output shape would be {self.output_shape})"
            )

    # -- derived geometry ----------------------------------------------------

    @property
    def dims(self) -> int:
        return len(self.grid_shape)

    @property
    def kernel_width(self) -> int:
        return 2 * self.radius + 1

    @property
    def padded_shape(self) -> Tuple[int, ...]:
        """Shape of the staged field (grid + 2r per dim under padded modes)."""
        if self.boundary == "valid":
            return self.grid_shape
        return tuple(n + 2 * self.radius for n in self.grid_shape)

    @property
    def output_shape(self) -> Tuple[int, ...]:
        """Shape of the compiled output region."""
        if self.boundary == "valid":
            return tuple(n - 2 * self.radius for n in self.grid_shape)
        return self.grid_shape

    def resolved_coefficients(self) -> Tuple[float, ...]:
        """The per-distance coefficients with ``"auto"`` resolved."""
        if self.coefficients == "auto":
            return laplacian_coefficients(self.neighborhood, self.radius, self.dims)
        return self.coefficients  # type: ignore[return-value]

    # -- plain-data round trip ----------------------------------------------

    def as_params(self) -> Dict[str, object]:
        """The spec as scenario ``params`` (plain data, JSON-compatible)."""
        return {
            "neighborhood": self.neighborhood,
            "radius": self.radius,
            "coefficients": self.coefficients,
            "grid_shape": self.grid_shape,
            "boundary": self.boundary,
        }

    @classmethod
    def from_params(
        cls, params: Mapping[str, object], where: str = ""
    ) -> "StencilParams":
        """Build from scenario ``params``; errors gain the ``where`` prefix."""
        known = {"neighborhood", "radius", "coefficients", "grid_shape", "boundary"}
        payload = {key: params[key] for key in known if key in params}
        coefficients = payload.get("coefficients", "auto")
        if isinstance(coefficients, (list, tuple)):
            payload["coefficients"] = tuple(float(c) for c in coefficients)
        if "grid_shape" in payload:
            payload["grid_shape"] = tuple(payload["grid_shape"])  # type: ignore[arg-type]
        try:
            return cls(**payload)  # type: ignore[arg-type]
        except ValueError as error:
            if where:
                raise ValueError(f"{where}{error}") from None
            raise


# --------------------------------------------------------------------------- #
# PipelineParams                                                               #
# --------------------------------------------------------------------------- #

#: Streaming reductions a pipeline may end in.
_REDUCE_OPS = ("sum", "max", "min")


@dataclass(frozen=True)
class ReduceParams:
    """A terminal streaming reduction over the previous stage's buffer."""

    op: str = "sum"

    def __post_init__(self) -> None:
        if self.op not in _REDUCE_OPS:
            raise ValueError(
                f"op: unknown reduce op {self.op!r}; expected one of {_REDUCE_OPS}"
            )


@dataclass(frozen=True)
class PipelineParams:
    """A chain of stencil stages, optionally ending in a reduction.

    Stage N's output buffer stays resident in the TCDM and is stage N+1's
    input, so the whole chain executes as one dependent command stream per
    tile (pinned to one co-processor; parallelism comes from scheduling
    many tiles).  Only the first stage may use a padded boundary — its
    padding happens host-side at staging time; later stages read TCDM
    buffers and must be ``valid``.
    :class:`~repro.scenarios.compiler.PipelineSpec` adds the compilation;
    its stages are the compiler's stage classes (:attr:`stencil_type` /
    :attr:`reduce_type`).
    """

    grid_shape: Tuple[int, ...]
    stages: Tuple[Union[StencilParams, ReduceParams], ...]
    #: Input shape of every stage plus the final output shape (derived).
    stage_shapes: Tuple[Tuple[int, ...], ...] = field(default=(), compare=False)

    #: The stage classes :meth:`from_params` builds and validation accepts.
    stencil_type = StencilParams
    reduce_type = ReduceParams

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("stages: a pipeline needs at least one stage")
        shape = tuple(self.grid_shape)
        shapes = [shape]
        for index, stage in enumerate(self.stages):
            if isinstance(stage, self.reduce_type):
                if index != len(self.stages) - 1:
                    raise ValueError(
                        f"stages[{index}].kind: a reduce stage must be the "
                        f"last stage of the pipeline"
                    )
                shapes.append((1,))
                continue
            if not isinstance(stage, self.stencil_type):
                raise ValueError(
                    f"stages[{index}]: expected a {self.stencil_type.__name__} "
                    f"or {self.reduce_type.__name__}, got {type(stage).__name__}"
                )
            if stage.grid_shape != shape:
                raise ValueError(
                    f"stages[{index}].grid_shape: stage declares "
                    f"{stage.grid_shape} but the previous stage produces "
                    f"{shape}"
                )
            if index > 0 and stage.boundary != "valid":
                raise ValueError(
                    f"stages[{index}].boundary: only the first pipeline "
                    f"stage may pad ({stage.boundary!r} needs host-side "
                    f"staging); later stages must use 'valid'"
                )
            shape = stage.output_shape
            shapes.append(shape)
        object.__setattr__(self, "grid_shape", tuple(self.grid_shape))
        object.__setattr__(self, "stage_shapes", tuple(shapes))

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return self.stage_shapes[-1]

    @classmethod
    def from_params(cls, params: Mapping[str, object]) -> "PipelineParams":
        """Build from scenario ``params`` (``grid_shape`` + stage dicts).

        Each stage dict carries ``kind: "stencil"`` (plus the
        :class:`StencilParams` fields; ``grid_shape`` is inherited from the
        chain and, when declared explicitly, must match it) or
        ``kind: "reduce"`` (plus ``op``).  Errors name the stage index and
        field (``stages[i].<field>: ...``).
        """
        grid_shape = tuple(params["grid_shape"])  # type: ignore[arg-type]
        raw_stages = params.get("stages", ())
        if not isinstance(raw_stages, (list, tuple)) or not raw_stages:
            raise ValueError("stages: a pipeline needs at least one stage")
        shape = grid_shape
        stages: List[Union[StencilParams, ReduceParams]] = []
        for index, raw in enumerate(raw_stages):
            where = f"stages[{index}]."
            if not isinstance(raw, Mapping):
                raise ValueError(
                    f"stages[{index}]: expected a stage mapping, got {raw!r}"
                )
            kind = raw.get("kind", "stencil")
            if kind == "reduce":
                try:
                    stage: Union[StencilParams, ReduceParams] = cls.reduce_type(
                        op=raw.get("op", "sum")  # type: ignore[arg-type]
                    )
                except ValueError as error:
                    raise ValueError(f"{where}{error}") from None
                stages.append(stage)
                shape = (1,)
                continue
            if kind != "stencil":
                raise ValueError(
                    f"stages[{index}].kind: unknown stage kind {kind!r}; "
                    f"expected 'stencil' or 'reduce'"
                )
            declared = raw.get("grid_shape")
            if declared is not None and tuple(declared) != shape:  # type: ignore[arg-type]
                raise ValueError(
                    f"stages[{index}].grid_shape: stage declares "
                    f"{tuple(declared)} but the previous stage produces "  # type: ignore[arg-type]
                    f"{shape}"
                )
            payload = dict(raw)
            payload.pop("kind", None)
            payload["grid_shape"] = shape
            stage = cls.stencil_type.from_params(payload, where=where)
            stages.append(stage)
            shape = stage.output_shape
        return cls(grid_shape=grid_shape, stages=tuple(stages))
