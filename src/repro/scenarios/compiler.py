"""The declarative stencil/pipeline scenario compiler.

The four original workload families are hand-written builders; this module
is the back end that turns *descriptions* into families of scenarios: a
:class:`StencilSpec` names a neighborhood (Moore or von Neumann), a radius,
one coefficient per neighbor *distance class*, a 2D/3D grid and a boundary
rule, and compiles to the tiled NTX command streams the ordinary
:class:`~repro.system.simulator.SystemSimulator` executes — plus an
auto-derived NumPy golden reference, so every compiled scenario is
golden-verified end to end like the hand-written ones.  A
:class:`PipelineSpec` chains stages: stage N's output buffer (kept resident
in the TCDM) feeds stage N+1's schedule, ending in an optional streaming
reduction.

The descriptions themselves — neighborhoods, distance classes, the
coefficient helpers and every parameter check — live in the NumPy-free
:mod:`repro.scenarios.stencils` (re-exported here), so validating a
scenario spec never imports the compiler.  The spec classes here subclass
those descriptions and add compilation.

**Compilation.**  The neighborhood + per-distance coefficients expand into
a dense ``(2r+1)^dims`` kernel (absent offsets contribute exact 0.0), which
compiles to the existing kernel library: one four-deep-loop 2D convolution
command per tile in 2D (:func:`repro.kernels.conv.conv2d_commands`), and
the per-plane accumulate decomposition in 3D
(:func:`repro.kernels.conv.conv3d_commands`) — ``kernel`` dependent
commands per output plane, each output plane's chain placed on its own
co-processor.  Boundary handling happens at staging time: ``valid`` shrinks
the output window (the paper's own setting), while ``constant``/``edge``/
``wrap`` pre-pad the staged field so the output keeps the grid shape.

**Exactness discipline.**  Coefficients are quantized to the binary lattice
of multiples of ``1/256`` at construction (grid data already comes from the
1/16 lattice), so every product is a small dyadic rational and every
accumulation is exact in float64 — the scalar engine's partial-carry-save
accumulator, the vectorized engine's float64 data plane and the golden
model all round the *same exact value* to binary32, keeping compiled
scenarios bit-identical across engines like the hand-written families.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Mapping, Tuple

import numpy as np

from repro.core.commands import NtxCommand
from repro.kernels.conv import (
    conv2d_commands,
    conv2d_f64,
    conv3d_commands,
    conv3d_reference,
)
from repro.kernels.reductions import (
    reduce_max_command,
    reduce_min_command,
    reduce_sum_command,
)
from repro.scenarios.stencils import (
    BOUNDARIES,
    COEFFICIENT_LATTICE,
    NEIGHBORHOODS,
    PipelineParams,
    ReduceParams,
    StencilParams,
    bilateral_coefficients,
    distance_classes,
    gaussian_coefficients,
    laplacian_coefficients,
    neighborhood_offsets,
)

__all__ = [
    "BOUNDARIES",
    "COEFFICIENT_LATTICE",
    "NEIGHBORHOODS",
    "PipelineSpec",
    "ReduceSpec",
    "StencilSpec",
    "bilateral_coefficients",
    "distance_classes",
    "gaussian_coefficients",
    "laplacian_coefficients",
    "neighborhood_offsets",
]

_WORD = 4

_PAD_MODES = {"constant": "constant", "edge": "edge", "wrap": "wrap"}


class StencilSpec(StencilParams):
    """A validated :class:`~repro.scenarios.stencils.StencilParams` plus
    its dense kernel, command stream and golden model."""

    def dense_kernel(self) -> np.ndarray:
        """The dense ``(2r+1)^dims`` float32 kernel (absent offsets are 0),
        expanded once per spec and shared read-only."""
        return self._dense_kernel

    @cached_property
    def _dense_kernel(self) -> np.ndarray:
        coeffs = self.resolved_coefficients()
        kernel = np.zeros((self.kernel_width,) * self.dims, dtype=np.float32)
        for offset, distance in neighborhood_offsets(
            self.neighborhood, self.radius, self.dims
        ):
            index = tuple(step + self.radius for step in offset)
            kernel[index] = np.float32(coeffs[distance])
        kernel.flags.writeable = False
        return kernel

    # -- compilation ---------------------------------------------------------

    def pad(self, grid: np.ndarray) -> np.ndarray:
        """The staged field: ``grid`` pre-padded per the boundary rule.

        Leading axes (a stack of tiles' grids) are kept, not padded.
        """
        grid = np.asarray(grid, dtype=np.float32)
        lead = grid.ndim - self.dims
        if lead < 0 or grid.shape[lead:] != self.grid_shape:
            raise ValueError(
                f"grid_shape: field of shape {grid.shape} does not match the "
                f"declared grid {self.grid_shape}"
            )
        if self.boundary == "valid":
            return grid
        widths = [(0, 0)] * lead + [(self.radius, self.radius)] * self.dims
        pad_mode = _PAD_MODES[self.boundary]
        if pad_mode == "constant":
            return np.pad(grid, widths, mode="constant", constant_values=0.0)
        return np.pad(grid, widths, mode=pad_mode)

    def commands(
        self, src_addr: int, kernel_addr: int, dst_addr: int
    ) -> Tuple[List[NtxCommand], List[int]]:
        """The compiled command stream plus a chain id per command.

        Commands sharing a chain id form a dependent accumulate sequence
        and must execute in program order on one co-processor; chains with
        different ids write disjoint output regions and may run anywhere.
        2D compiles to a single command (one chain); 3D emits
        ``kernel_width`` commands per output plane, chain id = plane index.
        """
        shape = self.padded_shape
        k = self.kernel_width
        if self.dims == 2:
            commands = conv2d_commands(
                shape[0], shape[1], k, src_addr, kernel_addr, dst_addr
            )
            return commands, [0] * len(commands)
        commands = conv3d_commands(
            shape[0], shape[1], shape[2], k, src_addr, kernel_addr, dst_addr
        )
        chains = [index // k for index in range(len(commands))]
        return commands, chains

    def reference(self, grid: np.ndarray) -> np.ndarray:
        """The auto-derived NumPy golden of the compiled stencil.

        Leading axes of ``grid`` broadcast: a stack of tiles' grids gives
        the stack of their goldens, each bit-identical to its own call.
        """
        return self.staged_reference(self.pad(grid))

    def staged_reference(self, staged: np.ndarray) -> np.ndarray:
        """:meth:`reference` of the field as staged (already padded), so a
        builder that staged it pads nothing twice."""
        kernel = self.dense_kernel()
        if self.dims == 2:
            return conv2d_f64(staged, kernel).astype(np.float32)
        return conv3d_reference(staged, kernel)


class ReduceSpec(ReduceParams):
    """A terminal streaming reduction plus its golden model."""

    def reference(self, value: np.ndarray, lead: int = 0) -> np.ndarray:
        """Golden single-word result, mirroring the engines' reductions.

        The first ``lead`` axes of ``value`` index tiles: each tile reduces
        to its own word (shape ``(*value.shape[:lead], 1)``), bit-identical
        to its own call.
        """
        value = np.asarray(value, dtype=np.float32)
        rows = value.reshape(*value.shape[:lead], -1)
        if self.op == "sum":
            reduced = rows.astype(np.float64).sum(axis=-1)
        elif self.op == "max":
            reduced = rows.max(axis=-1)
        else:
            reduced = rows.min(axis=-1)
        return np.asarray(reduced, dtype=np.float32)[..., None]


class PipelineSpec(PipelineParams):
    """A validated :class:`~repro.scenarios.stencils.PipelineParams` of
    compiler stages plus the chained command stream and golden model."""

    stencil_type = StencilSpec
    reduce_type = ReduceSpec

    def reference(self, grid: np.ndarray) -> np.ndarray:
        """Golden of the whole chain: stage goldens composed in order.

        Leading axes of ``grid`` broadcast, as in :meth:`staged_reference`.
        """
        first = self.stages[0]
        if isinstance(first, StencilSpec):
            return self.staged_reference(first.pad(grid))
        return self.staged_reference(grid)

    def staged_reference(self, staged: np.ndarray) -> np.ndarray:
        """:meth:`reference` of the input as staged (padded for a first
        stencil stage).  Leading axes index tiles: a stack of tiles' inputs
        gives the stack of their goldens, each bit-identical to its own
        call."""
        value = np.asarray(staged, dtype=np.float32)
        lead = value.ndim - len(self.grid_shape)
        for index, stage in enumerate(self.stages):
            if isinstance(stage, ReduceSpec):
                value = stage.reference(value, lead)
            elif index == 0:
                value = stage.staged_reference(value)
            else:
                value = stage.reference(value)  # later stages do not pad
        return value

    # -- compilation ---------------------------------------------------------

    def tcdm_footprint_words(self) -> int:
        """Words of TCDM the compiled chain needs (buffers + constants)."""
        words = int(np.prod(self.stages[0].padded_shape)) if isinstance(
            self.stages[0], StencilSpec
        ) else int(np.prod(self.grid_shape))
        for index, stage in enumerate(self.stages):
            if isinstance(stage, StencilSpec):
                words += stage.kernel_width**stage.dims  # dense kernel
                words += int(np.prod(self.stage_shapes[index + 1]))  # output
            else:
                words += 2  # ones constant + the reduced word
        return words

    def compile(
        self,
        layout_alloc,
        input_addr: int,
        constant_addrs: Mapping[int, int],
    ) -> Tuple[List[NtxCommand], int]:
        """Emit the chained command stream.

        ``layout_alloc(nbytes)`` allocates TCDM space for stage outputs,
        ``input_addr`` is the staged (padded) input buffer and
        ``constant_addrs`` maps stage index -> TCDM address of that stage's
        constant (dense kernel, or the 1.0 word of a sum reduction).
        Returns the commands (all one dependent chain) and the TCDM address
        of the final output buffer.
        """
        commands: List[NtxCommand] = []
        current = input_addr
        for index, stage in enumerate(self.stages):
            out_words = int(np.prod(self.stage_shapes[index + 1]))
            out_addr = layout_alloc(out_words * _WORD)
            if isinstance(stage, StencilSpec):
                stage_commands, _ = stage.commands(
                    current, constant_addrs[index], out_addr
                )
                commands.extend(stage_commands)
            else:
                n = int(np.prod(self.stage_shapes[index]))
                if stage.op == "sum":
                    commands.append(
                        reduce_sum_command(
                            n, current, constant_addrs[index], out_addr
                        )
                    )
                elif stage.op == "max":
                    commands.append(reduce_max_command(n, current, out_addr))
                else:
                    commands.append(reduce_min_command(n, current, out_addr))
            current = out_addr
        return commands, current
