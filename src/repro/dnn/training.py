"""Training-step cost model: flops, DRAM traffic and operational intensity.

The processing clusters have only 64 kB of TCDM, so a DNN layer is executed
as a sequence of tiles: a block of output pixels, a block of input channels
and a block of output channels whose operands fit the scratchpad (double
buffered).  Data that does not stay resident between tiles has to be
re-streamed from the HMC DRAM, which is what determines the operational
intensity — and through it the energy efficiency — of a training step.

For every layer the model searches a small space of tile shapes for the one
with the least DRAM traffic, then accounts:

* the forward pass: inputs re-read once per output-channel block, weights
  re-read once per pixel tile, outputs written once per input-channel block;
* the backward-data pass (same structure with in/out roles swapped); and
* the backward-weights pass (activations and output gradients streamed,
  weight gradients written once).

Parameter-free layers (pooling, ReLU) stream their activations once in each
direction.  The per-step traffic of the optimiser update (read gradient,
read weight, write weight) is included once per step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.dnn.layers import ConvLayer, Layer, LinearLayer
from repro.dnn.networks import Network

__all__ = ["LayerTraffic", "layer_traffic", "TrainingWorkload"]

_WORD = 4


@dataclass(frozen=True)
class LayerTraffic:
    """DRAM traffic of one layer for one training step (whole batch)."""

    name: str
    flops: int
    forward_bytes: int
    backward_bytes: int
    update_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.forward_bytes + self.backward_bytes + self.update_bytes

    @property
    def operational_intensity(self) -> float:
        return self.flops / self.total_bytes if self.total_bytes else math.inf


def _conv_like_dimensions(layer: Layer) -> Optional[tuple]:
    """(out_pixels, in_channels, out_channels, kernel_elems) of a MAC layer."""
    if isinstance(layer, ConvLayer):
        return (
            layer.out_height * layer.out_width,
            layer.in_channels // layer.groups,
            layer.out_channels,
            layer.kernel * layer.kernel,
        )
    if isinstance(layer, LinearLayer):
        return (1, layer.input_elements, layer.out_features, 1)
    return None


@functools.lru_cache(maxsize=4096)
def _best_tiling_traffic(
    out_pixels: int,
    in_channels: int,
    out_channels: int,
    kernel_elems: int,
    batch: int,
    tcdm_bytes: int,
) -> int:
    """Minimum-forward-traffic tiling of one MAC layer, in bytes.

    The tile holds a block of ``p`` output pixels, ``ci`` input channels and
    ``co`` output channels: inputs ``p*ci``, partial sums ``p*co`` and
    weights ``kernel*ci*co`` words, double buffered into half the TCDM.
    The search is pure integer code, so its result is cached per layer
    shape: the six paper networks have 121 distinct MAC-layer shapes among
    395 MAC layers.
    """
    budget_words = tcdm_bytes // (2 * _WORD)
    input_elems = out_pixels * in_channels  # proportional; reuse of halo ignored
    output_elems = out_pixels * out_channels
    weight_elems = kernel_elems * in_channels * out_channels

    best = None
    # The candidate blocks reflect how the NTX driver of [12] schedules a
    # layer: every co-processor produces the partial sums of a small group of
    # output channels (its accumulator holds one at a time), the input-channel
    # reduction runs inside one command, and the pixel tile is whatever fits.
    for p in (1, 4, 16, 64, 196, 784):
        p = min(p, out_pixels)
        for ci in (8, 16, 32, 64):
            ci = min(ci, in_channels)
            for co in (1, 2, 4, 8):
                co = min(co, out_channels)
                footprint = p * ci + p * co + kernel_elems * ci * co
                if footprint > budget_words:
                    continue
                n_co_groups = math.ceil(out_channels / co)
                n_ci_groups = math.ceil(in_channels / ci)
                n_pixel_tiles = math.ceil(out_pixels / p)
                traffic_words = (
                    batch * input_elems * n_co_groups  # inputs per out-chan group
                    + batch * weight_elems * 0  # weights counted below
                    + batch * output_elems * n_ci_groups  # psum write/re-read
                )
                # Weights are re-streamed for every pixel tile of every image
                # unless the whole layer's weights fit the budget.
                if weight_elems <= budget_words:
                    weight_traffic = weight_elems * batch
                else:
                    weight_traffic = weight_elems * batch * 0 + (
                        kernel_elems * ci * co
                    ) * n_ci_groups * n_co_groups * n_pixel_tiles * batch
                traffic_words += weight_traffic
                if best is None or traffic_words < best:
                    best = traffic_words
    if best is None:
        # Degenerate layer larger than any tile: stream everything per MAC row.
        best = batch * (input_elems + output_elems + weight_elems)
    return best * _WORD


class _LayerCost(NamedTuple):
    """Flops and DRAM bytes of one layer geometry for one training step."""

    flops: int
    forward_bytes: int
    backward_bytes: int
    update_bytes: int
    #: ``flops`` if the layer does MAC work the NTX runs at full rate, else 0.
    mac_flops: int


@functools.lru_cache(maxsize=4096)
def _geometry_cost(
    kind: type, geometry: tuple, batch: int, tcdm_bytes: int
) -> _LayerCost:
    """The cost of a ``kind`` layer with the fields ``geometry``.

    Keyed on the geometry, not the name: the six paper networks have 202
    distinct layer geometries among 790 layers.
    """
    layer = kind("", *geometry)
    flops = layer.training_flops * batch
    mac_flops = flops if layer.is_compute_layer else 0
    dims = _conv_like_dimensions(layer)
    if dims is None:
        # Parameter-free layer: stream activations once forward, once backward.
        forward = batch * (layer.input_bytes + layer.output_bytes)
        return _LayerCost(flops, forward, forward, 0, mac_flops)
    out_pixels, in_channels, out_channels, kernel_elems = dims
    forward = _best_tiling_traffic(
        out_pixels, in_channels, out_channels, kernel_elems, batch, tcdm_bytes
    )
    # Backward-data mirrors the forward pass; backward-weights streams the
    # same operands again to form the weight gradients.  Optimiser update:
    # read gradient, read weight, write weight — once per step,
    # independent of the batch size.
    return _LayerCost(flops, forward, 2 * forward, 3 * layer.param_bytes, mac_flops)


def _layer_cost(layer: Layer, batch: int, tcdm_bytes: int) -> _LayerCost:
    # Every field of the layer but ``name``, which ``Layer`` declares first.
    geometry = tuple(vars(layer).values())[1:]
    return _geometry_cost(type(layer), geometry, batch, tcdm_bytes)


def layer_traffic(layer: Layer, batch: int, tcdm_bytes: int = 64 * 1024) -> LayerTraffic:
    """DRAM traffic and flop count of ``layer`` for one training step."""
    return LayerTraffic(layer.name, *_layer_cost(layer, batch, tcdm_bytes)[:4])


@dataclass(frozen=True)
class TrainingWorkload:
    """One training step of a network on the NTX system.

    The per-step totals are summed once at construction; the workload is
    frozen so they cannot go stale.
    """

    network: Network
    batch: int = 64
    tcdm_bytes: int = 64 * 1024
    _layers: Tuple[Layer, ...] = field(init=False, repr=False, compare=False)
    _costs: Tuple[_LayerCost, ...] = field(init=False, repr=False, compare=False)
    #: Flops of one training step (whole batch).
    flops_per_step: int = field(init=False, repr=False, compare=False)
    #: DRAM bytes of one training step (whole batch).
    dram_bytes_per_step: int = field(init=False, repr=False, compare=False)
    #: Fraction of the flops that are MAC work the NTX runs at full rate.
    mac_fraction: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        layers = tuple(self.network.layers)
        costs = tuple(_layer_cost(layer, self.batch, self.tcdm_bytes) for layer in layers)
        flops = sum(cost.flops for cost in costs)
        mac_flops = sum(cost.mac_flops for cost in costs)
        object.__setattr__(self, "_layers", layers)
        object.__setattr__(self, "_costs", costs)
        object.__setattr__(self, "flops_per_step", flops)
        object.__setattr__(
            self,
            "dram_bytes_per_step",
            sum(cost.forward_bytes + cost.backward_bytes + cost.update_bytes for cost in costs),
        )
        object.__setattr__(self, "mac_fraction", mac_flops / flops if flops else 0.0)

    @property
    def name(self) -> str:
        return self.network.name

    @property
    def per_layer(self) -> List[LayerTraffic]:
        return [
            LayerTraffic(layer.name, *cost[:4])
            for layer, cost in zip(self._layers, self._costs)
        ]

    @property
    def operational_intensity(self) -> float:
        """Flop per DRAM byte of one training step (the OI the energy model uses)."""
        return self.flops_per_step / self.dram_bytes_per_step

    def utilization(self, conflict_probability: float = 0.13) -> float:
        """Sustained fraction of system peak while training.

        MAC layers run at the banking-conflict de-rated issue rate; the
        element-wise remainder of the work (activations, pooling,
        normalisation) runs at one operand per cycle instead of one FMAC per
        cycle and therefore at half weight.
        """
        mac = self.mac_fraction
        return (1.0 - conflict_probability) * (mac + 0.5 * (1.0 - mac))

    def summary(self) -> Dict[str, float]:
        return {
            "network": self.name,
            "batch": self.batch,
            "gflops_per_step": self.flops_per_step / 1e9,
            "dram_gb_per_step": self.dram_bytes_per_step / 1e9,
            "operational_intensity": self.operational_intensity,
            "utilization": self.utilization(),
        }
