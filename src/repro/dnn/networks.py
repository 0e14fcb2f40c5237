"""Layer-by-layer descriptions of the six networks evaluated in Table II.

The builders record each network as a flat sequence of geometry rows, one
``(kind, geometry)`` pair per layer: ``kind`` is a
:class:`~repro.dnn.layers.Layer` subclass and ``geometry`` its fields after
``name``, with concrete input geometries (ImageNet-sized 224x224 inputs,
299x299 for Inception v3).  The training model of
:mod:`repro.dnn.training` accounts flops and DRAM traffic per row, cached
per geometry, so describing a network builds no layer object;
:attr:`Network.layers` builds them, named ``conv1``, ``relu2``, ... in
layer order, only when a caller asks.  The descriptions follow the
original publications ([20] AlexNet, [10] GoogLeNet, [21] Inception v3,
[11] ResNets); auxiliary classifier heads are omitted, as is conventional
when quoting training cost.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Type

from repro.dnn.layers import ActivationLayer, ConvLayer, Layer, LinearLayer, PoolLayer

__all__ = [
    "Network",
    "build_alexnet",
    "build_googlenet",
    "build_inception_v3",
    "build_resnet",
    "build_network",
    "PAPER_NETWORKS",
]

#: One layer: its class and its fields after ``name``, in declaration order.
Row = Tuple[Type[Layer], tuple]

#: The name prefix of each layer kind; the suffix is the layer's 1-based index.
_PREFIX: Dict[type, str] = {
    ConvLayer: "conv",
    ActivationLayer: "relu",
    PoolLayer: "pool",
    LinearLayer: "fc",
}


@functools.lru_cache(maxsize=4096)
def _output_shape(kind: Type[Layer], geometry: tuple) -> Tuple[int, int, int]:
    """``output_shape`` of a ``kind`` layer with the fields ``geometry``."""
    return kind("", *geometry).output_shape


@dataclass(frozen=True)
class Network:
    """A named, flat stack of layers, held as geometry rows."""

    name: str
    rows: Tuple[Row, ...] = ()

    @functools.cached_property
    def layers(self) -> Tuple[Layer, ...]:
        """The layer objects of the rows, named ``conv1``, ``relu2``, ..."""
        return tuple(
            kind(name, *geometry)
            for name, (kind, geometry) in zip(self.layer_names, self.rows)
        )

    @property
    def layer_names(self) -> List[str]:
        """The names of :attr:`layers`, without building them."""
        return [f"{_PREFIX[kind]}{index}" for index, (kind, _) in enumerate(self.rows, start=1)]

    @property
    def forward_macs(self) -> int:
        return sum(layer.forward_macs for layer in self.layers)

    @property
    def forward_flops(self) -> int:
        return sum(layer.forward_flops for layer in self.layers)

    @property
    def training_flops(self) -> int:
        return sum(layer.training_flops for layer in self.layers)

    @property
    def param_count(self) -> int:
        return sum(layer.param_count for layer in self.layers)

    @property
    def param_bytes(self) -> int:
        return sum(layer.param_bytes for layer in self.layers)

    @property
    def activation_bytes(self) -> int:
        """Bytes of activations produced by one forward pass of one image."""
        return sum(layer.output_bytes for layer in self.layers)

    def compute_layers(self) -> List[Layer]:
        return [layer for layer in self.layers if layer.is_compute_layer]

    def summary(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "layers": len(self.rows),
            "params_m": self.param_count / 1e6,
            "forward_gmacs": self.forward_macs / 1e9,
            "training_gflops": self.training_flops / 1e9,
        }


class _Builder:
    """Tracks the activation geometry while layer rows are appended."""

    def __init__(self, name: str, channels: int, height: int, width: int) -> None:
        self.name = name
        self.rows: List[Row] = []
        self.channels = channels
        self.height = height
        self.width = width

    def network(self) -> Network:
        return Network(self.name, tuple(self.rows))

    def _append(self, kind: Type[Layer], *fields: int) -> None:
        """Append a ``kind`` row on the current geometry and move past it.

        ``fields`` are the kind's fields after the input geometry, every
        one given, so equal layers have equal rows.
        """
        geometry = (self.channels, self.height, self.width, *fields)
        self.rows.append((kind, geometry))
        self.channels, self.height, self.width = _output_shape(kind, geometry)

    def conv(
        self,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        relu: bool = True,
    ) -> None:
        # out_channels_, kernel, stride, padding, groups
        self._append(ConvLayer, out_channels, kernel, stride, padding, 1)
        if relu:
            self.relu()

    def relu(self) -> None:
        self._append(ActivationLayer, 1)  # flops_per_element

    def pool(self, kernel: int, stride: int, padding: int = 0) -> None:
        self._append(PoolLayer, kernel, stride, padding)

    def global_pool(self) -> None:
        self.pool(kernel=self.height, stride=self.height)

    def linear(self, out_features: int, relu: bool = False) -> None:
        self._append(LinearLayer, out_features)
        if relu:
            self.relu()

    # -- composite blocks -------------------------------------------------------------

    def inception_v1(
        self, b1: int, b3r: int, b3: int, b5r: int, b5: int, pool_proj: int
    ) -> None:
        """A GoogLeNet inception module (four parallel branches, concatenated).

        The branches all see the same input geometry; the builder appends
        them sequentially (the flop/traffic accounting is additive) and then
        fixes the concatenated channel count.
        """
        in_c, h, w = self.channels, self.height, self.width
        for out_c, kernel, padding, reduce_c in (
            (b1, 1, 0, None),
            (b3, 3, 1, b3r),
            (b5, 5, 2, b5r),
            (pool_proj, 1, 0, None),
        ):
            self.channels, self.height, self.width = in_c, h, w
            if reduce_c is not None:
                self.conv(reduce_c, kernel=1)
            self.conv(out_c, kernel=kernel, padding=padding)
        self.channels = b1 + b3 + b5 + pool_proj
        self.height, self.width = h, w

    def residual_basic(self, out_channels: int, stride: int = 1) -> None:
        """A ResNet-18/34 basic block: two 3x3 convolutions plus a shortcut."""
        in_c, h, w = self.channels, self.height, self.width
        self.conv(out_channels, kernel=3, stride=stride, padding=1)
        self.conv(out_channels, kernel=3, stride=1, padding=1, relu=False)
        if stride != 1 or in_c != out_channels:
            save = (self.channels, self.height, self.width)
            self.channels, self.height, self.width = in_c, h, w
            self.conv(out_channels, kernel=1, stride=stride, relu=False)
            self.channels, self.height, self.width = save
        self.relu()

    def residual_bottleneck(self, mid_channels: int, stride: int = 1) -> None:
        """A ResNet-50/101/152 bottleneck block: 1x1 - 3x3 - 1x1 convolutions."""
        in_c, h, w = self.channels, self.height, self.width
        out_channels = mid_channels * 4
        self.conv(mid_channels, kernel=1)
        self.conv(mid_channels, kernel=3, stride=stride, padding=1)
        self.conv(out_channels, kernel=1, relu=False)
        if stride != 1 or in_c != out_channels:
            save = (self.channels, self.height, self.width)
            self.channels, self.height, self.width = in_c, h, w
            self.conv(out_channels, kernel=1, stride=stride, relu=False)
            self.channels, self.height, self.width = save
        self.relu()


# --------------------------------------------------------------------------- #
# AlexNet                                                                      #
# --------------------------------------------------------------------------- #


def build_alexnet() -> Network:
    """AlexNet [20]: five convolutions and three large fully-connected layers."""
    b = _Builder("AlexNet", channels=3, height=227, width=227)
    b.conv(96, kernel=11, stride=4)
    b.pool(3, 2)
    b.conv(256, kernel=5, padding=2)
    b.pool(3, 2)
    b.conv(384, kernel=3, padding=1)
    b.conv(384, kernel=3, padding=1)
    b.conv(256, kernel=3, padding=1)
    b.pool(3, 2)
    b.linear(4096, relu=True)
    b.linear(4096, relu=True)
    b.linear(1000)
    return b.network()


# --------------------------------------------------------------------------- #
# GoogLeNet (Inception v1)                                                     #
# --------------------------------------------------------------------------- #


def build_googlenet() -> Network:
    """GoogLeNet [10]: the 22-layer inception-v1 network (auxiliary heads omitted)."""
    b = _Builder("GoogLeNet", channels=3, height=224, width=224)
    b.conv(64, kernel=7, stride=2, padding=3)
    b.pool(3, 2, padding=1)
    b.conv(64, kernel=1)
    b.conv(192, kernel=3, padding=1)
    b.pool(3, 2, padding=1)
    b.inception_v1(64, 96, 128, 16, 32, 32)       # 3a
    b.inception_v1(128, 128, 192, 32, 96, 64)     # 3b
    b.pool(3, 2, padding=1)
    b.inception_v1(192, 96, 208, 16, 48, 64)      # 4a
    b.inception_v1(160, 112, 224, 24, 64, 64)     # 4b
    b.inception_v1(128, 128, 256, 24, 64, 64)     # 4c
    b.inception_v1(112, 144, 288, 32, 64, 64)     # 4d
    b.inception_v1(256, 160, 320, 32, 128, 128)   # 4e
    b.pool(3, 2, padding=1)
    b.inception_v1(256, 160, 320, 32, 128, 128)   # 5a
    b.inception_v1(384, 192, 384, 48, 128, 128)   # 5b
    b.global_pool()
    b.linear(1000)
    return b.network()


# --------------------------------------------------------------------------- #
# Inception v3                                                                 #
# --------------------------------------------------------------------------- #


def build_inception_v3() -> Network:
    """Inception v3 [21], expressed with its factorised inception modules.

    The module structure follows the original paper (figure-5/6/7 modules);
    branch concatenation is handled the same way as for GoogLeNet.
    """
    b = _Builder("Inception v3", channels=3, height=299, width=299)
    b.conv(32, kernel=3, stride=2)
    b.conv(32, kernel=3)
    b.conv(64, kernel=3, padding=1)
    b.pool(3, 2)
    b.conv(80, kernel=1)
    b.conv(192, kernel=3)
    b.pool(3, 2)

    def module_a(pool_features: int) -> None:
        in_c, h, w = b.channels, b.height, b.width
        branches = 0
        # 1x1 branch
        b.channels, b.height, b.width = in_c, h, w
        b.conv(64, kernel=1)
        branches += 64
        # 5x5 branch
        b.channels, b.height, b.width = in_c, h, w
        b.conv(48, kernel=1)
        b.conv(64, kernel=5, padding=2)
        branches += 64
        # double 3x3 branch
        b.channels, b.height, b.width = in_c, h, w
        b.conv(64, kernel=1)
        b.conv(96, kernel=3, padding=1)
        b.conv(96, kernel=3, padding=1)
        branches += 96
        # pool branch
        b.channels, b.height, b.width = in_c, h, w
        b.conv(pool_features, kernel=1)
        branches += pool_features
        b.channels, b.height, b.width = branches, h, w

    def reduction_a() -> None:
        in_c, h, w = b.channels, b.height, b.width
        b.conv(384, kernel=3, stride=2)
        out_h, out_w = b.height, b.width
        b.channels, b.height, b.width = in_c, h, w
        b.conv(64, kernel=1)
        b.conv(96, kernel=3, padding=1)
        b.conv(96, kernel=3, stride=2)
        b.channels, b.height, b.width = 384 + 96 + in_c, out_h, out_w

    def module_b(c7: int) -> None:
        in_c, h, w = b.channels, b.height, b.width
        # 7x7 convolutions factorised into 1x7 and 7x1; we model each pair as
        # one 7x7-equivalent-cost pair of asymmetric kernels (cost of a 1x7
        # equals a 7x1 equals 7 MACs/pixel, approximated via kernel=7 rows).
        b.channels, b.height, b.width = in_c, h, w
        b.conv(192, kernel=1)
        b.channels, b.height, b.width = in_c, h, w
        b.conv(c7, kernel=1)
        b.conv(c7, kernel=7, padding=3)  # stands for 1x7 + 7x1 at half cost each
        b.conv(192, kernel=1)
        b.channels, b.height, b.width = in_c, h, w
        b.conv(c7, kernel=1)
        b.conv(c7, kernel=7, padding=3)
        b.conv(192, kernel=1)
        b.channels, b.height, b.width = in_c, h, w
        b.conv(192, kernel=1)
        b.channels, b.height, b.width = 192 * 4, h, w

    def reduction_b() -> None:
        in_c, h, w = b.channels, b.height, b.width
        b.conv(192, kernel=1)
        b.conv(320, kernel=3, stride=2)
        out_h, out_w = b.height, b.width
        b.channels, b.height, b.width = in_c, h, w
        b.conv(192, kernel=1)
        b.conv(192, kernel=7, padding=3)
        b.conv(192, kernel=3, stride=2)
        b.channels, b.height, b.width = 320 + 192 + in_c, out_h, out_w

    def module_c() -> None:
        in_c, h, w = b.channels, b.height, b.width
        b.conv(320, kernel=1)
        b.channels, b.height, b.width = in_c, h, w
        b.conv(384, kernel=1)
        b.conv(384, kernel=3, padding=1)  # stands for the 1x3 + 3x1 pair
        b.channels, b.height, b.width = in_c, h, w
        b.conv(448, kernel=1)
        b.conv(384, kernel=3, padding=1)
        b.conv(384, kernel=3, padding=1)
        b.channels, b.height, b.width = in_c, h, w
        b.conv(192, kernel=1)
        b.channels, b.height, b.width = 320 + 768 + 768 + 192, h, w

    module_a(32)
    module_a(64)
    module_a(64)
    reduction_a()
    module_b(128)
    module_b(160)
    module_b(160)
    module_b(192)
    reduction_b()
    module_c()
    module_c()
    b.global_pool()
    b.linear(1000)
    return b.network()


# --------------------------------------------------------------------------- #
# ResNets                                                                      #
# --------------------------------------------------------------------------- #

_RESNET_STAGES = {
    34: ("basic", (3, 4, 6, 3)),
    50: ("bottleneck", (3, 4, 6, 3)),
    152: ("bottleneck", (3, 8, 36, 3)),
}


def build_resnet(depth: int) -> Network:
    """ResNet-34/50/152 [11] with the standard four-stage layout."""
    if depth not in _RESNET_STAGES:
        raise ValueError(f"unsupported ResNet depth {depth}; choose from {sorted(_RESNET_STAGES)}")
    block_type, stage_blocks = _RESNET_STAGES[depth]
    b = _Builder(f"ResNet-{depth}", channels=3, height=224, width=224)
    b.conv(64, kernel=7, stride=2, padding=3)
    b.pool(3, 2, padding=1)
    stage_channels = (64, 128, 256, 512)
    for stage, (channels, blocks) in enumerate(zip(stage_channels, stage_blocks)):
        for block in range(blocks):
            stride = 2 if (stage > 0 and block == 0) else 1
            if block_type == "basic":
                b.residual_basic(channels, stride=stride)
            else:
                b.residual_bottleneck(channels, stride=stride)
    b.global_pool()
    b.linear(1000)
    return b.network()


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #

PAPER_NETWORKS: Tuple[str, ...] = (
    "AlexNet",
    "GoogLeNet",
    "Inception v3",
    "ResNet-34",
    "ResNet-50",
    "ResNet-152",
)

_BUILDERS: Dict[str, Callable[[], Network]] = {
    "AlexNet": build_alexnet,
    "GoogLeNet": build_googlenet,
    "Inception v3": build_inception_v3,
    "ResNet-34": lambda: build_resnet(34),
    "ResNet-50": lambda: build_resnet(50),
    "ResNet-152": lambda: build_resnet(152),
}


def build_network(name: str) -> Network:
    """Build one of the six Table II networks by name."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown network {name!r}; choose from {sorted(_BUILDERS)}")
    return _BUILDERS[name]()
