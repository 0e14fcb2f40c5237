"""DNN training workloads (Table II, Figure 6).

The paper evaluates NTX on training six convolutional networks — AlexNet,
GoogLeNet, Inception v3, ResNet-34/50/152 — at full binary32 precision.
This package describes those networks layer by layer
(:mod:`repro.dnn.networks`), accounts the floating-point work and the DRAM
traffic of one training step under the cluster's TCDM tiling constraints
(:mod:`repro.dnn.training`), and exposes the resulting operational intensity
and utilization to the energy model of :mod:`repro.perf`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dnn.layers import (
        ActivationLayer,
        ConvLayer,
        Layer,
        LinearLayer,
        PoolLayer,
    )
    from repro.dnn.networks import (
        Network,
        PAPER_NETWORKS,
        build_alexnet,
        build_googlenet,
        build_inception_v3,
        build_network,
        build_resnet,
    )
    from repro.dnn.training import LayerTraffic, TrainingWorkload, layer_traffic

__all__ = [
    "Layer",
    "ConvLayer",
    "LinearLayer",
    "PoolLayer",
    "ActivationLayer",
    "Network",
    "build_alexnet",
    "build_googlenet",
    "build_inception_v3",
    "build_resnet",
    "build_network",
    "PAPER_NETWORKS",
    "TrainingWorkload",
    "LayerTraffic",
    "layer_traffic",
]

# Public name -> defining submodule, imported on first access (repro._lazy).
_EXPORTS = {
    "Layer": "layers",
    "ConvLayer": "layers",
    "LinearLayer": "layers",
    "PoolLayer": "layers",
    "ActivationLayer": "layers",
    "Network": "networks",
    "build_alexnet": "networks",
    "build_googlenet": "networks",
    "build_inception_v3": "networks",
    "build_resnet": "networks",
    "build_network": "networks",
    "PAPER_NETWORKS": "networks",
    "TrainingWorkload": "training",
    "LayerTraffic": "training",
    "layer_traffic": "training",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
