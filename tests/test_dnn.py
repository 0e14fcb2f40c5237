"""DNN workload description tests: layers, networks and the training model."""

from dataclasses import FrozenInstanceError

import pytest

from repro.dnn import (
    ConvLayer,
    LinearLayer,
    PoolLayer,
    ActivationLayer,
    PAPER_NETWORKS,
    TrainingWorkload,
    build_alexnet,
    build_googlenet,
    build_inception_v3,
    build_network,
    build_resnet,
    layer_traffic,
)
from repro.dnn import networks
from repro.dnn.training import _best_tiling_traffic, _conv_like_dimensions

#: (flops, DRAM bytes) of one batch-64 training step with a 64 KiB TCDM.
STEP_TOTALS_BATCH64 = {
    "AlexNet": (436163678208, 68820519136),
    "GoogLeNet": (608725334016, 72887011616),
    "Inception v3": (3030053343232, 257644551520),
    "ResNet-34": (1407574802432, 83530446560),
    "ResNet-50": (1571720724480, 311981622496),
    "ResNet-152": (4424170930176, 833291470048),
}


class _LayerBuilder(networks._Builder):
    """The per-``Layer`` construction the geometry rows replaced.

    One named layer object per layer, its output shape read off the
    object; the composite blocks are inherited, so driving the network
    builders with this class gives the layers of the same definitions.
    """

    def __init__(self, name, channels, height, width):
        super().__init__(name, channels, height, width)
        self.layers = []

    def _add(self, kind, prefix, **fields):
        layer = kind(
            name=f"{prefix}{len(self.layers) + 1}",
            in_channels=self.channels,
            in_height=self.height,
            in_width=self.width,
            **fields,
        )
        self.layers.append(layer)
        self.channels, self.height, self.width = layer.output_shape

    def conv(self, out_channels, kernel, stride=1, padding=0, relu=True):
        self._add(
            ConvLayer, "conv",
            out_channels_=out_channels, kernel=kernel, stride=stride, padding=padding,
        )
        if relu:
            self.relu()

    def relu(self):
        self._add(ActivationLayer, "relu")

    def pool(self, kernel, stride, padding=0):
        self._add(PoolLayer, "pool", kernel=kernel, stride=stride, padding=padding)

    def linear(self, out_features, relu=False):
        self._add(LinearLayer, "fc", out_features=out_features)
        if relu:
            self.relu()

    def network(self):
        return self.layers


def oracle_layers(name, monkeypatch):
    """The layers of network ``name``, built one object at a time."""
    with monkeypatch.context() as patch:
        patch.setattr(networks, "_Builder", _LayerBuilder)
        return networks._BUILDERS[name]()


class TestLayers:
    def test_conv_geometry(self):
        layer = ConvLayer(
            name="c", in_channels=3, in_height=224, in_width=224,
            out_channels_=64, kernel=7, stride=2, padding=3,
        )
        assert layer.output_shape == (64, 112, 112)
        assert layer.param_count == 7 * 7 * 3 * 64 + 64
        assert layer.forward_macs == 112 * 112 * 64 * 3 * 49

    def test_conv_training_flops_are_three_forward_passes(self):
        layer = ConvLayer(
            name="c", in_channels=8, in_height=16, in_width=16,
            out_channels_=8, kernel=3, padding=1,
        )
        assert layer.training_flops == 3 * layer.forward_flops

    def test_linear_layer(self):
        layer = LinearLayer(
            name="fc", in_channels=256, in_height=6, in_width=6, out_features=4096
        )
        assert layer.forward_macs == 256 * 36 * 4096
        assert layer.param_count == 256 * 36 * 4096 + 4096
        assert layer.output_shape == (4096, 1, 1)

    def test_pool_layer_has_no_params(self):
        layer = PoolLayer(name="p", in_channels=64, in_height=56, in_width=56, kernel=2, stride=2)
        assert layer.param_count == 0
        assert layer.output_shape == (64, 28, 28)
        assert layer.training_flops == 2 * layer.forward_flops

    def test_activation_layer(self):
        layer = ActivationLayer(name="r", in_channels=16, in_height=4, in_width=4)
        assert layer.forward_flops == 16 * 16
        assert not layer.is_compute_layer


class TestNetworks:
    def test_all_paper_networks_build(self):
        for name in PAPER_NETWORKS:
            network = build_network(name)
            assert network.layers, name
            assert network.forward_macs > 0

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError):
            build_network("VGG-16")

    def test_alexnet_statistics(self):
        net = build_alexnet()
        # ~61 M parameters, dominated by the fully-connected layers.
        assert 55e6 < net.param_count < 70e6
        assert 0.6e9 < net.forward_macs < 1.5e9

    def test_googlenet_statistics(self):
        net = build_googlenet()
        assert 5e6 < net.param_count < 9e6
        assert 1.0e9 < net.forward_macs < 2.2e9

    def test_resnet_family_ordering(self):
        r34, r50, r152 = build_resnet(34), build_resnet(50), build_resnet(152)
        assert r34.forward_macs < r152.forward_macs
        assert r50.forward_macs < r152.forward_macs
        assert 18e6 < r34.param_count < 26e6
        assert 22e6 < r50.param_count < 30e6
        assert 50e6 < r152.param_count < 70e6

    def test_inception_v3_statistics(self):
        net = build_inception_v3()
        assert 20e6 < net.param_count < 40e6
        assert 4e9 < net.forward_macs < 10e9

    def test_unsupported_resnet_depth(self):
        with pytest.raises(ValueError):
            build_resnet(18)

    def test_network_summary(self):
        summary = build_alexnet().summary()
        assert summary["name"] == "AlexNet"
        assert summary["training_gflops"] > summary["forward_gmacs"]


class TestTrainingModel:
    def test_layer_traffic_scales_with_batch(self):
        layer = ConvLayer(
            name="c", in_channels=64, in_height=28, in_width=28,
            out_channels_=64, kernel=3, padding=1,
        )
        small = layer_traffic(layer, batch=8)
        large = layer_traffic(layer, batch=64)
        assert large.flops == 8 * small.flops
        assert large.total_bytes > small.total_bytes

    def test_parameter_free_layer_traffic(self):
        layer = PoolLayer(name="p", in_channels=32, in_height=8, in_width=8, kernel=2, stride=2)
        traffic = layer_traffic(layer, batch=4)
        assert traffic.update_bytes == 0
        assert traffic.forward_bytes == 4 * (layer.input_bytes + layer.output_bytes)

    def test_workload_operational_intensity_in_plausible_band(self):
        for name in PAPER_NETWORKS:
            workload = TrainingWorkload(build_network(name), batch=64)
            # The paper's energy numbers imply single-digit flop/byte.
            assert 2.0 < workload.operational_intensity < 25.0, name

    def test_fully_connected_heavy_network_has_lowest_intensity(self):
        intensities = {
            name: TrainingWorkload(build_network(name), batch=64).operational_intensity
            for name in ("AlexNet", "GoogLeNet", "Inception v3")
        }
        assert intensities["AlexNet"] < intensities["Inception v3"]

    def test_utilization_below_one_and_degrades_with_conflicts(self):
        workload = TrainingWorkload(build_network("GoogLeNet"), batch=32)
        assert 0.5 < workload.utilization() < 1.0
        assert workload.utilization(conflict_probability=0.3) < workload.utilization()

    def test_larger_tcdm_reduces_traffic(self):
        net = build_network("ResNet-50")
        small = TrainingWorkload(net, batch=16, tcdm_bytes=32 * 1024)
        large = TrainingWorkload(net, batch=16, tcdm_bytes=256 * 1024)
        assert large.dram_bytes_per_step <= small.dram_bytes_per_step

    def test_step_totals_are_pinned(self):
        for name, totals in STEP_TOTALS_BATCH64.items():
            workload = TrainingWorkload(build_network(name), batch=64)
            assert (workload.flops_per_step, workload.dram_bytes_per_step) == totals

    def test_cached_tiling_search_matches_the_search(self):
        for name in PAPER_NETWORKS:
            for layer in build_network(name).layers:
                dims = _conv_like_dimensions(layer)
                if dims is None:
                    continue
                for batch in (16, 64):
                    for tcdm in (32 * 1024, 64 * 1024, 256 * 1024):
                        args = (*dims, batch, tcdm)
                        assert _best_tiling_traffic(*args) == (
                            _best_tiling_traffic.__wrapped__(*args)
                        ), (name, layer.name, args)

    def test_workload_is_frozen(self):
        workload = TrainingWorkload(build_network("AlexNet"), batch=16)
        with pytest.raises(FrozenInstanceError):
            workload.batch = 64

    def test_summary_fields(self):
        workload = TrainingWorkload(build_network("AlexNet"), batch=16)
        summary = workload.summary()
        assert summary["network"] == "AlexNet"
        assert summary["gflops_per_step"] > 0
        assert summary["dram_gb_per_step"] > 0


class TestGeometryRows:
    """The rows give what one layer object per layer gave, layer by layer.

    The totals catch a dropped layer; the per-layer traffic and the
    layers catch a dropped, reordered or renamed one.
    """

    @pytest.mark.parametrize("name", PAPER_NETWORKS)
    def test_layers_equal_the_object_construction(self, name, monkeypatch):
        expected = oracle_layers(name, monkeypatch)
        layers = build_network(name).layers
        assert len(layers) == len(expected)
        for index, (layer, oracle) in enumerate(zip(layers, expected)):
            assert layer == oracle, (name, index)

    @pytest.mark.parametrize("tcdm_kib", (32, 64, 256))
    @pytest.mark.parametrize("batch", (16, 64))
    @pytest.mark.parametrize("name", PAPER_NETWORKS)
    def test_workload_equals_the_per_layer_sum(self, name, batch, tcdm_kib, monkeypatch):
        tcdm = tcdm_kib * 1024
        expected = oracle_layers(name, monkeypatch)
        traffic = [layer_traffic(layer, batch, tcdm) for layer in expected]
        flops = sum(t.flops for t in traffic)
        mac_flops = sum(
            t.flops for layer, t in zip(expected, traffic) if layer.is_compute_layer
        )
        workload = TrainingWorkload(build_network(name), batch=batch, tcdm_bytes=tcdm)
        assert workload.flops_per_step == flops
        assert workload.dram_bytes_per_step == sum(t.total_bytes for t in traffic)
        assert workload.mac_fraction == mac_flops / flops
        per_layer = workload.per_layer
        assert len(per_layer) == len(traffic)
        for index, (entry, oracle) in enumerate(zip(per_layer, traffic)):
            assert entry == oracle, (name, index)
