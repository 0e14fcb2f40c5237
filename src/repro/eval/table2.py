"""Table II — DNN training energy efficiency of NTX configurations vs baselines.

For every NTX configuration (16x…512x clusters in 22 nm and 14 nm) the
harness reports the platform characteristics (area, LiM dies, frequency,
peak Top/s) from the scaling/area models and the per-network training
efficiency from the energy model driven by the DNN workload descriptions.
The GPU / custom-accelerator rows that the ``table2`` artifact renders next
to these are the published values the paper itself compares against (see
:mod:`repro.perf.baselines`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dnn import PAPER_NETWORKS, TrainingWorkload, build_network
from repro.perf.energy import EnergyModel
from repro.perf.scaling import NtxSystemConfig, build_ntx_configurations

__all__ = [
    "DEFAULT_BATCH",
    "PAPER_NTX_ROWS",
    "NtxRow",
    "run",
    "build_workloads",
    "resolve_workloads",
]

#: The NTX rows of Table II as printed in the paper:
#: name -> (freq GHz, peak Top/s, area mm^2, LiM, per-network Gop/sW..., geomean)
PAPER_NTX_ROWS: Dict[str, dict] = {
    "NTX (16x) 22FDX": {
        "freq_ghz": 2.50, "peak_tops": 0.640, "area_mm2": 4.8, "lim": 0,
        "eff": {"AlexNet": 19.8, "GoogLeNet": 23.7, "Inception v3": 24.3,
                "ResNet-34": 21.7, "ResNet-50": 21.4, "ResNet-152": 23.6},
        "geomean": 22.5,
    },
    "NTX (32x) 22FDX": {
        "freq_ghz": 1.90, "peak_tops": 0.973, "area_mm2": 9.6, "lim": 0,
        "eff": {"AlexNet": 25.8, "GoogLeNet": 30.9, "Inception v3": 31.6,
                "ResNet-34": 28.2, "ResNet-50": 27.9, "ResNet-152": 30.8},
        "geomean": 29.3,
    },
    "NTX (64x) 22FDX": {
        "freq_ghz": 1.43, "peak_tops": 1.466, "area_mm2": 19.3, "lim": 1,
        "eff": {"AlexNet": 32.3, "GoogLeNet": 38.8, "Inception v3": 39.7,
                "ResNet-34": 35.4, "ResNet-50": 35.0, "ResNet-152": 38.6},
        "geomean": 36.7,
    },
    "NTX (16x) 14nm": {
        "freq_ghz": 3.50, "peak_tops": 0.896, "area_mm2": 1.9, "lim": 0,
        "eff": {"AlexNet": 31.6, "GoogLeNet": 37.9, "Inception v3": 38.8,
                "ResNet-34": 34.6, "ResNet-50": 34.2, "ResNet-152": 37.7},
        "geomean": 35.9,
    },
    "NTX (32x) 14nm": {
        "freq_ghz": 2.66, "peak_tops": 1.362, "area_mm2": 3.9, "lim": 0,
        "eff": {"AlexNet": 41.8, "GoogLeNet": 50.1, "Inception v3": 51.3,
                "ResNet-34": 45.8, "ResNet-50": 45.2, "ResNet-152": 49.9},
        "geomean": 47.5,
    },
    "NTX (64x) 14nm": {
        "freq_ghz": 1.88, "peak_tops": 1.920, "area_mm2": 7.7, "lim": 0,
        "eff": {"AlexNet": 53.2, "GoogLeNet": 63.8, "Inception v3": 65.3,
                "ResNet-34": 58.3, "ResNet-50": 57.6, "ResNet-152": 63.5},
        "geomean": 60.4,
    },
    "NTX (128x) 14nm": {
        "freq_ghz": 0.94, "peak_tops": 1.920, "area_mm2": 15.4, "lim": 1,
        "eff": {"AlexNet": 62.1, "GoogLeNet": 74.6, "Inception v3": 76.2,
                "ResNet-34": 68.1, "ResNet-50": 67.2, "ResNet-152": 74.2},
        "geomean": 70.6,
    },
    "NTX (256x) 14nm": {
        "freq_ghz": 0.47, "peak_tops": 1.920, "area_mm2": 30.8, "lim": 2,
        "eff": {"AlexNet": 66.9, "GoogLeNet": 80.3, "Inception v3": 82.1,
                "ResNet-34": 73.3, "ResNet-50": 72.4, "ResNet-152": 79.8},
        "geomean": 76.0,
    },
    "NTX (512x) 14nm": {
        "freq_ghz": 0.23, "peak_tops": 1.920, "area_mm2": 61.6, "lim": 3,
        "eff": {"AlexNet": 69.3, "GoogLeNet": 83.2, "Inception v3": 85.0,
                "ResNet-34": 75.9, "ResNet-50": 75.0, "ResNet-152": 82.7},
        "geomean": 78.7,
    },
}


@dataclass
class NtxRow:
    """One modelled NTX row of Table II."""

    config: NtxSystemConfig
    efficiency: Dict[str, float] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def geomean(self) -> float:
        values = list(self.efficiency.values())
        return math.exp(sum(math.log(v) for v in values) / len(values))

    @property
    def paper(self) -> Optional[dict]:
        return PAPER_NTX_ROWS.get(self.name)


#: Training batch of the Table II workloads.
DEFAULT_BATCH = 64


def build_workloads(batch: int = DEFAULT_BATCH) -> Dict[str, TrainingWorkload]:
    """Training workloads for the six Table II networks."""
    return {
        name: TrainingWorkload(build_network(name), batch=batch)
        for name in PAPER_NETWORKS
    }


def resolve_workloads(
    batch: int, workloads: Optional[Dict[str, TrainingWorkload]]
) -> Dict[str, TrainingWorkload]:
    """``workloads`` if given, else the Table II workloads at ``batch``.

    Given workloads carry their own batch, so a non-default ``batch``
    next to them is a conflict and raises :class:`ValueError`.
    """
    if workloads is None:
        return build_workloads(batch)
    if batch != DEFAULT_BATCH:
        raise ValueError(
            f"batch={batch} conflicts with the given workloads; pass one or the other"
        )
    return workloads


def run(
    batch: int = DEFAULT_BATCH,
    energy_model: Optional[EnergyModel] = None,
    workloads: Optional[Dict[str, TrainingWorkload]] = None,
) -> List[NtxRow]:
    """Model every NTX row of Table II.

    ``workloads`` (see :func:`resolve_workloads`) lets a caller share one
    build with :func:`repro.eval.fig6.run`.
    """
    energy = energy_model or EnergyModel()
    workloads = resolve_workloads(batch, workloads)
    rows: List[NtxRow] = []
    for config in build_ntx_configurations():
        efficiency = {
            name: energy.training_efficiency(
                config, workload.operational_intensity, workload.utilization()
            )
            for name, workload in workloads.items()
        }
        rows.append(NtxRow(config=config, efficiency=efficiency))
    return rows
