#!/usr/bin/env python3
"""DNN training efficiency study (Table II / Figure 6 of the paper).

Builds the six networks the paper evaluates, derives each one's training
flops, DRAM traffic and operational intensity under the cluster's 64 kB
TCDM tiling constraints, and evaluates the energy efficiency of every NTX
configuration (16x…512x clusters in 22 nm and 14 nm) against the published
GPU and accelerator baselines.

The Table II and Figure 6 results are printed as the registered paper
artifacts of ``repro.report`` — the same Markdown ``python -m repro.eval
table2 fig6 --quick`` prints — built into a throwaway campaign store.

Run with ``python examples/dnn_training_efficiency.py``.
"""

from tempfile import TemporaryDirectory

from repro.dnn import PAPER_NETWORKS, TrainingWorkload, build_network
from repro.report import render_artifact, run_report


def main() -> None:
    print("=== DNN training workloads (batch 64) ===")
    for name in PAPER_NETWORKS:
        network = build_network(name)
        workload = TrainingWorkload(network, batch=64)
        summary = workload.summary()
        print(
            f"  {name:13s} {network.param_count / 1e6:6.1f} M params, "
            f"{summary['gflops_per_step']:8.1f} Gflop/step, "
            f"{summary['dram_gb_per_step']:6.2f} GB/step, "
            f"OI {summary['operational_intensity']:5.2f} flop/B"
        )

    with TemporaryDirectory() as store_dir:
        results = run_report(["table2", "fig6"], quick=True, store_dir=store_dir)
    for result in results:
        print()
        print(render_artifact(result))


if __name__ == "__main__":
    main()
