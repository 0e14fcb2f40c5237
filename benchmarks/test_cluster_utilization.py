"""Benchmark: §III-A / §III-C — cycle-level cluster simulation.

Eight concurrent NTX streams executing 3x3 convolutions contend for the
32 TCDM banks; the measured banking-conflict probability must land in the
paper's ~13 % band and the achieved throughput near the ~17.4 Gflop/s
(~87 % of peak) the paper reports as practically achievable.
"""

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.sim import ClusterSimulator
from repro.kernels.conv import conv2d_commands, conv2d_reference


def _build_jobs(cluster, rng, shape=(26, 28), kernel=3):
    img = rng.standard_normal(shape).astype(np.float32)
    weights = rng.standard_normal((kernel, kernel)).astype(np.float32)
    height, width = shape
    out_h, out_w = height - kernel + 1, width - kernel + 1
    addresses = cluster.tcdm.alloc_layout(
        [img.nbytes, weights.nbytes, out_h * out_w * 4] * cluster.config.num_ntx
    )
    jobs = []
    for i in range(cluster.config.num_ntx):
        img_addr, w_addr, out_addr = addresses[3 * i : 3 * i + 3]
        cluster.stage_in(img_addr, img)
        cluster.stage_in(w_addr, weights)
        jobs.append(
            (i, conv2d_commands(height, width, kernel, img_addr, w_addr, out_addr)[0])
        )
    return img, weights, jobs, addresses, (out_h, out_w)


def test_cluster_conflict_probability_and_utilization(benchmark):
    rng = np.random.default_rng(42)

    def run_once():
        cluster = Cluster()
        img, weights, jobs, addresses, out_shape = _build_jobs(cluster, rng)
        result = ClusterSimulator(cluster).run(jobs)
        return cluster, img, weights, addresses, out_shape, result

    cluster, img, weights, addresses, out_shape, result = benchmark.pedantic(
        run_once, iterations=1, rounds=3
    )
    summary = result.summary()
    print(
        f"\nconflict probability: {summary['conflict_probability']:.3f} (paper ~0.13)\n"
        f"achieved: {summary['gflops']:.2f} Gflop/s (paper practical max ~17.4)\n"
        f"issue-slot utilization: {summary['utilization']:.3f} (paper: up to 0.87)"
    )
    # Correctness of the contended execution.
    reference = conv2d_reference(img, weights)
    np.testing.assert_allclose(
        cluster.stage_out(addresses[2], out_shape), reference, rtol=1e-5, atol=1e-6
    )
    # Paper claims.
    assert 0.08 <= result.conflict_probability <= 0.18
    assert 14.0 <= summary["gflops"] <= 20.0
    assert result.utilization >= 0.75
