"""Benchmark: Figure 3(b) — every NTX command sustains one element per cycle.

The quick ``opcode-throughput`` campaign streams every opcode on a single
co-processor (no inter-streamer bank conflicts) through the cycle-level
model, verifying each point against its golden model; the measured
cycles per element must be close to one.
"""

import pytest

from repro.campaign import run_campaign
from repro.core.commands import NtxOpcode
from repro.options import ExecutionOptions
from repro.scenarios.spec import ScenarioSpec


def test_fig3b_command_throughput(benchmark, tmp_path):
    outcome = benchmark.pedantic(
        run_campaign,
        args=("opcode-throughput",),
        kwargs={
            "store_path": tmp_path / "opcode-throughput.jsonl",
            "options": ExecutionOptions(quick=True),
        },
        iterations=1,
        rounds=1,
    )
    throughput = {}
    for record in outcome.records:
        params = ScenarioSpec.from_dict(record["spec"]).merged_params()
        assert record["verified"], params["opcode"]
        throughput[params["opcode"]] = (
            record["metrics"]["compute_cycles"] / params["n"]
        )
    assert set(throughput) == {opcode.value for opcode in NtxOpcode}
    for opcode, cycles_per_element in throughput.items():
        assert cycles_per_element == pytest.approx(1.0, abs=0.15), opcode
