"""Benchmark: regenerate Table I (figures of merit of one NTX cluster).

Run with ``pytest benchmarks/ --benchmark-only``.  The benchmark times the
model evaluation and checks every derived figure against the paper's value.
"""

import pytest

from repro.eval import table1


def test_table1_figures_of_merit(benchmark):
    rows = benchmark(table1.run)
    for name, paper, model in rows:
        assert model == pytest.approx(paper, rel=0.05), name
