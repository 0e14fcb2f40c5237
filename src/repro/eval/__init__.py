"""Analytic paper models and the ``python -m repro.eval`` command line.

The harness modules hold the computations behind the analytic rows of
the paper's tables and figures: each exposes a ``run()`` function
returning a structured result (the paper's reported value and the
model's value where applicable) plus the ``PAPER_*`` constants the
results are checked against.  They do not render anything: the artifacts
of :mod:`repro.report` call them, combine them with golden-verified
campaign measurements and render the result — ``python -m repro.eval
NAME`` prints one artifact, ``python -m repro.eval report --all`` writes
``docs/paper_results.md``.
"""

from repro.eval import table1, table2, fig5, fig6, fig7, precision, greenwave

__all__ = [
    "table1",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "precision",
    "greenwave",
]
