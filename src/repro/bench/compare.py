"""Diff benchmark documents against a committed baseline.

The baseline (``benchmarks/baseline.json``) names, per scenario, the gated
metrics and their reference values::

    {
      "schema_version": 1,
      "tolerance": 0.25,
      "gates": {
        "system-batched": {
          "simulated_cycles": 10024,
          "cache_hit_rate": 0.9688,
          "speedup_vs_sequential": 3.1
        }
      }
    }

A metric regresses when it is worse than the baseline by more than the
tolerance fraction, in the metric's own direction of goodness (fewer
simulated cycles good, higher hit rate good, ...).  A gated scenario or
metric missing from the current documents is an error, not a silent pass —
that is how CI notices a scenario being quietly dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.bench.schema import validate_document

__all__ = [
    "LOWER_IS_BETTER",
    "HIGHER_IS_BETTER",
    "MetricCheck",
    "compare_documents",
    "load_json",
    "format_report",
]

LOWER_IS_BETTER = frozenset({"simulated_cycles", "wall_time_s", "overhead_ratio"})
HIGHER_IS_BETTER = frozenset(
    {
        "cycles_per_second",
        "cache_hit_rate",
        "speedup_vs_sequential",
        "speedup_vs_cold",
    }
)


@dataclass(frozen=True)
class MetricCheck:
    """Outcome of gating one metric of one scenario."""

    scenario: str
    metric: str
    baseline: float
    current: float
    tolerance: float
    regressed: bool

    @property
    def change(self) -> float:
        """Signed fractional change, positive = worse."""
        if self.baseline == 0:
            return 0.0
        delta = (self.current - self.baseline) / abs(self.baseline)
        return delta if self.metric in LOWER_IS_BETTER else -delta

    def describe(self) -> str:
        verdict = "REGRESSION" if self.regressed else "ok"
        return (
            f"{verdict:10s} {self.scenario}/{self.metric}: "
            f"{self.current:g} vs baseline {self.baseline:g} "
            f"({self.change:+.1%} worse, tolerance {self.tolerance:.0%})"
        )


def _is_regression(
    metric: str, baseline: float, current: float, tolerance: float
) -> bool:
    if metric in LOWER_IS_BETTER:
        return current > baseline * (1.0 + tolerance)
    if metric in HIGHER_IS_BETTER:
        return current < baseline * (1.0 - tolerance)
    raise ValueError(f"metric {metric!r} has no known direction")


def compare_documents(
    baseline: Dict,
    documents: Sequence[Dict],
    tolerance: float | None = None,
) -> Tuple[List[MetricCheck], List[str]]:
    """Gate ``documents`` against ``baseline``.

    Returns ``(checks, problems)``; the comparison passes when no check
    regressed and no structural problem was found.
    """
    problems: List[str] = []
    if not isinstance(baseline.get("gates"), dict) or not baseline["gates"]:
        return [], ["baseline has no gates"]
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", 0.25))

    scenarios: Dict[str, Dict] = {}
    for document in documents:
        doc_problems = validate_document(document)
        if doc_problems:
            problems.extend(
                f"invalid document ({document.get('suite')}): {p}"
                for p in doc_problems
            )
            continue
        for scenario in document["scenarios"]:
            scenarios[scenario["name"]] = scenario

    checks: List[MetricCheck] = []
    for name, gate in sorted(baseline["gates"].items()):
        scenario = scenarios.get(name)
        if scenario is None:
            problems.append(f"gated scenario {name!r} missing from current results")
            continue
        for metric, reference in sorted(gate.items()):
            if metric not in LOWER_IS_BETTER and metric not in HIGHER_IS_BETTER:
                problems.append(
                    f"baseline gates unknown metric {metric!r} on {name!r}"
                )
                continue
            if metric not in scenario:
                problems.append(f"scenario {name!r} no longer reports {metric!r}")
                continue
            current = float(scenario[metric])
            checks.append(
                MetricCheck(
                    scenario=name,
                    metric=metric,
                    baseline=float(reference),
                    current=current,
                    tolerance=tolerance,
                    regressed=_is_regression(
                        metric, float(reference), current, tolerance
                    ),
                )
            )
    return checks, problems


def load_json(path: Path) -> Dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def format_report(checks: Sequence[MetricCheck], problems: Sequence[str]) -> str:
    lines = [check.describe() for check in checks]
    lines.extend(f"ERROR      {problem}" for problem in problems)
    regressions = sum(check.regressed for check in checks)
    lines.append(
        f"{len(checks)} gated metrics, {regressions} regressions, "
        f"{len(problems)} errors"
    )
    return "\n".join(lines)
