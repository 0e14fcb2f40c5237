"""Schema of the machine-readable benchmark documents (``BENCH_*.json``).

Hand-rolled validation — the repository's only runtime dependency is NumPy,
so no ``jsonschema`` — shared by the runner (which refuses to emit an
invalid document), the comparator (which refuses to gate on one) and the
tests.

A benchmark document looks like::

    {
      "schema_version": 1,
      "suite": "system",
      "quick": true,
      "scenarios": [
        {
          "name": "system-batched",
          "description": "...",
          "wall_time_s": 0.061,
          "simulated_cycles": 10024,
          "cycles_per_second": 164327.9,
          "cache_hit_rate": 0.969,          # optional
          "speedup_vs_sequential": 5.2       # optional
        }
      ]
    }

``simulated_cycles`` and ``cache_hit_rate`` are fully deterministic (the
cycle engines are data-oblivious and scheduling is deterministic);
``wall_time_s``/``cycles_per_second`` depend on the host,
and ``speedup_vs_sequential`` is a same-host ratio, which is what makes it
usable as a portable regression gate.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = [
    "SCHEMA_VERSION",
    "REQUIRED_METRICS",
    "OPTIONAL_METRICS",
    "validate_document",
]

SCHEMA_VERSION = 1

#: Metrics every scenario must report, with the predicate they must satisfy.
REQUIRED_METRICS = {
    "wall_time_s": lambda v: v > 0,
    "simulated_cycles": lambda v: v >= 0,
    "cycles_per_second": lambda v: v >= 0,
}

#: Metrics a scenario may report.
OPTIONAL_METRICS = {
    "cache_hit_rate": lambda v: 0.0 <= v <= 1.0,
    "speedup_vs_sequential": lambda v: v > 0,
    "points": lambda v: v >= 1,
    "speedup_vs_cold": lambda v: v > 0,
    "overhead_ratio": lambda v: v > 0,
}

_SUITES = ("system", "cluster", "scenarios", "campaigns", "report", "cache",
           "obs")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_document(document) -> List[str]:
    """Return one problem string per schema violation (empty = valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        problems.append(
            f"schema_version is {version!r}, expected {SCHEMA_VERSION}"
        )
    suite = document.get("suite")
    if suite not in _SUITES:
        problems.append(f"suite is {suite!r}, expected one of {_SUITES}")
    if not isinstance(document.get("quick"), bool):
        problems.append("quick must be a boolean")
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        problems.append("scenarios must be a non-empty list")
        return problems
    seen: Dict[str, int] = {}
    for position, scenario in enumerate(scenarios):
        where = f"scenarios[{position}]"
        if not isinstance(scenario, dict):
            problems.append(f"{where} is not an object")
            continue
        name = scenario.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where} has no name")
        elif name in seen:
            problems.append(f"{where} duplicates scenario name {name!r}")
        else:
            seen[name] = position
        for metric, valid in REQUIRED_METRICS.items():
            value = scenario.get(metric)
            if not _is_number(value):
                problems.append(f"{where} is missing numeric {metric}")
            elif not valid(value):
                problems.append(f"{where} has invalid {metric}={value!r}")
        for metric, valid in OPTIONAL_METRICS.items():
            if metric in scenario:
                value = scenario[metric]
                if not _is_number(value) or not valid(value):
                    problems.append(f"{where} has invalid {metric}={value!r}")
    return problems
