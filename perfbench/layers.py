"""Arithmetic of the layered benchmark, kept free of any simulator import.

* :func:`percentile` — timing percentiles, linear between closest ranks.
* :func:`span_forest` / :func:`self_seconds` — nest a flat list of spans by
  their time intervals and compute each span's self time (its duration
  minus the part its direct children cover).
* :func:`attribute` — map self time onto the layers named after the
  repository's modules; whatever the mapped layers leave of the measured
  total is the ``unattributed`` residual.
* :func:`invariant_mismatches` / :class:`Tally` — invariant checks that
  count as failed operations, not as slow ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence

#: Layer that receives the self time of each span name.  Spans whose name
#: is not listed (``scenario``, ``cluster-tiles``, ``report``) keep their
#: self time in the ``unattributed`` residual.
LAYER_OF_SPAN: Dict[str, str] = {
    # The benchmark's own span around ``run_scenario``: the call minus its
    # ``scenario`` span is simulator construction, i.e. the HMC fill.
    "bench.run_scenario": "mem.setup_s",
    # A campaign point wraps exactly one ``run_scenario`` call.
    "point": "mem.setup_s",
    "build-workload": "scenarios.build_s",
    "verify": "scenarios.verify_s",
    "schedule": "system.schedule_s",
    "merge": "system.merge_s",
    "tile-miss": "cluster.sim_s",
    "tile": "cluster.sim_s",
    "batched-group": "batch.replay_s",
    "batched-replay": "batch.plan_s",
    # Artifact minus the points under it: store/cache I/O and analysis.
    "artifact": "report.artifact_self_s",
    "campaign": "report.artifact_self_s",
    # The benchmark's own span around ``generate_paper_results``: the call
    # minus its ``report`` span is rendering and writing the document.
    "bench.generate_paper_results": "report.render_s",
}

#: Every time layer, in the order the traced table prints them.
TIME_LAYERS = (
    "mem.setup_s",
    "scenarios.build_s",
    "cluster.sim_s",
    "batch.plan_s",
    "batch.replay_s",
    "system.schedule_s",
    "system.merge_s",
    "scenarios.verify_s",
    "report.artifact_self_s",
    "report.render_s",
)

#: Tolerance when deciding interval containment: span starts are whole
#: microseconds of the wall clock, durations come from ``perf_counter``.
NEST_EPS_US = 5.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass
class Node:
    """One span placed in the nesting forest."""

    name: str
    start_us: float
    dur_us: float
    args: Dict[str, Any] = field(default_factory=dict)
    children: List["Node"] = field(default_factory=list)

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us

    def contains(self, other: "Node") -> bool:
        """Whether ``other`` starts and ends inside this span's interval."""
        return (
            self.start_us - NEST_EPS_US <= other.start_us < self.end_us
            and other.end_us <= self.end_us + NEST_EPS_US
        )

    def adopts(self, earlier: "Node") -> bool:
        """Whether ``earlier``, which sorted first, is really a child.

        It must lie inside this span and still run well after this span's
        start; a sibling that merely ended just before does not.
        """
        return self.contains(earlier) and earlier.end_us > self.start_us + 1.0

    def walk(self) -> Iterator["Node"]:
        yield self
        for child in self.children:
            yield from child.walk()


def span_forest(spans: Iterable[Any]) -> List[Node]:
    """Nest spans (``name``/``ts_us``/``dur_us``/``args``) by time interval.

    The benchmark runs one thread, so every span lies inside its parent's
    interval whatever track it was recorded on; the track is ignored.  A
    parent whose start reads a few microseconds after its first child's
    (whole-microsecond starts, or a start reconstructed after the fact)
    adopts the earlier siblings its interval contains.
    """
    nodes = sorted(
        (Node(s.name, float(s.ts_us), float(s.dur_us), dict(s.args or {})) for s in spans),
        key=lambda node: (node.start_us, -node.dur_us),
    )
    roots: List[Node] = []
    stack: List[Node] = []
    for node in nodes:
        while stack and not stack[-1].contains(node):
            stack.pop()
        siblings = stack[-1].children if stack else roots
        while siblings and node.adopts(siblings[-1]):
            node.children.insert(0, siblings.pop())
        siblings.append(node)
        stack.append(node)
    return roots


def self_seconds(node: Node) -> float:
    """Duration minus the direct children's durations, never negative."""
    covered = sum(child.dur_us for child in node.children)
    return max(node.dur_us - covered, 0.0) / 1e6


@dataclass
class Attribution:
    """Layer seconds of a set of root spans, with the unattributed rest."""

    total_s: float = 0.0
    layers: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(TIME_LAYERS, 0.0))

    @property
    def attributed_s(self) -> float:
        return sum(self.layers.values())

    @property
    def unattributed_s(self) -> float:
        """The part of the total no mapped layer accounts for."""
        return self.total_s - self.attributed_s

    @property
    def unattributed_frac(self) -> float:
        return self.unattributed_s / self.total_s if self.total_s > 0 else 0.0

    def add(self, other: "Attribution") -> None:
        self.total_s += other.total_s
        for name, seconds in other.layers.items():
            self.layers[name] = self.layers.get(name, 0.0) + seconds


def attribute(roots: Sequence[Node]) -> Attribution:
    """Attribute the self time under ``roots`` to layers.

    The total is the roots' summed duration — the wall time the benchmark
    measured around its public calls — so the layers plus the residual
    always add up to it.
    """
    result = Attribution()
    for root in roots:
        result.total_s += root.dur_us / 1e6
        for node in root.walk():
            layer = LAYER_OF_SPAN.get(node.name)
            if layer is not None:
                result.layers[layer] = result.layers.get(layer, 0.0) + self_seconds(node)
    return result


def count_spans(roots: Sequence[Node], name: str) -> int:
    return sum(1 for root in roots for node in root.walk() if node.name == name)


def group_sizes(roots: Sequence[Node]) -> List[int]:
    """The ``tiles`` argument of every ``batched-group`` span."""
    return [
        int(node.args.get("tiles", 0))
        for root in roots
        for node in root.walk()
        if node.name == "batched-group"
    ]


def fallback_runs(roots: Sequence[Node]) -> int:
    """Scenario runs whose batched replay gave way to per-tile execution.

    The batched planner bails out before touching state when a tile fails
    its self-containment gate; the simulator then runs every cluster on
    the per-tile path, which shows as ``cluster-tiles`` spans after the
    ``batched-replay`` span inside the same ``scenario``.
    """
    count = 0
    for root in roots:
        for node in root.walk():
            if node.name != "scenario":
                continue
            replay_end = None
            for inner in node.walk():
                if inner.name == "batched-replay":
                    replay_end = inner.end_us
                elif (
                    inner.name == "cluster-tiles"
                    and replay_end is not None
                    and inner.start_us >= replay_end - NEST_EPS_US
                ):
                    count += 1
                    break
    return count


def invariant_mismatches(
    observed: Mapping[str, Any], expected: Mapping[str, Any], rel: float = 1e-9
) -> List[str]:
    """Human-readable differences between observed and expected values.

    Floats compare within ``rel`` (makespans are sums of per-tile cycle
    counts, so their last bits depend on the summation order); everything
    else compares exactly.  A key the observation lacks is a mismatch.
    """
    problems = []
    for key, want in expected.items():
        if key not in observed:
            problems.append(f"{key}: missing (expected {want!r})")
            continue
        got = observed[key]
        if isinstance(want, float) or isinstance(got, float):
            scale = max(abs(float(want)), abs(float(got)), 1.0)
            ok = abs(float(got) - float(want)) <= rel * scale
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key}: got {got!r}, expected {want!r}")
    return problems


@dataclass
class Tally:
    """Attempted and failed operations, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)
    keep: int = 5

    def record(self, label: str, problems: Sequence[str]) -> bool:
        """Count one operation; any problem fails it.  Returns ``ok``."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < self.keep:
                self.reasons.append(f"{label}: " + "; ".join(problems))
        return not problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
