"""Unified observability: metrics, span tracing and logging.

``repro.obs`` is the instrumentation spine of the reproduction.  It
owns three small, stdlib-only facilities:

* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and histograms with labels.  The tile-timing cache, the
  global result cache, the campaign runner and the simulation phases
  all account here.
* :mod:`repro.obs.trace` — context-manager span tracing with per-track
  (per-cluster) timelines, JSONL emission and Chrome
  ``chrome://tracing`` / Perfetto export (``--trace-out FILE`` or
  ``python -m repro.eval trace``).
* :mod:`repro.obs.logs` — the ``repro`` stdlib-``logging`` hierarchy
  behind the CLI ``--verbose/--quiet`` flags.

Everything is **off by default** and free when off: a disabled counter
increment or span is one branch.  Instrumentation never changes what a
simulation computes — traced runs produce byte-identical stores.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional

from repro.obs.logs import (
    add_logging_flags,
    configure_from_args,
    configure_logging,
    get_logger,
)
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    metrics_enabled,
    reset_metrics,
    set_metrics_enabled,
)
from repro.obs.trace import (
    TRACER,
    Span,
    Tracer,
    chrome_trace,
    read_spans_jsonl,
    set_tracing_enabled,
    span,
    tracing_enabled,
    write_chrome_trace,
    write_spans_jsonl,
)

__all__ = [
    "REGISTRY",
    "TRACER",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "add_logging_flags",
    "cache_counters",
    "chrome_trace",
    "configure_from_args",
    "configure_logging",
    "counter",
    "format_cache_summary",
    "gauge",
    "get_logger",
    "histogram",
    "metrics_enabled",
    "read_spans_jsonl",
    "reset_metrics",
    "set_metrics_enabled",
    "set_tracing_enabled",
    "span",
    "trace_session",
    "tracing_enabled",
    "write_chrome_trace",
    "write_spans_jsonl",
]

#: The registry counters that make up the cache-efficiency summary.
_CACHE_COUNTER_NAMES = (
    "repro_tile_cache_hits_total",
    "repro_tile_cache_misses_total",
    "repro_result_cache_hits_total",
    "repro_result_cache_misses_total",
)


def cache_counters() -> Dict[str, float]:
    """A snapshot of the cache hit/miss counters (for delta summaries)."""
    values: Dict[str, float] = {}
    for name in _CACHE_COUNTER_NAMES:
        instrument = REGISTRY.get(name)
        values[name] = (
            sum(value for _, _, value in instrument.samples())
            if instrument is not None
            else 0.0
        )
    return values


def _rate(hits: float, misses: float) -> str:
    lookups = hits + misses
    if lookups <= 0:
        return "no lookups"
    return f"{int(hits)} hits / {int(misses)} misses ({100.0 * hits / lookups:.1f}%)"


def format_cache_summary(since: Optional[Dict[str, float]] = None) -> str:
    """One line of cache efficiency, sourced from the metrics registry.

    ``since`` is an earlier :func:`cache_counters` snapshot; the summary
    then covers only the work done in between (one scenario, one
    campaign) rather than the whole process lifetime.
    """
    now = cache_counters()
    base = since or {}
    delta = {name: now[name] - base.get(name, 0.0) for name in now}
    tile = _rate(
        delta["repro_tile_cache_hits_total"], delta["repro_tile_cache_misses_total"]
    )
    result_hits = delta["repro_result_cache_hits_total"]
    result_misses = delta["repro_result_cache_misses_total"]
    if result_hits + result_misses <= 0:
        result = "off"
    else:
        result = _rate(result_hits, result_misses)
    return f"cache efficiency: tile-timing {tile}; global result cache {result}"


@contextmanager
def trace_session(
    trace: bool = False,
    trace_out: Optional[str] = None,
    metrics: bool = False,
):
    """Scope instrumentation to one CLI run.

    Enables the process-wide metrics registry and/or tracer, yields the
    tracer, and on exit writes ``trace_out`` (span JSONL when the path
    ends in ``.jsonl``, Chrome trace JSON otherwise) before restoring
    the previous enabled state.  With everything ``False`` this is a
    transparent no-op, so call sites need no conditional plumbing.
    """
    trace = trace or trace_out is not None
    was_tracing = TRACER.enabled
    was_metered = REGISTRY.enabled
    if trace:
        TRACER.set_enabled(True)
    if metrics:
        REGISTRY.set_enabled(True)
    try:
        yield TRACER
    finally:
        if trace and trace_out is not None:
            spans = TRACER.spans()
            if str(trace_out).endswith(".jsonl"):
                write_spans_jsonl(spans, trace_out)
            else:
                write_chrome_trace(spans, trace_out)
        if trace and not was_tracing:
            TRACER.set_enabled(False)
            TRACER.clear()
        if metrics and not was_metered:
            REGISTRY.set_enabled(False)
