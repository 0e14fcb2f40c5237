"""Span tracing with JSONL emission and Chrome/Perfetto trace export.

A :class:`Span` is one timed region of work — a scenario, a system-run
phase, a single tile, a campaign point.  Spans carry a
**track**: the horizontal row they render on in ``chrome://tracing`` /
`Perfetto <https://ui.perfetto.dev>`_.  The current track is held in a
:mod:`contextvars` variable so nested library code lands on whatever
track its caller established — inline tile walks get one track per
cluster.

Timestamps are epoch microseconds (``time.time_ns() // 1000``), so span
dumps from separate runs share one time axis; durations are measured
with ``time.perf_counter`` for sub-microsecond resolution.  Like the
metrics registry, the tracer is off by default: :meth:`Tracer.span`
returns a shared null context manager while disabled, so an untraced hot
path pays one branch.

Export paths:

* :func:`write_spans_jsonl` / :func:`read_spans_jsonl` — one span per
  line, the stable interchange format.
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome trace
  event format (``"X"`` complete events plus ``thread_name`` metadata),
  loadable by ``chrome://tracing`` and Perfetto.
* ``python -m repro.eval trace spans.jsonl`` converts the former into
  the latter offline.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "TRACER",
    "Tracer",
    "chrome_trace",
    "read_spans_jsonl",
    "set_tracing_enabled",
    "span",
    "tracing_enabled",
    "write_chrome_trace",
    "write_spans_jsonl",
]

#: Upper bound on buffered spans per tracer; beyond it spans are
#: dropped (and counted) instead of growing a long-lived process's heap.
DEFAULT_SPAN_LIMIT = 200_000


@dataclass
class Span:
    """One timed region: a name, a track, a start and a duration."""

    name: str
    track: str
    ts_us: int
    dur_us: float
    args: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "track": self.track,
            "ts_us": self.ts_us,
            "dur_us": self.dur_us,
        }
        if self.args:
            payload["args"] = self.args
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            name=str(payload["name"]),
            track=str(payload["track"]),
            ts_us=int(payload["ts_us"]),
            dur_us=float(payload["dur_us"]),
            args=dict(payload.get("args", {})),
        )


class _NullSpan:
    """The shared do-nothing context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()

_track_var: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_obs_track", default=None
)


class Tracer:
    """A bounded, thread-safe span buffer with a current-track context."""

    def __init__(self, limit: int = DEFAULT_SPAN_LIMIT) -> None:
        self.enabled = False
        self.limit = limit
        self.dropped = 0
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    # -- lifecycle ---------------------------------------------------

    def set_enabled(self, flag: bool = True) -> None:
        self.enabled = bool(flag)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    # -- track management -------------------------------------------

    def current_track(self) -> str:
        """The contextvar track, falling back to the thread name."""
        track = _track_var.get()
        if track is not None:
            return track
        name = threading.current_thread().name
        return "main" if name == "MainThread" else name

    @contextmanager
    def track(self, name: str):
        """Route spans opened inside the block onto track ``name``."""
        if not self.enabled:
            yield
            return
        token = _track_var.set(name)
        try:
            yield
        finally:
            _track_var.reset(token)

    # -- recording ---------------------------------------------------

    def span(self, name: str, /, **args: Any):
        """A context manager timing one region on the current track."""
        if not self.enabled:
            return _NULL_SPAN
        return self._timed_span(name, args)

    @contextmanager
    def _timed_span(self, name: str, args: Dict[str, Any]):
        ts_us = time.time_ns() // 1000
        start = time.perf_counter()
        try:
            yield
        finally:
            dur_us = (time.perf_counter() - start) * 1e6
            self.record(name, self.current_track(), ts_us, dur_us, args)

    def record(
        self,
        name: str,
        track: str,
        ts_us: int,
        dur_us: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append one finished span (no-op while disabled)."""
        if not self.enabled:
            return
        with self._lock:
            if len(self._spans) >= self.limit:
                self.dropped += 1
                return
            self._spans.append(Span(name, track, ts_us, dur_us, args or {}))

    # -- reading -----------------------------------------------------

    def spans(self) -> List[Span]:
        """A snapshot of the buffered spans."""
        with self._lock:
            return list(self._spans)

    def drain(self, track_prefix: Optional[str] = None) -> List[Span]:
        """Remove and return spans, optionally only one track prefix."""
        with self._lock:
            if track_prefix is None:
                drained, self._spans = self._spans, []
                return drained
            kept: List[Span] = []
            drained = []
            for item in self._spans:
                (drained if item.track.startswith(track_prefix) else kept).append(item)
            self._spans = kept
            return drained


#: The process-wide tracer used by the library instrumentation.
TRACER = Tracer()


def span(name: str, /, **args: Any):
    """Open a span on the process-wide tracer (null while disabled)."""
    return TRACER.span(name, **args)


def set_tracing_enabled(flag: bool = True) -> None:
    TRACER.set_enabled(flag)


def tracing_enabled() -> bool:
    return TRACER.enabled


# -- serialisation ---------------------------------------------------


def write_spans_jsonl(spans: Iterable[Span], path: Path | str) -> int:
    """Write spans one-per-line; returns the number written."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with target.open("w", encoding="utf-8") as handle:
        for item in spans:
            handle.write(json.dumps(item.to_dict(), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_spans_jsonl(path: Path | str) -> List[Span]:
    """Load spans written by :func:`write_spans_jsonl`."""
    result: List[Span] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                result.append(Span.from_dict(json.loads(line)))
    return result


def chrome_trace(spans: Iterable[Span]) -> Dict[str, Any]:
    """Spans as a Chrome trace event document (Perfetto-loadable).

    Tracks map to thread ids (one ``thread_name`` metadata event each);
    every span becomes an ``"X"`` complete event with microsecond
    ``ts``/``dur``.  Timestamps are rebased so the earliest span starts
    at zero, which keeps the viewer's time axis readable.
    """
    items = list(spans)
    tracks = sorted({item.track for item in items})
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    base = min((item.ts_us for item in items), default=0)
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": tids[track],
            "args": {"name": track},
        }
        for track in tracks
    ]
    for item in sorted(items, key=lambda s: (tids[s.track], s.ts_us, -s.dur_us)):
        events.append(
            {
                "ph": "X",
                "name": item.name,
                "cat": "repro",
                "pid": 1,
                "tid": tids[item.track],
                "ts": item.ts_us - base,
                "dur": round(item.dur_us, 3),
                "args": item.args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[Span], path: Path | str) -> int:
    """Write the Chrome trace JSON; returns the number of spans."""
    document = chrome_trace(spans)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return sum(1 for event in document["traceEvents"] if event["ph"] == "X")
