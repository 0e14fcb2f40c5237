"""Process-wide metrics registry: counters, gauges and histograms.

The registry is the single accounting spine for the reproduction: the
tile-timing cache, the global result cache, the campaign runner and the
data plane all publish into it instead of keeping bespoke counter
objects.  Instrumentation is **off by default** — every mutator checks a
single ``enabled`` flag first, so a disabled registry costs one attribute
load and one branch per call site and allocates nothing.

Every instrument reads back through ``value``/``count``/``sum`` and
``samples()``, which yields ``(name, label pairs, value)`` with
Prometheus naming: histograms expand into cumulative ``_bucket`` series
plus ``_sum`` and ``_count``, label sets in sorted order.  The CLI's
cache summary (:func:`repro.obs.format_cache_summary`) and the perfbench
harness read them that way.

Instruments are process-global by default (module-level ``REGISTRY``
plus the :func:`counter` / :func:`gauge` / :func:`histogram` helpers),
but :class:`MetricsRegistry` instances can also be owned privately.
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "metrics_enabled",
    "reset_metrics",
    "set_metrics_enabled",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, in seconds — tuned for simulation phases
#: that span sub-millisecond schedule passes to multi-minute campaigns.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Instrument:
    """Common behaviour for counters, gauges and histograms."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str],
    ) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _pairs(self, key: Tuple[str, ...]) -> List[Tuple[str, str]]:
        return list(zip(self.labelnames, key))

    # Subclasses provide ``value``/``samples``/``clear``.


class Counter(_Instrument):
    """A monotonically increasing sum, optionally partitioned by labels."""

    kind = "counter"

    def __init__(self, registry, name, help, labelnames) -> None:
        super().__init__(registry, name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0); a no-op while disabled."""
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._registry._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """The current sum for one label combination (0 if never seen)."""
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> Iterator[Tuple[str, List[Tuple[str, str]], float]]:
        for key in sorted(self._values):
            yield self.name, self._pairs(key), self._values[key]

    def clear(self) -> None:
        self._values.clear()


class Gauge(_Instrument):
    """A value that can go up and down (queue depths, entry counts)."""

    kind = "gauge"

    def __init__(self, registry, name, help, labelnames) -> None:
        super().__init__(registry, name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Set the gauge; a no-op while disabled."""
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._registry._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._registry._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> Iterator[Tuple[str, List[Tuple[str, str]], float]]:
        for key in sorted(self._values):
            yield self.name, self._pairs(key), self._values[key]

    def clear(self) -> None:
        self._values.clear()


class Histogram(_Instrument):
    """A cumulative-bucket distribution (Prometheus histogram semantics)."""

    kind = "histogram"

    def __init__(self, registry, name, help, labelnames, buckets) -> None:
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {self.name!r} needs at least one bucket")
        self.buckets = bounds
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation; a no-op while disabled."""
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._registry._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.buckets) + 1)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)

    @contextmanager
    def time(self, **labels: object):
        """Observe the wall-clock seconds spent inside the block."""
        if not self._registry.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start, **labels)

    def count(self, **labels: object) -> int:
        """Total observations for one label combination."""
        return sum(self._counts.get(self._key(labels), ()))

    def sum(self, **labels: object) -> float:
        return self._sums.get(self._key(labels), 0.0)

    def samples(self) -> Iterator[Tuple[str, List[Tuple[str, str]], float]]:
        for key in sorted(self._counts):
            pairs = self._pairs(key)
            cumulative = 0
            for bound, bucket in zip(self.buckets, self._counts[key]):
                cumulative += bucket
                yield (
                    self.name + "_bucket",
                    pairs + [("le", _format_value(bound))],
                    float(cumulative),
                )
            cumulative += self._counts[key][-1]
            yield self.name + "_bucket", pairs + [("le", "+Inf")], float(cumulative)
            yield self.name + "_sum", pairs, self._sums[key]
            yield self.name + "_count", pairs, float(cumulative)

    def clear(self) -> None:
        self._counts.clear()
        self._sums.clear()


class MetricsRegistry:
    """A named collection of instruments with one enabled flag.

    ``counter`` / ``gauge`` / ``histogram`` return the existing
    instrument when called twice with the same name (and raise on a
    kind or label-set mismatch), so call sites can declare their
    instruments at module scope without import-order coordination.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.RLock()
        self._instruments: Dict[str, _Instrument] = {}

    # -- instrument registration ------------------------------------

    def _register(self, cls, name, help, labelnames, **kwargs) -> _Instrument:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {name!r}")
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            instrument = cls(self, name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(  # type: ignore[return-value]
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    # -- lifecycle ---------------------------------------------------

    def set_enabled(self, flag: bool = True) -> None:
        self.enabled = bool(flag)

    def reset(self) -> None:
        """Zero every sample while keeping the registered instruments."""
        with self._lock:
            for instrument in self._instruments.values():
                instrument.clear()


#: The process-wide registry used by the library instrumentation.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
    """Register (or fetch) a counter on the process-wide registry."""
    return REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
    """Register (or fetch) a gauge on the process-wide registry."""
    return REGISTRY.gauge(name, help, labelnames)


def histogram(
    name: str,
    help: str = "",
    labelnames: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> Histogram:
    """Register (or fetch) a histogram on the process-wide registry."""
    return REGISTRY.histogram(name, help, labelnames, buckets)


def set_metrics_enabled(flag: bool = True) -> None:
    """Turn the process-wide registry on or off."""
    REGISTRY.set_enabled(flag)


def metrics_enabled() -> bool:
    return REGISTRY.enabled


def reset_metrics() -> None:
    """Zero every sample on the process-wide registry."""
    REGISTRY.reset()

