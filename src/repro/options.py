"""The unified execution-options API shared by every entry point.

Every execution knob — cycle engine, tile-timing memoization, quick
mode, the global result cache and tracing — lives in one frozen,
JSON-round-trippable :class:`ExecutionOptions` object: ``python -m
repro.eval`` derives its ``--engine/--no-memoize/--quick/...`` flags
from its fields, and :class:`~repro.system.simulator.SystemSimulator`,
:func:`~repro.scenarios.runner.run_scenario` and
:func:`~repro.campaign.runner.run_campaign` accept it as ``options=`` —
the only way to pass these knobs.  Unknown fields (including the retired
``parallel``, ``batch``, ``workers`` and ``shard``) are rejected by
:meth:`ExecutionOptions.from_dict`.

Engine choice and memoization never change simulated cycle counts or HMC
contents, only wall time.  There is a single execution path through the
system simulator; whether it replays cache hits in stacked groups
follows from the run itself (see :mod:`repro.system.batch`), never from
an option.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional

__all__ = ["ExecutionOptions"]


@dataclass(frozen=True)
class ExecutionOptions:
    """Every knob that selects *how* a simulation executes, as one value.

    All fields are execution-path choices, not workload definitions: any
    combination produces bit-identical simulated cycles and HMC contents
    (``engine`` and ``memoize`` also exist as
    :class:`~repro.scenarios.spec.ScenarioSpec` fields and therefore
    participate in campaign point identity — turning memoization off
    changes the recorded cache hits and misses; ``quick`` is no spec
    field).  The ``metadata["cli"]`` of each field is the help text of
    the derived command-line flag
    (:func:`repro.eval.__main__.add_execution_flags`).
    """

    #: Override the cycle engine (``None`` keeps the spec/config engine).
    engine: Optional[str] = field(
        default=None,
        metadata={"cli": "override the cycle engine (default: the spec's own)"},
    )
    #: Tile-timing memoization (exact; see :mod:`repro.system.memo`).
    memoize: bool = field(
        default=True,
        metadata={"cli": "disable the tile-timing cache"},
    )
    #: CI-sized workloads (campaigns apply quick_overrides; axes never shrink).
    quick: bool = field(
        default=False,
        metadata={"cli": "CI-sized workloads (campaign quick_overrides)"},
    )
    #: Global result-cache directory (None = $REPRO_CACHE_DIR or disabled).
    cache_dir: Optional[str] = field(
        default=None,
        metadata={
            "cli": "global result-cache directory (default: $REPRO_CACHE_DIR)",
            "metavar": "DIR",
        },
    )
    #: Span tracing via :mod:`repro.obs` (exact; results never change).
    trace: bool = field(
        default=False,
        metadata={"cli": "capture repro.obs spans for this run"},
    )
    #: Trace output path (implies ``trace``); ``.jsonl`` writes raw
    #: spans, anything else a Chrome/Perfetto trace JSON.
    trace_out: Optional[str] = field(
        default=None,
        metadata={
            "cli": "write the captured trace to FILE "
            "(.jsonl = raw spans, else Chrome trace; implies --trace)",
            "metavar": "FILE",
        },
    )

    def __post_init__(self) -> None:
        if self.engine is not None:
            from repro.cluster.engine import get_engine  # avoid import cycle

            get_engine(self.engine)  # unknown names raise listing the choices
        for name in ("memoize", "quick", "trace"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a boolean")
        if self.trace_out is not None:
            if not isinstance(self.trace_out, (str, os.PathLike)):
                raise ValueError("trace_out must be a path or None")
            object.__setattr__(self, "trace_out", os.fspath(self.trace_out))
            object.__setattr__(self, "trace", True)
        if self.cache_dir is not None:
            if not isinstance(self.cache_dir, (str, os.PathLike)):
                raise ValueError("cache_dir must be a path or None")
            object.__setattr__(self, "cache_dir", os.fspath(self.cache_dir))

    # -- consumers -----------------------------------------------------------

    def spec_overrides(self) -> Dict[str, Any]:
        """The fields that shadow :class:`ScenarioSpec` execution fields.

        Only values set *away from their defaults* are returned, so an
        all-default options object never clobbers what a spec pins (a
        spec with ``memoize=False`` keeps it unless the options demand
        otherwise; to force memoization back on, override the spec
        itself).  ``quick``, ``cache_dir``, ``trace`` and ``trace_out``
        are never spec fields and never appear here.
        """
        overrides: Dict[str, Any] = {}
        if self.engine is not None:
            overrides["engine"] = self.engine
        if not self.memoize:
            overrides["memoize"] = False
        return overrides

    def with_overrides(self, **changes) -> "ExecutionOptions":
        """A copy with the given fields replaced (validated like new)."""
        return replace(self, **changes)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data representation (JSON-compatible)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionOptions":
        """Inverse of :meth:`to_dict`; missing fields default, unknown raise."""
        if not isinstance(data, Mapping):
            raise ValueError("execution options must be a mapping")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown execution option(s) {sorted(unknown)}; "
                f"accepted: {sorted(known)}"
            )
        return cls(**dict(data))

    def to_json(self, indent: int | None = None) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionOptions":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

