"""The unified execution-options API shared by every entry point.

A run has two descriptions: a :class:`~repro.scenarios.spec.ScenarioSpec`
says *what* runs, and one frozen :class:`ExecutionOptions` says *how* —
cycle engine override, tile-timing memoization, quick mode, the global
result cache and tracing.  ``python -m repro.eval`` derives its
``--engine/--no-memoize/--quick/...`` flags from its fields, and
:class:`~repro.system.simulator.SystemSimulator`,
:func:`~repro.scenarios.runner.run_scenario` and
:func:`~repro.campaign.runner.run_campaign` accept it as ``options=`` —
the only way to pass these knobs.  Unknown fields (including the retired
``parallel``, ``batch``, ``workers`` and ``shard``) are rejected by the
constructor.

Engine choice and memoization never change simulated cycle counts or HMC
contents, only wall time.  Memoization is therefore no part of a
campaign point's identity: a ``memoize=False`` campaign run over a store
a memoized run filled executes nothing, and a record's
``cache_hits``/``cache_misses`` describe the run that executed the
point.  The engine is a spec field (``engine-shootout`` sweeps it as an
axis); a non-``None`` ``engine`` here overrides it, and so changes the
point ids, exactly as editing the spec would.  There is a single execution path through the
system simulator; whether it replays cache hits in stacked groups
follows from the run itself (see :mod:`repro.system.batch`), never from
an option.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["ExecutionOptions"]


@dataclass(frozen=True)
class ExecutionOptions:
    """Every knob that selects *how* a simulation executes, as one value.

    All fields are execution-path choices, not workload definitions: any
    combination produces bit-identical simulated cycles and HMC contents.
    The ``metadata["cli"]`` of each field is the help text of
    the derived command-line flag
    (:func:`repro.eval.__main__.add_execution_flags`).
    """

    #: Override the cycle engine (``None`` keeps the spec's engine, or
    #: :data:`~repro.cluster.engine.DEFAULT_ENGINE` for a bare simulator).
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
            from repro.cluster.engine import resolve_engine  # avoid import cycle

            resolve_engine(self.engine)  # unknown names raise listing the choices
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
