"""Global content-addressed result cache — never simulate a point twice.

Since PR 4, a campaign point's :func:`~repro.campaign.spec.point_id`
fully determines its verified result (every execution path is exact), so
any record produced *anywhere* — a campaign run, a bench pass, a report
invocation — can be served back to every later consumer
without re-simulation.  :class:`GlobalResultCache` is that shared store:
an append-only database of point records, sharded into per-hex-prefix
JSONL files under one cache directory so concurrent writers rarely even
touch the same file (and when they do, the ``fcntl``-locked
:class:`~repro.campaign.store.ResultStore` append keeps their lines
whole).  Loading reuses the hardened ``ResultStore`` parser: a truncated
final line is tolerated, corruption anywhere else raises
:class:`~repro.campaign.store.ResultStoreError` naming the shard file and
1-based line.

Cache entries are stamped with :func:`spec_schema_version` — a hash of
the :class:`~repro.scenarios.spec.ScenarioSpec` field set — and entries
whose stamp no longer matches are ignored, so a change to the spec
schema invalidates every stale record instead of replaying results whose
meaning has drifted.  (Content changes *within* the schema are already
covered: they change the point id itself.)

The cache is opt-in: :func:`resolve_cache` returns ``None`` unless a
cache object/directory is passed explicitly, the execution options carry
``cache_dir``, or :data:`CACHE_DIR_ENV` (``REPRO_CACHE_DIR``) is set —
so isolated runs (tests, throwaway sweeps) behave exactly as before.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.campaign.store import ResultStore
from repro.obs import metrics as _metrics
from repro.options import ExecutionOptions
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "CACHE_DIR_ENV",
    "GlobalResultCache",
    "resolve_cache",
    "spec_schema_version",
]

_RESULT_HITS = _metrics.counter(
    "repro_result_cache_hits_total", "Global result-cache hits"
)
_RESULT_MISSES = _metrics.counter(
    "repro_result_cache_misses_total", "Global result-cache misses"
)
_RESULT_PUTS = _metrics.counter(
    "repro_result_cache_puts_total", "Records appended to the global result cache"
)

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Shard-file key characters (point ids are lowercase sha256 hex).
_HEX = "0123456789abcdef"


def spec_schema_version() -> str:
    """Version stamp of the scenario-spec schema, for stale-entry checks.

    Derived from the sorted :class:`ScenarioSpec` field names, so adding,
    removing or renaming a spec field automatically invalidates every
    cache entry written under the old schema — those records' specs no
    longer mean what a current reader would take them to mean.  Value
    changes within an unchanged schema need no stamp: they change the
    point id itself.
    """
    names = ",".join(sorted(f.name for f in dataclass_fields(ScenarioSpec)))
    return hashlib.sha256(names.encode("utf-8")).hexdigest()[:12]


class GlobalResultCache:
    """A sharded, append-only, content-addressed point-record database.

    Records are keyed by ``point_id`` and land in
    ``<root>/shard-<first-hex-char>.jsonl`` (16 shards), each an ordinary
    :class:`~repro.campaign.store.ResultStore` — so appends are
    ``fcntl``-locked, loads tolerate a truncated last line, and interior
    corruption raises :class:`~repro.campaign.store.ResultStoreError`
    with the shard file and 1-based line number.  Shards are loaded
    lazily into an in-process map that stays warm for the object's
    lifetime; :meth:`refresh` drops the map to pick up other writers'
    appends.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        #: Schema stamp written into (and required of) every entry.
        self.schema = spec_schema_version()
        #: Lookup accounting (process-local, reported by :meth:`stats`).
        self.hits = 0
        self.misses = 0
        self._shards: Dict[str, Dict[str, Dict[str, Any]]] = {}

    # -- sharding -------------------------------------------------------------

    @staticmethod
    def _shard_key(point_id: str) -> str:
        head = point_id[:1].lower()
        return head if head in _HEX else "x"

    def shard_path(self, point_id: str) -> Path:
        """The shard file a record with this id lives in."""
        return self.root / f"shard-{self._shard_key(point_id)}.jsonl"

    def _load(self, key: str) -> Dict[str, Dict[str, Any]]:
        if key not in self._shards:
            store = ResultStore(self.root / f"shard-{key}.jsonl")
            self._shards[key] = {
                record["point_id"]: record
                for record in store.records()
                if record.get("schema") == self.schema
            }
        return self._shards[key]

    @staticmethod
    def _strip(record: Dict[str, Any]) -> Dict[str, Any]:
        clean = dict(record)
        clean.pop("schema", None)
        return clean

    # -- lookup / insert ------------------------------------------------------

    def get(self, point_id: str) -> Optional[Dict[str, Any]]:
        """The cached record of ``point_id``, or ``None`` (a miss).

        Entries stamped with a different spec-schema version are treated
        as absent.  The returned record has the internal ``schema`` stamp
        stripped, so it is byte-compatible with a freshly simulated one.
        """
        entry = self._load(self._shard_key(point_id)).get(point_id)
        if entry is None:
            self.misses += 1
            _RESULT_MISSES.inc()
            return None
        self.hits += 1
        _RESULT_HITS.inc()
        return self._strip(entry)

    def put(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Append one point record (stamped with the current schema).

        Returns the record as it reads back from disk, stamp stripped —
        what a later :meth:`get` of the same id would return.
        """
        point_id = record.get("point_id")
        if not point_id:
            raise ValueError("a cache record needs a point_id")
        stamped = dict(record)
        stamped["schema"] = self.schema
        stored = ResultStore(self.shard_path(point_id)).append(stamped)
        self._load(self._shard_key(point_id))[point_id] = stored
        _RESULT_PUTS.inc()
        return self._strip(stored)

    def refresh(self) -> None:
        """Drop the warm in-process layer (reload other writers' appends)."""
        self._shards.clear()

    # -- accounting -----------------------------------------------------------

    def entries(self) -> int:
        """Distinct current-schema point ids across every shard on disk."""
        seen = set()
        if self.root.is_dir():
            for path in sorted(self.root.glob("shard-*.jsonl")):
                for record in ResultStore(path).records():
                    if record.get("schema") == self.schema:
                        seen.add(record["point_id"])
        return len(seen)

    def stats(self) -> Dict[str, Any]:
        """A summary: cache dir, entries, hits, misses."""
        return {
            "dir": str(self.root),
            "entries": self.entries(),
            "hits": self.hits,
            "misses": self.misses,
        }


def resolve_cache(
    cache: Optional[GlobalResultCache] = None,
    options: Optional[ExecutionOptions] = None,
) -> Optional[GlobalResultCache]:
    """The cache a run should use, or ``None`` (caching disabled).

    Resolution order: an explicit cache object, then ``options.cache_dir``,
    then the :data:`CACHE_DIR_ENV` environment variable.  With none of the
    three set there is no global cache and runs behave exactly as before
    this module existed.
    """
    if cache is not None:
        return cache
    cache_dir = options.cache_dir if options is not None else None
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    return GlobalResultCache(cache_dir) if cache_dir else None
