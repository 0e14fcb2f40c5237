"""Append-only JSONL result store — what makes campaigns resumable.

Every completed campaign point becomes one JSON line keyed by the point's
content hash (:func:`repro.campaign.spec.point_id`).  Appending is the
only write operation, each record is flushed as soon as its point
completes, and loading tolerates a truncated final line — exactly the
state a killed campaign leaves behind — so a rerun simply skips every
point whose id is already on disk and finishes the rest.  Corruption
anywhere *else* in the file is not a truncation artefact (appends never
rewrite earlier lines) but damage — a bad merge, a stray editor, a disk
fault — so an ill-formed interior line raises :class:`ResultStoreError`
naming the line number instead of silently dropping results.  Appends
take an ``fcntl`` advisory lock on the file, so concurrent writers
(separate ``repro.eval`` processes running against the same store or
``--cache-dir``) interleave whole records safely.  Records of
points that no longer exist in the campaign (a changed sweep definition)
stay in the file but are ignored by the runner and the analysis layer,
which select records by the *current* expansion's ids.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List

try:  # POSIX only; appends stay un-locked (but still atomic lines) elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = ["ResultStore", "ResultStoreError"]


class ResultStoreError(RuntimeError):
    """A campaign result file is damaged beyond the tolerated truncation."""


class ResultStore:
    """One campaign's JSONL result file."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.is_file()

    # -- reading --------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Every record, in file order.

        Only the *final* non-blank line may be ill-formed: an interrupted
        append leaves at most one truncated line, which is skipped so a
        resumed campaign re-executes (and re-appends) only that point.  An
        ill-formed line anywhere earlier cannot come from truncation and
        raises :class:`ResultStoreError` naming the 1-based line number —
        silently dropping interior records would make a damaged store look
        like a shorter, healthy one.
        """
        if not self.path.is_file():
            return []
        lines = self.path.read_text(encoding="utf-8").splitlines()
        last_content = max(
            (number for number, line in enumerate(lines, 1) if line.strip()),
            default=0,
        )
        records: List[Dict[str, Any]] = []
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            problem = None
            record = None
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problem = str(exc)
            if problem is None and not (
                isinstance(record, dict) and record.get("point_id")
            ):
                problem = "not a JSON object with a point_id"
            if problem is not None:
                if number == last_content:
                    continue  # tolerated: a truncated final append
                raise ResultStoreError(
                    f"{self.path}: corrupt result record on line {number}: "
                    f"{problem}"
                )
            records.append(record)
        return records

    def by_point(self) -> Dict[str, Dict[str, Any]]:
        """Latest record per point id (later appends win)."""
        return {record["point_id"]: record for record in self.records()}

    def completed_ids(self) -> set:
        return set(self.by_point())

    def select(self, point_ids: Iterable[str]) -> List[Dict[str, Any]]:
        """The stored records of ``point_ids``, in the given order."""
        by_point = self.by_point()
        return [by_point[pid] for pid in point_ids if pid in by_point]

    # -- writing --------------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Append one completed point, flushed immediately.

        The write is serialized with an ``fcntl`` advisory lock on the
        store file, so concurrent writers — separate ``repro.eval``
        processes appending to the same store or global-cache file —
        interleave whole records instead of corrupting each other's
        lines.  ``flock`` binds to the open file description, so the
        same lock also serializes threads within one process.  A writer that ignores the lock (or
        a non-POSIX platform, where ``fcntl`` is unavailable) falls back
        to the previous guarantee: one buffered write per record, with
        any torn line caught by the :class:`ResultStoreError` /
        truncated-tail diagnostics of :meth:`records`.

        Returns the record as it will read back from disk (the JSON
        round trip canonicalizes tuples to lists), so callers that keep
        records in memory hold exactly what a resumed run would load.
        """
        if not record.get("point_id"):
            raise ValueError("a result record needs a point_id")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self.path.open("a", encoding="utf-8") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                handle.write(line + "\n")
                handle.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        return json.loads(line)

