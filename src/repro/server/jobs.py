"""Job model and execution engine of the simulation-as-a-service daemon.

A *job* is one scenario or campaign submission, identified by a **content
hash** of everything that shapes its results — the fully resolved
:class:`~repro.scenarios.spec.ScenarioSpec` (or
:class:`~repro.campaign.spec.SweepSpec` plus quick flag) after the
submission's :class:`~repro.options.ExecutionOptions` spec overrides are
applied.  Execution-only knobs such as ``workers`` are *excluded* from
the identity, because every execution path is exact: two submissions
differing only in those knobs are one job with one result.  A journaled
job whose payload no longer parses (say, one carrying a retired option)
fails when it is recovered; the daemon keeps serving.

That deterministic id is what makes the daemon's three headline
guarantees fall out of the existing campaign machinery:

* **dedup** — the in-memory job map keys by content hash, so N clients
  submitting the identical scenario share one queued/running/completed
  job and exactly one simulation runs.
* **resume** — campaign jobs run through
  :func:`~repro.campaign.runner.run_campaign` against a per-campaign
  JSONL store under the server's store directory, so a cancelled or
  killed job resumes exactly, skipping every stored point.
* **warm cache** — all jobs share the manager's single process-lifetime
  :class:`~repro.system.memo.TileTimingCache`, so structurally identical
  tiles across *requests* pay for cycle simulation once per daemon, not
  once per CLI invocation.
* **global result cache** — the manager owns one
  :class:`~repro.campaign.cache.GlobalResultCache` (``--cache-dir``,
  ``$REPRO_CACHE_DIR``, or ``<store-dir>/result-cache``): every scenario
  job and campaign point is served from it when any earlier run —
  including one outside the daemon — already computed that
  content-addressed point, and every fresh simulation is published back.  Its lazily loaded shard maps are the warm in-process
  layer over the persistent sharded JSONL store; ``GET /healthz``
  reports its entries/hits/misses alongside the tile-cache hit rate.

Every submission is journaled to ``jobs.jsonl`` (queued on accept,
terminal state on completion).  :meth:`JobManager.recovered` jobs — ones
whose latest journaled state is not terminal, i.e. the daemon was killed
mid-flight — are re-enqueued on startup, which is how ``SIGTERM`` +
restart resumes every in-flight campaign from its store.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.campaign.cache import CACHE_DIR_ENV, GlobalResultCache
from repro.campaign.registry import get_campaign
from repro.campaign.runner import point_record, run_campaign
from repro.campaign.spec import CampaignPoint, SweepSpec, point_id
from repro.campaign.store import ResultStore
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.logs import get_logger
from repro.options import ExecutionOptions
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.system.memo import TileTimingCache

_LOG = get_logger("server")

#: Cap on the spans kept per job (a campaign job can produce thousands).
_JOB_SPAN_LIMIT = 256

__all__ = [
    "Job",
    "JobCancelled",
    "JobError",
    "JobManager",
    "Submission",
    "parse_submission",
]

#: States a job moves through; the last three are terminal.
JOB_STATES = ("queued", "running", "completed", "failed", "cancelled")
_TERMINAL = ("completed", "failed", "cancelled")


class JobError(ValueError):
    """A submission is malformed (HTTP layer answers 400 with the text)."""


class JobCancelled(Exception):
    """Raised inside a worker when its job's cancel event is set."""


def _digest(payload: Any) -> str:
    """Stable 16-hex content hash of a JSON-compatible payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Submission:
    """A parsed, validated job submission with its deterministic id."""

    kind: str
    options: ExecutionOptions
    #: Resolved scenario (scenario jobs) — spec overrides already applied.
    spec: Optional[ScenarioSpec] = None
    #: Resolved sweep (campaign jobs) — base overrides already applied.
    sweep: Optional[SweepSpec] = None

    @property
    def job_id(self) -> str:
        """Content hash of everything that shapes this job's results."""
        if self.kind == "scenario":
            return f"s-{point_id(self.spec)}"
        return f"c-{_digest({'sweep': self.sweep.to_dict(), 'quick': self.options.quick})}"

    def payload(self) -> Dict[str, Any]:
        """The journaled form: resolved spec/sweep + options, verbatim.

        Parsing this payload back through :func:`parse_submission`
        reproduces the submission exactly, independent of any later
        registry changes — which is what daemon-restart recovery relies
        on.
        """
        body: Dict[str, Any] = {
            "kind": self.kind,
            "options": self.options.to_dict(),
        }
        if self.kind == "scenario":
            body["spec"] = self.spec.to_dict()
        else:
            body["sweep"] = self.sweep.to_dict()
        return body


def parse_submission(payload: Mapping[str, Any]) -> Submission:
    """Validate a ``POST /jobs`` body (or a journaled payload).

    Scenario jobs carry either an inline ``spec`` dict or a registered
    ``scenario`` name; campaign jobs either an inline ``sweep`` dict or
    a registered ``campaign`` name.  The optional ``options`` block is
    an :class:`ExecutionOptions` dict and is embedded verbatim; its
    ``engine``/``memoize`` overrides are resolved into the
    spec/sweep here so they participate in the job's content hash.
    """
    if not isinstance(payload, Mapping):
        raise JobError("a job submission must be a JSON object")
    kind = payload.get("kind")
    if kind not in ("scenario", "campaign"):
        raise JobError("kind must be 'scenario' or 'campaign'")
    try:
        options = ExecutionOptions.from_dict(payload.get("options") or {})
        if kind == "scenario":
            if "spec" in payload:
                spec = ScenarioSpec.from_dict(payload["spec"])
            elif "scenario" in payload:
                spec = get_scenario(payload["scenario"])
            else:
                raise JobError(
                    "a scenario job needs a 'spec' dict or a registered "
                    "'scenario' name"
                )
            overrides = options.spec_overrides()
            if overrides:
                spec = spec.with_overrides(**overrides)
            return Submission(kind=kind, options=options, spec=spec)
        if "sweep" in payload:
            sweep = SweepSpec.from_dict(payload["sweep"])
        elif "campaign" in payload:
            sweep = get_campaign(payload["campaign"])
        else:
            raise JobError(
                "a campaign job needs a 'sweep' dict or a registered "
                "'campaign' name"
            )
        overrides = options.spec_overrides()
        if overrides:
            sweep = replace(sweep, base=sweep.base.with_overrides(**overrides))
        return Submission(kind=kind, options=options, sweep=sweep)
    except JobError:
        raise
    except (ValueError, TypeError) as error:
        raise JobError(str(error)) from error


@dataclass
class Job:
    """One submission's lifecycle, pollable by id."""

    id: str
    kind: str
    payload: Dict[str, Any]
    state: str = "queued"
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Streamed progress lines (appended as points complete).
    progress: List[str] = field(default_factory=list)
    #: How many times this job's content hash has been submitted.
    submissions: int = 1
    #: Whether this run was re-enqueued by daemon-restart recovery.
    recovered: bool = False
    #: Spans captured while this job ran (``--trace`` daemons only),
    #: capped at :data:`_JOB_SPAN_LIMIT`.
    spans: List[Dict[str, Any]] = field(default_factory=list)
    cancel_event: threading.Event = field(default_factory=threading.Event)
    done_event: threading.Event = field(default_factory=threading.Event)

    def descriptor(self) -> Dict[str, Any]:
        """The JSON shape of ``GET /jobs/<id>`` (no result payload)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "submissions": self.submissions,
            "recovered": self.recovered,
            "progress": list(self.progress),
            "error": self.error,
            "spans": len(self.spans),
        }


class JobManager:
    """Bounded worker pool + job map + journaled, store-backed job state."""

    #: Event names mirrored by the :attr:`counters` compat property.
    _EVENT_NAMES = ("submitted", "deduplicated", "store_hits", "simulations",
                    "recovered")

    def __init__(
        self,
        store_dir: Path | str,
        workers: int = 2,
        timing_cache: Optional[TileTimingCache] = None,
        cache_dir: Optional[Path | str] = None,
        trace: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("the server needs at least one worker")
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.workers = workers
        #: The process-lifetime warm cache every job shares.
        self.timing_cache = timing_cache if timing_cache is not None else TileTimingCache()
        #: The global content-addressed result cache: always on for the
        #: daemon (``--cache-dir``, then ``$REPRO_CACHE_DIR``, then a
        #: directory under the store dir), with its lazily loaded shard
        #: maps acting as the warm in-process layer over the persistent
        #: sharded JSONL store.  Submission options never override it:
        #: ``cache_dir``/``shard`` are client-side execution knobs, and
        #: forwarding a shard subset into a content-hashed job would let
        #: two different subsets deduplicate onto one result.
        self.result_cache = GlobalResultCache(
            cache_dir
            or os.environ.get(CACHE_DIR_ENV)
            or self.store_dir / "result-cache"
        )
        self.jobs: Dict[str, Job] = {}
        #: Per-manager metrics registry (always on): tests spin up several
        #: managers per process, so job metrics must never share state the
        #: way the process-global library registry does.  ``GET /metrics``
        #: concatenates this render with the global one — the name
        #: prefixes (``repro_server_*`` vs the library's) never collide.
        self.registry = _metrics.MetricsRegistry(enabled=True)
        self._events = self.registry.counter(
            "repro_server_events_total",
            "Job-manager lifecycle events (submitted, deduplicated, "
            "store_hits, simulations, recovered)",
            labelnames=("event",),
        )
        self._jobs_gauge = self.registry.gauge(
            "repro_server_jobs",
            "Jobs known to this manager, by state",
            labelnames=("state",),
        )
        self._uptime_gauge = self.registry.gauge(
            "repro_server_uptime_seconds", "Seconds since the manager started"
        )
        self._workers_gauge = self.registry.gauge(
            "repro_server_workers", "Size of the job worker pool"
        )
        self._workers_gauge.set(workers)
        #: Whether to capture per-job spans (``--trace`` daemons).  The
        #: library-level registry is enabled alongside so the scrape also
        #: exposes tile-cache / result-cache / campaign counters.
        self.trace = bool(trace)
        _metrics.set_metrics_enabled(True)
        if self.trace:
            _trace.TRACER.set_enabled(True)
        self._lock = threading.RLock()
        self._closing = False
        self._started = time.monotonic()
        #: Journal of every submission and terminal state (job records).
        self.jobs_store = ResultStore(self.store_dir / "jobs.jsonl")
        self.pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-job"
        )
        self._recover()

    @property
    def counters(self) -> Dict[str, int]:
        """Event counts as a plain dict (registry-backed, compat shape)."""
        return {
            name: int(self._events.value(event=name)) for name in self._EVENT_NAMES
        }

    def render_metrics(self) -> str:
        """The ``GET /metrics`` body: manager + library registries.

        Point-in-time gauges (jobs by state, uptime) are refreshed at
        scrape time rather than tracked incrementally.
        """
        with self._lock:
            states = {state: 0 for state in JOB_STATES}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        for state, count in states.items():
            self._jobs_gauge.set(count, state=state)
        self._uptime_gauge.set(time.monotonic() - self._started)
        return self.registry.render() + _metrics.render_prometheus()

    # -- submission / lifecycle -----------------------------------------------

    def submit(self, payload: Mapping[str, Any]) -> Tuple[Job, bool]:
        """Accept one submission; returns ``(job, fresh)``.

        ``fresh`` is ``False`` when the content hash matched an existing
        queued/running/completed job (the in-flight dedup map): the
        caller shares that job and no new work is enqueued.  A job that
        previously failed or was cancelled is re-enqueued under the same
        id — for campaigns that is an exact resume from the store.
        """
        submission = parse_submission(payload)
        job_id = submission.job_id
        with self._lock:
            if self._closing:
                raise JobError("the server is shutting down")
            self._events.inc(event="submitted")
            existing = self.jobs.get(job_id)
            if existing is not None and existing.state not in ("failed", "cancelled"):
                existing.submissions += 1
                self._events.inc(event="deduplicated")
                return existing, False
            job = Job(id=job_id, kind=submission.kind, payload=submission.payload())
            if existing is not None:
                job.submissions = existing.submissions + 1
            self.jobs[job_id] = job
            self._journal(job)
            self.pool.submit(self._run_job, job)
            return job, True

    def get(self, job_id: str) -> Optional[Job]:
        """The job with this id, if the daemon has ever seen it."""
        with self._lock:
            return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; queued jobs cancel immediately, running
        campaigns stop at the next point boundary (store stays resumable)."""
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                return None
            job.cancel_event.set()
            if job.state == "queued":
                self._finish(job, "cancelled", error="cancelled while queued")
            return job

    def healthz(self) -> Dict[str, Any]:
        """The ``GET /healthz`` payload: uptime, cache and job accounting."""
        with self._lock:
            states = {state: 0 for state in JOB_STATES}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            cache = self.timing_cache
            return {
                "status": "ok",
                "uptime_seconds": time.monotonic() - self._started,
                "workers": self.workers,
                "store_dir": str(self.store_dir),
                "cache": {
                    "entries": len(cache),
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "hit_rate": cache.hit_rate,
                },
                "result_cache": self.result_cache.stats(),
                "jobs": {
                    **states,
                    "total": len(self.jobs),
                    "in_flight": states["queued"] + states["running"],
                    **self.counters,
                },
            }

    def begin_shutdown(self) -> None:
        """Refuse new submissions and flag every job for interruption.

        Called as the *first* act of a server shutdown, before the HTTP
        loop is even stopped, so in-flight campaigns stop at their next
        point boundary rather than racing the socket teardown.
        """
        with self._lock:
            self._closing = True
            for job in self.jobs.values():
                job.cancel_event.set()

    def close(self) -> None:
        """Stop accepting work and drain the pool (idempotent).

        In-flight campaigns are interrupted at their next point boundary
        *without* journaling a terminal state, so a restarted daemon
        re-enqueues them and resumes exactly from their result stores —
        the ``SIGTERM`` semantics.
        """
        self.begin_shutdown()
        self.pool.shutdown(wait=True)

    # -- internals ------------------------------------------------------------

    def _journal(self, job: Job) -> None:
        """Append the job's current state to ``jobs.jsonl`` (latest wins)."""
        self.jobs_store.append(
            {
                "point_id": job.id,
                "kind": job.kind,
                "state": job.state,
                "payload": job.payload,
                "result": job.result,
                "error": job.error,
            }
        )

    def _recover(self) -> None:
        """Restore journaled jobs; re-enqueue every non-terminal one."""
        for job_id, record in self.jobs_store.by_point().items():
            job = Job(
                id=job_id,
                kind=record.get("kind", ""),
                payload=record.get("payload") or {},
                state=record.get("state", "queued"),
                result=record.get("result"),
                error=record.get("error"),
            )
            self.jobs[job_id] = job
            if job.state in _TERMINAL:
                job.done_event.set()
            else:
                job.state = "queued"
                job.recovered = True
                self._events.inc(event="recovered")
                self.pool.submit(self._run_job, job)

    def _finish(
        self,
        job: Job,
        state: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        """Move ``job`` to a terminal state exactly once and journal it."""
        with self._lock:
            if job.state in _TERMINAL:
                return
            job.state = state
            job.result = result
            job.error = error
            self._journal(job)
            job.done_event.set()
        _LOG.debug("job %s -> %s", job.id, state)

    def _run_job(self, job: Job) -> None:
        """Worker-thread entry point: execute one job end to end."""
        if job.cancel_event.is_set():
            if not self._closing:
                self._finish(job, "cancelled", error="cancelled before it started")
            return
        with self._lock:
            if job.state in _TERMINAL:
                return
            job.state = "running"
        _LOG.debug("job %s (%s) running", job.id, job.kind)
        track = f"job-{job.id}"
        try:
            with _trace.TRACER.track(track), _trace.span("job", kind=job.kind):
                submission = parse_submission(job.payload)
                if submission.kind == "scenario":
                    result = self._run_scenario_job(job, submission)
                else:
                    result = self._run_campaign_job(job, submission)
        except JobCancelled:
            # Shutdown interruption is NOT terminal: the journal keeps the
            # job queued/running, so the next daemon re-enqueues it.
            if not self._closing:
                self._finish(job, "cancelled", error="cancelled")
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            self._finish(job, "failed", error=f"{type(error).__name__}: {error}")
        else:
            self._finish(job, "completed", result=result)
        finally:
            if _trace.TRACER.enabled:
                # Claim this job's spans off the shared buffer so a
                # long-lived daemon never accumulates them unboundedly.
                drained = _trace.TRACER.drain(track)
                job.spans = [s.to_dict() for s in drained[:_JOB_SPAN_LIMIT]]

    def _run_scenario_job(self, job: Job, submission: Submission) -> Dict[str, Any]:
        """One point: serve from the global result cache, or simulate and
        publish to it."""
        spec = submission.spec
        pid = point_id(spec)
        cached = self.result_cache.get(pid)
        if cached is not None:
            # Re-present the shared record under this submission's spec
            # (another campaign may have named the same content-addressed
            # point differently).
            cached["name"] = spec.name
            cached["axes"] = {}
            cached["spec"] = spec.to_dict()
            self._events.inc(event="store_hits")
            job.progress.append(f"point {pid} served from the global result cache")
            return {"kind": "scenario", "point_id": pid, "from_store": True,
                    "record": cached}
        if job.cancel_event.is_set():
            raise JobCancelled()
        self._events.inc(event="simulations")
        outcome = run_scenario(spec, timing_cache=self.timing_cache)
        point = CampaignPoint(id=pid, axis_values={}, spec=spec)
        record = self.result_cache.put(
            point_record(point, outcome, outcome.run_seconds)
        )
        job.progress.append(f"point {pid} simulated in {outcome.run_seconds:.2f}s")
        return {"kind": "scenario", "point_id": pid, "from_store": False,
                "record": record}

    def _run_campaign_job(self, job: Job, submission: Submission) -> Dict[str, Any]:
        """One sweep through :func:`run_campaign` against a per-campaign
        store under the server's store directory (resumable by content)."""
        sweep = submission.sweep
        options = submission.options
        suffix = "-quick" if options.quick else ""
        store_path = self.store_dir / f"{sweep.name}{suffix}.jsonl"

        def on_point(record: Dict[str, Any], fresh: bool) -> None:
            if job.cancel_event.is_set():
                raise JobCancelled()
            if fresh:
                self._events.inc(event="simulations")
            verb = "ran" if fresh else "resumed"
            job.progress.append(f"{verb} {record['name']} ({record['point_id']})")

        outcome = run_campaign(
            sweep,
            store_path=store_path,
            options=ExecutionOptions(workers=options.workers, quick=options.quick),
            on_point=on_point,
            timing_cache=self.timing_cache,
            cache=self.result_cache,
        )
        if outcome.skipped_points or outcome.cached_points:
            self._events.inc(
                outcome.skipped_points + outcome.cached_points, event="store_hits"
            )
        return {
            "kind": "campaign",
            "campaign": sweep.name,
            "store": str(store_path),
            "points": len(outcome.points),
            "executed": outcome.executed_points,
            "skipped": outcome.skipped_points,
            "cached": outcome.cached_points,
            "complete": outcome.complete,
            "records": outcome.records,
        }
