"""Simulation-as-a-service: the persistent ``python -m repro.server`` daemon.

Every other entry point in this repository is a cold-start CLI that
rebuilds the engine registry and starts with an empty
:class:`~repro.system.memo.TileTimingCache` on each invocation.  This
package keeps both warm across requests: a stdlib-only HTTP daemon
(:class:`~repro.server.app.ReproServer`) accepts scenario and campaign
submissions as JSON — a ``ScenarioSpec``/``SweepSpec`` dict plus an
:class:`~repro.options.ExecutionOptions` block — runs them on a bounded
worker pool (:class:`~repro.server.jobs.JobManager`), and journals all
job state into the existing JSONL
:class:`~repro.campaign.store.ResultStore` machinery keyed by
content-hashed point ids.  Identical submissions deduplicate onto one
simulation, killed daemons resume in-flight campaigns exactly, and the
second client to ask for a point ever simulated gets it straight from
the store.

Quickstart::

    python -m repro.server --port 8357 --workers 2    # the daemon
    python -m repro.eval submit scenario conv-tiled --wait
    python -m repro.eval submit campaign conv-geometry-sweep --quick --wait

or programmatically through :mod:`repro.client`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.server.app import DEFAULT_PORT, ReproServer, RequestHandler
    from repro.server.jobs import (
        Job,
        JobCancelled,
        JobError,
        JobManager,
        Submission,
        parse_submission,
    )

__all__ = [
    "DEFAULT_PORT",
    "Job",
    "JobCancelled",
    "JobError",
    "JobManager",
    "ReproServer",
    "RequestHandler",
    "Submission",
    "parse_submission",
]

# Public name -> defining submodule, imported on first access (repro._lazy).
_EXPORTS = {
    "DEFAULT_PORT": "app",
    "Job": "jobs",
    "JobCancelled": "jobs",
    "JobError": "jobs",
    "JobManager": "jobs",
    "ReproServer": "app",
    "RequestHandler": "app",
    "Submission": "jobs",
    "parse_submission": "jobs",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
