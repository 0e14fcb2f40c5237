"""The HTTP surface of the daemon: routes, JSON plumbing, server class.

Everything is standard library — :class:`http.server.ThreadingHTTPServer`
fronting the :class:`~repro.server.jobs.JobManager` — so the daemon runs
anywhere the package does.  The API is deliberately small:

====== ======================== ==========================================
method path                     meaning
====== ======================== ==========================================
POST   ``/jobs``                submit a scenario/campaign (JSON body)
GET    ``/jobs``                list every known job (descriptors)
GET    ``/jobs/<id>``           status + streamed progress lines
GET    ``/jobs/<id>/result``    the result payload (409 until terminal)
POST   ``/jobs/<id>/cancel``    request cancellation
GET    ``/jobs/<id>/trace``     captured spans (``--trace`` daemons)
GET    ``/healthz``             uptime, cache stats (tile + result), jobs
GET    ``/metrics``             Prometheus text exposition (repro.obs)
====== ======================== ==========================================

``POST /jobs`` answers 202 for a freshly enqueued job and 200 when the
content hash matched an existing one (the dedup path); both carry the
job descriptor, so clients poll the same way either way.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional
from urllib.parse import urlparse

from repro.client import DEFAULT_PORT
from repro.server.jobs import JobError, JobManager
from repro.system.memo import TileTimingCache

__all__ = ["DEFAULT_PORT", "ReproServer", "RequestHandler"]

_JOB_ROUTE = re.compile(r"/jobs/([A-Za-z0-9_-]+)(/result|/cancel|/trace)?")


class RequestHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request onto the owning server's job manager."""

    server_version = "repro-server"
    protocol_version = "HTTP/1.1"

    # The daemon's stdout is its operational log (CI greps it); per-request
    # lines from the stdlib handler would drown it, so they are dropped.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    @property
    def manager(self) -> JobManager:
        """The job manager of the owning :class:`ReproServer`."""
        return self.server.manager  # type: ignore[attr-defined]

    def _json(self, code: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _text(self, code: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise JobError("the request body must be a JSON object")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise JobError(f"invalid JSON body: {error}") from error

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """``/healthz``, ``/jobs``, ``/jobs/<id>`` and ``/jobs/<id>/result``."""
        path = urlparse(self.path).path.rstrip("/") or "/"
        if path == "/healthz":
            return self._json(200, self.manager.healthz())
        if path == "/metrics":
            return self._text(
                200, self.manager.render_metrics(), "text/plain; version=0.0.4"
            )
        if path == "/jobs":
            with self.manager._lock:  # noqa: SLF001 - consistent snapshot
                jobs = [job.descriptor() for job in self.manager.jobs.values()]
            return self._json(200, {"jobs": jobs})
        match = _JOB_ROUTE.fullmatch(path)
        if match and match.group(2) in (None, "/result", "/trace"):
            job = self.manager.get(match.group(1))
            if job is None:
                return self._json(404, {"error": f"unknown job {match.group(1)!r}"})
            if match.group(2) is None:
                return self._json(200, {"job": job.descriptor()})
            if match.group(2) == "/trace":
                return self._json(
                    200,
                    {
                        "job": job.descriptor(),
                        "tracing": self.manager.trace,
                        "spans": list(job.spans),
                    },
                )
            if job.state == "completed":
                return self._json(
                    200, {"job": job.descriptor(), "result": job.result}
                )
            if job.state == "failed":
                return self._json(500, {"job": job.descriptor(), "error": job.error})
            return self._json(
                409,
                {
                    "job": job.descriptor(),
                    "error": f"job {job.id} is {job.state}; poll until completed",
                },
            )
        return self._json(404, {"error": f"no route for GET {path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """``/jobs`` (submission) and ``/jobs/<id>/cancel``."""
        path = urlparse(self.path).path.rstrip("/")
        if path == "/jobs":
            try:
                payload = self._read_body()
                job, fresh = self.manager.submit(payload)
            except JobError as error:
                return self._json(400, {"error": str(error)})
            return self._json(
                202 if fresh else 200,
                {"job": job.descriptor(), "deduplicated": not fresh},
            )
        match = _JOB_ROUTE.fullmatch(path)
        if match and match.group(2) == "/cancel":
            job = self.manager.cancel(match.group(1))
            if job is None:
                return self._json(404, {"error": f"unknown job {match.group(1)!r}"})
            return self._json(200, {"job": job.descriptor()})
        return self._json(404, {"error": f"no route for POST {path}"})


class ReproServer(ThreadingHTTPServer):
    """The daemon: a threading HTTP server owning one :class:`JobManager`.

    One instance holds the process-lifetime warm
    :class:`~repro.system.memo.TileTimingCache` and the bounded job
    worker pool; HTTP handler threads only enqueue and poll, so slow
    simulations never block the API.  ``port=0`` binds an ephemeral port
    (the tests do this); :attr:`url` reports the resolved address.
    """

    daemon_threads = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = 2,
        store_dir: str = "server-results",
        timing_cache: Optional[TileTimingCache] = None,
        cache_dir: Optional[str] = None,
        trace: bool = False,
    ) -> None:
        self.manager = JobManager(
            store_dir,
            workers=workers,
            timing_cache=timing_cache,
            cache_dir=cache_dir,
            trace=trace,
        )
        self._thread: Optional[threading.Thread] = None
        super().__init__((host, port), RequestHandler)

    @property
    def url(self) -> str:
        """The resolved base URL clients should talk to."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Serve requests on a background thread (tests and embedders)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-server", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        """Stop serving, drain the worker pool, release the socket.

        In-flight campaigns are interrupted without a terminal journal
        entry (see :meth:`JobManager.close`), so a daemon restarted on
        the same store directory re-enqueues and resumes them exactly.
        The manager is flagged first so jobs stop draining immediately
        rather than racing the HTTP teardown.
        """
        self.manager.begin_shutdown()
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self.server_close()
        self.manager.close()
