"""Thin HTTP client for the :mod:`repro.server` daemon.

Stdlib-only (:mod:`urllib.request`), mirroring the server's small API:
``submit`` / ``status`` / ``result`` / ``cancel`` / ``wait``.  The
``python -m repro.eval submit`` subcommand is a thin wrapper around
:class:`Client`; programmatic callers use it directly::

    from repro import ExecutionOptions
    from repro.client import Client

    client = Client("http://127.0.0.1:8357")
    job = client.submit_scenario("conv-tiled", options=ExecutionOptions())
    result = client.wait(job["id"])

Submissions resolve registered scenario names locally (so spec
overrides like ``num_tiles`` apply client-side and participate in the
job's content hash) and send campaigns by registered name or as full
``SweepSpec`` dicts.  Server-side errors surface as :class:`ServerError`
carrying the HTTP status and the decoded JSON error payload.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Mapping, Optional, Union

from repro.options import ExecutionOptions
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec

__all__ = ["DEFAULT_PORT", "DEFAULT_SERVER_URL", "Client", "ServerError"]

#: Default TCP port of ``python -m repro.server`` and ``repro.client``
#: (defined here so the client never imports the server and its simulator).
DEFAULT_PORT = 8357
#: Where ``python -m repro.server`` listens by default.
DEFAULT_SERVER_URL = f"http://127.0.0.1:{DEFAULT_PORT}"


class ServerError(RuntimeError):
    """The daemon answered with an error status (or the job failed)."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        self.status = status
        self.payload = payload
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")


def _options_dict(
    options: Optional[Union[ExecutionOptions, Mapping[str, Any]]],
) -> Dict[str, Any]:
    """Normalize an options argument to the payload's ``options`` block."""
    if options is None:
        return {}
    if isinstance(options, ExecutionOptions):
        return options.to_dict()
    return ExecutionOptions.from_dict(options).to_dict()


class Client:
    """One daemon endpoint; every method is a single HTTP round trip
    except :meth:`wait`, which polls."""

    def __init__(self, base_url: str = DEFAULT_SERVER_URL, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            with error:
                body = error.read().decode("utf-8", errors="replace")
            try:
                decoded = json.loads(body)
            except json.JSONDecodeError:
                decoded = {"error": body}
            raise ServerError(error.code, decoded) from None

    # -- the five verbs -------------------------------------------------------

    def submit(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Submit a raw job payload; returns the job descriptor."""
        response = self._request("POST", "/jobs", dict(payload))
        job = response["job"]
        job["deduplicated"] = response.get("deduplicated", False)
        return job

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's descriptor: state, progress lines, submission count."""
        return self._request("GET", f"/jobs/{job_id}")["job"]

    def result(self, job_id: str) -> Dict[str, Any]:
        """The completed job's result payload (raises until terminal)."""
        return self._request("GET", f"/jobs/{job_id}/result")["result"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation; returns the (possibly updated) descriptor."""
        return self._request("POST", f"/jobs/{job_id}/cancel")["job"]

    def wait(
        self, job_id: str, timeout: float = 600.0, poll: float = 0.2
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; return its result payload.

        Raises :class:`ServerError` if the job failed or was cancelled,
        and :class:`TimeoutError` if it is still running after
        ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            job = self.status(job_id)
            if job["state"] == "completed":
                return self.result(job_id)
            if job["state"] in ("failed", "cancelled"):
                raise ServerError(
                    500 if job["state"] == "failed" else 409,
                    {"error": job.get("error") or f"job {job_id} {job['state']}"},
                )
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout:.0f}s"
                )
            time.sleep(poll)

    # -- convenience wrappers -------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """The daemon's health payload (uptime, cache, job counters)."""
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """The daemon's ``/metrics`` scrape (Prometheus text format)."""
        request = urllib.request.Request(self.base_url + "/metrics", method="GET")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            with error:
                body = error.read().decode("utf-8", errors="replace")
            raise ServerError(error.code, {"error": body}) from None

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The job's captured spans (``--trace`` daemons only)."""
        return self._request("GET", f"/jobs/{job_id}/trace")

    def submit_scenario(
        self,
        scenario: Union[str, ScenarioSpec, Mapping[str, Any]],
        options: Optional[Union[ExecutionOptions, Mapping[str, Any]]] = None,
        **overrides,
    ) -> Dict[str, Any]:
        """Submit one scenario (registered name, spec or spec dict).

        Names resolve against the local registry so ``overrides`` (e.g.
        ``num_tiles=2``) apply before submission and participate in the
        job's content hash.
        """
        if isinstance(scenario, str):
            spec = get_scenario(scenario)
        elif isinstance(scenario, ScenarioSpec):
            spec = scenario
        else:
            spec = ScenarioSpec.from_dict(scenario)
        if overrides:
            spec = spec.with_overrides(**overrides)
        return self.submit(
            {"kind": "scenario", "spec": spec.to_dict(),
             "options": _options_dict(options)}
        )

    def submit_campaign(
        self,
        campaign: Union[str, Mapping[str, Any]],
        options: Optional[Union[ExecutionOptions, Mapping[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Submit one campaign (registered name or full sweep dict)."""
        payload: Dict[str, Any] = {"kind": "campaign", "options": _options_dict(options)}
        if isinstance(campaign, str):
            payload["campaign"] = campaign
        else:
            payload["sweep"] = dict(campaign)
        return self.submit(payload)
