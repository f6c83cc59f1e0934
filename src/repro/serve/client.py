"""Small urllib client for the experiment job service.

The CLI verbs (``repro submit`` / ``status`` / ``cancel``) and tests talk to
a running ``repro serve`` through this class; it mirrors the HTTP API
one-to-one and stays dependency-free (``urllib.request`` only).  Server-side
errors surface as :class:`ServeError` carrying the HTTP status and the
server's ``{"error": ...}`` message; connection failures surface as
:class:`ServeUnavailableError` so callers can distinguish "service said no"
from "no service there"; a 503 from admission control surfaces as
:class:`ServeBusyError` carrying the server's ``Retry-After`` hint.

The client is deliberately tolerant of a *briefly* absent service:
:meth:`ServeClient.submit` retries refused admissions with jittered backoff,
and :meth:`ServeClient.wait` rides out transient outages (a supervisor
respawn, a front-end restart) within a bounded reconnect budget — a
``repro submit --wait`` must not die because the service blinked.

:meth:`ServeClient.wait` long-polls the job's events feed rather than
re-reading the job on a timer, so it returns as soon as the service logs
the job's last transition.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Mapping

from repro.api.request import ExperimentRequest
from repro.faults import InjectedFault, fault_point
from repro.obs import new_trace_id
from repro.serve.http_api import DEFAULT_EVENTS_TIMEOUT, DEFAULT_HOST, DEFAULT_PORT
from repro.serve.store import INACTIVE_STATES

DEFAULT_URL = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"

#: How long :meth:`ServeClient.wait` keeps retrying through a service outage
#: before giving up (seconds of *continuous* unavailability).
DEFAULT_RECONNECT_BUDGET = 30.0


class ServeError(RuntimeError):
    """The service answered with an error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.message = message


class ServeUnavailableError(ServeError):
    """No service reachable at the configured URL."""

    def __init__(self, url: str, reason: str) -> None:
        RuntimeError.__init__(
            self, f"cannot reach experiment service at {url}: {reason}"
        )
        self.status = 0
        self.message = reason


class ServeBusyError(ServeError):
    """Admission control refused the submission (503 + Retry-After)."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(503, message)
        self.retry_after = retry_after


class ServeClient:
    """JSON-over-HTTP client bound to one service URL."""

    def __init__(self, url: str = DEFAULT_URL, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _call(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers, method=method
        )
        try:
            # The injectable client-socket failure: the request never leaves
            # this process, exactly like a refused/reset connection.
            fault_point("client.request", method=method, path=path)
            with urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            ) as response:
                body = response.read().decode("utf-8")
                content_type = response.headers.get("Content-Type", "")
                if "json" not in content_type:
                    return {"text": body}
                return json.loads(body)
        except InjectedFault as exc:
            raise ServeUnavailableError(self.url, str(exc)) from None
        except urllib.error.HTTPError as exc:
            retry_after = exc.headers.get("Retry-After")
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", "")
            except (json.JSONDecodeError, UnicodeDecodeError):
                message = exc.reason
            if exc.code == 503 and retry_after is not None:
                raise ServeBusyError(
                    message or str(exc.reason), float(retry_after)
                ) from None
            raise ServeError(exc.code, message or str(exc.reason)) from None
        except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
            reason = getattr(exc, "reason", exc)
            raise ServeUnavailableError(self.url, str(reason)) from None

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        return self._call("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        """The service's telemetry snapshot (``GET /stats``)."""
        return self._call("GET", "/stats")

    def metrics_text(self) -> str:
        """The Prometheus exposition text (``GET /metrics``)."""
        return self._call("GET", "/metrics")["text"]

    def events(
        self, job_id: str, since: int = 0, timeout: float = 25.0
    ) -> dict[str, Any]:
        """Long-poll one job's progress events past ``since``.

        Returns ``{"job", "state", "events", "next"}``; pass the returned
        ``next`` as the following call's ``since`` to stream without gaps.
        The socket timeout is derived from the poll timeout (plus a margin)
        per call, so a long poll >= the client's default timeout cannot be
        killed by its own socket while the server is still counting down.
        """
        io_timeout = max(self.timeout, timeout + 10.0)
        return self._call(
            "GET",
            f"/jobs/{job_id}/events?since={since}&timeout={timeout}",
            timeout=io_timeout,
        )

    def submit(
        self,
        request: ExperimentRequest | Mapping[str, Any],
        priority: int = 0,
        max_retries: int = 0,
        deadline_s: float | None = None,
        admission_retries: int = 5,
        trace_id: str | None = None,
    ) -> dict[str, Any]:
        """Submit a request; returns ``{"job": ..., "deduped": bool}``.

        A 503 from admission control is retried up to ``admission_retries``
        times, sleeping the server's ``Retry-After`` hint plus up to 25%
        jitter between attempts (jitter spreads a thundering herd of
        refused clients); the final refusal propagates as
        :class:`ServeBusyError`.  Set ``admission_retries=0`` to surface the
        first refusal immediately.

        A ``trace_id`` is generated client-side when not given — the trace
        is born at the submitter, so even client logs written before the
        response can correlate with the job's distributed trace.  (The
        authoritative id is the one on the returned job: a dedup attach
        keeps the existing job's trace.)
        """
        payload = (
            request.to_dict()
            if isinstance(request, ExperimentRequest)
            else dict(request)
        )
        body = {
            "request": payload,
            "priority": priority,
            "max_retries": max_retries,
            "trace_id": trace_id or new_trace_id(),
        }
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        for attempt in range(admission_retries + 1):
            try:
                return self._call("POST", "/jobs", body)
            except ServeBusyError as exc:
                if attempt == admission_retries:
                    raise
                delay = exc.retry_after * (1.0 + random.random() * 0.25)
                time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def job(self, job_id: str) -> dict[str, Any]:
        return self._call("GET", f"/jobs/{job_id}")["job"]

    def jobs(
        self,
        state: str | None = None,
        experiment: str | None = None,
        limit: int = 200,
    ) -> list[dict[str, Any]]:
        query = [f"limit={limit}"]
        if state:
            query.append(f"state={state}")
        if experiment:
            query.append(f"experiment={experiment}")
        return self._call("GET", "/jobs?" + "&".join(query))["jobs"]

    def trace(self, job_id: str) -> dict[str, Any]:
        """The job's merged Chrome/Perfetto trace (``GET /jobs/<id>/trace``)."""
        return self._call("GET", f"/jobs/{job_id}/trace")

    def metrics_history(
        self, limit: int = 120, since: float | None = None
    ) -> dict[str, Any]:
        """The persisted metrics time-series (``GET /metrics/history``)."""
        query = f"limit={limit}"
        if since is not None:
            query += f"&since={since}"
        return self._call("GET", f"/metrics/history?{query}")

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a queued job; returns ``{"job": ..., "cancelled": bool}``."""
        return self._call("DELETE", f"/jobs/{job_id}")

    def requeue(self, job_id: str) -> dict[str, Any]:
        """Release a quarantined/failed job back to the queue
        (``POST /jobs/<id>/requeue``); returns ``{"job", "requeued"}``."""
        return self._call("POST", f"/jobs/{job_id}/requeue", {})

    def wait(
        self,
        job_id: str,
        timeout: float | None = None,
        poll: float = 0.25,
        reconnect_budget: float = DEFAULT_RECONNECT_BUDGET,
    ) -> dict[str, Any]:
        """Block until the job is terminal or quarantined; returns its row.

        Long-polls ``GET /jobs/<id>/events`` (``since`` the last event seen,
        each poll bounded by the remaining ``timeout``) until the feed
        reports an inactive state, then fetches the row with one
        ``GET /jobs/<id>``.

        Transient :class:`ServeUnavailableError`\\ s are absorbed for up to
        ``reconnect_budget`` seconds of *continuous* outage (a fleet
        supervisor respawning the front end must not kill a ``--wait``),
        retrying every ``poll`` seconds; the budget resets on every
        successful call.  Raises ``TimeoutError`` past ``timeout`` and the
        last :class:`ServeUnavailableError` once the reconnect budget is
        spent.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        outage_since: float | None = None
        since = 0
        while True:
            window = DEFAULT_EVENTS_TIMEOUT
            if deadline is not None:
                window = max(0.0, min(window, deadline - time.monotonic()))
            pause = 0.0
            try:
                feed = self.events(job_id, since=since, timeout=window)
                if feed["state"] in INACTIVE_STATES:
                    return self.job(job_id)
            except ServeUnavailableError:
                now = time.monotonic()
                outage_since = outage_since if outage_since is not None else now
                if now - outage_since >= reconnect_budget:
                    raise
                pause = poll
            else:
                outage_since = None
                since = feed["next"]
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id[:12]} not finished after {timeout}s"
                )
            if pause:
                time.sleep(pause)


__all__ = [
    "DEFAULT_RECONNECT_BUDGET",
    "DEFAULT_URL",
    "ServeBusyError",
    "ServeClient",
    "ServeError",
    "ServeUnavailableError",
]
