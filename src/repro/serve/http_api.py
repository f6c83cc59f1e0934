"""Stdlib HTTP JSON API in front of the job store and scheduler.

Built on :class:`http.server.ThreadingHTTPServer` — no web framework, no new
dependency — because the payloads are small JSON documents and the heavy
lifting happens in the workers, not in request handlers.  Every job view
(rows, the events feed, the ``/stats`` transition counters) is read from
the store, so the API answers the same way whether the jobs run on the
scheduler's threads or in ``--fleet`` worker processes.

Routes
------
``POST /jobs``
    Submit a serialized :class:`~repro.api.ExperimentRequest`.  Body is
    either the bare request dict or ``{"request": {...}, "priority": int,
    "max_retries": int}``.  Responds ``201`` with ``{"job": ..., "deduped":
    false}`` for a brand-new execution, ``200`` with ``"deduped": true``
    when the request attached to an existing in-flight/completed job.
``GET /jobs``
    List jobs, newest first; ``?state=queued`` and ``?experiment=fig8``
    filter, ``?limit=N`` bounds.
``GET /jobs/<id>``
    One job (unique id prefixes accepted), including live stage timings and
    — once done — the full serialized :class:`~repro.api.ExperimentResult`.
``DELETE /jobs/<id>``
    Cancel a queued job.  Responds with the (possibly unchanged) job and a
    ``cancelled`` flag; running/terminal jobs are not interrupted.
``GET /jobs/<id>/events``
    Long-poll streaming stage progress: ``?since=N`` resumes after the last
    seen sequence number, ``?timeout=S`` bounds the poll (default 25s, capped
    at 60).  Responds ``{"job": ..., "state": ..., "events": [...], "next":
    N}`` — the events are the store's durable log of the job's transitions
    (started/stage/done/retry_scheduled/failed/cancelled/requeued/
    quarantined), re-read every ``EVENTS_POLL_INTERVAL`` seconds until an
    event arrives, the job is inactive, or the timeout passes.
``GET /jobs/<id>/trace``
    The job's merged distributed trace as a Chrome/Perfetto trace-event
    document: every span any fleet process spooled under the job's
    ``trace_id`` (front-end submission, worker claim/execute, pipeline
    stages), plus a synthetic ``queue.wait`` span from the job row.  The
    ``metadata`` key carries the trace id, contributing pids and queue wait.
``GET /metrics/history``
    The persisted metrics time-series: periodic registry snapshots from
    every fleet process, merged timestamp-ascending.  ``?limit=N`` keeps the
    newest N entries (default 120), ``?since=T`` drops entries at or before
    epoch ``T``.
``GET /stats``
    Telemetry snapshot: uptime, queue depth by state, per-stage p50/p95
    latency, cache hit rates, job counters and the full metrics registry.
    The job-transition counters (claimed, done, failed, retried, cancelled,
    requeued, quarantined) are totals over the store's event log; the rest
    (submissions, dedup attaches, busy retries, ...) count this process.
``GET /metrics``
    The same registry in Prometheus text exposition format, plus per-state
    ``repro_serve_jobs`` gauges refreshed at scrape time.
``GET /healthz``
    Liveness: version, uptime, per-state job counts, scheduler liveness
    (workers alive, last dequeue timestamp), every registered worker with
    heartbeat age and current lease, and — in ``--fleet`` mode — per-slot
    worker-process state (pid, alive, restarts).

Errors are JSON too: ``{"error": "<message>"}`` with 400 for malformed
requests, 404 for unknown routes/jobs, 409 for ambiguous id prefixes.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

import repro
from repro.api.registry import UnknownNameError, get_experiment
from repro.api.request import ExperimentRequest
from repro.faults import InjectedFault, fault_point
from repro.obs import bind_trace, metrics, new_trace_id, trace_context, trace_span
from repro.obs.sink import merge_trace, obs_dir_for, read_metrics_history, read_spans
from repro.serve.scheduler import Scheduler
from repro.serve.store import (
    AmbiguousJobError,
    INACTIVE_STATES,
    JobStore,
    QUEUED,
    RUNNING,
    DONE,
    QUARANTINED,
    UnknownJobError,
)

# Long-poll bounds for /jobs/<id>/events, and how often a poll re-reads the
# store's event log (the writer may be another process, so there is nothing
# in this one to wait on).
DEFAULT_EVENTS_TIMEOUT = 25.0
MAX_EVENTS_TIMEOUT = 60.0
EVENTS_POLL_INTERVAL = 0.05

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8377


class ExperimentServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one scheduler + store pair."""

    daemon_threads = True

    def __init__(
        self,
        scheduler: Scheduler,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        supervisor: Any = None,
        max_queue_depth: int | None = None,
        admission_retry_after: float = 2.0,
    ) -> None:
        self.scheduler = scheduler
        # The WorkerSupervisor when running in --fleet mode (duck-typed to
        # avoid importing subprocess machinery for embedded servers).
        self.supervisor = supervisor
        # Admission control: with ``max_queue_depth`` set, a submission that
        # would grow the queued backlog past the cap is refused with
        # 503 + Retry-After instead of accepted into an unbounded queue.
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.max_queue_depth = max_queue_depth
        self.admission_retry_after = admission_retry_after
        self.started_at = time.time()
        super().__init__((host, port), _Handler)

    @property
    def store(self) -> JobStore:
        return self.scheduler.store

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server: ExperimentServer  # narrowed for readability

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        # Quiet by default; the CLI's serve loop reports the interesting
        # events (submissions, completions) from the store instead.
        pass

    def _send_json(
        self,
        payload: Any,
        status: int = 200,
        headers: dict[str, str] | None = None,
    ) -> None:
        try:
            # The injectable response failure: drop the connection before a
            # single response byte, as a crashed front end would.
            fault_point("http.response", path=self.path, status=status)
        except InjectedFault:
            self.close_connection = True
            return
        body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, message: str, status: int) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        return json.loads(raw.decode("utf-8"))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        try:
            if parts == ["healthz"]:
                self._send_json(self._health())
            elif parts == ["stats"]:
                self._send_json(self._stats())
            elif parts == ["metrics"]:
                self._send_metrics()
            elif parts == ["jobs"]:
                self._send_json(self._list_jobs(parse_qs(parsed.query)))
            elif len(parts) == 2 and parts[0] == "jobs":
                job = self.server.store.find(parts[1])
                self._send_json({"job": job.to_dict()})
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
                self._send_json(self._events(parts[1], parse_qs(parsed.query)))
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
                self._send_json(self._trace(parts[1]))
            elif parts == ["metrics", "history"]:
                self._send_json(self._metrics_history(parse_qs(parsed.query)))
            else:
                self._send_error(f"no route for GET {parsed.path}", 404)
        except UnknownJobError as exc:
            self._send_error(str(exc), 404)
        except AmbiguousJobError as exc:
            self._send_error(str(exc), 409)
        except ValueError as exc:
            self._send_error(str(exc), 400)

    def do_POST(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "requeue":
            self._requeue(parts[1])
            return
        if parts != ["jobs"]:
            self._send_error(f"no route for POST {parsed.path}", 404)
            return
        try:
            body = self._read_body()
            if not isinstance(body, dict):
                raise ValueError(
                    f"body must be a JSON object, got {type(body).__name__}"
                )
            request_payload = body.get("request", body)
            if not isinstance(request_payload, dict):
                raise ValueError("'request' must be a JSON object")
            request = ExperimentRequest.from_dict(request_payload)
            get_experiment(request.experiment)  # unknown names fail here
            deadline_s = body.get("deadline_s")
            if deadline_s is not None:
                deadline_s = float(deadline_s)
                if deadline_s <= 0:
                    raise ValueError(
                        f"deadline_s must be > 0, got {deadline_s}"
                    )
            trace_id = body.get("trace_id")
            if trace_id is not None and not isinstance(trace_id, str):
                raise ValueError("trace_id must be a string")
            trace_id = trace_id or new_trace_id()
            if self._admission_refused(request):
                return
            # The submission span is the trace's front-end root.  The ids
            # are re-bound after the store decides: a dedup attach keeps the
            # existing job's trace_id, and the span must carry the id the
            # job actually ended up with.
            with trace_context(trace_id=trace_id):
                with trace_span(
                    "http.submit", experiment=request.experiment
                ) as span:
                    job, deduped = self.server.scheduler.submit(
                        request,
                        priority=int(body.get("priority", 0)),
                        max_retries=int(body.get("max_retries", 0)),
                        source=body.get("source") or self.client_address[0],
                        deadline_s=deadline_s,
                        trace_id=trace_id,
                    )
                    bind_trace(trace_id=job.trace_id, job_id=job.id)
                    span["deduped"] = deduped
        except (
            json.JSONDecodeError,
            KeyError,
            TypeError,
            UnknownNameError,
            ValueError,
        ) as exc:
            self._send_error(f"bad submission: {exc}", 400)
            return
        self._send_json(
            {"job": job.to_dict(include_result=False), "deduped": deduped},
            status=200 if deduped else 201,
        )

    def _admission_refused(self, request: ExperimentRequest) -> bool:
        """Apply the queue-depth cap; True when a 503 was sent.

        A submission that can only *attach* (its job already exists and is
        not about to requeue) adds no backlog and is always admitted — a
        caller polling for an in-flight result must never see a 503 for it.
        """
        cap = self.server.max_queue_depth
        if cap is None:
            return False
        try:
            existing = self.server.store.get(request.content_hash)
            attaches = existing.state in (QUEUED, RUNNING, DONE, QUARANTINED)
        except UnknownJobError:
            attaches = False
        if attaches:
            return False
        if self.server.store.counts()[QUEUED] < cap:
            return False
        retry_after = self.server.admission_retry_after
        metrics().counter("serve.admission_rejected").inc()
        self._send_json(
            {
                "error": (
                    f"queue is full ({cap} queued jobs);"
                    f" retry in {retry_after:g}s"
                ),
                "retry_after": retry_after,
            },
            status=503,
            headers={"Retry-After": f"{retry_after:g}"},
        )
        return True

    def _requeue(self, job_ref: str) -> None:
        """POST /jobs/<id>/requeue — the quarantine escape hatch."""
        try:
            job = self.server.store.find(job_ref)
            job, requeued = self.server.scheduler.requeue(job.id)
        except UnknownJobError as exc:
            self._send_error(str(exc), 404)
            return
        except AmbiguousJobError as exc:
            self._send_error(str(exc), 409)
            return
        self._send_json(
            {"job": job.to_dict(include_result=False), "requeued": requeued}
        )

    def do_DELETE(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if len(parts) != 2 or parts[0] != "jobs":
            self._send_error(f"no route for DELETE {parsed.path}", 404)
            return
        try:
            job = self.server.store.find(parts[1])
            job, cancelled = self.server.store.cancel(job.id)
        except UnknownJobError as exc:
            self._send_error(str(exc), 404)
            return
        except AmbiguousJobError as exc:
            self._send_error(str(exc), 409)
            return
        self._send_json(
            {"job": job.to_dict(include_result=False), "cancelled": cancelled}
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _health(self) -> dict[str, Any]:
        server = self.server
        scheduler = server.scheduler
        supervisor = server.supervisor
        workers = server.store.list_workers()
        return {
            "ok": True,
            "version": repro.__version__,
            "uptime_s": time.time() - server.started_at,
            "jobs": server.store.counts(),
            "scheduler": {
                "concurrency": scheduler.concurrency,
                "running": scheduler.running,
                "workers_alive": len(workers),
                "last_dequeue_at": scheduler.last_dequeue_at,
                "lease_ttl": scheduler.lease_ttl,
                "threads": scheduler.worker_liveness(),
            },
            # Every registered worker (in-process threads and external
            # ``repro worker`` processes alike) with heartbeat age + lease.
            "workers": workers,
            "fleet": (
                {
                    "size": supervisor.count,
                    "alive": supervisor.alive,
                    "processes": supervisor.fleet_state(),
                }
                if supervisor is not None
                else None
            ),
        }

    def _stats(self) -> dict[str, Any]:
        """The `/stats` snapshot: queue depths, latency quantiles, hit rates."""
        server = self.server
        scheduler = server.scheduler
        snapshot = metrics().snapshot()

        def counter_total(name: str) -> int:
            return sum(entry["value"] for entry in snapshot.get(name, ()))

        stages: dict[str, dict[str, Any]] = {}
        for entry in snapshot.get("pipeline.stage.seconds", ()):
            stage = entry["labels"].get("stage", "?")
            stages[stage] = {
                "count": entry["count"],
                "p50": entry["p50"],
                "p95": entry["p95"],
                "p99": entry["p99"],
            }

        caches: dict[str, dict[str, Any]] = {}
        for name, outcome in (("cache.hits", "hits"), ("cache.misses", "misses")):
            for entry in snapshot.get(name, ()):
                cache = entry["labels"].get("cache", "?")
                caches.setdefault(cache, {"hits": 0, "misses": 0})[outcome] = entry[
                    "value"
                ]
        for cache, info in caches.items():
            lookups = info["hits"] + info["misses"]
            info["hit_rate"] = (info["hits"] / lookups) if lookups else None

        queue_wait = snapshot.get("serve.queue_wait_seconds", ())
        validate_error = snapshot.get("analytic.validate.max_rel_error", ())
        logged = server.store.event_counts()
        return {
            "version": repro.__version__,
            "uptime_s": time.time() - server.started_at,
            "queue": server.store.counts(),
            "jobs": {
                "submitted": counter_total("jobs.submitted"),
                "dedup_attached": counter_total("jobs.dedup_attached"),
                "claimed": logged.get("started", 0),
                "done": logged.get("done", 0),
                "failed": logged.get("failed", 0),
                "retried": logged.get("retry_scheduled", 0),
                "cancelled": logged.get("cancelled", 0),
                "lease_expired": counter_total("jobs.lease_expired"),
                "requeued": logged.get("requeued", 0),
                "lease_lost": counter_total("jobs.lease_lost"),
                "busy_retries": counter_total("store.busy_retries"),
                "quarantined": logged.get("quarantined", 0),
                "manual_requeues": counter_total("jobs.manual_requeues"),
                "deadline_exceeded": counter_total("serve.deadline_exceeded"),
                "admission_rejected": counter_total("serve.admission_rejected"),
            },
            "scheduler": {
                "concurrency": scheduler.concurrency,
                "workers_alive": len(server.store.list_workers()),
                "last_dequeue_at": scheduler.last_dequeue_at,
                "queue_wait": dict(queue_wait[0]) if queue_wait else None,
            },
            "stages": stages,
            "caches": caches,
            "analytic": {
                "points_evaluated": counter_total("analytic.points_evaluated"),
                "validate_max_rel_error": (
                    validate_error[0]["value"] if validate_error else None
                ),
            },
            "metrics": snapshot,
        }

    def _send_metrics(self) -> None:
        """Prometheus text format; job-state gauges refreshed at scrape time."""
        registry = metrics()
        for state, count in self.server.store.counts().items():
            registry.gauge("serve.jobs", state=state).set(count)
        registry.gauge("serve.uptime_seconds").set(
            time.time() - self.server.started_at
        )
        registry.gauge("serve.workers_alive").set(
            len(self.server.store.list_workers())
        )
        if self.server.supervisor is not None:
            registry.gauge("serve.fleet_alive").set(self.server.supervisor.alive)
        body = registry.render_prometheus().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _trace(self, job_ref: str) -> dict[str, Any]:
        """GET /jobs/<id>/trace — the merged cross-process Chrome trace."""
        job = self.server.store.find(job_ref)
        directory = obs_dir_for(self.server.store.path)
        spans = (
            read_spans(directory, trace_id=job.trace_id)
            if job.trace_id
            else []
        )
        return merge_trace(spans, job=job.to_dict(include_result=False))

    def _metrics_history(self, query: dict[str, list[str]]) -> dict[str, Any]:
        """GET /metrics/history — merged per-process snapshot series."""
        limit = int(query.get("limit", ["120"])[0])
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        since_raw = query.get("since", [None])[0]
        since = float(since_raw) if since_raw is not None else None
        entries = read_metrics_history(
            obs_dir_for(self.server.store.path), limit=limit, since=since
        )
        return {
            "history": entries,
            "processes": sorted({entry.get("pid") for entry in entries if entry.get("pid")}),
        }

    def _events(self, job_ref: str, query: dict[str, list[str]]) -> dict[str, Any]:
        """Long-poll one job's progress events past ``since``."""
        job = self.server.store.find(job_ref)
        since = int(query.get("since", ["0"])[0])
        timeout = min(
            float(query.get("timeout", [str(DEFAULT_EVENTS_TIMEOUT)])[0]),
            MAX_EVENTS_TIMEOUT,
        )
        deadline = time.monotonic() + timeout
        while True:
            # State before events: a terminal state read here guarantees its
            # event (logged in the same transaction) is in the read below.
            job = self.server.store.get(job.id)
            events = self.server.store.events(job.id, since)
            if (
                events
                or job.state in INACTIVE_STATES
                or time.monotonic() >= deadline
            ):
                break
            time.sleep(EVENTS_POLL_INTERVAL)
        return {
            "job": job.id,
            "state": job.state,
            "events": events,
            "next": events[-1]["seq"] if events else since,
        }

    def _list_jobs(self, query: dict[str, list[str]]) -> dict[str, Any]:
        state = query.get("state", [None])[0]
        experiment = query.get("experiment", [None])[0]
        limit = int(query.get("limit", ["200"])[0])
        jobs = self.server.store.list_jobs(
            state=state, experiment=experiment, limit=limit
        )
        return {"jobs": [job.to_dict(include_result=False) for job in jobs]}


__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "ExperimentServer"]
