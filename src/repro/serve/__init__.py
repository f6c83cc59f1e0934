"""``repro.serve`` — the persistent experiment job service.

Turns the one-shot :mod:`repro.api` pipelines into a long-lived serving
system: many clients share one warm process that queues, deduplicates,
executes and persists experiments.

* :class:`JobStore` (:mod:`repro.serve.store`) — SQLite persistence, jobs
  keyed by :attr:`ExperimentRequest.content_hash` with states
  ``queued/running/done/failed/cancelled/quarantined``, per-stage timings,
  JSON results, crash recovery, and the durable per-job event log every
  transition appends to.
* :class:`Worker` (:mod:`repro.serve.worker`) — the one job executor:
  lease-claim (priority + FIFO), execute, heartbeat, retry-with-backoff or
  fail, reap expired leases fleet-wide.  Runs as a ``repro worker`` process
  or as a thread of ``repro serve``.
* :class:`Scheduler` (:mod:`repro.serve.scheduler`) — the front end's
  lifecycle: crash recovery at start, ``concurrency`` worker threads woken
  on submit, graceful drain on SIGINT/SIGTERM.
* :class:`ExperimentServer` (:mod:`repro.serve.http_api`) — stdlib
  ``ThreadingHTTPServer`` JSON API (``POST /jobs``, ``GET /jobs[/<id>]``,
  ``DELETE /jobs/<id>``, ``GET /jobs/<id>/events``, ``GET /healthz``) that
  reads every job view from the store, so both serving modes answer alike.
* :class:`WorkerSupervisor` (:mod:`repro.serve.supervisor`) — spawns and
  respawns a fleet of worker processes for ``repro serve --fleet N``.
* :class:`ServeClient` (:mod:`repro.serve.client`) — the urllib client the
  ``repro submit/status/cancel`` CLI verbs are built on; retries refused
  admissions and rides out brief outages within a reconnect budget.
* :func:`run_chaos` (:mod:`repro.serve.chaos`) — the ``repro chaos``
  fault-injection drill: a seeded :class:`~repro.faults.FaultPlan` against
  a real worker fleet, with the robustness invariants checked at the end.

Robustness seams (see DESIGN.md "Failure modes & degradation"): jobs whose
lease expires more than ``DEFAULT_REQUEUE_CAP`` times are quarantined
(state ``quarantined``) instead of crash-looping; ``repro requeue``
releases them.  Jobs can carry a ``deadline_s`` execution budget enforced
at stage boundaries.  ``repro serve --max-queue N`` refuses submissions
over the cap with 503 + Retry-After.

Minimal embedded use (no HTTP)::

    from repro.api import ExperimentRequest
    from repro.serve import JobStore, Scheduler

    scheduler = Scheduler(JobStore("serve.db"), concurrency=2)
    scheduler.start()
    job, deduped = scheduler.submit(ExperimentRequest(experiment="fig8"))
    print(scheduler.wait(job.id).result().summary)
    scheduler.stop()

Every name below, and each of these submodules, loads on first use: ``import
repro.serve.client`` (the client verbs) imports neither the executor nor the
HTTP server.
"""

from __future__ import annotations

from repro import _lazy_namespace

_EXPORTS = {
    "default_chaos_plan": "chaos",
    "run_chaos": "chaos",
    "DEFAULT_RECONNECT_BUDGET": "client",
    "DEFAULT_URL": "client",
    "ServeBusyError": "client",
    "ServeClient": "client",
    "ServeError": "client",
    "ServeUnavailableError": "client",
    "DEFAULT_HOST": "http_api",
    "DEFAULT_PORT": "http_api",
    "ExperimentServer": "http_api",
    "Scheduler": "scheduler",
    "AmbiguousJobError": "store",
    "DEFAULT_LEASE_TTL": "store",
    "DEFAULT_REQUEUE_CAP": "store",
    "INACTIVE_STATES": "store",
    "Job": "store",
    "JobStore": "store",
    "QUARANTINED": "store",
    "ReapOutcome": "store",
    "STATES": "store",
    "TERMINAL_STATES": "store",
    "UnknownJobError": "store",
    "default_worker_id": "store",
    "WorkerSupervisor": "supervisor",
    "Worker": "worker",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_namespace(__name__, _EXPORTS)
