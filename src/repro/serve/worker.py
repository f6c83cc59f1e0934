"""The job executor: one claim → execute → heartbeat → retry-or-fail loop.

:class:`Worker` is the only code that executes jobs.  ``repro worker --db
serve.db`` runs one as its own process, and ``repro serve --fleet N``
supervises N of those; ``repro serve`` without ``--fleet`` runs
``--concurrency`` of them on threads of the front-end process (see
:class:`~repro.serve.scheduler.Scheduler`).  Workers coordinate only through
the shared :class:`JobStore` — any number of them, on any machine that can
reach the SQLite file — and every transition they make lands in the store's
event log, so ``GET /jobs/<id>/events`` and ``/stats`` read the same record
whichever process or thread ran the job.

Crash-recovery contract:

* A claim stamps ``worker_id`` + ``lease_expires_at`` on the job row; a
  background thread extends the lease every ``heartbeat_interval`` seconds
  (TTL/3 by default) for as long as the pipeline runs.
* If this process dies (SIGKILL, OOM, power loss), the lease stops being
  extended and lapses.  Every worker reaps expired leases when it starts and
  every half lease TTL while it is between jobs, so a surviving (or
  respawned) worker requeues the job and re-executes it.  The same pass
  deletes the dead worker's registry row once its heartbeat is twice the
  lease TTL old (or twice the poll interval, if that is longer), so
  ``/healthz`` and ``repro top`` stop listing it.
* If this worker is merely *slow* and its lease is reaped out from under
  it, the owner guard on ``record_stage``/``mark_done``/``mark_failed``
  discards its late writes: the job's outcome belongs to whoever holds the
  lease.
* A store error in the loop's own calls (an ``sqlite3.Error`` or an
  injected ``store.commit`` fault) does not end the loop: it is counted in
  ``serve.worker.loop_errors``, logged, and retried after a backoff that
  doubles per consecutive error up to ``LOOP_ERROR_BACKOFF_MAX``.

An idle worker sleeps on the store's change signal
(:meth:`JobStore.wait_for_change`): a submit, requeue or retry commit —
from this process or any other — wakes it to claim at once, and
``poll_interval`` is only the backstop (retry gates that come due without a
commit) and the idle heartbeat cadence.

SIGTERM/SIGINT drain gracefully: the current job finishes, nothing new is
claimed, the worker deregisters and exits 0.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import Callable

from repro.api.request import ExperimentRequest, ExperimentResult, RunOptions
from repro.api.stages import DeadlineExceeded
from repro.faults import InjectedFault, fault_point
from repro.obs import metrics, trace_context, trace_span
from repro.serve.store import (
    CHANGE_POLL_INTERVAL,
    DEFAULT_LEASE_TTL,
    DEFAULT_REQUEUE_CAP,
    JobStore,
    Job,
    default_worker_id,
)

# The backoff after a store error in the worker loop: it starts here and
# doubles per consecutive error, capped at the maximum.
LOOP_ERROR_BACKOFF = 0.05
LOOP_ERROR_BACKOFF_MAX = 1.0
_LOOP_ERRORS = (sqlite3.Error, InjectedFault)

# Execution callable: (request, options, on_stage, deadline) -> result, where
# ``deadline`` is the job's absolute epoch-seconds budget end, or None.
ExecuteFn = Callable[
    [ExperimentRequest, RunOptions, Callable[[str, float], None], float | None],
    ExperimentResult,
]


def plan_retry(
    job: Job,
    base_delay: float,
    max_delay: float,
    now: float | None = None,
) -> float | None:
    """The requeue-at timestamp for a failed execution, or ``None``.

    ``None`` means the retry budget of the job's current incarnation is
    spent and the failure is terminal.
    """
    attempts = job.executions_this_incarnation
    if attempts > job.max_retries:
        return None
    delay = min(max_delay, base_delay * (2 ** (attempts - 1)))
    return (time.time() if now is None else now) + delay


def _default_execute(
    request: ExperimentRequest,
    options: RunOptions,
    on_stage: Callable[[str, float], None],
    deadline: float | None,
) -> ExperimentResult:
    from repro.api.registry import run_experiment

    return run_experiment(
        request, options=options, on_stage=on_stage, deadline=deadline
    )


class Worker:
    """A single claim-execute-heartbeat loop over one shared store.

    Parameters
    ----------
    store:
        The shared :class:`JobStore` (same database file as the service).
    options:
        :class:`RunOptions` each job executes with.
    worker_id:
        Lease identity; defaults to ``<host>:<pid>`` so the owning process
        is identifiable (and SIGKILL-able) from the job row alone.
    lease_ttl / heartbeat_interval:
        Lease duration and extension cadence (default TTL/3).  The TTL is
        the fleet's failure-detection latency: a dead worker's jobs requeue
        at most one TTL + one reap interval after its last heartbeat.
    poll_interval:
        Backstop between queue checks while the store does not change, and
        the idle heartbeat cadence.
    retry_base_delay / retry_max_delay:
        Exponential-backoff parameters for failed executions.
    quarantine_after:
        Crash-loop bound applied by this worker's reaper passes.
    execute:
        The execution callable, replaceable in tests.
    """

    def __init__(
        self,
        store: JobStore,
        options: RunOptions | None = None,
        worker_id: str | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: float | None = None,
        poll_interval: float = 0.5,
        retry_base_delay: float = 0.5,
        retry_max_delay: float = 60.0,
        quarantine_after: int = DEFAULT_REQUEUE_CAP,
        execute: ExecuteFn | None = None,
        log: Callable[[str], None] | None = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        self.quarantine_after = quarantine_after
        self.store = store
        self.options = options if options is not None else RunOptions()
        self.worker_id = worker_id or default_worker_id()
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else max(0.05, lease_ttl / 3.0)
        )
        self.poll_interval = poll_interval
        self.reap_interval = max(self.heartbeat_interval, lease_ttl / 2.0)
        # A live worker refreshes its row on every idle poll and every
        # heartbeat while it runs a job, so a row this stale belongs to a
        # worker that died without deregistering (SIGKILL, OOM).
        self.prune_after = 2.0 * max(lease_ttl, poll_interval, self.heartbeat_interval)
        self.retry_base_delay = retry_base_delay
        self.retry_max_delay = retry_max_delay
        self._execute = execute if execute is not None else _default_execute
        self._log = log if log is not None else (lambda message: None)
        self.jobs_executed = 0

    def wake(self) -> None:
        """End the current idle wait now, through the store's change signal.

        Not for signal handlers: it takes the signal's lock, which the
        interrupted thread may hold.  A handler only sets the stop flag.
        """
        self.store.notify_change()

    # ------------------------------------------------------------------
    def run(
        self,
        stop: threading.Event | None = None,
        max_jobs: int | None = None,
        idle_exit: float | None = None,
    ) -> int:
        """Drain the queue until stopped; returns jobs executed.

        ``max_jobs`` bounds the number of executions (testing / batch use);
        ``idle_exit`` exits after that many consecutive idle seconds.
        ``stop`` is anything with ``is_set()``; the loop reads it at least
        once per ``CHANGE_POLL_INTERVAL`` while idle, so setting it needs
        no wake-up.
        """
        stop = stop if stop is not None else threading.Event()
        self.store.register_worker(self.worker_id)
        self._log(f"worker {self.worker_id}: draining (lease_ttl={self.lease_ttl}s)")
        idle_since: float | None = None
        next_reap = next_beat = time.monotonic()
        errors = 0
        try:
            while not stop.is_set():
                try:
                    now = time.monotonic()
                    if now >= next_reap:
                        self._reap()
                        next_reap = now + self.reap_interval
                    if now >= next_beat:
                        self.store.worker_heartbeat(self.worker_id)
                        next_beat = now + self.poll_interval
                    # Taken before the claim, after this worker's own
                    # commits: any commit that lands later ends the wait.
                    token = self.store.change_count()
                    job = self.store.claim_next(
                        worker_id=self.worker_id, lease_ttl=self.lease_ttl
                    )
                    errors = 0
                    if job is None:
                        now = time.monotonic()
                        idle_since = idle_since if idle_since is not None else now
                        if idle_exit is not None and now - idle_since >= idle_exit:
                            break
                        self._pause(stop, min(next_beat, next_reap), token)
                        continue
                    idle_since = None
                    self._run_job(job)
                except _LOOP_ERRORS as exc:
                    errors += 1
                    delay = min(
                        LOOP_ERROR_BACKOFF_MAX,
                        LOOP_ERROR_BACKOFF * 2 ** (errors - 1),
                    )
                    self._loop_error(exc, delay)
                    self._pause(stop, time.monotonic() + delay)
                    continue
                self.jobs_executed += 1
                if max_jobs is not None and self.jobs_executed >= max_jobs:
                    break
        finally:
            self.store.deregister_worker(self.worker_id)
            self._log(
                f"worker {self.worker_id}: exiting after "
                f"{self.jobs_executed} job(s)"
            )
        return self.jobs_executed

    def _loop_error(self, exc: Exception, retry_in: float) -> None:
        metrics().counter("serve.worker.loop_errors").inc()
        self._log(
            f"worker {self.worker_id}: store error ({type(exc).__name__}:"
            f" {exc}); retrying in {retry_in:.2f}s"
        )

    def _reap(self) -> None:
        outcome = self.store.reap_expired(quarantine_after=self.quarantine_after)
        for job_id in outcome.requeued:
            self._log(
                f"worker {self.worker_id}: requeued expired lease"
                f" on job {job_id[:12]}"
            )
        for job_id in outcome.quarantined:
            self._log(
                f"worker {self.worker_id}: quarantined crash-"
                f"looping job {job_id[:12]}"
            )
        pruned = self.store.prune_workers(max_age=self.prune_after)
        if pruned:
            self._log(
                f"worker {self.worker_id}: pruned {pruned} dead"
                " worker row(s)"
            )

    def _pause(
        self, stop: threading.Event, until: float, token: int | None = None
    ) -> None:
        """Wait until ``until`` (monotonic) or ``stop``; with a change
        ``token``, also until the store changes after it.

        Waits in ``CHANGE_POLL_INTERVAL`` steps, so a stop flag set by a
        signal handler ends the wait within one step.
        """
        while not stop.is_set():
            remaining = until - time.monotonic()
            if remaining <= 0:
                return
            step = min(remaining, CHANGE_POLL_INTERVAL)
            if token is None:
                time.sleep(step)
            elif self.store.wait_for_change(token, step) != token:
                return

    # ------------------------------------------------------------------
    def _run_job(self, job: Job) -> None:
        # The whole claim-to-outcome arc runs under the job's trace context,
        # so every span (and JSON log line) this thread emits carries the
        # cross-process correlation ids.
        with trace_context(
            trace_id=job.trace_id, job_id=job.id, worker_id=self.worker_id
        ):
            self._run_job_traced(job)

    def _run_job_traced(self, job: Job) -> None:
        # An instantaneous claim marker, recorded (and spooled) *before*
        # execution starts: even a worker SIGKILL'd mid-job leaves proof in
        # the span store that it touched this trace.
        with trace_span(
            "worker.claim", experiment=job.experiment, execution=job.executions
        ):
            pass
        self._log(
            f"worker {self.worker_id}: claimed job {job.short_id}"
            f" [{job.experiment}] execution={job.executions}"
        )
        done = threading.Event()
        lease_lost = threading.Event()

        def _beat() -> None:
            while not done.wait(self.heartbeat_interval):
                now = time.time()
                try:
                    if not self.store.heartbeat(
                        job.id, self.worker_id, lease_ttl=self.lease_ttl, now=now
                    ):
                        lease_lost.set()
                        return
                    self.store.worker_heartbeat(
                        self.worker_id, current_job=job.id, now=now
                    )
                except _LOOP_ERRORS as exc:
                    self._loop_error(exc, self.heartbeat_interval)

        beater = threading.Thread(
            target=_beat, name=f"repro-worker-heartbeat-{job.short_id}", daemon=True
        )
        beater.start()

        def on_stage(stage: str, seconds: float) -> None:
            self.store.record_stage(
                job.id, stage, seconds, worker_id=self.worker_id
            )

        # ``started_at`` was stamped by the claim, so the deadline covers
        # execution only — queue wait does not eat a job's budget.
        deadline = (
            None
            if job.deadline_s is None or job.started_at is None
            else job.started_at + job.deadline_s
        )
        try:
            fault_point(
                "worker.claim",
                job=job.id,
                experiment=job.experiment,
                execution=job.executions,
            )
            with trace_span(
                "worker.execute",
                experiment=job.experiment,
                execution=job.executions,
            ):
                result = self._execute(
                    job.request(), self.options, on_stage, deadline
                )
        except Exception as exc:  # noqa: BLE001 — job isolation boundary
            done.set()
            beater.join()
            self._record_failure(job, exc)
        except BaseException:
            # Interrupt mid-job (SIGTERM escalation): requeue immediately
            # rather than waiting out the lease.
            done.set()
            beater.join()
            self.store.mark_failed(
                job.id,
                "interrupted during worker shutdown",
                retry_at=time.time(),
                worker_id=self.worker_id,
            )
            raise
        else:
            done.set()
            beater.join()
            finished = self.store.mark_done(
                job.id, result, worker_id=self.worker_id
            )
            if lease_lost.is_set() or finished.worker_id != self.worker_id:
                # Reaped while we ran: the result was discarded by the owner
                # guard and the job belongs to another incarnation now.
                self._log(
                    f"worker {self.worker_id}: lost lease on job"
                    f" {job.short_id}; result discarded"
                )
            else:
                self.store.worker_finished(self.worker_id, ok=True)
                self._log(f"worker {self.worker_id}: job {job.short_id} done")

    def _record_failure(self, job: Job, exc: Exception) -> None:
        error = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, DeadlineExceeded):
            # Terminal regardless of retry budget: the same budget would be
            # blown again, wasting another worker-deadline of fleet time.
            metrics().counter("serve.deadline_exceeded").inc()
            self.store.mark_failed(job.id, error, worker_id=self.worker_id)
            self._log(
                f"worker {self.worker_id}: job {job.short_id} exceeded its"
                f" deadline ({error})"
            )
            self.store.worker_finished(self.worker_id, ok=False)
            return
        retry_at = plan_retry(job, self.retry_base_delay, self.retry_max_delay)
        if retry_at is not None:
            self.store.mark_failed(
                job.id, error, retry_at=retry_at, worker_id=self.worker_id
            )
            metrics().counter("serve.retries").inc()
            self._log(
                f"worker {self.worker_id}: job {job.short_id} failed"
                f" ({error}); retry scheduled"
            )
        else:
            self.store.mark_failed(job.id, error, worker_id=self.worker_id)
            self._log(
                f"worker {self.worker_id}: job {job.short_id} failed"
                f" terminally ({error})"
            )
        self.store.worker_finished(self.worker_id, ok=False)


__all__ = ["ExecuteFn", "Worker", "plan_retry"]
