"""The front end's job lifecycle: recover, run worker threads, drain.

A :class:`Scheduler` owns no execution logic of its own.  :meth:`start`
requeues interrupted jobs (``store.recover()``) and then runs
``concurrency`` :class:`~repro.serve.worker.Worker` loops on threads of this
process — the same executor ``repro worker`` runs as a process, with the
same leases, heartbeats, reaping, deadlines and retry backoff.  Each job
executes through :func:`repro.api.run_experiment`, i.e. through the exact
registered pipeline the CLI runs, persistent disk caches included.

What the scheduler adds on top of its workers:

* **wake-on-submit** — :meth:`submit` and :meth:`requeue` write through the
  store and wake idle threads, so an in-process job starts without waiting
  out the idle poll.
* **graceful drain** — :meth:`stop` lets every claimed job finish
  (pipelines are not interrupted mid-stage), then joins the threads; jobs
  still queued stay queued in the store and survive to the next start.
* **liveness** — ``/healthz`` reads per-thread state (last dequeue,
  current job) from its workers.  How many workers are alive is read from
  the store's worker registry instead, which both modes keep: a worker
  registers when its loop starts and deregisters on exit.

With ``concurrency=0`` the scheduler runs *front-end only*: it recovers and
accepts submissions, while execution belongs entirely to worker processes
(the ``repro serve --fleet N`` topology).  Progress events, job rows and
``/stats`` transition counters all live in the store, so both modes present
the same record.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.api.request import ExperimentRequest, RunOptions
from repro.serve.store import (
    DEFAULT_LEASE_TTL,
    DEFAULT_REQUEUE_CAP,
    INACTIVE_STATES,
    Job,
    JobStore,
    default_worker_id,
)
from repro.serve.worker import ExecuteFn, Worker


class Scheduler:
    """Concurrency-bounded queue drainer over a :class:`JobStore`.

    Parameters
    ----------
    store:
        The persistent job store (shared with the HTTP API and any external
        ``repro worker`` processes).
    options:
        The :class:`RunOptions` every job executes with — the disk-cache
        location the pipelines short-circuit to.
    concurrency:
        How many jobs run at once (worker threads; a job's experiment runs
        on the thread that claimed it).  ``0`` runs no local execution at
        all — execution is left to external workers.
    retry_base_delay / retry_max_delay:
        Exponential-backoff parameters for failed executions.
    poll_interval:
        How long an idle worker thread sleeps between queue checks;
        submissions wake the threads immediately, so this only bounds
        retry-gate latency.
    lease_ttl / heartbeat_interval:
        Lease duration stamped on claims and how often a running job's lease
        is extended (default: a third of the TTL).
    quarantine_after:
        The crash-loop bound the reaper applies: a job whose lease expired
        this many times is quarantined instead of requeued.
    execute:
        The execution callable, replaceable in tests.
    """

    def __init__(
        self,
        store: JobStore,
        options: RunOptions | None = None,
        concurrency: int = 1,
        retry_base_delay: float = 0.5,
        retry_max_delay: float = 60.0,
        poll_interval: float = 0.2,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: float | None = None,
        quarantine_after: int = DEFAULT_REQUEUE_CAP,
        execute: ExecuteFn | None = None,
    ) -> None:
        if concurrency < 0:
            raise ValueError(f"concurrency must be >= 0, got {concurrency}")
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        if quarantine_after < 0:
            raise ValueError(
                f"quarantine_after must be >= 0, got {quarantine_after}"
            )
        self.store = store
        self.concurrency = concurrency
        self.lease_ttl = lease_ttl
        self.quarantine_after = quarantine_after
        base_id = default_worker_id()
        self.workers = [
            Worker(
                store,
                options=options,
                worker_id=f"{base_id}:t{index}",
                lease_ttl=lease_ttl,
                heartbeat_interval=heartbeat_interval,
                poll_interval=poll_interval,
                retry_base_delay=retry_base_delay,
                retry_max_delay=retry_max_delay,
                quarantine_after=quarantine_after,
                execute=execute,
            )
            for index in range(concurrency)
        ]
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        """Recover interrupted jobs and start the worker threads.

        Returns the number of jobs requeued by crash recovery (expired or
        missing leases only — jobs leased by live external workers are not
        touched).
        """
        if self._started:
            raise RuntimeError("scheduler already started")
        recovered = self.store.recover(quarantine_after=self.quarantine_after)
        self._stop.clear()
        self._threads = [
            threading.Thread(
                target=worker.run,
                kwargs={"stop": self._stop},
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            for index, worker in enumerate(self.workers)
        ]
        for thread in self._threads:
            thread.start()
        self._started = True
        return recovered

    def stop(self, timeout: float | None = None) -> bool:
        """Graceful drain: finish claimed jobs, keep the rest queued.

        Returns ``True`` when every worker joined within ``timeout``.
        """
        self._stop.set()
        self._wake()
        deadline = None if timeout is None else time.monotonic() + timeout
        drained = True
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
            drained = drained and not thread.is_alive()
        if drained:
            self._threads = []
            self._started = False
        return drained

    def _wake(self) -> None:
        for worker in self.workers:
            worker.wake()

    @property
    def running(self) -> bool:
        if not self._started:
            return False
        if not self._threads:  # front-end-only mode: alive once started
            return True
        return any(t.is_alive() for t in self._threads)

    @property
    def last_dequeue_at(self) -> float | None:
        """The most recent claim across all worker threads."""
        stamps = [
            worker.last_claim_at
            for worker in self.workers
            if worker.last_claim_at is not None
        ]
        return max(stamps) if stamps else None

    def worker_liveness(self) -> dict[str, dict[str, Any]]:
        """Per-worker-thread liveness: last dequeue, current job, tallies."""
        return {worker.worker_id: worker.liveness() for worker in self.workers}

    # ------------------------------------------------------------------
    # Submission / waiting
    # ------------------------------------------------------------------
    def submit(
        self,
        request: ExperimentRequest,
        priority: int = 0,
        max_retries: int | None = None,
        source: str | None = None,
        deadline_s: float | None = None,
        trace_id: str | None = None,
    ) -> tuple[Job, bool]:
        """Submit through the store's dedup seam and wake the workers."""
        job, deduped = self.store.submit(
            request,
            priority=priority,
            max_retries=0 if max_retries is None else max_retries,
            source=source,
            deadline_s=deadline_s,
            trace_id=trace_id,
        )
        self._wake()
        return job, deduped

    def requeue(self, job_id: str) -> tuple[Job, bool]:
        """The quarantine escape hatch: release a resting job and wake the
        workers."""
        job, requeued = self.store.requeue(job_id)
        if requeued:
            self._wake()
        return job, requeued

    def wait(
        self, job_id: str, timeout: float | None = None, poll: float = 0.05
    ) -> Job:
        """Block until the job is terminal or quarantined (or ``timeout``).

        Quarantine counts as an answer: the job will not run again without
        operator intervention, so a waiter must not block out its timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.store.get(job_id)
            if job.state in INACTIVE_STATES:
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job.short_id} still {job.state} after {timeout}s"
                )
            time.sleep(poll)


__all__ = ["Scheduler"]
