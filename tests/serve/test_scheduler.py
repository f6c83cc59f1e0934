"""Scheduler: dedup (two identical submits -> one execution), retries, drain."""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import ExperimentRequest, ExperimentResult, RunOptions
from repro.serve.scheduler import Scheduler
from repro.serve.store import CANCELLED, DONE, FAILED, JobStore, QUEUED

from test_obs_endpoints import _Service  # sibling module, same dir


def _request(rate: float = 0.9, experiment: str = "fig8") -> ExperimentRequest:
    return ExperimentRequest(experiment=experiment, pruning_rate=rate)


class CountingExecutor:
    """Fake pipeline executor: thread-safe call counting, optional gating."""

    def __init__(
        self,
        fail_first: int = 0,
        gate: threading.Event | None = None,
        started: threading.Event | None = None,
    ) -> None:
        self.calls = 0
        self.fail_first = fail_first
        self.gate = gate
        self.started = started
        self._lock = threading.Lock()

    def __call__(self, request, options, on_stage, deadline=None):
        with self._lock:
            self.calls += 1
            call = self.calls
        if self.started is not None:
            self.started.set()
        if self.gate is not None:
            assert self.gate.wait(10.0)
        if call <= self.fail_first:
            raise ValueError(f"synthetic failure #{call}")
        on_stage("report", 0.01)
        return ExperimentResult(
            experiment=request.experiment,
            request=request,
            payload={"call": call},
            summary=f"call {call}",
        )


@pytest.fixture
def store(tmp_path):
    with JobStore(tmp_path / "serve.db") as job_store:
        yield job_store


def _scheduler(store, execute, **kwargs) -> Scheduler:
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("retry_base_delay", 0.01)
    return Scheduler(store, options=RunOptions(use_cache=False), execute=execute, **kwargs)


class TestDedup:
    def test_two_identical_submits_execute_once(self, store):
        """The acceptance property: 1 execution record, 2 submissions."""
        started, gate = threading.Event(), threading.Event()
        executor = CountingExecutor(gate=gate, started=started)
        scheduler = _scheduler(store, executor)
        scheduler.start()
        try:
            first, deduped_first = scheduler.submit(_request())
            assert not deduped_first
            assert started.wait(10.0)  # now running
            second, deduped_second = scheduler.submit(_request())
            assert deduped_second
            assert second.id == first.id
            gate.set()
            job = scheduler.wait(first.id, timeout=10.0)
            assert job.state == DONE
            assert job.executions == 1
            assert job.submissions == 2
            assert executor.calls == 1
        finally:
            gate.set()
            assert scheduler.stop(timeout=10.0)

    def test_submit_after_done_attaches_without_rerun(self, store):
        executor = CountingExecutor()
        scheduler = _scheduler(store, executor)
        scheduler.start()
        try:
            job, _ = scheduler.submit(_request())
            scheduler.wait(job.id, timeout=10.0)
            again, deduped = scheduler.submit(_request())
            assert deduped
            assert again.state == DONE
            time.sleep(0.1)  # a rerun would need the queue to move again
            assert executor.calls == 1
        finally:
            assert scheduler.stop(timeout=10.0)

    def test_different_requests_both_execute(self, store):
        executor = CountingExecutor()
        scheduler = _scheduler(store, executor, concurrency=2)
        scheduler.start()
        try:
            a, _ = scheduler.submit(_request(rate=0.9))
            b, _ = scheduler.submit(_request(rate=0.5))
            assert scheduler.wait(a.id, timeout=10.0).state == DONE
            assert scheduler.wait(b.id, timeout=10.0).state == DONE
            assert executor.calls == 2
        finally:
            assert scheduler.stop(timeout=10.0)


class TestRetries:
    def test_transient_failures_retry_with_backoff_then_succeed(self, store):
        executor = CountingExecutor(fail_first=2)
        scheduler = _scheduler(store, executor)
        scheduler.start()
        try:
            job, _ = scheduler.submit(_request(), max_retries=3)
            finished = scheduler.wait(job.id, timeout=10.0)
            assert finished.state == DONE
            assert finished.executions == 3
            assert executor.calls == 3
        finally:
            assert scheduler.stop(timeout=10.0)

    def test_exhausted_retry_budget_fails_terminally(self, store):
        executor = CountingExecutor(fail_first=100)
        scheduler = _scheduler(store, executor)
        scheduler.start()
        try:
            job, _ = scheduler.submit(_request(), max_retries=1)
            finished = scheduler.wait(job.id, timeout=10.0)
            assert finished.state == FAILED
            assert finished.executions == 2  # first run + one retry
            assert "synthetic failure" in finished.error
        finally:
            assert scheduler.stop(timeout=10.0)

    def test_resubmitted_job_gets_a_fresh_retry_budget(self, store):
        """Lifetime executions must not deplete a new submission's budget."""
        executor = CountingExecutor(fail_first=3)
        scheduler = _scheduler(store, executor)
        scheduler.start()
        try:
            job, _ = scheduler.submit(_request())  # fails terminally (call 1)
            assert scheduler.wait(job.id, timeout=10.0).state == FAILED
            job, deduped = scheduler.submit(_request(), max_retries=2)
            assert not deduped
            finished = scheduler.wait(job.id, timeout=10.0)
            # Incarnation 2 may execute up to 3 times (calls 2, 3, 4);
            # call 4 succeeds — the old execution did not eat the budget.
            assert finished.state == DONE
            assert finished.executions == 4
            assert finished.executions_this_incarnation == 3
        finally:
            assert scheduler.stop(timeout=10.0)

    def test_no_retries_by_default(self, store):
        executor = CountingExecutor(fail_first=100)
        scheduler = _scheduler(store, executor)
        scheduler.start()
        try:
            job, _ = scheduler.submit(_request())
            finished = scheduler.wait(job.id, timeout=10.0)
            assert finished.state == FAILED
            assert finished.executions == 1
        finally:
            assert scheduler.stop(timeout=10.0)


class TestLifecycle:
    def test_start_recovers_interrupted_jobs(self, tmp_path):
        path = tmp_path / "crash.db"
        with JobStore(path) as before:
            before.submit(_request())
            # Expired lease == a worker that died without heartbeating.
            assert before.claim_next(worker_id="w-dead", lease_ttl=0.0) is not None

        with JobStore(path) as after:
            executor = CountingExecutor()
            scheduler = _scheduler(after, executor)
            recovered = scheduler.start()
            try:
                assert recovered == 1
                job = scheduler.wait(_request().content_hash, timeout=10.0)
                assert job.state == DONE
                assert job.executions == 2  # the crashed claim + the rerun
            finally:
                assert scheduler.stop(timeout=10.0)

    def test_drain_finishes_running_and_keeps_queue(self, store):
        started, gate = threading.Event(), threading.Event()
        executor = CountingExecutor(gate=gate, started=started)
        scheduler = _scheduler(store, executor, concurrency=1)
        scheduler.start()
        running, _ = scheduler.submit(_request(rate=0.9))
        queued, _ = scheduler.submit(_request(rate=0.5))
        assert started.wait(10.0)

        # Ask for the drain from a helper thread, then release the gate: the
        # running job must complete, the queued one must stay queued.
        stopper = threading.Thread(target=scheduler.stop)
        stopper.start()
        time.sleep(0.05)
        gate.set()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        assert store.get(running.id).state == DONE
        assert store.get(queued.id).state == QUEUED
        assert executor.calls == 1

    def test_double_start_rejected(self, store):
        scheduler = _scheduler(store, CountingExecutor())
        scheduler.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                scheduler.start()
        finally:
            assert scheduler.stop(timeout=10.0)

    def test_wait_times_out(self, store):
        scheduler = _scheduler(store, CountingExecutor())  # never started
        job, _ = scheduler.submit(_request())
        with pytest.raises(TimeoutError):
            scheduler.wait(job.id, timeout=0.05, poll=0.01)


class TestCancelEvents:
    def test_cancel_emits_cancelled_event(self, store):
        job, _ = store.submit(_request())
        cancelled_job, cancelled = store.cancel(job.id)
        assert cancelled
        assert cancelled_job.state == CANCELLED
        assert [e["event"] for e in store.events(job.id)] == ["cancelled"]

    def test_cancel_noop_emits_nothing(self, store):
        job, _ = store.submit(_request())
        store.cancel(job.id)
        store.cancel(job.id)  # second cancel is a no-op
        assert len(store.events(job.id)) == 1

    def test_long_poller_woken_by_cancel(self, tmp_path):
        """DELETE must not leave event streams hanging."""
        service = _Service(tmp_path, execute=CountingExecutor(), start=False)
        try:
            job = service.client.submit(_request())["job"]
            seen: list[dict] = []
            poller = threading.Thread(
                target=lambda: seen.extend(
                    service.client.events(job["id"], 0, 10.0)["events"]
                )
            )
            poller.start()
            time.sleep(0.1)
            service.client.cancel(job["id"])
            poller.join(timeout=10.0)
            assert not poller.is_alive()
            assert [e["event"] for e in seen] == ["cancelled"]
        finally:
            service.close()


class TestRealPipeline:
    def test_smoke_experiment_end_to_end(self, store):
        """One real registered pipeline through the default executor."""
        from repro.eval.common import ExperimentScale

        scheduler = Scheduler(
            store, options=RunOptions(use_cache=False), poll_interval=0.02
        )
        scheduler.start()
        try:
            request = ExperimentRequest(
                experiment="ablate-fifo", scale=ExperimentScale.preset("smoke")
            )
            job, _ = scheduler.submit(request)
            finished = scheduler.wait(job.id, timeout=120.0)
            assert finished.state == DONE
            result = finished.result()
            assert result is not None
            assert result.summary  # the harness-rendered table
            # Live per-stage timings arrived via the on_stage hook.
            assert set(finished.timings) == {"prune", "report"}
        finally:
            assert scheduler.stop(timeout=10.0)
