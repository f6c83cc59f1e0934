"""Crash-loop quarantine: the requeue cap, stickiness, the manual escape."""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import ExperimentRequest, RunOptions
from repro.serve.scheduler import Scheduler
from repro.serve.store import (
    DEFAULT_REQUEUE_CAP,
    INACTIVE_STATES,
    JobStore,
    QUARANTINED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
)


def _request(rate: float = 0.9) -> ExperimentRequest:
    return ExperimentRequest(experiment="fig8", pruning_rate=rate)


@pytest.fixture
def store(tmp_path):
    with JobStore(tmp_path / "serve.db") as job_store:
        yield job_store


def _expire_once(store, job_id, cap, *, at):
    """Claim the job and let its lease expire: one crash-loop iteration."""
    claimed = store.claim_next(worker_id="w-crashy", lease_ttl=1.0, now=at)
    assert claimed is not None and claimed.id == job_id
    return store.reap_expired(now=at + 2.0, quarantine_after=cap)


class TestQuarantineCap:
    def test_job_quarantines_after_exactly_cap_requeues(self, store):
        """cap expiries requeue; expiry cap+1 quarantines with count == cap."""
        cap = 2
        job, _ = store.submit(_request())
        for iteration in range(cap):
            outcome = _expire_once(
                store, job.id, cap, at=time.time() + iteration * 10
            )
            assert outcome.requeued == [job.id]
            assert outcome.quarantined == []
            assert store.get(job.id).requeue_count == iteration + 1
        outcome = _expire_once(store, job.id, cap, at=time.time() + cap * 10)
        assert outcome.requeued == []
        assert outcome.quarantined == [job.id]
        quarantined = store.get(job.id)
        assert quarantined.state == QUARANTINED
        assert quarantined.requeue_count == cap  # not incremented past the cap
        assert quarantined.finished_at is not None
        assert "crash loop" in quarantined.error
        assert quarantined.executions == cap + 1  # every claim counted

    def test_quarantined_is_inactive_but_not_terminal(self, store):
        assert QUARANTINED in INACTIVE_STATES
        assert QUARANTINED not in TERMINAL_STATES

    def test_quarantined_job_is_not_claimable(self, store):
        job, _ = store.submit(_request())
        _expire_once(store, job.id, 0, at=time.time())
        assert store.get(job.id).state == QUARANTINED
        assert store.claim_next() is None

    def test_cap_zero_quarantines_on_first_expiry(self, store):
        job, _ = store.submit(_request())
        outcome = _expire_once(store, job.id, 0, at=time.time())
        assert outcome.quarantined == [job.id]
        assert store.get(job.id).requeue_count == 0

    def test_successful_rerun_keeps_earlier_requeues(self, store):
        """The count tracks lease expiries since the last (re)submission."""
        job, _ = store.submit(_request())
        _expire_once(store, job.id, DEFAULT_REQUEUE_CAP, at=time.time())
        assert store.get(job.id).requeue_count == 1


class TestQuarantineStickiness:
    def test_resubmit_attaches_without_releasing(self, store):
        """Unlike failed jobs, a quarantined job ignores resubmission — the
        crash loop must not restart just because a client retried."""
        job, _ = store.submit(_request())
        _expire_once(store, job.id, 0, at=time.time())
        again, deduped = store.submit(_request())
        assert deduped
        assert again.state == QUARANTINED
        assert store.claim_next() is None

    def test_recover_quarantines_crash_looped_jobs(self, tmp_path):
        """Boot-time recovery applies the same cap as the live reaper."""
        path = tmp_path / "boot.db"
        with JobStore(path) as before:
            job, _ = before.submit(_request())
            now = time.time()
            before.claim_next(worker_id="w-dead", lease_ttl=0.0, now=now)
        with JobStore(path) as after:
            # requeue_count 0 < cap 0 is false: straight to quarantine.
            assert after.recover(quarantine_after=0) == 0
            assert after.get(job.id).state == QUARANTINED


class TestManualRequeue:
    def test_requeue_releases_quarantine_with_fresh_budget(self, store):
        job, _ = store.submit(_request(), max_retries=3)
        _expire_once(store, job.id, 0, at=time.time())
        released, requeued = store.requeue(job.id)
        assert requeued
        assert released.state == QUEUED
        assert released.requeue_count == 0  # the cap counter restarts
        assert released.error is None
        assert released.retry_base == released.executions  # fresh retries
        claimed = store.claim_next()
        assert claimed is not None and claimed.id == job.id

    def test_requeue_accepts_failed_jobs_too(self, store):
        job, _ = store.submit(_request())
        store.claim_next()
        store.mark_failed(job.id, "boom")
        _, requeued = store.requeue(job.id)
        assert requeued
        assert store.get(job.id).state == QUEUED

    def test_requeue_refuses_running_and_done(self, store):
        job, _ = store.submit(_request())
        store.claim_next()
        same, requeued = store.requeue(job.id)
        assert not requeued
        assert same.state == RUNNING

    def test_scheduler_requeue_emits_event(self, store):
        scheduler = Scheduler(
            store, options=RunOptions(use_cache=False), concurrency=0
        )
        job, _ = store.submit(_request())
        _expire_once(store, job.id, 0, at=time.time())
        released, requeued = scheduler.requeue(job.id)
        assert requeued and released.state == QUEUED
        events = store.events(job.id)
        assert any(
            e["event"] == "requeued" and e.get("reason") == "manual"
            for e in events
        )


class TestConcurrentReapers:
    """Many reapers, one store file: every transition applies exactly once."""

    N_REAPERS = 6

    def _race(self, path, job_id, cap, now):
        outcomes = []
        barrier = threading.Barrier(self.N_REAPERS)

        def reap():
            with JobStore(path) as own_store:  # own connection, like a worker
                barrier.wait()
                outcomes.append(
                    own_store.reap_expired(now=now, quarantine_after=cap)
                )

        threads = [
            threading.Thread(target=reap) for _ in range(self.N_REAPERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        return outcomes

    def test_only_one_reaper_requeues(self, tmp_path):
        path = tmp_path / "race.db"
        with JobStore(path) as store:
            job, _ = store.submit(_request())
            now = time.time()
            store.claim_next(worker_id="w1", lease_ttl=1.0, now=now)
        outcomes = self._race(path, job.id, cap=5, now=now + 2.0)
        requeues = [o for o in outcomes if job.id in o.requeued]
        assert len(requeues) == 1
        with JobStore(path) as store:
            assert store.get(job.id).requeue_count == 1  # not N_REAPERS

    def test_only_one_reaper_quarantines(self, tmp_path):
        path = tmp_path / "race-q.db"
        with JobStore(path) as store:
            job, _ = store.submit(_request())
            now = time.time()
            store.claim_next(worker_id="w1", lease_ttl=1.0, now=now)
        outcomes = self._race(path, job.id, cap=0, now=now + 2.0)
        quarantines = [o for o in outcomes if job.id in o.quarantined]
        assert len(quarantines) == 1
        with JobStore(path) as store:
            final = store.get(job.id)
            assert final.state == QUARANTINED
            # The quarantine error was written once, not stacked.
            assert final.error.count("crash loop") == 1
