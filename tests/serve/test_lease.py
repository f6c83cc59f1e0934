"""Lease mechanics: heartbeats, reaping, owner guards, v1->v2 migration."""

from __future__ import annotations

import sqlite3
import time

import pytest

from repro.api import ExperimentRequest, ExperimentResult
from repro.serve.store import (
    DONE,
    FAILED,
    JobStore,
    QUEUED,
    RUNNING,
    default_worker_id,
)
from repro.serve.worker import Worker


def _request(rate: float = 0.9) -> ExperimentRequest:
    return ExperimentRequest(experiment="fig8", pruning_rate=rate)


def _result(request: ExperimentRequest) -> ExperimentResult:
    return ExperimentResult(
        experiment=request.experiment,
        request=request,
        payload={"ok": True},
        summary="done",
    )


@pytest.fixture
def store(tmp_path):
    with JobStore(tmp_path / "serve.db") as job_store:
        yield job_store


class TestClaimStampsLease:
    def test_claim_records_worker_and_deadline(self, store):
        store.submit(_request())
        now = time.time()
        job = store.claim_next(worker_id="w1", lease_ttl=30.0, now=now)
        assert job.state == RUNNING
        assert job.worker_id == "w1"
        assert job.lease_expires_at == pytest.approx(now + 30.0)
        assert job.heartbeat_at == pytest.approx(now)
        assert not job.lease_expired(now=now + 29.0)
        assert job.lease_expired(now=now + 31.0)

    def test_default_worker_id_is_host_pid(self, store):
        host, _, pid = default_worker_id().rpartition(":")
        assert host
        assert pid.isdigit()  # CI parses the pid out to SIGKILL the owner


class TestHeartbeat:
    def test_heartbeat_extends_lease(self, store):
        store.submit(_request())
        now = time.time()
        job = store.claim_next(worker_id="w1", lease_ttl=10.0, now=now)
        assert store.heartbeat(job.id, "w1", lease_ttl=10.0, now=now + 8.0)
        extended = store.get(job.id)
        assert extended.lease_expires_at == pytest.approx(now + 18.0)
        assert extended.heartbeat_at == pytest.approx(now + 8.0)
        # The extended lease survives past the original deadline.
        assert list(store.reap_expired(now=now + 12.0)) == []
        assert store.get(job.id).state == RUNNING

    def test_heartbeat_from_wrong_worker_fails(self, store):
        store.submit(_request())
        job = store.claim_next(worker_id="w1", lease_ttl=10.0)
        assert not store.heartbeat(job.id, "imposter", lease_ttl=10.0)
        assert store.get(job.id).worker_id == "w1"

    def test_heartbeat_after_reap_reports_lease_lost(self, store):
        store.submit(_request())
        now = time.time()
        job = store.claim_next(worker_id="w1", lease_ttl=1.0, now=now)
        assert store.reap_expired(now=now + 2.0).requeued == [job.id]
        assert not store.heartbeat(job.id, "w1", lease_ttl=1.0, now=now + 2.5)


class TestReaper:
    def test_reap_requeues_only_expired_leases(self, store):
        store.submit(_request(rate=0.9))
        store.submit(_request(rate=0.5))
        now = time.time()
        dead = store.claim_next(worker_id="w-dead", lease_ttl=1.0, now=now)
        live = store.claim_next(worker_id="w-live", lease_ttl=120.0, now=now)
        reaped = store.reap_expired(now=now + 5.0)
        assert reaped.requeued == [dead.id]
        assert reaped.quarantined == []
        requeued = store.get(dead.id)
        assert requeued.state == QUEUED
        assert requeued.worker_id is None
        assert requeued.lease_expires_at is None
        assert requeued.executions == 1  # execution history survives the reap
        assert requeued.requeue_count == 1  # ...and counts toward the cap
        assert store.get(live.id).state == RUNNING
        assert store.get(live.id).worker_id == "w-live"

    def test_reaped_job_is_reclaimable(self, store):
        store.submit(_request())
        now = time.time()
        first = store.claim_next(worker_id="w1", lease_ttl=1.0, now=now)
        store.reap_expired(now=now + 2.0)
        second = store.claim_next(worker_id="w2", lease_ttl=30.0, now=now + 2.0)
        assert second.id == first.id
        assert second.worker_id == "w2"
        assert second.executions == 2


class TestOwnerGuard:
    def test_late_mark_done_from_reaped_worker_is_discarded(self, store):
        """The acceptance property: a reaped worker cannot clobber the job."""
        request = _request()
        store.submit(request)
        now = time.time()
        job = store.claim_next(worker_id="w-slow", lease_ttl=1.0, now=now)
        store.reap_expired(now=now + 2.0)
        reclaimed = store.claim_next(
            worker_id="w-fast", lease_ttl=30.0, now=now + 2.0
        )
        assert reclaimed.worker_id == "w-fast"
        # The original worker wakes up and reports its stale result.
        after = store.mark_done(job.id, _result(request), worker_id="w-slow")
        assert after.state == RUNNING  # unchanged: w-fast still owns it
        assert after.worker_id == "w-fast"
        assert after.result() is None
        # The current owner's result lands normally.
        finished = store.mark_done(job.id, _result(request), worker_id="w-fast")
        assert finished.state == DONE
        assert finished.result() is not None

    def test_late_mark_failed_from_reaped_worker_is_discarded(self, store):
        store.submit(_request())
        now = time.time()
        job = store.claim_next(worker_id="w-slow", lease_ttl=1.0, now=now)
        store.reap_expired(now=now + 2.0)
        store.claim_next(worker_id="w-fast", lease_ttl=30.0, now=now + 2.0)
        after = store.mark_failed(job.id, "stale failure", worker_id="w-slow")
        assert after.state == RUNNING
        assert after.error is None

    def test_late_stage_from_reaped_worker_is_discarded(self, store):
        """A reaped worker keeps running; its stages must not land on the
        row or in the event feed of the job's re-execution."""
        store.submit(_request())
        now = time.time()
        job = store.claim_next(worker_id="w-slow", lease_ttl=1.0, now=now)
        store.reap_expired(now=now + 2.0)
        store.claim_next(worker_id="w-fast", lease_ttl=30.0, now=now + 2.0)
        events_before = store.events(job.id)
        store.record_stage(job.id, "train", 9.0, worker_id="w-slow")
        assert store.get(job.id).timings == {}
        assert store.events(job.id) == events_before
        store.record_stage(job.id, "train", 1.0, worker_id="w-fast")
        assert store.get(job.id).timings == {"train": 1.0}
        assert store.events(job.id)[-1]["event"] == "stage"

    def test_unguarded_mark_done_still_works(self, store):
        """Legacy callers (no worker_id) keep the old unconditional write."""
        request = _request()
        store.submit(request)
        job = store.claim_next(worker_id="w1", lease_ttl=30.0)
        finished = store.mark_done(job.id, _result(request))
        assert finished.state == DONE

    def test_guarded_mark_failed_terminal_path(self, store):
        store.submit(_request())
        job = store.claim_next(worker_id="w1", lease_ttl=30.0)
        failed = store.mark_failed(job.id, "boom", worker_id="w1")
        assert failed.state == FAILED
        assert failed.error == "boom"


def _build_v1_database(path) -> None:
    """A database exactly as the pre-lease (schema v1) store wrote it."""
    conn = sqlite3.connect(str(path))
    conn.executescript(
        """
        CREATE TABLE jobs (
            id          TEXT PRIMARY KEY,
            experiment  TEXT NOT NULL,
            request     TEXT NOT NULL,
            state       TEXT NOT NULL,
            priority    INTEGER NOT NULL DEFAULT 0,
            created_at  REAL NOT NULL,
            started_at  REAL,
            finished_at REAL,
            not_before  REAL NOT NULL DEFAULT 0,
            executions  INTEGER NOT NULL DEFAULT 0,
            max_retries INTEGER NOT NULL DEFAULT 0,
            retry_base  INTEGER NOT NULL DEFAULT 0,
            error       TEXT,
            result      TEXT,
            timings     TEXT NOT NULL DEFAULT '{}'
        );
        CREATE INDEX idx_jobs_state ON jobs (state, not_before, priority);
        CREATE TABLE submissions (
            id           INTEGER PRIMARY KEY AUTOINCREMENT,
            job_id       TEXT NOT NULL REFERENCES jobs (id),
            submitted_at REAL NOT NULL,
            source       TEXT
        );
        """
    )
    request = _request()
    now = time.time()
    conn.execute(
        "INSERT INTO jobs (id, experiment, request, state, created_at,"
        " started_at, executions) VALUES (?, ?, ?, ?, ?, ?, ?)",
        (
            request.content_hash,
            request.experiment,
            request.to_json(indent=None),
            RUNNING,  # interrupted mid-run under the old schema
            now,
            now,
            1,
        ),
    )
    conn.execute(
        "INSERT INTO submissions (job_id, submitted_at) VALUES (?, ?)",
        (request.content_hash, now),
    )
    conn.execute("PRAGMA user_version=1")
    conn.commit()
    conn.close()


class TestMigration:
    def test_v1_database_gains_lease_columns(self, tmp_path):
        path = tmp_path / "v1.db"
        _build_v1_database(path)
        with JobStore(path) as store:
            version = store._conn.execute("PRAGMA user_version").fetchone()[0]
            assert version == 4
            job = store.get(_request().content_hash)
            assert job.state == RUNNING
            assert job.worker_id is None
            assert job.lease_expires_at is None
            # The interrupted lease-less row is recoverable.
            assert store.recover() == 1
            assert store.get(job.id).state == QUEUED
            # And claimable with a lease under the new schema.
            claimed = store.claim_next(worker_id="w1", lease_ttl=30.0)
            assert claimed.id == job.id
            assert claimed.worker_id == "w1"

    def test_migrated_database_reopens_cleanly(self, tmp_path):
        path = tmp_path / "v1.db"
        _build_v1_database(path)
        with JobStore(path):
            pass
        # Second open: the idempotent migration must not trip on the
        # already-added columns.
        with JobStore(path) as store:
            assert store.counts()["running"] == 1

    def test_future_schema_rejected(self, tmp_path):
        path = tmp_path / "future.db"
        conn = sqlite3.connect(str(path))
        conn.execute("PRAGMA user_version=9")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="schema version 9"):
            JobStore(path)


class TestWorkerRegistry:
    def test_register_heartbeat_and_list(self, store):
        now = time.time()
        store.register_worker("host:1", now=now)
        store.register_worker("host:2", now=now)
        store.worker_heartbeat("host:1", current_job="abc123", now=now + 5.0)
        workers = {w["id"]: w for w in store.list_workers(now=now + 5.0)}
        assert set(workers) == {"host:1", "host:2"}
        assert workers["host:1"]["current_job"] == "abc123"
        assert workers["host:1"]["heartbeat_age_s"] == pytest.approx(0.0)
        assert workers["host:2"]["heartbeat_age_s"] == pytest.approx(5.0)

    def test_finished_counters_and_deregister(self, store):
        store.register_worker("host:1")
        store.worker_finished("host:1", ok=True)
        store.worker_finished("host:1", ok=False)
        (worker,) = store.list_workers()
        assert worker["jobs_done"] == 1
        assert worker["jobs_failed"] == 1
        store.deregister_worker("host:1")
        assert store.list_workers() == []

    def test_prune_drops_silent_workers(self, store):
        now = time.time()
        store.register_worker("host:dead", now=now - 1000.0)
        store.register_worker("host:live", now=now)
        assert store.prune_workers(max_age=300.0, now=now) == 1
        (worker,) = store.list_workers()
        assert worker["id"] == "host:live"

    def test_worker_reap_pass_prunes_dead_rows(self, store):
        """A SIGKILL'd worker never deregisters; the next reap pass drops its row."""
        now = time.time()
        store.register_worker("host:dead", now=now - 3600.0)
        store.register_worker("host:fresh", now=now)
        rows_after_prune = []

        def log(message: str) -> None:
            if "pruned" in message:
                rows_after_prune.append({w["id"] for w in store.list_workers()})

        worker = Worker(
            store, worker_id="host:self", lease_ttl=30.0, poll_interval=0.05, log=log
        )
        worker.run(idle_exit=0.2)
        assert rows_after_prune == [{"host:fresh", "host:self"}]
        assert [w["id"] for w in store.list_workers()] == ["host:fresh"]
