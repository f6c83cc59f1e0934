"""Schema migrations v1/v2/v3 -> v4 and corrupt-database recovery."""

from __future__ import annotations

import sqlite3
import time

import pytest

from repro.api import ExperimentRequest
from repro.serve.store import JobStore, QUEUED, RUNNING

from test_lease import _build_v1_database  # sibling module, same dir


def _request(rate: float = 0.9) -> ExperimentRequest:
    return ExperimentRequest(experiment="fig8", pruning_rate=rate)


def _user_version(store: JobStore) -> int:
    return store._conn.execute("PRAGMA user_version").fetchone()[0]


def _build_v2_database(path) -> None:
    """A v1 database plus the lease columns — exactly what v2 wrote."""
    _build_v1_database(path)
    conn = sqlite3.connect(str(path))
    for ddl in (
        "ALTER TABLE jobs ADD COLUMN worker_id TEXT",
        "ALTER TABLE jobs ADD COLUMN lease_expires_at REAL",
        "ALTER TABLE jobs ADD COLUMN heartbeat_at REAL",
    ):
        conn.execute(ddl)
    conn.execute(
        "UPDATE jobs SET worker_id='w-old', lease_expires_at=?, heartbeat_at=?",
        (time.time() - 100.0, time.time() - 100.0),
    )
    conn.execute("PRAGMA user_version=2")
    conn.commit()
    conn.close()


def _build_v3_database(path) -> None:
    """A v2 database plus the quarantine/deadline columns — v3's shape."""
    _build_v2_database(path)
    conn = sqlite3.connect(str(path))
    for ddl in (
        "ALTER TABLE jobs ADD COLUMN requeue_count INTEGER NOT NULL DEFAULT 0",
        "ALTER TABLE jobs ADD COLUMN deadline_s REAL",
        "ALTER TABLE jobs ADD COLUMN complete_count INTEGER NOT NULL DEFAULT 0",
    ):
        conn.execute(ddl)
    conn.execute("PRAGMA user_version=3")
    conn.commit()
    conn.close()


class TestMigrationLadder:
    """Every starting version lands on the same v4 shape, idempotently."""

    def test_fresh_database_is_created_at_v4(self, tmp_path):
        with JobStore(tmp_path / "fresh.db") as store:
            assert _user_version(store) == 4
            job, _ = store.submit(_request())
            assert job.requeue_count == 0
            assert job.deadline_s is None
            assert job.complete_count == 0
            # v4: every fresh submission is born with a trace id.
            assert job.trace_id is not None and len(job.trace_id) == 32

    def test_v1_database_reaches_v4(self, tmp_path):
        path = tmp_path / "v1.db"
        _build_v1_database(path)
        with JobStore(path) as store:
            assert _user_version(store) == 4
            job = store.get(_request().content_hash)
            assert job.requeue_count == 0
            assert job.complete_count == 0
            assert job.trace_id is None  # pre-tracing rows stay NULL

    def test_v2_database_reaches_v4_and_keeps_lease_state(self, tmp_path):
        path = tmp_path / "v2.db"
        _build_v2_database(path)
        with JobStore(path) as store:
            assert _user_version(store) == 4
            job = store.get(_request().content_hash)
            assert job.state == RUNNING
            assert job.worker_id == "w-old"  # v2 data survived
            assert job.requeue_count == 0  # v3 columns defaulted
            assert job.trace_id is None  # v4 column defaulted
            # The expired v2 lease behaves under the new quarantine reaper.
            outcome = store.reap_expired(quarantine_after=5)
            assert outcome.requeued == [job.id]
            assert store.get(job.id).state == QUEUED

    def test_v3_database_reaches_v4_and_backfills_on_submit(self, tmp_path):
        path = tmp_path / "v3.db"
        _build_v3_database(path)
        with JobStore(path) as store:
            assert _user_version(store) == 4
            job = store.get(_request().content_hash)
            assert job.trace_id is None  # migrated rows keep NULL...
            # ...until a dedup attach backfills the hole.
            job, deduped = store.submit(_request())
            assert deduped is True
            assert job.trace_id is not None

    @pytest.mark.parametrize(
        "builder", [_build_v1_database, _build_v2_database, _build_v3_database]
    )
    def test_migration_is_idempotent_across_reopens(self, tmp_path, builder):
        path = tmp_path / "ladder.db"
        builder(path)
        for _ in range(3):
            with JobStore(path) as store:
                assert _user_version(store) == 4
                store.get(_request().content_hash)

    def test_v4_database_reopens_untouched(self, tmp_path):
        path = tmp_path / "v4.db"
        with JobStore(path) as store:
            job, _ = store.submit(_request(), deadline_s=4.5)
            trace_id = job.trace_id
        with JobStore(path) as store:
            assert _user_version(store) == 4
            reopened = store.get(_request().content_hash)
            assert reopened.deadline_s == 4.5
            assert reopened.trace_id == trace_id

    def test_v4_file_gains_the_event_log_on_open(self, tmp_path):
        """The event log needs no migration step: a v4 file written before
        the table existed gets it on open, still at version 4."""
        path = tmp_path / "v4-no-log.db"
        with JobStore(path) as store:
            job, _ = store.submit(_request())
            store._conn.execute("DROP TABLE job_events")
        with JobStore(path) as store:
            assert _user_version(store) == 4
            assert store.events(job.id) == []
            store.cancel(job.id)
            assert [e["event"] for e in store.events(job.id)] == ["cancelled"]

    def test_dedup_attach_keeps_the_original_trace_id(self, tmp_path):
        with JobStore(tmp_path / "dedup.db") as store:
            first, _ = store.submit(_request(), trace_id="trace-original")
            attached, deduped = store.submit(_request(), trace_id="trace-late")
            assert deduped is True
            assert attached.trace_id == "trace-original"


class TestCorruptDatabase:
    def test_corrupt_file_is_moved_aside_and_recreated(self, tmp_path):
        path = tmp_path / "serve.db"
        path.write_bytes(b"this is not a sqlite database at all............")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            store = JobStore(path)
        try:
            job, _ = store.submit(_request())  # the fresh store works
            assert job.state == QUEUED
        finally:
            store.close()
        moved = list(tmp_path.glob("serve.db.corrupt-*"))
        assert len(moved) == 1
        assert moved[0].read_bytes().startswith(b"this is not")

    def test_corrupt_sidecar_files_do_not_survive(self, tmp_path):
        """No stale WAL/SHM may sit next to the fresh database (either
        sqlite discards them during the failed open, or the recovery moves
        them aside with the corrupt main file)."""
        path = tmp_path / "serve.db"
        path.write_bytes(b"garbage")
        (tmp_path / "serve.db-wal").write_bytes(b"wal garbage")
        (tmp_path / "serve.db-shm").write_bytes(b"shm garbage")
        with pytest.warns(RuntimeWarning):
            with JobStore(path) as store:
                store.submit(_request())  # fresh database actually writes
        wal = tmp_path / "serve.db-wal"
        assert not (
            wal.exists() and wal.read_bytes().startswith(b"wal garbage")
        )

    def test_future_schema_is_an_error_not_a_corruption(self, tmp_path):
        """A newer-versioned (valid) database must refuse, not be destroyed."""
        path = tmp_path / "future.db"
        conn = sqlite3.connect(str(path))
        conn.execute("PRAGMA user_version=9")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="schema version 9"):
            JobStore(path)
        assert path.exists()  # still where it was
        assert list(tmp_path.glob("future.db.corrupt-*")) == []
