"""SQLite-backed job store for the experiment service.

One row per *unique* :class:`~repro.api.ExperimentRequest` — jobs are keyed
by the request's content hash, which is exactly the dedup key: submitting an
identical request again never creates a second job, it *attaches* a new row
to the ``submissions`` table of the existing one.  The job row carries the
scheduling state machine::

    queued --> running --> done
       ^          |
       |          +------> failed      (after the retry budget is exhausted;
       |          |                     transient failures requeue with a
       |          +------> (requeued)   backoff gate in ``not_before``;
       |          |                     an *expired lease* requeues too —
       |          |                     at most ``quarantine_after`` times)
       |          +------> quarantined (crash-loop bound: the lease expired
       |                                ``requeue_count`` >= cap times; only
       +--- cancelled                   an explicit ``requeue`` — the
                                        ``repro requeue <job>`` escape
                                        hatch — releases it)

plus the canonical request JSON, per-stage timings streamed in live while
the job runs (via the pipeline's ``on_stage`` callback), the serialized
:class:`~repro.api.ExperimentResult` once done, and an ``executions``
counter — the acceptance check "submitted twice, executed once" reads
``executions == 1`` and ``submissions == 2`` straight off the job row.

**Multi-process safety.**  The store coordinates many worker *processes*
sharing one WAL database, not just many threads of one process.  Every
write runs inside an explicit ``BEGIN IMMEDIATE`` transaction — the write
lock is taken up front, so the SELECT-then-UPDATE inside
:meth:`JobStore.claim_next` can never interleave with another process's
claim — backed by ``PRAGMA busy_timeout`` plus a bounded retry loop on
``SQLITE_BUSY``.  A claim is a *lease*: the claiming worker's id and a
``lease_expires_at`` deadline are stamped onto the row, the worker extends
the lease with :meth:`JobStore.heartbeat` while the job runs, and
:meth:`JobStore.reap_expired` requeues any ``running`` job whose lease
lapsed — a SIGKILL'd worker's jobs come back automatically, no operator
intervention and no all-or-nothing recovery pass.  Completion is
owner-guarded: ``mark_done``/``mark_failed`` with a ``worker_id`` only land
if that worker still holds the lease, so a reaped-and-reclaimed job can
never be double-completed by its original (slow, presumed-dead) worker.

**Event log.**  Every transition appends one row to ``job_events`` inside
the transaction that applies it (``started``, ``stage``, ``done``,
``retry_scheduled``, ``failed``, ``cancelled``, ``requeued``,
``quarantined``), and only when its UPDATE applied.  The log is the job's
durable history — retries and requeues included, which the job row itself
overwrites — and the one source for ``GET /jobs/<id>/events`` and the
``/stats`` transition counters, whichever process made the change.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.api.request import ExperimentRequest, ExperimentResult
from repro.faults import fault_point
from repro.obs import metrics

# Job states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
QUARANTINED = "quarantined"

STATES: tuple[str, ...] = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, QUARANTINED)
TERMINAL_STATES: frozenset[str] = frozenset({DONE, FAILED, CANCELLED})
# States a job can rest in forever: terminal outcomes plus quarantine.
# "Every submitted job reaches an inactive state" is the chaos invariant.
INACTIVE_STATES: frozenset[str] = TERMINAL_STATES | {QUARANTINED}

# How many lease-expiry requeues a job gets before it is quarantined
# instead of requeued — the crash-loop bound.  A job that kills its worker
# every time would otherwise be requeued forever by ``reap_expired``.
DEFAULT_REQUEUE_CAP = 5

# Default lease duration stamped by ``claim_next``; workers heartbeat well
# inside this window (every ttl/3 by convention) so only a dead worker's
# lease ever expires.
DEFAULT_LEASE_TTL = 60.0

# How long SQLite itself waits for a competing writer before surfacing
# SQLITE_BUSY, and how many times we retry a busy BEGIN IMMEDIATE on top.
_BUSY_TIMEOUT_MS = 5_000
_BUSY_RETRIES = 5
_BUSY_RETRY_BASE = 0.05  # seconds; doubles per attempt

# Bump on incompatible schema changes; checked against PRAGMA user_version.
_SCHEMA_VERSION = 4

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id          TEXT PRIMARY KEY,          -- ExperimentRequest.content_hash
    experiment  TEXT NOT NULL,
    request     TEXT NOT NULL,             -- canonical request JSON
    state       TEXT NOT NULL,
    priority    INTEGER NOT NULL DEFAULT 0,
    created_at  REAL NOT NULL,
    started_at  REAL,
    finished_at REAL,
    not_before  REAL NOT NULL DEFAULT 0,   -- retry-backoff gate (epoch seconds)
    executions  INTEGER NOT NULL DEFAULT 0,
    max_retries INTEGER NOT NULL DEFAULT 0,
    retry_base  INTEGER NOT NULL DEFAULT 0,  -- executions when last requeued
                                             -- terminal: scopes the retry
                                             -- budget to this incarnation
    error       TEXT,
    result      TEXT,                      -- serialized ExperimentResult JSON
    timings     TEXT NOT NULL DEFAULT '{}', -- live per-stage seconds
    worker_id        TEXT,                 -- lease owner while running
    lease_expires_at REAL,                 -- lease deadline (epoch seconds)
    heartbeat_at     REAL,                 -- last lease extension
    requeue_count    INTEGER NOT NULL DEFAULT 0,  -- lease-expiry requeues
                                                  -- since last (re)submit
    deadline_s       REAL,                 -- per-job execution deadline
    complete_count   INTEGER NOT NULL DEFAULT 0,  -- applied mark_done count
                                                  -- (double-completion probe)
    trace_id         TEXT                  -- distributed-trace correlation id
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs (state, not_before, priority);
CREATE INDEX IF NOT EXISTS idx_jobs_lease ON jobs (state, lease_expires_at);
CREATE TABLE IF NOT EXISTS submissions (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id       TEXT NOT NULL REFERENCES jobs (id),
    submitted_at REAL NOT NULL,
    source       TEXT
);
CREATE INDEX IF NOT EXISTS idx_submissions_job ON submissions (job_id);
CREATE TABLE IF NOT EXISTS workers (
    id           TEXT PRIMARY KEY,         -- "<host>:<pid>[:t<n>]"
    pid          INTEGER,
    host         TEXT,
    started_at   REAL NOT NULL,
    heartbeat_at REAL NOT NULL,
    current_job  TEXT,
    jobs_done    INTEGER NOT NULL DEFAULT 0,
    jobs_failed  INTEGER NOT NULL DEFAULT 0
);
-- Added without a version bump: CREATE IF NOT EXISTS upgrades a v4 file on
-- open, and builds that predate the table open the file unchanged.
CREATE TABLE IF NOT EXISTS job_events (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id TEXT NOT NULL,
    ts     REAL NOT NULL,
    event  TEXT NOT NULL,
    data   TEXT NOT NULL DEFAULT '{}'      -- the event's fields as JSON
);
CREATE INDEX IF NOT EXISTS idx_job_events_job ON job_events (job_id, seq);
"""

# Incremental migrations, applied in sequence from the database's recorded
# version up to ``_SCHEMA_VERSION``.  ALTERs must run before ``_SCHEMA`` so
# new indexes find their columns on an old database; each statement is
# individually idempotent (duplicate-column errors are swallowed), so a
# crash mid-migration is healed by simply reopening the store.
_MIGRATIONS: dict[int, tuple[str, ...]] = {
    # v1 -> v2: the lease columns.
    1: (
        "ALTER TABLE jobs ADD COLUMN worker_id TEXT",
        "ALTER TABLE jobs ADD COLUMN lease_expires_at REAL",
        "ALTER TABLE jobs ADD COLUMN heartbeat_at REAL",
    ),
    # v2 -> v3: crash-loop quarantine + per-job deadlines + the
    # double-completion probe.
    2: (
        "ALTER TABLE jobs ADD COLUMN requeue_count INTEGER NOT NULL DEFAULT 0",
        "ALTER TABLE jobs ADD COLUMN deadline_s REAL",
        "ALTER TABLE jobs ADD COLUMN complete_count INTEGER NOT NULL DEFAULT 0",
    ),
    # v3 -> v4: the distributed-trace correlation id, assigned at submission.
    # Jobs that predate tracing keep NULL; their traces are queue-wait only.
    3: (
        "ALTER TABLE jobs ADD COLUMN trace_id TEXT",
    ),
}

_JOB_COLUMNS = (
    "id, experiment, request, state, priority, created_at, started_at, "
    "finished_at, not_before, executions, max_retries, retry_base, error, "
    "result, timings, worker_id, lease_expires_at, heartbeat_at, "
    "requeue_count, deadline_s, complete_count, trace_id, "
    "(SELECT COUNT(*) FROM submissions s WHERE s.job_id = jobs.id) AS submissions"
)


def default_worker_id() -> str:
    """The process-level worker identity: ``<host>:<pid>``.

    The pid is parseable back out of the id (``id.rsplit(":")``), which the
    CI fleet smoke uses to SIGKILL the worker currently holding a lease.
    """
    return f"{socket.gethostname()}:{os.getpid()}"


class UnknownJobError(ValueError):
    """Lookup of a job id (or prefix) that matches no stored job."""


class AmbiguousJobError(ValueError):
    """A job-id prefix that matches more than one stored job."""


@dataclass(frozen=True)
class Job:
    """One stored job row, hydrated into a convenient immutable view."""

    id: str
    experiment: str
    request_json: str
    state: str
    priority: int
    created_at: float
    started_at: float | None
    finished_at: float | None
    not_before: float
    executions: int
    max_retries: int
    retry_base: int
    submissions: int
    error: str | None = None
    result_json: str | None = field(default=None, repr=False)
    timings: dict[str, float] = field(default_factory=dict)
    worker_id: str | None = None
    lease_expires_at: float | None = None
    heartbeat_at: float | None = None
    requeue_count: int = 0
    deadline_s: float | None = None
    complete_count: int = 0
    trace_id: str | None = None

    @property
    def short_id(self) -> str:
        return self.id[:12]

    @property
    def executions_this_incarnation(self) -> int:
        """Executions since the job was last (re)submitted from a terminal
        state — the count the retry budget is measured against."""
        return self.executions - self.retry_base

    def lease_expired(self, now: float | None = None) -> bool:
        """Whether this job's lease has lapsed (running jobs only)."""
        if self.state != RUNNING or self.lease_expires_at is None:
            return False
        return self.lease_expires_at <= (time.time() if now is None else now)

    @property
    def fidelity(self) -> str:
        """The request's cost-model tier (from the stored request JSON)."""
        from repro.analytic.fidelity import DEFAULT_FIDELITY

        try:
            return json.loads(self.request_json).get(
                "fidelity", DEFAULT_FIDELITY.value
            )
        except (ValueError, AttributeError):
            return DEFAULT_FIDELITY.value

    def request(self) -> ExperimentRequest:
        return ExperimentRequest.from_json(self.request_json)

    def result(self) -> ExperimentResult | None:
        """The stored :class:`ExperimentResult`, or ``None`` before ``done``."""
        if self.result_json is None:
            return None
        return ExperimentResult.from_json(self.result_json)

    def to_dict(self, include_result: bool = True) -> dict[str, Any]:
        """JSON-native view — the HTTP API's and CLI's wire format."""
        payload: dict[str, Any] = {
            "id": self.id,
            "experiment": self.experiment,
            "state": self.state,
            "priority": self.priority,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "not_before": self.not_before,
            "executions": self.executions,
            "max_retries": self.max_retries,
            "retry_base": self.retry_base,
            "submissions": self.submissions,
            "error": self.error,
            "timings": dict(self.timings),
            "worker_id": self.worker_id,
            "lease_expires_at": self.lease_expires_at,
            "heartbeat_at": self.heartbeat_at,
            "requeue_count": self.requeue_count,
            "deadline_s": self.deadline_s,
            "complete_count": self.complete_count,
            "trace_id": self.trace_id,
            "fidelity": self.fidelity,
            "request": json.loads(self.request_json),
        }
        if include_result:
            payload["result"] = (
                json.loads(self.result_json) if self.result_json else None
            )
        return payload


@dataclass(frozen=True)
class ReapOutcome:
    """What one :meth:`JobStore.reap_expired` pass did.

    Iterable and truthy like the plain id list it replaced, so callers that
    only care about "which jobs moved" keep working unchanged.
    """

    requeued: list[str] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    def __iter__(self) -> Iterator[str]:
        return iter([*self.requeued, *self.quarantined])

    def __len__(self) -> int:
        return len(self.requeued) + len(self.quarantined)

    def __bool__(self) -> bool:
        return bool(self.requeued or self.quarantined)


def _log_event(
    conn: sqlite3.Connection, job_id: str, event: str, now: float, **data: Any
) -> None:
    """Append one event to ``job_events`` inside the caller's transaction."""
    conn.execute(
        "INSERT INTO job_events (job_id, ts, event, data) VALUES (?, ?, ?, ?)",
        (job_id, now, event, json.dumps(data)),
    )


def _job_from_row(row: sqlite3.Row) -> Job:
    return Job(
        id=row["id"],
        experiment=row["experiment"],
        request_json=row["request"],
        state=row["state"],
        priority=row["priority"],
        created_at=row["created_at"],
        started_at=row["started_at"],
        finished_at=row["finished_at"],
        not_before=row["not_before"],
        executions=row["executions"],
        max_retries=row["max_retries"],
        retry_base=row["retry_base"],
        submissions=row["submissions"],
        error=row["error"],
        result_json=row["result"],
        timings=dict(json.loads(row["timings"] or "{}")),
        worker_id=row["worker_id"],
        lease_expires_at=row["lease_expires_at"],
        heartbeat_at=row["heartbeat_at"],
        requeue_count=row["requeue_count"],
        deadline_s=row["deadline_s"],
        complete_count=row["complete_count"],
        trace_id=row["trace_id"],
    )


class JobStore:
    """Persistent job/result store over one SQLite database file."""

    def __init__(
        self, path: str | Path, busy_timeout_ms: int = _BUSY_TIMEOUT_MS
    ) -> None:
        self.path = Path(path)
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        try:
            self._open(busy_timeout_ms)
        except sqlite3.DatabaseError:
            # A corrupt database file must not take the whole fleet down at
            # boot: move it aside (with its WAL/SHM siblings) and start
            # fresh.  Queued jobs in the corrupt file are lost, but clients
            # resubmit by content hash, so the loss is recoverable — a
            # crashed boot loop is not.
            self._move_corrupt_aside()
            self._open(busy_timeout_ms)

    def _open(self, busy_timeout_ms: int) -> None:
        # isolation_level=None: autocommit mode — transactions are explicit
        # (BEGIN IMMEDIATE in ``_write``), never implicit-deferred, so every
        # read-modify-write holds the database write lock from its first
        # statement.  That is the cross-process claim-race fix.
        self._conn = sqlite3.connect(
            str(self.path), check_same_thread=False, isolation_level=None
        )
        try:
            self._conn.row_factory = sqlite3.Row
            with self._lock:
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute(
                    f"PRAGMA busy_timeout={int(busy_timeout_ms)}"
                )
                version = self._conn.execute(
                    "PRAGMA user_version"
                ).fetchone()[0]
                if version > _SCHEMA_VERSION:
                    raise ValueError(
                        f"job store {self.path} has schema version {version},"
                        f" this build expects <= {_SCHEMA_VERSION}"
                    )
                # DDL runs in autocommit (executescript commits any pending
                # transaction anyway); every statement is idempotent, so a
                # crash mid-migration is healed by reopening the store.
                # version 0 is a fresh database: no tables to ALTER, the
                # executescript below creates everything at v3 directly.
                for from_version in range(version or _SCHEMA_VERSION, _SCHEMA_VERSION):
                    for ddl in _MIGRATIONS[from_version]:
                        try:
                            self._conn.execute(ddl)
                        except sqlite3.OperationalError as exc:
                            if "duplicate column" not in str(exc):
                                raise
                self._conn.executescript(_SCHEMA)
                self._conn.execute(f"PRAGMA user_version={_SCHEMA_VERSION}")
        except BaseException:
            self._conn.close()
            raise

    def _move_corrupt_aside(self) -> None:
        stamp = int(time.time())
        target = self.path.with_name(f"{self.path.name}.corrupt-{stamp}")
        warnings.warn(
            f"job store {self.path} is corrupt; moving it to {target}"
            " and starting with a fresh database",
            RuntimeWarning,
            stacklevel=3,
        )
        os.replace(self.path, target)
        for suffix in ("-wal", "-shm"):
            sidecar = self.path.with_name(self.path.name + suffix)
            if sidecar.exists():
                os.replace(sidecar, target.with_name(target.name + suffix))
        metrics().counter("store.corrupt_recovered").inc()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Write transactions
    # ------------------------------------------------------------------
    @contextmanager
    def _write(self, op: str = "", **fault_ctx: Any) -> Iterator[sqlite3.Connection]:
        """One ``BEGIN IMMEDIATE`` transaction, retried on ``SQLITE_BUSY``.

        ``BEGIN IMMEDIATE`` takes the database write lock *at BEGIN*, so the
        reads inside the transaction see a state no other writer can change
        before our own writes commit.  ``busy_timeout`` makes the BEGIN wait
        for a competing writer; if it still surfaces ``SQLITE_BUSY`` (a
        writer hogging the lock past the timeout) we back off and retry a
        bounded number of times before giving up loudly.

        ``op`` names the write for the ``store.commit`` fault site, checked
        *after* the transaction body and *before* COMMIT: an injected error
        rolls the whole transaction back, exactly like a real commit-time
        I/O failure, and an injected crash loses it with the process.
        """
        with self._lock:
            for attempt in range(_BUSY_RETRIES):
                try:
                    self._conn.execute("BEGIN IMMEDIATE")
                except sqlite3.OperationalError as exc:
                    message = str(exc).lower()
                    if "locked" not in message and "busy" not in message:
                        raise
                    if attempt == _BUSY_RETRIES - 1:
                        raise
                    metrics().counter("store.busy_retries").inc()
                    time.sleep(_BUSY_RETRY_BASE * (2**attempt))
                    continue
                try:
                    yield self._conn
                    fault_point("store.commit", op=op, **fault_ctx)
                except BaseException:
                    try:
                        self._conn.execute("ROLLBACK")
                    except sqlite3.OperationalError:
                        pass  # the failed statement already ended the txn
                    raise
                else:
                    self._conn.execute("COMMIT")
                return

    # ------------------------------------------------------------------
    # Submission (the dedup seam)
    # ------------------------------------------------------------------
    def submit(
        self,
        request: ExperimentRequest,
        priority: int = 0,
        max_retries: int = 0,
        source: str | None = None,
        now: float | None = None,
        deadline_s: float | None = None,
        trace_id: str | None = None,
    ) -> tuple[Job, bool]:
        """Submit a request; returns ``(job, deduped)``.

        The job id is the request's content hash.  A request whose job is
        already ``queued``/``running``/``done`` only gains a submission row
        (``deduped=True`` — no new execution will happen).  A ``failed`` or
        ``cancelled`` job is *requeued* in place (``deduped=False`` — it will
        execute again), keeping its execution history.  A ``quarantined``
        job only *attaches* too: quarantine is sticky, so a crash-looping
        job cannot be restarted by accident — only the explicit
        :meth:`requeue` escape hatch releases it.

        ``deadline_s`` is a per-job execution budget checked cooperatively
        at pipeline stage boundaries; exceeding it fails the job terminally.

        ``trace_id`` is the distributed-trace correlation id assigned at
        submission (generated here when the submitter did not propose one).
        A job keeps the trace id of the submission that *created* it: a
        deduped attach never rewrites an in-flight job's id (spans already
        spooled under it would be orphaned), it only backfills pre-v4 NULLs.
        """
        from repro.obs.context import new_trace_id

        now = time.time() if now is None else now
        trace_id = trace_id or new_trace_id()
        job_id = request.content_hash
        with self._write("submit", job=job_id) as conn:
            row = conn.execute(
                "SELECT state FROM jobs WHERE id=?", (job_id,)
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO jobs (id, experiment, request, state, priority,"
                    " created_at, max_retries, deadline_s, trace_id)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        job_id,
                        request.experiment,
                        request.to_json(),
                        QUEUED,
                        priority,
                        now,
                        max_retries,
                        deadline_s,
                        trace_id,
                    ),
                )
                deduped = False
            elif row["state"] in (QUEUED, RUNNING, DONE, QUARANTINED):
                # Attach to the in-flight, completed, or quarantined job.  A
                # queued job can still absorb a higher priority or a larger
                # retry budget.  The trace id only backfills rows migrated
                # from pre-v4 schemas — an existing id is never rewritten.
                conn.execute(
                    "UPDATE jobs SET priority=MAX(priority, ?),"
                    " max_retries=MAX(max_retries, ?) WHERE id=? AND state=?",
                    (priority, max_retries, job_id, QUEUED),
                )
                conn.execute(
                    "UPDATE jobs SET trace_id=? WHERE id=? AND trace_id IS NULL",
                    (trace_id, job_id),
                )
                deduped = True
            else:  # failed / cancelled: requeue the same job
                # ``retry_base`` snapshots the execution count so the fresh
                # ``max_retries`` budget applies to this incarnation only,
                # not to the job's lifetime history.  ``requeue_count``
                # resets too: the crash-loop bound is per incarnation.
                # The trace id survives resubmission (COALESCE only fills
                # pre-v4 NULLs): one job keeps one trace across incarnations,
                # so a merged trace shows the failed attempts too.
                conn.execute(
                    "UPDATE jobs SET state=?, priority=?, max_retries=?,"
                    " retry_base=executions, not_before=0, error=NULL,"
                    " started_at=NULL, finished_at=NULL, worker_id=NULL,"
                    " lease_expires_at=NULL, heartbeat_at=NULL,"
                    " requeue_count=0, deadline_s=?,"
                    " trace_id=COALESCE(trace_id, ?) WHERE id=?",
                    (QUEUED, priority, max_retries, deadline_s, trace_id, job_id),
                )
                deduped = False
            conn.execute(
                "INSERT INTO submissions (job_id, submitted_at, source)"
                " VALUES (?, ?, ?)",
                (job_id, now, source),
            )
        metrics().counter("jobs.submitted").inc()
        if deduped:
            metrics().counter("jobs.dedup_attached").inc()
        return self.get(job_id), deduped

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        """The job with this exact id; raises :class:`UnknownJobError`."""
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE id=?", (job_id,)
            ).fetchone()
        if row is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return _job_from_row(row)

    def find(self, prefix: str) -> Job:
        """The unique job whose id starts with ``prefix`` (CLI convenience)."""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE id LIKE ? LIMIT 2",
                (prefix + "%",),
            ).fetchall()
        if not rows:
            raise UnknownJobError(f"no job matches {prefix!r}")
        if len(rows) > 1:
            raise AmbiguousJobError(
                f"job prefix {prefix!r} is ambiguous; use more characters"
            )
        return _job_from_row(rows[0])

    def list_jobs(
        self,
        state: str | None = None,
        experiment: str | None = None,
        limit: int = 200,
    ) -> list[Job]:
        """Jobs newest-first, optionally filtered by state and experiment."""
        if state is not None and state not in STATES:
            raise ValueError(
                f"unknown state {state!r}; states are {', '.join(STATES)}"
            )
        clauses, args = [], []
        if state is not None:
            clauses.append("state=?")
            args.append(state)
        if experiment is not None:
            clauses.append("experiment=?")
            args.append(experiment)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs {where}"
                " ORDER BY created_at DESC, id LIMIT ?",
                (*args, limit),
            ).fetchall()
        return [_job_from_row(row) for row in rows]

    def counts(self) -> dict[str, int]:
        """Job counts per state (every state present, zeros included)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in STATES}
        counts.update({row["state"]: row["n"] for row in rows})
        return counts

    # ------------------------------------------------------------------
    # Scheduling transitions (lease-based)
    # ------------------------------------------------------------------
    def claim_next(
        self,
        worker_id: str | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        now: float | None = None,
    ) -> Job | None:
        """Atomically lease the next due job (priority desc, then FIFO).

        The claim stamps ``worker_id`` and a ``lease_expires_at`` deadline
        onto the row inside one ``BEGIN IMMEDIATE`` transaction — two
        processes sharing the database can never claim the same job.  The
        worker must :meth:`heartbeat` within ``lease_ttl`` or the job is
        fair game for :meth:`reap_expired`.
        """
        now = time.time() if now is None else now
        worker_id = worker_id or default_worker_id()
        with self._write("claim_next", worker=worker_id) as conn:
            row = conn.execute(
                "SELECT id, experiment, executions, created_at, not_before"
                " FROM jobs WHERE state=? AND not_before<=?"
                " ORDER BY priority DESC, created_at ASC, id ASC LIMIT 1",
                (QUEUED, now),
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET state=?, started_at=?, executions=executions+1,"
                " worker_id=?, lease_expires_at=?, heartbeat_at=? WHERE id=?",
                (RUNNING, now, worker_id, now + lease_ttl, now, row["id"]),
            )
            _log_event(
                conn,
                row["id"],
                "started",
                now,
                execution=row["executions"] + 1,
                experiment=row["experiment"],
                worker=worker_id,
            )
            # Dequeue-to-start latency: how long the job was *due* (past its
            # creation and any retry-backoff gate) before a worker took it.
            became_due = max(row["created_at"], row["not_before"])
            metrics().histogram("serve.queue_wait_seconds").observe(
                max(0.0, now - became_due)
            )
            metrics().counter("jobs.claimed").inc()
        return self.get(row["id"])

    def heartbeat(
        self,
        job_id: str,
        worker_id: str,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        now: float | None = None,
    ) -> bool:
        """Extend a held lease; returns ``False`` when the lease was lost.

        A ``False`` return means the job was reaped (and possibly reclaimed
        by another worker) — the caller's eventual result will be discarded
        by the owner guard on ``mark_done``/``mark_failed``.
        """
        now = time.time() if now is None else now
        with self._write("heartbeat", job=job_id) as conn:
            cursor = conn.execute(
                "UPDATE jobs SET lease_expires_at=?, heartbeat_at=?"
                " WHERE id=? AND worker_id=? AND state=?",
                (now + lease_ttl, now, job_id, worker_id, RUNNING),
            )
            alive = cursor.rowcount > 0
        if not alive:
            metrics().counter("jobs.lease_lost").inc()
        return alive

    def reap_expired(
        self,
        now: float | None = None,
        quarantine_after: int = DEFAULT_REQUEUE_CAP,
    ) -> "ReapOutcome":
        """Requeue or quarantine every running job whose lease lapsed.

        This is the crash-recovery path of the worker fleet: a SIGKILL'd
        worker stops heartbeating, its leases expire, and the next reaper
        pass (any process may run one) puts the jobs back in the queue with
        their execution history intact — *unless* the job has already been
        requeued this way ``quarantine_after`` times, in which case it is
        quarantined instead: a job that kills its worker on every attempt
        must not be allowed to grind the fleet forever.  Only the explicit
        :meth:`requeue` escape hatch releases a quarantined job.
        """
        return self._reap("reap_expired", now, quarantine_after, leaseless=False)

    def recover(
        self,
        now: float | None = None,
        quarantine_after: int = DEFAULT_REQUEUE_CAP,
    ) -> int:
        """Requeue interrupted jobs: expired leases plus lease-less rows.

        The reaper pass plus one extra case: a ``running`` row with no lease
        at all (a database written by the pre-lease schema, mid-migration).
        Jobs whose lease is still live are left alone — they belong to a
        worker process that may well still be running.  Returns how many
        jobs went back to the queue.
        """
        return len(
            self._reap("recover", now, quarantine_after, leaseless=True).requeued
        )

    def _reap(
        self, op: str, now: float | None, quarantine_after: int, leaseless: bool
    ) -> "ReapOutcome":
        now = time.time() if now is None else now
        lapsed = "lease_expires_at<=?" + (
            " OR lease_expires_at IS NULL" if leaseless else ""
        )
        with self._write(op) as conn:
            rows = conn.execute(
                f"SELECT id, requeue_count FROM jobs WHERE state=? AND ({lapsed})",
                (RUNNING, now),
            ).fetchall()
            requeued = [
                row["id"]
                for row in rows
                if row["requeue_count"] < quarantine_after
            ]
            quarantined = [
                row["id"]
                for row in rows
                if row["requeue_count"] >= quarantine_after
            ]
            if requeued:
                marks = ",".join("?" for _ in requeued)
                conn.execute(
                    f"UPDATE jobs SET state=?, worker_id=NULL,"
                    f" lease_expires_at=NULL, heartbeat_at=NULL,"
                    f" started_at=NULL, not_before=0,"
                    f" requeue_count=requeue_count+1 WHERE id IN ({marks})",
                    (QUEUED, *requeued),
                )
            if quarantined:
                marks = ",".join("?" for _ in quarantined)
                conn.execute(
                    f"UPDATE jobs SET state=?, worker_id=NULL,"
                    f" lease_expires_at=NULL, heartbeat_at=NULL,"
                    f" finished_at=?,"
                    f" error=COALESCE(error, 'quarantined: lease expired '"
                    f" || (requeue_count + 1) || ' times (crash loop?)')"
                    f" WHERE id IN ({marks})",
                    (QUARANTINED, now, *quarantined),
                )
            for job_id in requeued:
                _log_event(conn, job_id, "requeued", now, reason="lease expired")
            for job_id in quarantined:
                _log_event(
                    conn,
                    job_id,
                    "quarantined",
                    now,
                    reason=(
                        f"lease expired more than {quarantine_after} times"
                        " (crash loop?)"
                    ),
                )
        total = len(requeued) + len(quarantined)
        if total:
            metrics().counter("jobs.lease_expired").inc(total)
        if requeued:
            metrics().counter("jobs.requeued").inc(len(requeued))
        if quarantined:
            metrics().counter("jobs.quarantined").inc(len(quarantined))
        return ReapOutcome(requeued=requeued, quarantined=quarantined)

    def requeue(self, job_id: str, now: float | None = None) -> tuple[Job, bool]:
        """Manually release a resting job back to the queue — the
        ``repro requeue <job>`` escape hatch for quarantine.

        Returns ``(job, requeued)``.  Applies to ``quarantined``, ``failed``
        and ``cancelled`` jobs; the requeue counter resets so the released
        job gets a full crash-loop budget for its new incarnation.
        """
        now = time.time() if now is None else now
        with self._write("requeue", job=job_id) as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state=?, retry_base=executions, not_before=0,"
                " error=NULL, started_at=NULL, finished_at=NULL,"
                " worker_id=NULL, lease_expires_at=NULL, heartbeat_at=NULL,"
                " requeue_count=0 WHERE id=? AND state IN (?, ?, ?)",
                (QUEUED, job_id, QUARANTINED, FAILED, CANCELLED),
            )
            requeued = cursor.rowcount > 0
            if requeued:
                _log_event(conn, job_id, "requeued", now, reason="manual")
        if requeued:
            metrics().counter("jobs.manual_requeues").inc()
        return self.get(job_id), requeued

    def mark_done(
        self,
        job_id: str,
        result: ExperimentResult,
        now: float | None = None,
        worker_id: str | None = None,
    ) -> Job:
        """Persist a successful run: result JSON + final stage timings.

        With ``worker_id`` the write is owner-guarded: it only lands while
        that worker still holds the lease, so a reaped job re-running
        elsewhere is never clobbered by its original worker's late result.
        """
        now = time.time() if now is None else now
        timings = json.dumps(dict(result.timings))
        guard, args = self._owner_guard(worker_id)
        with self._write("mark_done", job=job_id) as conn:
            # ``complete_count`` only moves when the guarded UPDATE lands —
            # it is the chaos harness's double-completion probe, visible
            # across processes (unlike per-process metrics).
            cursor = conn.execute(
                "UPDATE jobs SET state=?, finished_at=?, result=?, error=NULL,"
                " timings=?, lease_expires_at=NULL,"
                f" complete_count=complete_count+1 WHERE id=?{guard}",
                (DONE, now, result.to_json(indent=None), timings, job_id, *args),
            )
            applied = cursor.rowcount > 0
            if applied:
                _log_event(conn, job_id, "done", now)
        if applied:
            metrics().counter("jobs.done").inc()
        else:
            metrics().counter("jobs.lease_lost").inc()
        return self.get(job_id)

    def mark_failed(
        self,
        job_id: str,
        error: str,
        retry_at: float | None = None,
        now: float | None = None,
        worker_id: str | None = None,
    ) -> Job:
        """Record a failed execution.

        With ``retry_at`` the job goes back to ``queued`` gated behind the
        backoff timestamp; without it the job is terminally ``failed``.
        ``worker_id`` applies the same owner guard as :meth:`mark_done`.
        """
        now = time.time() if now is None else now
        guard, args = self._owner_guard(worker_id)
        with self._write("mark_failed", job=job_id) as conn:
            if retry_at is not None:
                cursor = conn.execute(
                    "UPDATE jobs SET state=?, not_before=?, error=?,"
                    " started_at=NULL, worker_id=NULL, lease_expires_at=NULL,"
                    f" heartbeat_at=NULL WHERE id=?{guard}",
                    (QUEUED, retry_at, error, job_id, *args),
                )
            else:
                cursor = conn.execute(
                    "UPDATE jobs SET state=?, finished_at=?, error=?,"
                    f" lease_expires_at=NULL WHERE id=?{guard}",
                    (FAILED, now, error, job_id, *args),
                )
            applied = cursor.rowcount > 0
            if applied and retry_at is not None:
                _log_event(
                    conn,
                    job_id,
                    "retry_scheduled",
                    now,
                    error=error,
                    delay=max(0.0, retry_at - now),
                )
            elif applied:
                _log_event(conn, job_id, "failed", now, error=error)
        if not applied:
            metrics().counter("jobs.lease_lost").inc()
        else:
            metrics().counter(
                "jobs.retried" if retry_at is not None else "jobs.failed"
            ).inc()
        return self.get(job_id)

    @staticmethod
    def _owner_guard(worker_id: str | None) -> tuple[str, tuple[Any, ...]]:
        if worker_id is None:
            return "", ()
        return " AND worker_id=? AND state=?", (worker_id, RUNNING)

    def cancel(self, job_id: str, now: float | None = None) -> tuple[Job, bool]:
        """Cancel a queued job; returns ``(job, cancelled)``.

        Only ``queued`` jobs can be cancelled — a ``running`` pipeline is not
        interrupted mid-stage (its result is moments away and may serve future
        deduped submissions), and terminal jobs are left as they are.
        """
        now = time.time() if now is None else now
        with self._write("cancel", job=job_id) as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state=?, finished_at=? WHERE id=? AND state=?",
                (CANCELLED, now, job_id, QUEUED),
            )
            cancelled = cursor.rowcount > 0
            if cancelled:
                _log_event(conn, job_id, "cancelled", now)
        if cancelled:
            metrics().counter("jobs.cancelled").inc()
        return self.get(job_id), cancelled

    def record_stage(
        self,
        job_id: str,
        stage: str,
        seconds: float,
        worker_id: str | None = None,
    ) -> None:
        """Stream one completed stage's timing into the job row (live).

        ``worker_id`` applies the owner guard of :meth:`mark_done`: a worker
        whose lease was reaped keeps running, and its stage timings must
        not land on the row (or in the event log) of the job's next
        execution.
        """
        guard, args = self._owner_guard(worker_id)
        with self._write("record_stage", job=job_id, stage=stage) as conn:
            row = conn.execute(
                f"SELECT timings FROM jobs WHERE id=?{guard}", (job_id, *args)
            ).fetchone()
            if row is None:
                if worker_id is None:
                    raise UnknownJobError(f"unknown job {job_id!r}")
                metrics().counter("jobs.lease_lost").inc()
                return
            timings = dict(json.loads(row["timings"] or "{}"))
            timings[stage] = seconds
            conn.execute(
                "UPDATE jobs SET timings=? WHERE id=?",
                (json.dumps(timings), job_id),
            )
            _log_event(
                conn, job_id, "stage", time.time(), stage=stage, seconds=seconds
            )

    def events(self, job_id: str, since: int = 0) -> list[dict[str, Any]]:
        """The job's logged events with ``seq > since``, oldest first.

        Each event is ``{"seq", "ts", "event", **fields}``; ``seq`` is the
        log's row id, increasing per job but not contiguous.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, ts, event, data FROM job_events"
                " WHERE job_id=? AND seq>? ORDER BY seq",
                (job_id, since),
            ).fetchall()
        return [
            {
                "seq": row["seq"],
                "ts": row["ts"],
                "event": row["event"],
                **json.loads(row["data"]),
            }
            for row in rows
        ]

    def event_counts(self) -> dict[str, int]:
        """How many times each event was logged over the store's lifetime."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT event, COUNT(*) AS n FROM job_events GROUP BY event"
            ).fetchall()
        return {row["event"]: row["n"] for row in rows}

    def submissions(self, job_id: str) -> list[dict[str, Any]]:
        """The submission records attached to one job, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, submitted_at, source FROM submissions"
                " WHERE job_id=? ORDER BY id",
                (job_id,),
            ).fetchall()
        if not rows:
            # Distinguish "no submissions" from "no such job".
            self.get(job_id)
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------
    # Worker registry (fleet liveness)
    # ------------------------------------------------------------------
    def register_worker(
        self,
        worker_id: str,
        pid: int | None = None,
        host: str | None = None,
        now: float | None = None,
    ) -> None:
        """Announce a worker; re-registration resets its liveness row."""
        now = time.time() if now is None else now
        with self._write("register_worker", worker=worker_id) as conn:
            conn.execute(
                "INSERT OR REPLACE INTO workers"
                " (id, pid, host, started_at, heartbeat_at)"
                " VALUES (?, ?, ?, ?, ?)",
                (
                    worker_id,
                    pid if pid is not None else os.getpid(),
                    host if host is not None else socket.gethostname(),
                    now,
                    now,
                ),
            )

    def worker_heartbeat(
        self,
        worker_id: str,
        current_job: str | None = None,
        now: float | None = None,
    ) -> None:
        """Refresh a worker's liveness row (idle or mid-job)."""
        now = time.time() if now is None else now
        with self._write("worker_heartbeat", worker=worker_id) as conn:
            conn.execute(
                "UPDATE workers SET heartbeat_at=?, current_job=? WHERE id=?",
                (now, current_job, worker_id),
            )

    def worker_finished(self, worker_id: str, ok: bool) -> None:
        """Bump a worker's done/failed tallies after one job."""
        column = "jobs_done" if ok else "jobs_failed"
        with self._write("worker_finished", worker=worker_id) as conn:
            conn.execute(
                f"UPDATE workers SET {column}={column}+1, current_job=NULL"
                " WHERE id=?",
                (worker_id,),
            )

    def deregister_worker(self, worker_id: str) -> None:
        with self._write("deregister_worker", worker=worker_id) as conn:
            conn.execute("DELETE FROM workers WHERE id=?", (worker_id,))

    def list_workers(self, now: float | None = None) -> list[dict[str, Any]]:
        """Registered workers with heartbeat ages, oldest-registered first."""
        now = time.time() if now is None else now
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, pid, host, started_at, heartbeat_at, current_job,"
                " jobs_done, jobs_failed FROM workers ORDER BY started_at, id"
            ).fetchall()
        workers = []
        for row in rows:
            worker = dict(row)
            worker["heartbeat_age_s"] = max(0.0, now - row["heartbeat_at"])
            workers.append(worker)
        return workers

    def prune_workers(
        self, max_age: float = 300.0, now: float | None = None
    ) -> int:
        """Drop worker rows whose heartbeat is older than ``max_age``."""
        now = time.time() if now is None else now
        with self._write("prune_workers") as conn:
            cursor = conn.execute(
                "DELETE FROM workers WHERE heartbeat_at<?", (now - max_age,)
            )
            return cursor.rowcount


__all__ = [
    "AmbiguousJobError",
    "CANCELLED",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_REQUEUE_CAP",
    "DONE",
    "FAILED",
    "INACTIVE_STATES",
    "Job",
    "JobStore",
    "QUARANTINED",
    "QUEUED",
    "ReapOutcome",
    "RUNNING",
    "STATES",
    "TERMINAL_STATES",
    "UnknownJobError",
    "default_worker_id",
]
