"""Seeded state-machine test: JobStore against a small reference model.

Fake workers interleave submit, claim, heartbeat, clock advances, reaps,
completions and failures (from the lease owner and from stale workers),
cancel and requeue.  Time moves only through the store's ``now=``
arguments, so every seed replays exactly.  After every step the store must
agree with the model, and the cross-process invariants the chaos drill
checks end to end must hold at unit-test speed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.api import ExperimentRequest, ExperimentResult
from repro.serve.store import (
    CANCELLED,
    DONE,
    FAILED,
    JobStore,
    QUARANTINED,
    QUEUED,
    RUNNING,
)

SEEDS = range(8)
STEPS = 300
LEASE_TTL = 10.0
CAP = 2
WORKERS = ("w0", "w1", "w2")
# Small enough that resubmissions attach, large enough that ``done`` (which
# is final) does not absorb every job early in the run.
POOL = [
    ExperimentRequest(experiment="fig8", pruning_rate=rate / 10)
    for rate in range(1, 9)
]
# A worker's next report on a job it holds; stages keep it running.
OUTCOMES = {"done": 1, "retry": 2, "fail": 2, "stage": 3}
RESULTS = {
    request.content_hash: ExperimentResult(
        experiment=request.experiment, request=request, payload={}, summary="ok"
    )
    for request in POOL
}


@dataclass
class ModelJob:
    created_at: float
    state: str = QUEUED
    executions: int = 0
    complete_count: int = 0
    requeue_count: int = 0
    owner: str | None = None
    lease_expires_at: float | None = None
    not_before: float = 0.0


class Drive:
    """One seeded run: the store, the model, and the fake workers' beliefs."""

    def __init__(self, store: JobStore, seed: int) -> None:
        self.store = store
        self.rng = random.Random(seed)
        self.clock = 1_000.0
        self.jobs: dict[str, ModelJob] = {}
        # Leases each fake worker believes it holds — stale ones included,
        # since a reaped worker does not know it was reaped.
        self.held: dict[str, set[str]] = {worker: set() for worker in WORKERS}
        self.seen: dict[str, int] = {}

    # -- helpers ------------------------------------------------------------
    def snapshot(self, job_id: str) -> tuple[dict, list]:
        return self.store.get(job_id).to_dict(), self.store.events(job_id)

    def owns(self, worker: str, job_id: str) -> bool:
        job = self.jobs[job_id]
        return job.state == RUNNING and job.owner == worker

    def note(self, what: str) -> None:
        self.seen[what] = self.seen.get(what, 0) + 1

    def held_job(self) -> tuple[str, str] | None:
        pairs = [(w, j) for w, jobs in self.held.items() for j in sorted(jobs)]
        return self.rng.choice(pairs) if pairs else None

    # -- operations ---------------------------------------------------------
    def submit(self) -> None:
        request = self.rng.choice(POOL)
        job_id = request.content_hash
        before = self.jobs.get(job_id)
        executions = before.executions if before else 0
        job, deduped = self.store.submit(request, now=self.clock)
        if before is None:
            self.jobs[job_id] = ModelJob(created_at=self.clock)
            assert not deduped
        elif before.state in (FAILED, CANCELLED):
            assert not deduped
            before.state, before.not_before = QUEUED, 0.0
            before.requeue_count, before.owner = 0, None
            self.note("resubmitted")
        else:
            # An attach: no new execution, and quarantine stays sticky.
            assert deduped
            assert job.executions == executions
            assert job.state == before.state
            self.note("attached")

    def claim(self) -> None:
        worker = self.rng.choice(WORKERS)
        due = [
            (job.created_at, job_id)
            for job_id, job in self.jobs.items()
            if job.state == QUEUED and job.not_before <= self.clock
        ]
        claimed = self.store.claim_next(
            worker_id=worker, lease_ttl=LEASE_TTL, now=self.clock
        )
        if not due:
            assert claimed is None
            return
        job_id = min(due)[1]
        assert claimed is not None and claimed.id == job_id
        job = self.jobs[job_id]
        # Only a queued job is claimable: a live lease is never handed out
        # a second time.
        assert job.state == QUEUED
        job.state, job.owner = RUNNING, worker
        job.executions += 1
        job.lease_expires_at = self.clock + LEASE_TTL
        self.held[worker].add(job_id)
        self.note("claimed")

    def heartbeat(self) -> None:
        pick = self.held_job()
        if pick is None:
            return
        worker, job_id = pick
        owner = self.owns(worker, job_id)
        before = self.snapshot(job_id)
        alive = self.store.heartbeat(
            job_id, worker, lease_ttl=LEASE_TTL, now=self.clock
        )
        assert alive == owner
        if owner:
            self.jobs[job_id].lease_expires_at = self.clock + LEASE_TTL
        else:
            assert self.snapshot(job_id) == before
            self.held[worker].discard(job_id)  # the worker learns it lost
            self.note("stale heartbeat")

    def advance(self) -> None:
        self.clock += self.rng.choice([0.5, LEASE_TTL / 2, LEASE_TTL * 1.2])

    def reap(self) -> None:
        expired = {
            job_id: job
            for job_id, job in self.jobs.items()
            if job.state == RUNNING and job.lease_expires_at <= self.clock
        }
        outcome = self.store.reap_expired(now=self.clock, quarantine_after=CAP)
        requeue = {j for j, job in expired.items() if job.requeue_count < CAP}
        assert set(outcome.requeued) == requeue
        assert set(outcome.quarantined) == set(expired) - requeue
        for job_id, job in expired.items():
            job.owner, job.lease_expires_at = None, None
            if job_id in requeue:
                job.state, job.not_before = QUEUED, 0.0
                job.requeue_count += 1
                self.note("reaped")
            else:
                job.state = QUARANTINED
                self.note("quarantined")

    def finish(self) -> None:
        pick = self.held_job()
        if pick is None:
            return
        worker, job_id = pick
        self.held[worker].discard(job_id)
        owner = self.owns(worker, job_id)
        before = self.snapshot(job_id)
        job = self.jobs[job_id]
        outcome = self.rng.choices(
            list(OUTCOMES), weights=list(OUTCOMES.values())
        )[0]
        if outcome == "done":
            self.store.mark_done(
                job_id, RESULTS[job_id], now=self.clock, worker_id=worker
            )
        elif outcome == "stage":
            self.held[worker].add(job_id)  # still running after a stage
            self.store.record_stage(job_id, "simulate", 0.1, worker_id=worker)
        else:
            retry_at = self.clock + 1.0 if outcome == "retry" else None
            self.store.mark_failed(
                job_id, "boom", retry_at=retry_at, now=self.clock,
                worker_id=worker,
            )
        if not owner:
            # Stale-owner writes change nothing, events included.
            assert self.snapshot(job_id) == before
            self.note("stale write")
            return
        self.note(outcome)
        if outcome == "done":
            job.state = DONE
            job.complete_count += 1
        elif outcome == "retry":
            job.state, job.owner, job.not_before = QUEUED, None, self.clock + 1.0
        elif outcome == "fail":
            job.state = FAILED

    def cancel(self) -> None:
        if not self.jobs:
            return
        job_id = self.rng.choice(sorted(self.jobs))
        job = self.jobs[job_id]
        before = self.snapshot(job_id)
        _, cancelled = self.store.cancel(job_id, now=self.clock)
        assert cancelled == (job.state == QUEUED)
        if cancelled:
            job.state = CANCELLED
            self.note("cancelled")
        else:
            assert self.snapshot(job_id) == before

    def requeue(self) -> None:
        if not self.jobs:
            return
        job_id = self.rng.choice(sorted(self.jobs))
        job = self.jobs[job_id]
        _, requeued = self.store.requeue(job_id, now=self.clock)
        assert requeued == (job.state in (QUARANTINED, FAILED, CANCELLED))
        if requeued:
            job.state, job.not_before = QUEUED, 0.0
            job.requeue_count, job.owner = 0, None
            self.note("requeued")

    OPERATIONS = {
        "submit": 3, "claim": 4, "heartbeat": 2, "advance": 4, "reap": 3,
        "finish": 4, "cancel": 1, "requeue": 1,
    }

    def step(self) -> None:
        names = list(self.OPERATIONS)
        name = self.rng.choices(names, weights=[self.OPERATIONS[n] for n in names])[0]
        getattr(self, name)()

    # -- the check after every step -----------------------------------------
    def check(self) -> None:
        for job_id, model in self.jobs.items():
            row = self.store.get(job_id)
            assert row.state == model.state
            assert row.executions == model.executions
            assert row.requeue_count == model.requeue_count <= CAP
            assert row.complete_count == (1 if row.state == DONE else 0)
            assert row.complete_count == model.complete_count
            if row.state == RUNNING:
                assert row.worker_id == model.owner
                assert row.lease_expires_at == pytest.approx(model.lease_expires_at)
            if row.state == QUEUED:
                assert row.not_before == pytest.approx(model.not_before)
            kinds = [event["event"] for event in self.store.events(job_id)]
            assert kinds.count("started") == row.executions
            assert kinds.count("done") == row.complete_count


@pytest.mark.parametrize("seed", SEEDS)
def test_store_matches_the_model(tmp_path, seed):
    with JobStore(tmp_path / "model.db") as store:
        drive = Drive(store, seed)
        for _ in range(STEPS):
            drive.step()
            drive.check()
    # Each seed reaches deep enough to exercise the guarded paths.
    assert {"claimed", "done", "reaped", "stale write"} <= set(drive.seen)
