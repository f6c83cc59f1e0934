"""Multi-process fleet: claim races, SIGKILL recovery, supervised respawn.

These tests spawn *real* worker processes against one shared SQLite store —
the cross-process claim race cannot be reproduced with threads because
threads share the store's in-process lock; only separate processes exercise
the ``BEGIN IMMEDIATE`` lease transactions.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import ExperimentRequest, ExperimentResult
from repro.cli import build_parser
from repro.serve.store import DONE, JobStore, QUEUED, RUNNING
from repro.serve.supervisor import WorkerSupervisor
from repro.serve.worker import Worker

SRC = Path(__file__).resolve().parents[2] / "src"

# A claim/execute/complete loop that exits once the queue stays empty.  The
# processes start claiming together: otherwise the first one to finish
# importing can drain the whole queue before the others start.
_HAMMER_SCRIPT = """
import sys, time
from pathlib import Path
from repro.api.request import ExperimentResult
from repro.serve.store import JobStore

db, worker_id, workers = sys.argv[1], sys.argv[2], int(sys.argv[3])
ready = Path(db).parent / "ready"
ready.mkdir(exist_ok=True)
(ready / worker_id).touch()
while len(list(ready.iterdir())) < workers:
    time.sleep(0.005)
with JobStore(db) as store:
    idle = 0
    while idle < 10:
        job = store.claim_next(worker_id=worker_id, lease_ttl=30.0)
        if job is None:
            idle += 1
            time.sleep(0.02)
            continue
        idle = 0
        result = ExperimentResult(
            experiment=job.experiment,
            request=job.request(),
            payload={"worker": worker_id},
            summary="ok",
        )
        store.mark_done(job.id, result, worker_id=worker_id)
"""

# Claim one job with a short lease, announce it, then hang without ever
# heartbeating — the stand-in for a worker about to be SIGKILL'd mid-job.
_VICTIM_SCRIPT = """
import sys, time
from repro.serve.store import JobStore

with JobStore(sys.argv[1]) as store:
    job = store.claim_next(worker_id="w-victim", lease_ttl=float(sys.argv[2]))
    assert job is not None, "victim found an empty queue"
    print("claimed " + job.id, flush=True)
    time.sleep(600)
"""


def _request(rate: float) -> ExperimentRequest:
    return ExperimentRequest(experiment="fig8", pruning_rate=rate)


def _result(request: ExperimentRequest) -> ExperimentResult:
    return ExperimentResult(
        experiment=request.experiment,
        request=request,
        payload={"ok": True},
        summary="done",
    )


def _python_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestCrossProcessClaims:
    def test_every_job_executes_exactly_once_under_contention(self, tmp_path):
        """The acceptance property: N processes, zero double-claims."""
        db = tmp_path / "fleet.db"
        jobs = 40
        with JobStore(db) as store:
            for index in range(jobs):
                store.submit(_request(rate=0.01 + index * 0.02))

        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _HAMMER_SCRIPT, str(db), f"hammer:{n}", "3"],
                env=_python_env(),
            )
            for n in range(3)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0

        with JobStore(db) as store:
            finished = store.list_jobs(limit=jobs * 2)
            assert len(finished) == jobs
            assert all(job.state == DONE for job in finished)
            # Exactly one claim each: claim_next increments ``executions``
            # atomically, so a double-claim would show up as executions > 1.
            assert [job.executions for job in finished] == [1] * jobs
            workers = {job.result().payload["worker"] for job in finished}
            assert len(workers) >= 2  # the load actually spread


class TestSigkillRecovery:
    def test_killed_workers_job_requeues_and_survivor_finishes(self, tmp_path):
        """SIGKILL mid-job: lease expiry requeues, another worker completes."""
        db = tmp_path / "crash.db"
        lease_ttl = 1.0
        request = _request(rate=0.9)
        with JobStore(db) as store:
            store.submit(request)

        victim = subprocess.Popen(
            [sys.executable, "-c", _VICTIM_SCRIPT, str(db), str(lease_ttl)],
            env=_python_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = victim.stdout.readline()  # blocks until the claim landed
            assert line.startswith("claimed ")
            victim.kill()  # SIGKILL: no drain, no heartbeat, lease orphaned
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()

        with JobStore(db) as store:
            assert store.get(request.content_hash).state == RUNNING

            survivor = Worker(
                store,
                worker_id="w-survivor",
                lease_ttl=lease_ttl,
                poll_interval=0.05,
                execute=lambda req, options, on_stage, deadline=None: _result(req),
            )
            executed = survivor.run(max_jobs=1, idle_exit=30.0)
            assert executed == 1

            job = store.get(request.content_hash)
            assert job.state == DONE
            assert job.executions == 2  # the killed claim + the re-run

    def test_reap_happens_only_after_lease_expiry(self, tmp_path):
        """The survivor must wait out the TTL, not steal a live lease."""
        db = tmp_path / "early.db"
        with JobStore(db) as store:
            store.submit(_request(rate=0.5))
            claimed_at = time.time()
            store.claim_next(worker_id="w-held", lease_ttl=2.0, now=claimed_at)
            # Immediately after the claim the lease is live: nothing reaps.
            assert not store.reap_expired(now=claimed_at + 1.0)
            assert store.get(_request(rate=0.5).content_hash).state == RUNNING
            assert store.reap_expired(now=claimed_at + 3.0)
            assert store.get(_request(rate=0.5).content_hash).state == QUEUED


class TestHeartbeatLiveness:
    def test_heartbeats_keep_a_slow_job_from_being_reaped(self, tmp_path):
        """A job slower than the TTL survives as long as its worker beats."""
        db = tmp_path / "slow.db"
        lease_ttl = 0.6
        request = _request(rate=0.7)
        with JobStore(db) as store:
            store.submit(request)

            def slow_execute(req, options, on_stage, deadline=None):
                time.sleep(lease_ttl * 2.5)  # well past the original lease
                return _result(req)

            worker = Worker(
                store,
                worker_id="w-slow",
                lease_ttl=lease_ttl,
                poll_interval=0.05,
                execute=slow_execute,
            )
            runner = threading.Thread(target=worker.run, kwargs={"max_jobs": 1})
            runner.start()
            # An aggressive external reaper runs the whole time; heartbeats
            # must keep the lease ahead of it.
            reaped: list[str] = []
            deadline = time.time() + lease_ttl * 4
            while runner.is_alive() and time.time() < deadline:
                reaped += list(store.reap_expired())
                time.sleep(0.05)
            runner.join(timeout=30.0)
            assert not runner.is_alive()
            assert reaped == []
            job = store.get(request.content_hash)
            assert job.state == DONE
            assert job.executions == 1


class TestSupervisor:
    def test_worker_command_forwards_the_retry_delay(self, tmp_path):
        """`repro serve --retry-delay` must reach `--fleet` workers too."""
        supervisor = WorkerSupervisor(tmp_path / "s.db", count=1, retry_delay=2.5)
        command = supervisor._command()
        assert command[command.index("--retry-delay") + 1] == "2.5"
        assert "--retry-delay" not in WorkerSupervisor(
            tmp_path / "s.db", count=1
        )._command()

    def test_worker_command_parses_and_sizes_no_pool(self, tmp_path):
        """Every flag the supervisor forwards is one `repro worker` accepts,
        and none sizes a process pool: a job runs inside its worker."""
        command = WorkerSupervisor(
            tmp_path / "s.db", count=1, heartbeat_interval=1.0, cache_dir="c",
            no_cache=True, quarantine_after=2, retry_delay=0.5,
        )._command()
        assert "--workers" not in command
        args = build_parser().parse_args(command[command.index("worker"):])
        assert (args.command, args.no_cache, args.requeue_cap) == ("worker", True, 2)

    def test_fleet_spawns_registers_and_respawns(self, tmp_path):
        db = tmp_path / "super.db"
        JobStore(db).close()  # create the schema before workers race to it
        supervisor = WorkerSupervisor(
            db,
            count=2,
            lease_ttl=5.0,
            respawn_delay=0.2,
            monitor_interval=0.1,
        )
        supervisor.start()
        try:
            store = JobStore(db)
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if supervisor.alive == 2 and len(store.list_workers()) == 2:
                    break
                time.sleep(0.1)
            assert supervisor.alive == 2
            workers = store.list_workers()
            assert len(workers) == 2
            fleet_pids = {slot["pid"] for slot in supervisor.fleet_state()}
            assert {w["pid"] for w in workers} == fleet_pids

            # SIGKILL one worker: the monitor must respawn the slot.
            target = supervisor.fleet_state()[0]
            os.kill(target["pid"], signal.SIGKILL)
            deadline = time.time() + 60.0
            while time.time() < deadline:
                state = supervisor.fleet_state()
                if (
                    supervisor.alive == 2
                    and state[0]["restarts"] == 1
                    and state[0]["pid"] != target["pid"]
                ):
                    break
                time.sleep(0.1)
            assert supervisor.alive == 2
            assert supervisor.fleet_state()[0]["restarts"] == 1
            store.close()
        finally:
            assert supervisor.stop(timeout=30.0)
        assert supervisor.alive == 0
