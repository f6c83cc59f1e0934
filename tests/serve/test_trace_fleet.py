"""Distributed tracing across real processes: one trace id, many pids.

The tentpole acceptance property lives here: a job submitted in this process
and executed by a *separate* worker process yields one merged trace holding
spans from both pids under the job's single trace id — including the case
where the worker is SIGKILL'd mid-job and only its spooled claim marker
survives as evidence.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import ExperimentRequest
from repro.obs import trace_context, trace_span
from repro.obs.sink import (
    ProcessTelemetry,
    merge_trace,
    obs_dir_for,
    read_spans,
)
from repro.obs.trace import TraceBuffer
from repro.serve.store import DONE, JobStore

SRC = Path(__file__).resolve().parents[2] / "src"

# A real worker process with its telemetry agent: claims one job, executes a
# stub, spools its spans, exits.
_WORKER_SCRIPT = """
import sys
from repro.api.request import ExperimentResult
from repro.obs.sink import ProcessTelemetry
from repro.serve.store import JobStore
from repro.serve.worker import Worker

db, worker_id = sys.argv[1], sys.argv[2]
telemetry = ProcessTelemetry(db, worker_id=worker_id, snapshot_interval=0).start()

def execute(req, options, on_stage, deadline=None):
    on_stage("simulate", 0.01)
    return ExperimentResult(
        experiment=req.experiment, request=req, payload={}, summary="ok"
    )

with JobStore(db) as store:
    worker = Worker(
        store, worker_id=worker_id, lease_ttl=30.0, poll_interval=0.05,
        execute=execute,
    )
    executed = worker.run(max_jobs=1, idle_exit=30.0)
telemetry.stop()
sys.exit(0 if executed == 1 else 3)
"""

# A worker that claims (spooling the claim marker synchronously), announces,
# then hangs in execute until SIGKILL'd — the spool is its only testimony.
_DOOMED_SCRIPT = """
import sys, time
from repro.obs.sink import ProcessTelemetry
from repro.serve.store import JobStore
from repro.serve.worker import Worker

db = sys.argv[1]
telemetry = ProcessTelemetry(db, worker_id="w-doomed", snapshot_interval=0).start()

def execute(req, options, on_stage, deadline=None):
    print("executing", flush=True)
    time.sleep(600)

with JobStore(db) as store:
    worker = Worker(
        store, worker_id="w-doomed", lease_ttl=2.0, poll_interval=0.05,
        execute=execute,
    )
    worker.run(max_jobs=1)
"""


def _request(rate: float = 0.9) -> ExperimentRequest:
    return ExperimentRequest(experiment="fig8", pruning_rate=rate)


def _python_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestMergedFleetTrace:
    def test_one_trace_spans_submitter_and_worker_processes(self, tmp_path):
        db = tmp_path / "fleet.db"
        buffer = TraceBuffer()
        telemetry = ProcessTelemetry(
            db, worker_id="frontend", snapshot_interval=0, buffer=buffer
        )
        with telemetry, JobStore(db) as store:
            # The submitter's side of the trace, exactly as the HTTP
            # front-end records it.
            job, _ = store.submit(_request())
            assert job.trace_id
            with trace_context(trace_id=job.trace_id, job_id=job.id):
                with trace_span("http.submit", buffer=buffer):
                    pass

            worker = subprocess.run(
                [sys.executable, "-c", _WORKER_SCRIPT, str(db), "host:worker"],
                env=_python_env(),
                timeout=120,
            )
            assert worker.returncode == 0
            finished = store.get(job.id)
            assert finished.state == DONE

        spans = read_spans(obs_dir_for(db), trace_id=job.trace_id)
        names = {span["name"] for span in spans}
        assert {"http.submit", "worker.claim", "worker.execute"} <= names
        # Every span carries the one trace id...
        assert {span["trace_id"] for span in spans} == {job.trace_id}
        # ...and they come from at least two distinct processes.
        pids = {span["pid"] for span in spans}
        assert os.getpid() in pids
        assert len(pids) >= 2

        document = merge_trace(spans, job=finished.to_dict(include_result=False))
        meta = document["metadata"]
        assert meta["trace_id"] == job.trace_id
        assert len(meta["pids"]) >= 2
        # The synthetic queue-wait equals the store's own measurement.
        assert meta["queue_wait_s"] == pytest.approx(
            finished.started_at - finished.created_at, abs=1e-6
        )
        assert any(
            event["name"] == "queue.wait" for event in document["traceEvents"]
        )

    def test_sigkilled_worker_leaves_its_claim_in_the_trace(self, tmp_path):
        """The spool is crash forensics: the claim marker outlives SIGKILL."""
        db = tmp_path / "doomed.db"
        with JobStore(db) as store:
            job, _ = store.submit(_request(rate=0.5))

        victim = subprocess.Popen(
            [sys.executable, "-c", _DOOMED_SCRIPT, str(db)],
            env=_python_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = victim.stdout.readline()  # "executing": claim span spooled
            assert line.strip() == "executing"
            victim.kill()
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()

        spans = read_spans(obs_dir_for(db), trace_id=job.trace_id)
        claims = [span for span in spans if span["name"] == "worker.claim"]
        assert len(claims) == 1
        assert claims[0]["worker_id"] == "w-doomed"
        assert claims[0]["pid"] == victim.pid
        assert claims[0]["job_id"] == job.id
        # The execute span never closed, so it must NOT be in the spool.
        assert not any(span["name"] == "worker.execute" for span in spans)
