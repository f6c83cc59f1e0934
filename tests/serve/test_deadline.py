"""Per-job deadlines: pipeline enforcement and terminal failure."""

from __future__ import annotations

import time

import pytest

from repro.api import DeadlineExceeded, ExperimentRequest, run_experiment
from repro.api.request import RunOptions
from repro.api.stages import Pipeline, PipelineContext, Stage
from repro.serve.store import FAILED, JobStore
from repro.serve.worker import Worker

from test_obs_endpoints import _Service  # sibling module, same dir


def _request(rate: float = 0.9) -> ExperimentRequest:
    from repro.eval.common import ExperimentScale

    return ExperimentRequest(
        experiment="ablate-rate", pruning_rate=rate, scale=ExperimentScale.smoke()
    )


@pytest.fixture
def store(tmp_path):
    with JobStore(tmp_path / "serve.db") as job_store:
        yield job_store


class TestPipelineDeadline:
    def test_no_deadline_is_the_default_noop(self):
        ctx = PipelineContext(request=_request(), options=RunOptions())
        ctx.check_deadline()  # must not raise

    def test_expired_deadline_raises_with_overshoot(self):
        now = time.time()
        ctx = PipelineContext(
            request=_request(), options=RunOptions(), deadline=now - 2.0
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            ctx.check_deadline(now=now)
        assert excinfo.value.deadline == pytest.approx(now - 2.0)
        assert excinfo.value.overshoot == pytest.approx(2.0)

    def test_deadline_checked_before_each_stage(self):
        """A pipeline with a blown deadline never enters its first stage."""
        ran = []
        pipeline = Pipeline(
            "ablate-rate",
            [Stage(name="report", run=lambda ctx: ran.append("report"))],
        )
        ctx = PipelineContext(
            request=_request(),
            options=RunOptions(),
            deadline=time.time() - 1.0,
        )
        with pytest.raises(DeadlineExceeded):
            pipeline.run(ctx)
        assert ran == []

    def test_run_experiment_threads_the_deadline(self):
        with pytest.raises(DeadlineExceeded):
            run_experiment(
                _request(),
                options=RunOptions(use_cache=False),
                deadline=time.time() - 1.0,
            )
        # A generous deadline lets the smoke run finish normally.
        result = run_experiment(
            _request(),
            options=RunOptions(use_cache=False),
            deadline=time.time() + 300.0,
        )
        assert result.payload


class TestWorkerDeadline:
    def test_deadline_is_started_at_plus_budget(self, store):
        store.submit(_request(), deadline_s=30.0)
        seen = {}

        def execute(request, options, on_stage, deadline):
            seen["deadline"] = deadline
            from repro.api import ExperimentResult

            return ExperimentResult(
                experiment=request.experiment, request=request, payload={}
            )

        worker = Worker(
            store, worker_id="w1", poll_interval=0.05, execute=execute
        )
        assert worker.run(max_jobs=1, idle_exit=10.0) == 1
        job = store.get(_request().content_hash)
        assert seen["deadline"] == pytest.approx(job.started_at + 30.0)

    def test_deadline_exceeded_is_terminal_despite_retries(self, tmp_path, mode):
        """A job that blew its budget must not burn its retry budget too."""

        def execute(request, options, on_stage, deadline=None):
            raise DeadlineExceeded(deadline, 1.0)

        service = _Service(tmp_path, execute=execute, mode=mode)
        try:
            job = service.client.submit(
                _request(), max_retries=5, deadline_s=0.001
            )["job"]
            finished = service.client.wait(job["id"], timeout=30.0, poll=0.02)
            feed = service.client.events(job["id"], timeout=1.0)["events"]
        finally:
            service.close()
        assert finished["state"] == FAILED  # terminal, not re-queued for retry
        assert finished["executions"] == 1
        assert "DeadlineExceeded" in finished["error"]
        assert [e["event"] for e in feed] == ["started", "failed"]
        assert "DeadlineExceeded" in feed[-1]["error"]

    def test_deadline_survives_the_http_submit_path(self, store):
        """deadline_s rides the store row, not the request hash."""
        a, _ = store.submit(_request(), deadline_s=12.0)
        assert a.deadline_s == 12.0
        assert a.to_dict()["deadline_s"] == 12.0
        # Same request, no deadline: the attach keeps the original budget.
        b, deduped = store.submit(_request())
        assert deduped and b.deadline_s == 12.0
