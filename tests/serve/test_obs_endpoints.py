"""The observability endpoints: /stats, /metrics, /jobs/<id>/events.

Process counters live in the process-global registry and accumulate across
the test run, so every numeric assertion is a delta between two snapshots
taken inside one test.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import ExperimentRequest, ExperimentResult, RunOptions
from repro.serve.client import ServeClient, ServeError
from repro.serve.http_api import ExperimentServer
from repro.serve.scheduler import Scheduler
from repro.serve.store import JobStore
from repro.serve.worker import Worker


def _request(rate: float = 0.9) -> ExperimentRequest:
    return ExperimentRequest(experiment="fig8", pruning_rate=rate)


class StageExecutor:
    """Fake executor that reports two stages, optionally gated."""

    def __init__(self, gate: threading.Event | None = None,
                 started: threading.Event | None = None) -> None:
        self.gate = gate
        self.started = started

    def __call__(self, request, options, on_stage, deadline=None):
        if self.started is not None:
            self.started.set()
        if self.gate is not None:
            assert self.gate.wait(10.0)
        on_stage("simulate", 0.02)
        on_stage("report", 0.01)
        return ExperimentResult(
            experiment=request.experiment,
            request=request,
            payload={},
            summary="ok",
        )


class _Service:
    """Store + scheduler + HTTP server, executing in one of the two modes.

    ``tuning`` (poll interval, retry delays) goes to whichever object
    executes: the scheduler's threads in process, the worker in ``fleet``.
    """

    def __init__(self, tmp_path, execute=None, start=True, mode="inprocess",
                 **tuning):
        tuning.setdefault("poll_interval", 0.02)
        fleet = mode == "fleet"
        self.path = tmp_path / "serve.db"
        self.store = JobStore(self.path)
        self.scheduler = Scheduler(
            self.store,
            options=RunOptions(use_cache=False),
            concurrency=0 if fleet else 1,
            execute=execute,
            **tuning,
        )
        self.worker = None
        if fleet:
            self.worker_store = JobStore(self.path)
            self.worker = Worker(
                self.worker_store,
                options=RunOptions(use_cache=False),
                worker_id="fleet-worker",
                execute=execute,
                **tuning,
            )
            self.worker_stop = threading.Event()
            self.worker_thread = threading.Thread(
                target=self.worker.run,
                kwargs={"stop": self.worker_stop},
                daemon=True,
            )
        if start:
            self.scheduler.start()
            if fleet:
                self.worker_thread.start()
        self.server = ExperimentServer(self.scheduler, port=0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        self.client = ServeClient(self.server.url)

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        if self.worker is not None:
            self.worker_stop.set()
            self.worker.wake()
            if self.worker_thread.is_alive():
                self.worker_thread.join(timeout=10.0)
                assert not self.worker_thread.is_alive()
            self.worker_store.close()
        if self.scheduler.running:
            assert self.scheduler.stop(timeout=10.0)
        self.store.close()


def _wait_for_workers(client: ServeClient, count: int, timeout: float = 10.0) -> None:
    """Block until ``count`` workers have registered in the store (a worker
    registers when its loop starts, on its own thread)."""
    deadline = time.monotonic() + timeout
    while len(client.health()["workers"]) < count:
        assert time.monotonic() < deadline, "workers never registered"
        time.sleep(0.01)


@pytest.fixture
def idle(tmp_path):
    service = _Service(tmp_path, execute=StageExecutor(), start=False)
    yield service
    service.close()


@pytest.fixture
def running(tmp_path):
    service = _Service(tmp_path, execute=StageExecutor(), start=True)
    yield service
    service.close()


class TestHealthz:
    def test_reports_version_and_scheduler_liveness(self, running):
        health = running.client.health()
        assert health["ok"] is True
        import repro

        assert health["version"] == repro.__version__
        assert health["uptime_s"] >= 0
        assert health["scheduler"]["running"] is True
        _wait_for_workers(running.client, 1)
        sched = running.client.health()["scheduler"]
        assert sched["workers_alive"] == 1
        assert sched["last_dequeue_at"] is None  # nothing claimed yet

    def test_last_dequeue_timestamp_set_after_a_claim(self, running):
        before = time.time()
        job = running.client.submit(_request())["job"]
        running.client.wait(job["id"], timeout=30.0, poll=0.02)
        sched = running.client.health()["scheduler"]
        assert sched["last_dequeue_at"] is not None
        assert sched["last_dequeue_at"] >= before


class TestWorkersAlive:
    def test_registered_worker_counts_in_both_modes(self, tmp_path, mode):
        # In fleet mode the front end runs no worker threads of its own;
        # the count comes from the store's worker registry either way.
        service = _Service(tmp_path, execute=StageExecutor(), mode=mode)
        try:
            _wait_for_workers(service.client, 1)
            assert service.client.stats()["scheduler"]["workers_alive"] == 1
            assert service.client.health()["scheduler"]["workers_alive"] == 1
            assert "repro_serve_workers_alive 1" in service.client.metrics_text()
        finally:
            service.close()


class TestStats:
    def test_dedup_and_done_counters(self, running):
        before = running.client.stats()
        first = running.client.submit(_request(rate=0.7))
        second = running.client.submit(_request(rate=0.7))
        assert first["deduped"] is False and second["deduped"] is True
        running.client.wait(first["job"]["id"], timeout=30.0, poll=0.02)
        after = running.client.stats()

        delta = {
            key: after["jobs"][key] - before["jobs"][key]
            for key in after["jobs"]
        }
        assert delta["submitted"] == 2
        assert delta["dedup_attached"] == 1
        assert delta["claimed"] == 1  # deduped submission never executed
        assert delta["done"] == 1
        assert after["queue"]["done"] == 1
        assert after["scheduler"]["queue_wait"] is not None
        assert after["scheduler"]["queue_wait"]["count"] >= 1

    def test_snapshot_shape(self, idle):
        stats = idle.client.stats()
        import repro

        assert stats["version"] == repro.__version__
        assert stats["uptime_s"] >= 0
        assert set(stats["queue"]) >= {"queued", "running", "done", "failed"}
        assert isinstance(stats["stages"], dict)
        for info in stats["stages"].values():
            assert set(info) == {"count", "p50", "p95", "p99"}
        for info in stats["caches"].values():
            assert set(info) == {"hits", "misses", "hit_rate"}
        assert isinstance(stats["metrics"], dict)

    def test_cache_hit_rates_derived_from_counters(self, idle, tmp_path):
        from repro.explore.cache import ResultCache

        cache = ResultCache(tmp_path / "statscache.jsonl")
        cache.get("missing")
        cache.put("k", {"v": 1})
        cache.get("k")
        info = idle.client.stats()["caches"]["statscache"]
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["hit_rate"] == pytest.approx(0.5)


class TestMetricsEndpoint:
    def test_prometheus_text_and_scrape_time_gauges(self, running):
        job = running.client.submit(_request(rate=0.3))["job"]
        running.client.wait(job["id"], timeout=30.0, poll=0.02)
        text = running.client.metrics_text()
        assert "# TYPE repro_serve_jobs gauge" in text
        assert 'repro_serve_jobs{state="done"} 1' in text
        assert "repro_serve_uptime_seconds" in text
        assert "repro_serve_workers_alive 1" in text
        assert "repro_jobs_submitted_total" in text
        assert "repro_serve_queue_wait_seconds_count" in text

    def test_content_type_is_prometheus_text(self, idle):
        import urllib.request

        with urllib.request.urlopen(idle.server.url + "/metrics") as response:
            assert response.headers["Content-Type"].startswith("text/plain")


class TestJobEvents:
    def test_streamed_events_cover_the_lifecycle(self, tmp_path, mode):
        started, gate = threading.Event(), threading.Event()
        service = _Service(
            tmp_path, execute=StageExecutor(gate=gate, started=started),
            mode=mode,
        )
        try:
            before = service.client.stats()["jobs"]
            job = service.client.submit(_request())["job"]
            assert started.wait(10.0)
            first = service.client.events(job["id"], since=0, timeout=5.0)
            assert first["events"][0]["event"] == "started"
            assert first["events"][0]["experiment"] == "fig8"
            assert first["next"] == first["events"][-1]["seq"]

            gate.set()
            service.client.wait(job["id"], timeout=30.0, poll=0.02)
            rest = service.client.events(
                job["id"], since=first["next"], timeout=5.0
            )
            kinds = [event["event"] for event in rest["events"]]
            assert kinds == ["stage", "stage", "done"]
            stages = [e["stage"] for e in rest["events"] if e["event"] == "stage"]
            assert stages == ["simulate", "report"]
            seqs = [event["seq"] for event in rest["events"]]
            assert seqs == sorted(seqs)
            assert all(seq > first["next"] for seq in seqs)
            assert rest["state"] == "done"

            # Terminal job + no fresh events: returns immediately, empty.
            drained = service.client.events(
                job["id"], since=rest["next"], timeout=5.0
            )
            assert drained["events"] == []
            assert drained["next"] == rest["next"]

            # /stats reads the same log, whichever thread or process ran it.
            after = service.client.stats()["jobs"]
            assert after["claimed"] - before["claimed"] == 1
            assert after["done"] - before["done"] == 1
            feed = first["events"] + rest["events"]
        finally:
            service.close()

        # The feed is durable: a restarted service serves the same events.
        with JobStore(tmp_path / "serve.db") as reopened:
            assert reopened.events(job["id"]) == feed

    def test_cancel_ends_a_queued_jobs_feed(self, tmp_path, mode):
        started, gate = threading.Event(), threading.Event()
        service = _Service(
            tmp_path, execute=StageExecutor(gate=gate, started=started),
            mode=mode,
        )
        try:
            running = service.client.submit(_request(rate=0.8))["job"]
            assert started.wait(10.0)  # the one executor is now busy
            queued = service.client.submit(_request(rate=0.6))["job"]
            before = service.client.stats()["jobs"]
            assert service.client.cancel(queued["id"])["cancelled"] is True
            feed = service.client.events(queued["id"], since=0, timeout=5.0)
            assert [e["event"] for e in feed["events"]] == ["cancelled"]
            assert feed["state"] == "cancelled"
            assert service.client.stats()["jobs"]["cancelled"] == (
                before["cancelled"] + 1
            )
            gate.set()
            finished = service.client.wait(running["id"], timeout=30.0, poll=0.02)
            assert finished["state"] == "done"
        finally:
            gate.set()
            service.close()

    def test_retry_backoff_shows_in_the_feed(self, tmp_path, mode):
        calls = []

        def flaky(request, options, on_stage, deadline=None):
            calls.append(time.time())
            if len(calls) <= 2:
                raise ValueError(f"synthetic failure #{len(calls)}")
            return ExperimentResult(
                experiment=request.experiment, request=request, payload={},
                summary="ok",
            )

        service = _Service(
            tmp_path, execute=flaky, mode=mode, retry_base_delay=0.1
        )
        try:
            job = service.client.submit(_request(), max_retries=2)["job"]
            finished = service.client.wait(job["id"], timeout=30.0, poll=0.02)
            assert finished["state"] == "done"
            assert finished["executions"] == 3
            kinds = [
                e["event"]
                for e in service.client.events(job["id"], timeout=1.0)["events"]
            ]
            assert kinds == [
                "started", "retry_scheduled",
                "started", "retry_scheduled",
                "started", "done",
            ]
            # Exponential backoff: 0.1 s, then 0.2 s, between executions.
            assert calls[1] - calls[0] >= 0.1
            assert calls[2] - calls[1] >= 0.2
        finally:
            service.close()

    def test_long_poll_times_out_empty_on_idle_job(self, idle):
        job = idle.client.submit(_request())["job"]  # scheduler not running
        start = time.monotonic()
        response = idle.client.events(job["id"], since=0, timeout=0.3)
        elapsed = time.monotonic() - start
        assert response["events"] == []
        assert response["next"] == 0
        assert 0.2 <= elapsed < 5.0

    def test_long_poll_wakes_on_emit(self, idle):
        job = idle.client.submit(_request())["job"]

        def claim_soon():
            time.sleep(0.1)
            # Another connection, as a worker process would have.
            with JobStore(idle.path) as worker_store:
                worker_store.claim_next(worker_id="w-other")

        threading.Thread(target=claim_soon, daemon=True).start()
        start = time.monotonic()
        response = idle.client.events(job["id"], since=0, timeout=10.0)
        elapsed = time.monotonic() - start
        assert [e["event"] for e in response["events"]] == ["started"]
        assert response["events"][0]["worker"] == "w-other"
        assert elapsed < 5.0  # woke on the new event, not the timeout

    def test_unknown_job_is_404(self, idle):
        with pytest.raises(ServeError) as excinfo:
            idle.client.events("ffff00001111", timeout=0.1)
        assert excinfo.value.status == 404

    def test_bad_since_is_400(self, idle):
        job = idle.client.submit(_request())["job"]
        with pytest.raises(ServeError) as excinfo:
            idle.client._call("GET", f"/jobs/{job['id']}/events?since=nope")
        assert excinfo.value.status == 400
