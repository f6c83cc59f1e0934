"""The trace/telemetry HTTP surface: /jobs/<id>/trace, /metrics/history."""

from __future__ import annotations

import os

import pytest

from repro.obs.sink import ProcessTelemetry
from repro.serve.client import ServeError

from test_obs_endpoints import StageExecutor, _Service, _request


@pytest.fixture
def running(tmp_path):
    service = _Service(tmp_path, execute=StageExecutor(), start=True)
    # The front-end process's telemetry agent, spooling the global TRACE
    # ring (exactly what `repro serve` starts) into serve.db.obs/.
    telemetry = ProcessTelemetry(
        tmp_path / "serve.db", worker_id="frontend", snapshot_interval=0
    ).start()
    yield service
    telemetry.stop()
    service.close()


class TestSubmitCarriesTraceId:
    def test_submitted_job_is_born_with_a_trace_id(self, running):
        job = running.client.submit(_request())["job"]
        assert job["trace_id"] and len(job["trace_id"]) == 32

    def test_client_supplied_trace_id_is_honored(self, running):
        job = running.client.submit(_request(rate=0.11), trace_id="t" * 32)
        assert job["job"]["trace_id"] == "t" * 32

    def test_dedup_attach_keeps_the_first_trace_id(self, running):
        first = running.client.submit(_request(rate=0.12), trace_id="a" * 32)
        second = running.client.submit(_request(rate=0.12), trace_id="b" * 32)
        assert second["deduped"] is True
        assert second["job"]["trace_id"] == "a" * 32

    def test_non_string_trace_id_is_400(self, running):
        with pytest.raises(ServeError) as excinfo:
            running.client._call(
                "POST", "/jobs",
                {"request": _request(rate=0.13).to_dict(), "trace_id": 7},
            )
        assert excinfo.value.status == 400


class TestTraceEndpoint:
    def test_trace_merges_submit_and_execute_spans(self, running):
        job = running.client.submit(_request(rate=0.2))["job"]
        running.client.wait(job["id"], timeout=30.0, poll=0.02)
        document = running.client.trace(job["id"])
        meta = document["metadata"]
        assert meta["job_id"] == job["id"]
        assert meta["trace_id"] == job["trace_id"]
        names = {
            event["name"]
            for event in document["traceEvents"]
            if event["ph"] == "X"
        }
        # The front-end's submit span and the worker thread's claim and
        # execute spans all landed in the one merged document, plus the
        # synthetic queue wait.
        assert {
            "http.submit", "worker.claim", "worker.execute", "queue.wait"
        } <= names
        assert meta["queue_wait_s"] is not None
        assert meta["queue_wait_s"] >= 0.0
        assert meta["span_count"] >= 2

    def test_queue_wait_matches_the_job_row(self, running):
        job = running.client.submit(_request(rate=0.3))["job"]
        finished = running.client.wait(job["id"], timeout=30.0, poll=0.02)
        meta = running.client.trace(job["id"])["metadata"]
        expected = finished["started_at"] - max(
            finished["created_at"], finished["not_before"] or 0.0
        )
        assert meta["queue_wait_s"] == pytest.approx(max(0.0, expected), abs=1e-6)

    def test_unknown_job_is_404(self, running):
        with pytest.raises(ServeError) as excinfo:
            running.client.trace("doesnotexist")
        assert excinfo.value.status == 404

    def test_pre_tracing_job_yields_an_empty_trace(self, running):
        """A NULL-trace_id row (migrated v3 data) must not 500."""
        running.client.submit(_request(rate=0.4))
        store = running.store
        # Under the store's lock: the worker thread shares this connection,
        # and a bare commit here would end its open transaction.
        with store._lock:
            store._conn.execute("UPDATE jobs SET trace_id=NULL")
            store._conn.commit()
        job = running.client.jobs()[0]
        document = running.client.trace(job["id"])
        assert document["metadata"]["trace_id"] is None
        assert document["metadata"]["span_count"] == 0


class TestMetricsHistory:
    def test_history_returns_snapshots_with_process_list(self, running, tmp_path):
        # Force a couple of snapshots without waiting out the interval.
        agent = ProcessTelemetry(
            tmp_path / "serve.db", worker_id="frontend", snapshot_interval=0
        )
        agent.ring.snapshot(now=100.0)
        agent.ring.snapshot(now=101.0)
        body = running.client.metrics_history()
        assert len(body["history"]) >= 2
        assert body["processes"] == sorted(set(body["processes"]))
        assert os.getpid() in [entry["pid"] for entry in body["history"]]
        entry = body["history"][-1]
        assert entry["worker_id"] == "frontend"
        assert isinstance(entry["metrics"], dict)

    def test_since_and_limit_parameters(self, running, tmp_path):
        agent = ProcessTelemetry(tmp_path / "serve.db", snapshot_interval=0)
        for ts in (10.0, 20.0, 30.0):
            agent.ring.snapshot(now=ts)
        newest = running.client.metrics_history(limit=1)
        assert len(newest["history"]) == 1
        assert newest["history"][0]["ts"] == 30.0
        later = running.client.metrics_history(since=15.0)
        assert [entry["ts"] for entry in later["history"]] == [20.0, 30.0]

    def test_bad_limit_is_400(self, running):
        for bad in ("0", "nope"):
            with pytest.raises(ServeError) as excinfo:
                running.client._call("GET", f"/metrics/history?limit={bad}")
            assert excinfo.value.status == 400

    def test_empty_history_is_not_an_error(self, tmp_path):
        service = _Service(tmp_path, execute=StageExecutor(), start=False)
        try:
            body = service.client.metrics_history()
            assert body["history"] == []
            assert body["processes"] == []
        finally:
            service.close()
