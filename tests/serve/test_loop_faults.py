"""A worker outlives store faults in its own loop, in both serving modes.

Seeded fault plans at unit speed: a one-shot ``store.commit`` error at each
of the loop's own store calls, and the chaos drill's faults that need no
process death (the stage hang and the ``record_stage`` commit error).  In
every case each job reaches exactly one terminal state, and the worker
registry is never empty for longer than the loop's error backoff.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.api import ExperimentRequest, ExperimentResult
from repro.api.stages import DeadlineExceeded
from repro.faults import FaultPlan, FaultRule, clear_plan, fault_point, fault_report, install_plan
from repro.obs import metrics
from repro.serve.chaos import HANG_EXPERIMENT, default_chaos_plan
from repro.serve.store import JobStore
from repro.serve.worker import LOOP_ERROR_BACKOFF_MAX

from test_obs_endpoints import _Service

LOOP_OPS = ("claim_next", "reap_expired", "worker_heartbeat", "prune_workers")
TERMINAL_EVENTS = {"done", "failed", "cancelled"}


def pipeline_stub(request, options, on_stage, deadline=None):
    """Two instant stages behind the pipeline's boundary: the
    ``stage.boundary`` fault site, then the cooperative deadline check."""
    for stage in ("simulate", "report"):
        fault_point("stage.boundary", stage=stage, experiment=request.experiment)
        now = time.time()
        if deadline is not None and now > deadline:
            raise DeadlineExceeded(deadline, now - deadline)
        on_stage(stage, 0.0)
    return ExperimentResult(
        experiment=request.experiment, request=request, payload={}, summary="ok"
    )


class RegistryWatch:
    """Samples the worker registry every 5 ms from its own connection and
    keeps the longest stretch it was empty after the first registration."""

    def __init__(self, path) -> None:
        self.longest_empty = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, args=(path,))
        self._thread.start()

    def _watch(self, path) -> None:
        registered = False
        empty_since = None
        with JobStore(path) as store:
            while not self._stop.wait(0.005):
                now = time.monotonic()
                if store.list_workers():
                    registered, empty_since = True, None
                elif registered:
                    empty_since = now if empty_since is None else empty_since
                    self.longest_empty = max(self.longest_empty, now - empty_since)

    def stop(self) -> float:
        self._stop.set()
        self._thread.join(10.0)
        return self.longest_empty


def _loop_errors() -> int:
    return metrics().counter("serve.worker.loop_errors").value


def _terminal_events(store: JobStore, job_id: str) -> list[str]:
    return [e["event"] for e in store.events(job_id) if e["event"] in TERMINAL_EVENTS]


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    clear_plan()
    yield
    clear_plan()


@pytest.mark.parametrize("op", LOOP_OPS)
def test_a_commit_fault_in_the_loop_is_absorbed(tmp_path, mode, op):
    install_plan(
        FaultPlan(
            seed=7,
            rules=(FaultRule(site="store.commit", match={"op": op}, times=1),),
        )
    )
    before = _loop_errors()
    service = _Service(tmp_path, execute=pipeline_stub, mode=mode)
    watch = RegistryWatch(service.path)
    try:
        submitted = [
            service.client.submit(
                ExperimentRequest(experiment="fig8", pruning_rate=rate)
            )["job"]
            for rate in (0.1, 0.2, 0.3)
        ]
        finished = [service.client.wait(j["id"], timeout=10.0) for j in submitted]
        assert [job["state"] for job in finished] == ["done"] * 3
        assert fault_report()["rules"][0]["fired"] == 1
        assert _loop_errors() == before + 1
        for job in finished:
            assert job["complete_count"] == 1
            assert _terminal_events(service.store, job["id"]) == ["done"]
        assert len(service.store.list_workers()) == 1
    finally:
        longest_empty = watch.stop()
        service.close()
    assert longest_empty < LOOP_ERROR_BACKOFF_MAX


def test_the_drills_non_crash_faults_are_absorbed(tmp_path, mode):
    hang = ExperimentRequest(experiment=HANG_EXPERIMENT, pruning_rate=0.4)
    commit = ExperimentRequest(experiment="ablate-rate", pruning_rate=0.5)
    healthy = ExperimentRequest(experiment="ablate-fifo", pruning_rate=0.6)
    drill = default_chaos_plan(seed=3, crash_job="0" * 64, commit_job=commit.content_hash)
    # No crash (it kills the process), and a 0.3 s hang against a 0.1 s
    # deadline instead of the drill's 3 s against 1 s.
    rules = tuple(
        dataclasses.replace(rule, duration=0.3) if rule.action == "hang" else rule
        for rule in drill.rules
        if rule.action != "crash"
    )
    install_plan(dataclasses.replace(drill, rules=rules))
    service = _Service(
        tmp_path, execute=pipeline_stub, mode=mode, retry_base_delay=0.05
    )
    watch = RegistryWatch(service.path)
    try:
        ids = {
            "hang": service.client.submit(hang, deadline_s=0.1)["job"]["id"],
            "commit": service.client.submit(commit, max_retries=1)["job"]["id"],
            "healthy": service.client.submit(healthy)["job"]["id"],
        }
        finished = {
            role: service.client.wait(job_id, timeout=10.0)
            for role, job_id in ids.items()
        }
        assert [rule["fired"] for rule in fault_report()["rules"]] == [1, 1]
        assert finished["hang"]["state"] == "failed"
        assert "DeadlineExceeded" in finished["hang"]["error"]
        assert (finished["commit"]["state"], finished["commit"]["executions"]) == (
            "done", 2,
        )
        assert finished["healthy"]["state"] == "done"
        for role, job_id in ids.items():
            expected = ["failed"] if role == "hang" else ["done"]
            assert _terminal_events(service.store, job_id) == expected
    finally:
        longest_empty = watch.stop()
        service.close()
    assert longest_empty < LOOP_ERROR_BACKOFF_MAX
