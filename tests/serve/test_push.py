"""Push, don't poll: the store's change signal wakes workers, the events
feed and ``ServeClient.wait``.

Every case runs in both serving modes (the ``mode`` fixture) with a stub
executor, and counts calls rather than timing them where it can.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.api import ExperimentRequest, RunOptions
from repro.faults import FaultPlan, FaultRule, clear_plan, install_plan
from repro.serve.store import JobStore
from repro.serve.worker import Worker

from test_obs_endpoints import StageExecutor, _Service


def _request(rate: float = 0.9) -> ExperimentRequest:
    return ExperimentRequest(experiment="fig8", pruning_rate=rate)


def _count_job_fetches(client) -> list[str]:
    """Count ``GET /jobs/<id>`` calls as perfbench's ``serve.polls_per_job``
    does: by wrapping the client instance's ``job`` method."""
    fetched: list[str] = []
    fetch = client.job

    def counted(job_id: str) -> dict:
        fetched.append(job_id)
        return fetch(job_id)

    client.job = counted
    return fetched


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    clear_plan()
    yield
    clear_plan()


class TestClientWait:
    def test_wait_fetches_the_job_row_at_most_twice(self, tmp_path, mode):
        service = _Service(tmp_path, execute=StageExecutor(), mode=mode)
        try:
            fetched = _count_job_fetches(service.client)
            job = service.client.submit(_request())["job"]
            finished = service.client.wait(job["id"], timeout=30.0)
            assert finished["state"] == "done"
            assert finished["result"] is not None
            assert len(fetched) <= 2
        finally:
            service.close()

    def test_wait_on_a_terminal_job_returns_its_row(self, tmp_path, mode):
        service = _Service(tmp_path, execute=StageExecutor(), mode=mode)
        try:
            job = service.client.submit(_request())["job"]
            service.client.wait(job["id"], timeout=30.0)
            fetched = _count_job_fetches(service.client)
            again = service.client.wait(job["id"], timeout=30.0)
            assert again["state"] == "done"
            assert fetched == [job["id"]]
        finally:
            service.close()

    def test_dedup_attach_to_a_running_job_sees_it_finish(self, tmp_path, mode):
        started, gate = threading.Event(), threading.Event()
        service = _Service(
            tmp_path, execute=StageExecutor(gate=gate, started=started),
            mode=mode,
        )
        try:
            first = service.client.submit(_request())["job"]
            assert started.wait(10.0)
            attached = service.client.submit(_request())
            assert attached["deduped"] is True
            outcome: dict[str, dict] = {}
            waiter = threading.Thread(
                target=lambda: outcome.update(
                    job=service.client.wait(first["id"], timeout=30.0)
                ),
                daemon=True,
            )
            waiter.start()
            gate.set()
            waiter.join(30.0)
            assert outcome["job"]["state"] == "done"
            assert outcome["job"]["executions"] == 1
            assert outcome["job"]["submissions"] == 2
        finally:
            gate.set()
            service.close()

    def test_an_outage_during_the_long_poll_is_absorbed(self, tmp_path, mode):
        started, gate = threading.Event(), threading.Event()
        service = _Service(
            tmp_path, execute=StageExecutor(gate=gate, started=started),
            mode=mode,
        )
        try:
            job = service.client.submit(_request())["job"]
            assert started.wait(10.0)
            # The next two responses the service writes are dropped: the
            # client sees two ServeUnavailableErrors mid-wait.
            install_plan(
                FaultPlan(rules=(FaultRule(site="http.response", times=2),))
            )
            threading.Timer(0.2, gate.set).start()
            finished = service.client.wait(
                job["id"], timeout=30.0, poll=0.02, reconnect_budget=10.0
            )
            assert finished["state"] == "done"
        finally:
            gate.set()
            service.close()


class TestEventsFeed:
    def test_a_commit_between_the_state_read_and_the_wait_ends_it(
        self, tmp_path, mode
    ):
        """The lost-wakeup race, forced: the commit lands after the feed
        has read the log and before it waits.  In process it comes through
        the front end's own store, in the fleet through another connection."""
        service = _Service(tmp_path, execute=StageExecutor(), start=False)
        writer = service.store if mode == "inprocess" else JobStore(service.path)
        try:
            job = service.client.submit(_request())["job"]
            read_events = service.store.events
            claimed = []

            def events_then_claim(job_id, since=0):
                events = read_events(job_id, since)
                if not claimed:
                    claimed.append(writer.claim_next(worker_id="w-race"))
                return events

            service.store.events = events_then_claim
            start = time.monotonic()
            feed = service.client.events(job["id"], since=0, timeout=30.0)
            elapsed = time.monotonic() - start
            assert claimed[0].id == job["id"]
            assert [e["event"] for e in feed["events"]] == ["started"]
            assert elapsed < 10.0  # the wait ended on the commit, not at 30 s
        finally:
            if writer is not service.store:
                writer.close()
            service.close()

    def test_the_timeout_ends_a_wait_on_an_idle_job(self, tmp_path, mode):
        """Unrelated commits (the idle worker's heartbeats) wake the feed,
        but only its timeout ends the poll of a job that does not move."""
        service = _Service(
            tmp_path, execute=StageExecutor(), start=False, mode=mode
        )
        try:
            # A job held back by a retry gate an hour out: queued, unclaimable.
            job, _ = service.store.submit(_request(rate=0.5), max_retries=1)
            service.store.claim_next(worker_id="w-gone")
            service.store.mark_failed(
                job.id, "boom", retry_at=time.time() + 3600, worker_id="w-gone"
            )
            service.scheduler.start()
            if service.worker is not None:
                service.worker_thread.start()
            seen = service.client.events(job.id, since=0, timeout=0.1)["next"]
            start = time.monotonic()
            feed = service.client.events(job.id, since=seen, timeout=0.5)
            elapsed = time.monotonic() - start
            assert feed["events"] == [] and feed["state"] == "queued"
            assert feed["next"] == seen
            assert 0.4 <= elapsed < 5.0
        finally:
            service.close()


class TestIdleWorker:
    @staticmethod
    def _spy(store: JobStore, name: str, calls: list) -> None:
        method = getattr(store, name)

        def spy(*args, **kwargs):
            called_at = time.monotonic()
            result = method(*args, **kwargs)
            calls.append((called_at, result))
            return result

        setattr(store, name, spy)

    def _start(self, tmp_path, mode, poll_interval):
        """A front-end store plus one worker on the same store (in process)
        or on its own connection (fleet), with spies on the worker's claims
        and idle heartbeats."""
        front = JobStore(tmp_path / "serve.db")
        own = front if mode == "inprocess" else JobStore(tmp_path / "serve.db")
        claims: list = []
        beats: list = []
        self._spy(own, "claim_next", claims)
        self._spy(own, "worker_heartbeat", beats)
        worker = Worker(
            own, options=RunOptions(use_cache=False), worker_id="w-idle",
            poll_interval=poll_interval, execute=StageExecutor(),
        )
        stop = threading.Event()
        thread = threading.Thread(target=worker.run, kwargs={"stop": stop})
        thread.start()

        def close():
            stop.set()
            thread.join(10.0)
            assert not thread.is_alive()
            if own is not front:
                own.close()
            front.close()

        return front, claims, beats, close

    def test_no_claim_between_backstops_and_one_claim_per_submit(
        self, tmp_path, mode
    ):
        front, claims, beats, close = self._start(tmp_path, mode, 60.0)
        try:
            time.sleep(0.5)  # idle: nothing commits but the worker itself
            assert len(claims) == 1 and claims[0][1] is None
            assert len(beats) == 1
            job, _ = front.submit(_request())
            deadline = time.monotonic() + 10.0
            while len(claims) < 3:
                assert time.monotonic() < deadline, "the submit never woke it"
                time.sleep(0.01)
            time.sleep(0.3)  # room for a stray claim to show up
            # One claim took the job, one found the queue empty after it,
            # and the backstop (60 s) never fired.
            assert [result is None for _, result in claims] == [True, False, True]
            assert claims[1][1].id == job.id
            assert front.get(job.id).state == "done"
            assert len(beats) == 1
        finally:
            close()

    def test_heartbeats_keep_their_cadence_under_foreign_commits(
        self, tmp_path, mode
    ):
        poll = 0.2
        front, claims, beats, close = self._start(tmp_path, mode, poll)
        try:
            end = time.monotonic() + 1.0
            while time.monotonic() < end:
                front.register_worker("w-noise")  # a commit that changes rows
                time.sleep(0.02)
        finally:
            close()
        stamps = [stamp for stamp, _ in beats]
        gaps = [later - earlier for earlier, later in zip(stamps, stamps[1:])]
        # The foreign commits woke the worker (extra claims) ...
        assert len(claims) > len(beats)
        # ... but it heartbeat only once per poll interval.
        assert len(beats) >= 2
        assert min(gaps) >= 0.9 * poll


class TestChangeSignal:
    def test_no_waiter_misses_the_last_commit_under_stress(self, tmp_path):
        """Eight waiters on a short switch interval, commits through the
        waiters' own store and through a second connection: every waiter
        sees the last commit long before its 5 s wait would time out."""
        store = JobStore(tmp_path / "serve.db")
        other = JobStore(tmp_path / "serve.db")
        commits = 40
        seen: list[float] = []
        lock = threading.Lock()

        def waiter() -> None:
            while True:
                token = store.change_count()
                if len(store.list_workers()) >= commits:
                    with lock:
                        seen.append(time.monotonic())
                    return
                store.wait_for_change(token, 5.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=waiter) for _ in range(8)]
            for thread in threads:
                thread.start()
            for index in range(commits - 1):
                (store if index % 2 else other).register_worker(f"w{index}")
            time.sleep(0.1)  # the waiters settle; the last commit is local
            store.register_worker("w-last")
            last_commit = time.monotonic()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            other.close()
            store.close()
        assert len(seen) == 8
        assert max(seen) - last_commit < 2.0
