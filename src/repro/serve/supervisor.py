"""Spawn and babysit a fleet of ``repro worker`` processes.

The supervisor is deliberately dumb: it owns no scheduling state at all —
jobs, leases and retries live in the shared :class:`JobStore`, so the only
thing a supervisor must do is keep N worker *processes* alive.  A worker
that exits (crash, OOM-kill, SIGKILL) is respawned after ``respawn_delay``;
its half-finished job comes back via lease expiry, not via anything the
supervisor knows.  This is the proactor-style "supervised long-lived
workers over a durable message seam" shape, with SQLite as the seam.

Capacity therefore scales by *adding worker processes* (more supervisors on
more machines pointed at one database work too), never by piling threads
into the front-end process.  The fleet is the reproduction's only way to
run work in parallel processes: each worker runs one job at a time, and
the job's experiment runs inside that worker process.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Mapping

from repro.obs import metrics


def _worker_env(extra: Mapping[str, str] | None = None) -> dict[str, str]:
    """Subprocess env that can import this very ``repro`` package.

    ``extra`` entries are layered on top — the chaos harness ships its fault
    plan to every worker this way (``REPRO_FAULTS``) without mutating the
    supervisor's own ``os.environ``.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(package_root)
        if not existing
        else str(package_root) + os.pathsep + existing
    )
    if extra:
        env.update(extra)
    return env


class WorkerSupervisor:
    """Keep ``count`` worker processes draining one job store.

    Parameters
    ----------
    db:
        The shared SQLite job-store path every worker is pointed at.
    count:
        Fleet size (worker processes).
    lease_ttl / heartbeat_interval:
        Lease parameters forwarded to every worker.
    cache_dir / no_cache:
        Pipeline cache options forwarded to every worker.
    respawn_delay:
        Pause before restarting a dead worker (dampens crash loops).
    monitor_interval:
        How often the monitor thread polls worker processes.
    quarantine_after:
        Crash-loop cap forwarded to every worker's reaper (``None`` keeps
        the worker default).
    retry_delay:
        Base delay of every worker's retry backoff (``None`` keeps the
        worker default).
    extra_env:
        Extra environment variables for every worker process (layered over
        the inherited environment; the chaos harness ships fault plans
        through ``REPRO_FAULTS`` here).
    """

    def __init__(
        self,
        db: str | Path,
        count: int,
        lease_ttl: float = 30.0,
        heartbeat_interval: float | None = None,
        cache_dir: str | None = None,
        no_cache: bool = False,
        respawn_delay: float = 1.0,
        monitor_interval: float = 0.5,
        quarantine_after: int | None = None,
        retry_delay: float | None = None,
        extra_env: Mapping[str, str] | None = None,
    ) -> None:
        if count < 1:
            raise ValueError(f"fleet size must be >= 1, got {count}")
        self.db = str(db)
        self.count = count
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = heartbeat_interval
        self.cache_dir = cache_dir
        self.no_cache = no_cache
        self.respawn_delay = respawn_delay
        self.monitor_interval = monitor_interval
        self.quarantine_after = quarantine_after
        self.retry_delay = retry_delay
        self.extra_env = dict(extra_env) if extra_env else None
        self._procs: list[subprocess.Popen | None] = [None] * count
        self._restarts = [0] * count
        self._respawn_at = [0.0] * count
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False

    # ------------------------------------------------------------------
    def _command(self) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--db",
            self.db,
            "--lease-ttl",
            str(self.lease_ttl),
        ]
        if self.heartbeat_interval is not None:
            command += ["--heartbeat-interval", str(self.heartbeat_interval)]
        if self.cache_dir is not None:
            command += ["--cache-dir", self.cache_dir]
        if self.no_cache:
            command += ["--no-cache"]
        if self.quarantine_after is not None:
            command += ["--requeue-cap", str(self.quarantine_after)]
        if self.retry_delay is not None:
            command += ["--retry-delay", str(self.retry_delay)]
        return command

    def _spawn(self, slot: int) -> subprocess.Popen:
        # Workers inherit stdout/stderr: their claim/done/requeue lines land
        # in the service log, interleaved and prefixed with their worker id.
        return subprocess.Popen(
            self._command(), env=_worker_env(self.extra_env)
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("supervisor already started")
        self._stop.clear()
        with self._lock:
            for slot in range(self.count):
                self._procs[slot] = self._spawn(slot)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-fleet-monitor", daemon=True
        )
        self._monitor.start()
        self._started = True

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.monitor_interval):
            now = time.monotonic()
            with self._lock:
                for slot, proc in enumerate(self._procs):
                    if proc is None or proc.poll() is None:
                        continue
                    # Dead worker: schedule, then perform, the respawn.
                    if self._respawn_at[slot] == 0.0:
                        self._respawn_at[slot] = now + self.respawn_delay
                        continue
                    if now < self._respawn_at[slot]:
                        continue
                    self._respawn_at[slot] = 0.0
                    self._restarts[slot] += 1
                    metrics().counter("fleet.respawns").inc()
                    self._procs[slot] = self._spawn(slot)

    def stop(self, timeout: float | None = 10.0) -> bool:
        """SIGTERM the fleet (workers drain their current job), then reap.

        Workers that outlive ``timeout`` are SIGKILL'd — their in-flight
        jobs requeue via lease expiry.  Returns ``True`` when every worker
        exited within the timeout.
        """
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.monitor_interval * 4)
            self._monitor = None
        with self._lock:
            procs = [proc for proc in self._procs if proc is not None]
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = None if timeout is None else time.monotonic() + timeout
        drained = True
        for proc in procs:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                proc.wait(remaining)
            except subprocess.TimeoutExpired:
                drained = False
                proc.kill()
                proc.wait()
        self._started = False
        return drained

    # ------------------------------------------------------------------
    @property
    def alive(self) -> int:
        with self._lock:
            return sum(
                1
                for proc in self._procs
                if proc is not None and proc.poll() is None
            )

    def fleet_state(self) -> list[dict[str, Any]]:
        """Per-slot process state for ``/healthz``."""
        with self._lock:
            state = []
            for slot, proc in enumerate(self._procs):
                state.append(
                    {
                        "slot": slot,
                        "pid": proc.pid if proc is not None else None,
                        "alive": proc is not None and proc.poll() is None,
                        "restarts": self._restarts[slot],
                        "returncode": proc.returncode if proc is not None else None,
                    }
                )
        return state


__all__ = ["WorkerSupervisor"]
