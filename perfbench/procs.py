"""The program processes of one run: started, timed, measured and always reaped.

Every program process is started in a session of its own, so that its
descendants (sweep pool workers, ``repro worker`` fleet processes) share its
process group and can be signalled together.  :meth:`Children.close` ends
every group that is still alive on every exit path, including a failed check,
Ctrl-C or SIGTERM from whoever runs the benchmark.

Peak memory comes from ``wait4``: the resource usage of a reaped child
carries the largest resident set of the child and of every descendant it
reaped itself, so the benchmark's own process never counts.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

COMMAND_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 20.0


@dataclass
class Finished:
    """One command after it was reaped."""

    returncode: int
    wall_s: float
    output: str


def free_port() -> int:
    """A TCP port on 127.0.0.1 that nothing listens on right now."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _signal_group(pgid: int, sig: int) -> bool:
    """Signal a process group; ``False`` once the group has no member left."""
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def _end_group(pgid: int) -> None:
    """SIGKILL what is left of a group and wait until no member remains.

    Members whose parent is gone are reparented and reaped by init, so the
    group empties shortly after the signal.
    """
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while _signal_group(pgid, signal.SIGKILL) and time.monotonic() < deadline:
        time.sleep(0.02)


class Children:
    """Starts program processes and keeps track of them until they are gone."""

    def __init__(self, env: dict[str, str], cwd: Path, log_dir: Path) -> None:
        self.env = env
        self.cwd = cwd
        self.log_dir = log_dir
        self.max_rss_mb = 0.0
        self._live: dict[int, subprocess.Popen] = {}
        self._started = 0

    def start(self, argv: Sequence[str], name: str) -> subprocess.Popen:
        """Start ``argv`` in its own session, output to ``<log_dir>/<n>-<name>.log``."""
        self._started += 1
        log_path = self.log_dir / f"{self._started:03d}-{name}.log"
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                list(argv),
                cwd=self.cwd,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        proc.log_path = log_path  # type: ignore[attr-defined]
        self._live[proc.pid] = proc
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float = COMMAND_TIMEOUT_S) -> int:
        """Wait for ``proc``, killing its group after ``timeout``; record its memory."""
        killer = threading.Timer(timeout, _signal_group, (proc.pid, signal.SIGKILL))
        killer.daemon = True
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        del self._live[proc.pid]
        _end_group(proc.pid)  # descendants that outlived their parent (none in a clean run)
        self.max_rss_mb = max(self.max_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode

    def run(self, argv: Sequence[str], name: str, timeout: float = COMMAND_TIMEOUT_S) -> Finished:
        """Run one command to completion, timed from spawn to exit."""
        start = time.perf_counter()
        proc = self.start(argv, name)
        returncode = self.reap(proc, timeout)
        wall = time.perf_counter() - start
        output = proc.log_path.read_text(encoding="utf-8", errors="replace")  # type: ignore[attr-defined]
        return Finished(returncode, wall, output)

    def stop(self, proc: subprocess.Popen, timeout: float = STOP_TIMEOUT_S) -> int:
        """SIGTERM a long-running process (it drains), then reap it."""
        # os.kill, not Popen.send_signal: that polls first and would reap an
        # exited child before wait4 could read its resource usage.
        try:
            os.kill(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        return self.reap(proc, timeout)

    def close(self) -> None:
        """Kill and reap everything still running, and wait until it is gone."""
        for pid in list(self._live):
            _signal_group(pid, signal.SIGKILL)
            try:
                os.wait4(pid, 0)
            except ChildProcessError:
                pass
            del self._live[pid]
            _end_group(pid)
