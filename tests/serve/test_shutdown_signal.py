"""SIGTERM drains ``repro worker`` and ``repro serve`` whenever it lands.

A signal handler runs on the main thread between two bytecodes, possibly
while that thread holds a lock inside a wait; a handler that takes the same
lock never returns.  Each case delivers SIGTERM with ``signal.raise_signal``
from inside the command's own wait step and runs in a subprocess with a
timeout, so a handler that blocks shows up as a hang, not a stuck test run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

WORKER = r"""
import signal, sys
from repro.cli import build_parser
from repro.serve.cli import cmd_worker
from repro.serve.store import JobStore

wait_for_change = JobStore.wait_for_change

def wait_with_sigterm(self, since, timeout):
    # The idle loop's wait step, with SIGTERM landing while its lock is held.
    with self._changed:
        signal.raise_signal(signal.SIGTERM)
    return wait_for_change(self, since, timeout)

JobStore.wait_for_change = wait_with_sigterm
args = build_parser().parse_args(
    ["worker", "--db", sys.argv[1], "--poll-interval", "60"]
)
sys.exit(cmd_worker(args))
"""

SERVE = r"""
import signal, sys, time
from repro.cli import build_parser
from repro.serve import cli

class SignallingClock:
    # cmd_serve's view of the time module: SIGTERM lands inside the main
    # loop's first wait step.
    def __getattr__(self, name):
        return getattr(time, name)

    def sleep(self, seconds):
        signal.raise_signal(signal.SIGTERM)
        time.sleep(seconds)

cli.time = SignallingClock()
args = build_parser().parse_args(
    ["serve", "--port", "0", "--db", sys.argv[1], "--cache-dir", sys.argv[2]]
)
sys.exit(cli.cmd_serve(args))
"""


def _run(script: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    try:
        return subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, capture_output=True, text=True, timeout=30.0,
        )
    except subprocess.TimeoutExpired as exc:
        pytest.fail(f"the command hung after SIGTERM:\n{exc.stdout}\n{exc.stderr}")


def test_worker_exits_when_sigterm_lands_inside_its_wait(tmp_path):
    done = _run(WORKER, str(tmp_path / "serve.db"))
    assert done.returncode == 0, done.stderr
    assert "exiting after 0 job(s)" in done.stdout + done.stderr


def test_serve_drains_when_sigterm_lands_inside_its_wait(tmp_path):
    done = _run(SERVE, str(tmp_path / "serve.db"), str(tmp_path / "cache"))
    assert done.returncode == 0, done.stderr
    assert "drained cleanly" in done.stdout + done.stderr
