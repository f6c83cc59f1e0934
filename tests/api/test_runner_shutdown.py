"""Regression tests: an interrupted Runner map keeps what it delivered.

A KeyboardInterrupt (or SIGTERM surfacing as SystemExit) or a task
exception propagates at once, and ``Runner.map(..., partial=...)`` keeps
the results delivered before it.  The map is a lazy stream: a caller that
abandons it runs no further tasks.
"""

from __future__ import annotations

import pytest

from repro.api.runner import Runner


def _double_or_interrupt(item: int) -> int:
    """Negative items simulate Ctrl-C arriving mid-batch."""
    if item < 0:
        raise KeyboardInterrupt
    return item * 2


def _double_or_fail(item: int) -> int:
    if item < 0:
        raise ValueError(f"task failed on {item}")
    return item * 2


class TestSerialInterrupt:
    def test_interrupt_propagates_with_partial_results(self):
        runner = Runner()
        partial: list[int] = []
        with pytest.raises(KeyboardInterrupt):
            runner.map(_double_or_interrupt, [1, 2, -1, 4], partial=partial)
        assert partial == [2, 4]

    def test_partial_list_is_returned_on_success(self):
        runner = Runner()
        partial: list[int] = []
        result = runner.map(_double_or_interrupt, [1, 2], partial=partial)
        assert result is partial
        assert partial == [2, 4]

    def test_task_exception_keeps_partial_results(self):
        runner = Runner()
        partial: list[int] = []
        with pytest.raises(ValueError, match="task failed"):
            runner.map(_double_or_fail, [1, 2, -3, 4], partial=partial)
        # Order-preserving map: everything before the failing item arrived.
        assert partial == [2, 4]

    def test_abandoned_stream_runs_no_further_tasks(self):
        started: list[int] = []

        def record(item: int) -> int:
            started.append(item)
            return item * 2

        stream = Runner().imap(record, list(range(64)))
        assert next(stream) == 0
        stream.close()
        assert started == [0]
