"""The order-preserving map every pipeline stage fans its work out through.

Experiments run in the process that calls them: one workload's simulation
costs milliseconds, less than starting a worker process and pickling its
result back, and a fork from a threaded service process risks deadlock.
To run work in parallel, run jobs on the fleet (``repro serve --fleet N``),
one job per worker process.

:class:`Runner` is the one seam a fan-out stage maps through, so every
stage reports the same per-task metrics (the ``runner.tasks.*`` counters
and the ``runner.task.*`` histograms).  The contract:

* results come back in input order;
* a task exception or an interrupt (``KeyboardInterrupt``/``SystemExit``
  from SIGTERM) propagates at once: the failed task and the ones never
  started are counted, and ``partial`` (see :meth:`Runner.map`) keeps the
  results delivered before it.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro.api.request import _warn_worker_knob
from repro.obs import metrics

T = TypeVar("T")
R = TypeVar("R")


class Runner:
    """Order-preserving in-process ``map`` with per-task metrics.

    ``max_workers`` and ``parallel`` are deprecated and ignored: every
    runner maps in the calling process.
    """

    def __init__(
        self, max_workers: int | None = None, parallel: bool | None = None
    ) -> None:
        if max_workers is not None or parallel is not None:
            _warn_worker_knob("Runner(max_workers=..., parallel=...)", stacklevel=2)

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """Stream ``fn(item)`` results in input order.

        A task's queue wait runs from the first ``next()`` to its start, so
        it includes the tasks before it and the caller's time between
        results.
        """
        pending = list(items)
        registry = metrics()
        registry.counter("runner.tasks.submitted").inc(len(pending))
        submitted = time.time()
        for index, item in enumerate(pending):
            started = time.time()
            t0 = time.perf_counter()
            try:
                result = fn(item)
            except Exception:
                registry.counter("runner.tasks.failed").inc()
                registry.counter("runner.tasks.cancelled").inc(
                    len(pending) - index - 1
                )
                raise
            except BaseException:
                registry.counter("runner.tasks.cancelled").inc(len(pending) - index)
                raise
            registry.histogram("runner.task.queue_wait_seconds").observe(
                max(0.0, started - submitted)
            )
            registry.histogram("runner.task.exec_seconds").observe(
                time.perf_counter() - t0
            )
            registry.counter("runner.tasks.completed").inc()
            yield result

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T] | Iterable[T],
        partial: list[R] | None = None,
    ) -> list[R]:
        """``list(self.imap(fn, items))`` — the all-at-once convenience form.

        ``partial``, when given, is a caller-owned list that every result is
        appended to *as it is delivered*; if the batch is interrupted
        (KeyboardInterrupt, SIGTERM, a task exception), the exception
        propagates but the list keeps everything completed so far.
        """
        results = partial if partial is not None else []
        for result in self.imap(fn, items):
            results.append(result)
        return results


def default_runner(
    max_workers: int | None = None, parallel: bool | None = None
) -> Runner:
    """Deprecated: use ``Runner()``; every runner maps in process."""
    _warn_worker_knob("default_runner(...)", stacklevel=2)
    return Runner()


__all__ = ["Runner", "default_runner"]
