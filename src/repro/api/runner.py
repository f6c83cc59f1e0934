"""The shared worker-pool execution primitive of the experiment pipeline.

Before the :mod:`repro.api` layer existed, every batch-parallel caller —
the workload batch API, the exploration engine, the fig8/fig9
``--workers`` path — carried its own copy of the same ``ProcessPoolExecutor``
dance (chunk sizing, ordered results, the serial fallback for sandboxed
interpreters).  :class:`Runner` is that dance written once; every pipeline
stage that fans work out does so through a ``Runner`` owned by the pipeline
context.

The contract:

* results come back in input order, regardless of worker completion order;
* the callable and every item must be picklable when the pool is used;
* pool failures (sandboxes that forbid ``fork``/``spawn``, surfacing as
  ``OSError``/``PermissionError``/``BrokenProcessPool``) fall back to the
  in-process serial path, resuming after the last delivered result, so the
  output is identical either way;
* an interrupt (``KeyboardInterrupt``/``SystemExit`` from SIGTERM) or a
  worker exception mid-fan-out never orphans worker processes: queued
  futures are cancelled, live workers terminated and joined, and the
  exception re-raised.  Pass ``partial`` to :meth:`Runner.map` to keep the
  results delivered before the interrupt.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.obs import metrics

T = TypeVar("T")
R = TypeVar("R")

_POOL_ERRORS = (OSError, PermissionError, BrokenProcessPool)

# How long to wait for terminated workers to exit before abandoning them.
_ABORT_JOIN_SECONDS = 5.0


class _Timed:
    """Picklable wrapper timing one task inside the worker (or in-process).

    Returns ``(result, queue_wait, exec_seconds)``: the wait is measured from
    the batch submission wall-clock to task start (both ``time.time()``, so
    it crosses the process boundary on one machine), the execution time with
    the worker's own monotonic clock.  The parent unwraps and records both
    into the runner histograms as results are delivered.
    """

    __slots__ = ("fn", "submitted")

    def __init__(self, fn: Callable[[Any], Any], submitted: float) -> None:
        self.fn = fn
        self.submitted = submitted

    def __call__(self, item: Any) -> tuple[Any, float, float]:
        started = time.time()
        t0 = time.perf_counter()
        result = self.fn(item)
        return result, max(0.0, started - self.submitted), time.perf_counter() - t0


def _abort_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: cancel queued work, terminate and join workers.

    The default ``shutdown(wait=True)`` of the executor's context manager
    waits for every already-submitted future — on a KeyboardInterrupt during
    a large fan-out that means minutes of zombie computation, and a parent
    that dies first leaves orphaned workers.  This path is deliberately
    impatient; it is only taken when the batch is already lost.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        process.terminate()
    deadline = time.monotonic() + _ABORT_JOIN_SECONDS
    for process in processes:
        process.join(max(0.0, deadline - time.monotonic()))


class Runner:
    """Order-preserving ``map`` over a worker-process pool with serial fallback.

    Parameters
    ----------
    max_workers:
        Worker-process count.  ``None`` lets ``ProcessPoolExecutor`` pick
        (one per CPU) when the pool is used at all.
    parallel:
        Master switch.  ``False`` always takes the in-process serial path —
        deterministic, test-friendly, and the only option where spawning
        processes is forbidden.  Even when ``True``, batches of one item run
        serially (a pool would only add overhead).
    """

    def __init__(self, max_workers: int | None = None, parallel: bool = True) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.parallel = parallel

    # ------------------------------------------------------------------
    def _chunksize(self, num_items: int) -> int:
        workers = self.max_workers or os.cpu_count() or 1
        return max(1, num_items // (4 * workers))

    def _use_pool(self, num_items: int) -> bool:
        return self.parallel and num_items > 1 and (self.max_workers or 2) > 1

    # ------------------------------------------------------------------
    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """Stream ``fn(item)`` results in input order.

        If the pool breaks partway through, the serial path resumes after the
        last result already delivered, so every item is executed exactly once
        from the caller's point of view.
        """
        pending = list(items)
        delivered = 0
        registry = metrics()
        registry.counter("runner.tasks.submitted").inc(len(pending))
        timed = _Timed(fn, time.time())

        def deliver(out: tuple[R, float, float]) -> R:
            result, queue_wait, exec_seconds = out
            registry.histogram("runner.task.queue_wait_seconds").observe(queue_wait)
            registry.histogram("runner.task.exec_seconds").observe(exec_seconds)
            registry.counter("runner.tasks.completed").inc()
            return result

        if self._use_pool(len(pending)):
            registry.gauge("runner.pool.workers").set(
                self.max_workers or os.cpu_count() or 1
            )
            pool = ProcessPoolExecutor(max_workers=self.max_workers)
            try:
                for out in pool.map(
                    timed, pending, chunksize=self._chunksize(len(pending))
                ):
                    delivered += 1
                    yield deliver(out)
            except _POOL_ERRORS:
                # Sandboxed interpreter (fork/spawn forbidden) or a broken
                # pool: clean up and finish on the serial path below.
                _abort_pool(pool)
            except Exception:
                # A worker exception: the raising task failed, the rest of
                # the batch is torn down.
                registry.counter("runner.tasks.failed").inc()
                registry.counter("runner.tasks.cancelled").inc(
                    max(0, len(pending) - delivered - 1)
                )
                _abort_pool(pool)
                raise
            except BaseException:
                # KeyboardInterrupt/SystemExit, or an abandoned generator
                # (GeneratorExit): don't wait out the rest of the batch —
                # kill the workers and surface the exception.
                registry.counter("runner.tasks.cancelled").inc(
                    len(pending) - delivered
                )
                _abort_pool(pool)
                raise
            else:
                pool.shutdown(wait=True)
                return
            finally:
                # Every exit path — clean finish, pool fallback, worker
                # exception, interrupt — must zero the gauge, or an aborted
                # batch reports phantom pool workers forever.
                registry.gauge("runner.pool.workers").set(0)
        for item in pending[delivered:]:
            try:
                out = timed(item)
            except Exception:
                registry.counter("runner.tasks.failed").inc()
                registry.counter("runner.tasks.cancelled").inc(
                    max(0, len(pending) - delivered - 1)
                )
                raise
            except BaseException:
                registry.counter("runner.tasks.cancelled").inc(
                    len(pending) - delivered
                )
                raise
            delivered += 1
            yield deliver(out)

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T] | Iterable[T],
        partial: list[R] | None = None,
    ) -> list[R]:
        """``list(self.imap(fn, items))`` — the all-at-once convenience form.

        ``partial``, when given, is a caller-owned list that every result is
        appended to *as it is delivered*; if the batch is interrupted
        (KeyboardInterrupt, SIGTERM, a worker exception), the exception
        propagates but the list keeps everything completed so far.
        """
        results = partial if partial is not None else []
        for result in self.imap(fn, items):
            results.append(result)
        return results

    def describe(self) -> str:
        mode = "parallel" if self.parallel else "serial"
        workers = self.max_workers if self.max_workers is not None else "auto"
        return f"Runner({mode}, max_workers={workers})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


def default_runner(
    max_workers: int | None = None, parallel: bool | None = None
) -> Runner:
    """The pipeline-context runner for a worker-count request.

    No explicit worker count (or an explicit 1) means serial execution,
    anything larger opts into the pool.  Pass ``parallel`` to override that
    inference.
    """
    if parallel is None:
        parallel = max_workers is not None and max_workers > 1
    return Runner(max_workers=max_workers, parallel=parallel)


__all__ = ["Runner", "default_runner"]
