"""Spans recorded from outside the program, around calls into its layers.

The program is not edited: :func:`instrument` replaces a layer's public
function (or method) with a wrapper that records a span and calls the
original, in every ``repro`` module that has it bound.  A span is
``{id, parent, name, start, end, pid, attrs}`` with wall-clock times, so
spans from different processes line up.  The layer of a span is the first
part of its name (``dataflow.compile`` belongs to ``dataflow``).

Spans stay in memory and are written out when the process ends.  Sweep pool
workers are forked from a traced command: each starts with an empty span
list, parents its task span under the ``api.runner.imap`` span of the
process that submitted the task, and writes its spans when it exits.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Iterator


class Recorder:
    """In-memory span list of one process, with per-thread parent stacks."""

    def __init__(self, out_dir: Path | None = None, parent: str | None = None) -> None:
        self.out_dir = out_dir
        self.root_parent = parent
        self.spans: list[dict[str, Any]] = []
        self.pid = os.getpid()
        self._ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        stack = self._stack()
        return stack[-1] if stack else self.root_parent

    def new_id(self) -> str:
        with self._lock:
            self._ids += 1
            return f"{self.pid}-{self._ids}"

    def add(self, name: str, start: float, end: float, parent: str | None,
            span_id: str | None = None, **attrs: Any) -> str:
        """Record a span whose times were taken elsewhere."""
        span_id = span_id or self.new_id()
        self.spans.append({
            "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, "pid": self.pid, "attrs": attrs,
        })
        return span_id

    @contextmanager
    def span(self, name: str, parent: str | None = None, **attrs: Any) -> Iterator[dict]:
        """Time the block; the yielded dict collects attributes for the span."""
        span_id = self.new_id()
        parent = parent if parent is not None else self.current()
        stack = self._stack()
        stack.append(span_id)
        start = time.time()
        try:
            yield attrs
        finally:
            end = time.time()
            stack.pop()
            self.add(name, start, end, parent, span_id, **attrs)

    def flush(self) -> None:
        """Write this process's spans to ``<out_dir>/spans-<pid>.json``."""
        if self.out_dir is not None and self.spans:
            (self.out_dir / f"spans-{self.pid}.json").write_text(
                json.dumps(self.spans), encoding="utf-8"
            )

    def _after_fork(self) -> None:
        # A forked pool worker: drop the parent's spans, keep the parent's
        # open span as the root parent, write own spans at exit.
        self.root_parent = self.current()
        self.spans = []
        self.pid = os.getpid()
        self._ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        mp_util.Finalize(self, self.flush, exitpriority=100)


def read_spans(directory: Path) -> list[dict[str, Any]]:
    """Every span written into ``directory`` by any process."""
    spans: list[dict[str, Any]] = []
    for path in sorted(directory.glob("spans-*.json")):
        spans.extend(json.loads(path.read_text(encoding="utf-8")))
    return spans


# ---------------------------------------------------------------------------
# Wrapping the program's entry points
# ---------------------------------------------------------------------------

def _rebind(original: Callable, wrapper: Callable) -> None:
    """Replace ``original`` by ``wrapper`` wherever a ``repro`` module binds it."""
    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        if getattr(module, name, None) is original:
            setattr(module, name, wrapper)


def wrap_function(recorder: Recorder, original: Callable, span: str,
                  attrs: Callable[..., dict] | None = None) -> None:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(span) as extra:
            result = original(*args, **kwargs)
            if attrs is not None:
                extra.update(attrs(args, kwargs, result))
            return result

    _rebind(original, wrapper)


def wrap_method(recorder: Recorder, owner: type, name: str, span: str,
                attrs: Callable[..., dict] | None = None) -> None:
    original = getattr(owner, name)

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        with recorder.span(span) as extra:
            result = original(self, *args, **kwargs)
            if attrs is not None:
                extra.update(attrs(self, args, kwargs, result))
            return result

    setattr(owner, name, wrapper)


class _Task:
    """Picklable wrapper of a function handed to ``Runner.imap``.

    Records one ``api.runner.task`` span per item, parented under the
    ``imap`` span of the submitting process, with the wait since submission.
    """

    recorder: Recorder  # set by instrument(); forked workers inherit it

    def __init__(self, fn: Callable, parent: str, submitted: float) -> None:
        self.fn = fn
        self.parent = parent
        self.submitted = submitted

    def __call__(self, item: Any) -> Any:
        with self.recorder.span("api.runner.task", parent=self.parent) as extra:
            extra["queue_wait_s"] = max(0.0, time.time() - self.submitted)
            return self.fn(item)


def instrument(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer a CLI command can reach.

    Call after ``ensure_builtins_registered`` so the experiment modules are
    imported; the analytic model is imported here because the sweep imports
    it lazily.
    """
    import repro.analytic.model as analytic_model
    import repro.api.registry as registry
    import repro.dataflow.compiler as compiler
    import repro.sim.runner as sim_runner
    import repro.sim.trace as sim_trace
    from repro.api.runner import Runner
    from repro.api.stages import Pipeline
    from repro.arch.accelerator import AcceleratorSimulator
    from repro.explore.cache import ResultCache
    from repro.explore.engine import ExplorationEngine

    _Task.recorder = recorder
    mp_util.register_after_fork(recorder, Recorder._after_fork)

    wrap_function(
        recorder, registry.run_experiment, "api.run_experiment",
        lambda args, kwargs, result: {
            "experiment": result.experiment,
            "stage_s": dict(result.stage_seconds),
        },
    )
    wrap_method(recorder, Pipeline, "run", "api.pipeline")

    original_imap = Runner.imap

    @functools.wraps(original_imap)
    def imap(self, fn, items):
        items = list(items)
        with recorder.span("api.runner.imap", tasks=len(items)):
            task = _Task(fn, recorder.current(), time.time())
            yield from original_imap(self, task, items)

    Runner.imap = imap

    wrap_function(
        recorder, sim_trace.profile_training_densities, "eval.train",
        lambda args, kwargs, result: {
            "samples": len(args[1].images) * kwargs.get("epochs", 1),
        },
    )
    wrap_function(
        recorder, compiler.compile_training_iteration, "dataflow.compile",
        lambda args, kwargs, result: {"instructions": len(result)},
    )
    wrap_method(
        recorder, AcceleratorSimulator, "run_program", "arch.run_program",
        lambda self, args, kwargs, result: {"steps": len(result.steps)},
    )
    wrap_function(recorder, sim_runner.compare_workload, "sim.compare_workload")
    wrap_method(
        recorder, ExplorationEngine, "run", "explore.engine",
        lambda self, args, kwargs, result: {
            "cached": self.stats.cache_hits,
            "simulated": self.stats.evaluated,
        },
    )
    wrap_method(
        recorder, ResultCache, "get", "explore.cache_get",
        lambda self, args, kwargs, result: {
            "file": self.path.name if self.path else None,
            "hit": result is not None,
        },
    )
    wrap_method(
        recorder, ResultCache, "put", "explore.cache_put",
        lambda self, args, kwargs, result: {
            "file": self.path.name if self.path else None,
        },
    )
    for function in (
        analytic_model.evaluate_grid_analytic,
        analytic_model.evaluate_points_analytic,
    ):
        wrap_function(
            recorder, function, "analytic.evaluate",
            lambda args, kwargs, result: {"points": len(result)},
        )
