"""The experiment stage graph: named stages, pipeline, per-stage caching.

Every experiment in the reproduction is a linear pipeline over a fixed,
canonical stage vocabulary:

=============  ==========================================================
``train``      train (reduced) models — with the pruning controller and
               sparsity profiler attached, since the paper's algorithm
               prunes *during* training
``prune``      pruning-algorithm work that runs without a model (e.g. the
               FIFO threshold-prediction ablation)
``profile``    turn raw measurements into per-layer operand densities /
               summaries and map them onto full-size specs
``compile``    lower specs + densities into simulator work units
               (instruction programs, workload jobs, design points)
``simulate``   execute work units on the architecture model, mapping
               them in process through the :class:`~repro.api.runner.Runner`
``report``     package payload + summary + native result
               (:class:`~repro.api.request.ExperimentReport`)
=============  ==========================================================

A concrete :class:`Pipeline` uses an order-preserving subset of that
vocabulary (Fig. 8 is ``train -> profile -> compile -> simulate -> report``;
the FIFO ablation is just ``prune -> report``).  The
:class:`PipelineContext` threads the request, run options, runner, artifacts
and per-stage timings through the stages, and exposes the per-stage caching
hook (:meth:`PipelineContext.cached`) that the density and sweep caches plug
into.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.api.request import ExperimentRequest, RunOptions
from repro.api.runner import Runner
from repro.faults import fault_point
from repro.obs import metrics, trace_context, trace_span

# The canonical stage vocabulary, in canonical order.
STAGE_ORDER: tuple[str, ...] = (
    "train",
    "prune",
    "profile",
    "compile",
    "simulate",
    "report",
)


class DeadlineExceeded(RuntimeError):
    """A pipeline run outlived its cooperative per-job deadline.

    Raised at a stage boundary — stages themselves are never interrupted
    mid-flight — and treated as a *terminal* failure by the job service: a
    job that blew its budget once is not retried into blowing it again,
    and its worker is freed instead of heartbeating a wedged lease forever.
    """

    def __init__(self, deadline: float, overshoot: float) -> None:
        super().__init__(
            f"pipeline exceeded its deadline by {overshoot:.3f}s"
            f" (deadline was {deadline:.3f}s epoch)"
        )
        self.deadline = deadline
        self.overshoot = overshoot


@dataclass(frozen=True)
class Stage:
    """One named pipeline stage.

    ``run`` receives the :class:`PipelineContext` and returns the stage's
    artifact, which later stages read via ``ctx["<stage>"]``.
    """

    name: str
    run: Callable[["PipelineContext"], Any]
    description: str = ""

    def __post_init__(self) -> None:
        if self.name not in STAGE_ORDER:
            raise ValueError(
                f"unknown stage name {self.name!r}; canonical stages are "
                f"{', '.join(STAGE_ORDER)}"
            )


@dataclass
class PipelineContext:
    """Mutable state threaded through one pipeline run.

    ``on_stage`` is the progress hook for long-running callers (the job
    service, progress bars): invoked as ``on_stage(stage_name, seconds)``
    right after each stage completes.  Exceptions from the callback propagate
    and abort the run — a broken observer should fail loudly, not corrupt a
    silently half-observed result.
    """

    request: ExperimentRequest
    options: RunOptions = field(default_factory=RunOptions)
    runner: Runner = field(default_factory=Runner)
    extras: dict[str, Any] = field(default_factory=dict)
    artifacts: dict[str, Any] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    cache_events: dict[str, list[tuple[str, bool]]] = field(default_factory=dict)
    current_stage: str | None = None
    on_stage: Callable[[str, float], None] | None = None
    #: Absolute epoch-seconds deadline, or ``None`` for no budget.  Checked
    #: cooperatively at stage boundaries via :meth:`check_deadline`.
    deadline: float | None = None
    #: Distributed-trace correlation id.  When set, :meth:`Pipeline.run`
    #: enters the matching trace context so every stage span is stamped
    #: with it; ``None`` inherits whatever ambient context the caller (a
    #: fleet worker, the scheduler) already established.
    trace_id: str | None = None

    def check_deadline(self, now: float | None = None) -> None:
        """Raise :class:`DeadlineExceeded` when the deadline has passed."""
        if self.deadline is None:
            return
        now = time.time() if now is None else now
        if now > self.deadline:
            metrics().counter("pipeline.deadline_exceeded").inc()
            raise DeadlineExceeded(self.deadline, now - self.deadline)

    def __getitem__(self, stage: str) -> Any:
        try:
            return self.artifacts[stage]
        except KeyError:
            raise KeyError(
                f"no artifact for stage {stage!r}; stages completed so far: "
                f"{sorted(self.artifacts)}"
            ) from None

    # ------------------------------------------------------------------
    # Per-stage caching hook
    # ------------------------------------------------------------------
    def cached(
        self,
        key: str,
        compute: Callable[[], Any],
        store: Any = None,
        serialize: Callable[[Any], Mapping[str, Any]] | None = None,
        deserialize: Callable[[Mapping[str, Any]], Any] | None = None,
    ) -> Any:
        """Get-or-compute one value through a persistent stage cache.

        ``store`` is any object with the :class:`repro.explore.cache.ResultCache`
        ``get``/``put`` protocol, or ``None`` to disable caching (``compute``
        always runs).  ``serialize``/``deserialize`` convert between the
        computed value and the stored JSON record; identity by default.
        Every lookup is recorded per stage so callers (and
        :class:`ExperimentResult`) can report hit rates.
        """
        hit = False
        value: Any = None
        if store is not None:
            record = store.get(key)
            if record is not None:
                try:
                    value = deserialize(record) if deserialize else record
                    hit = True
                except (KeyError, TypeError, ValueError):
                    # Foreign/corrupted record under this key: recompute.
                    hit = False
        if not hit:
            value = compute()
            if store is not None:
                store.put(key, serialize(value) if serialize else value)
        stage = self.current_stage or "?"
        self.cache_events.setdefault(stage, []).append((key, hit))
        metrics().counter(
            "pipeline.cache.lookups", stage=stage, outcome="hit" if hit else "miss"
        ).inc()
        return value

    def stage_cache_hit(self, stage: str) -> bool:
        """True when the stage performed lookups and every one was a hit."""
        events = self.cache_events.get(stage, [])
        return bool(events) and all(hit for _, hit in events)

    def stage_cache_hits(self) -> dict[str, bool]:
        return {stage: self.stage_cache_hit(stage) for stage in self.cache_events}


class Pipeline:
    """An ordered set of named stages executed over one context.

    Stage names must be unique and follow the canonical :data:`STAGE_ORDER`
    (as a subsequence), so every experiment's graph reads the same way and
    tooling can compare pipelines structurally.
    """

    def __init__(self, name: str, stages: Sequence[Stage]) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage name(s) in {names}")
        order = [name for name in STAGE_ORDER if name in names]
        if names != order:
            raise ValueError(
                f"stages {names} must follow the canonical order {STAGE_ORDER}"
            )
        if names[-1] != "report":
            raise ValueError("every pipeline must end with a 'report' stage")
        self.name = name
        self.stages: tuple[Stage, ...] = tuple(stages)

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"pipeline {self.name!r} has no stage {name!r}")

    def run(self, ctx: PipelineContext) -> Any:
        """Execute the stages in order; returns the last stage's artifact.

        Each stage is timed (``ctx.timings``), recorded as one trace span
        (``stage.<name>``) nested under a ``pipeline.<name>`` root span, and
        observed into the ``pipeline.stage.seconds`` histogram keyed by stage
        name — the distribution the ``/stats`` p50/p95 view reads.
        """
        artifact: Any = None
        experiment = ctx.request.experiment
        # A ``None`` trace_id pushes an empty overlay frame: ambient context
        # (a worker's job scope) flows through untouched.
        with trace_context(trace_id=ctx.trace_id), trace_span(
            f"pipeline.{self.name}", experiment=experiment
        ):
            for stage in self.stages:
                # The cooperative interruption seam: a fault plan can wedge
                # (hang) or break a run exactly between stages, and the
                # deadline check fails an over-budget job before it burns
                # another stage.  Context stays cheap — strings only.
                fault_point(
                    "stage.boundary", stage=stage.name, experiment=experiment
                )
                ctx.check_deadline()
                ctx.current_stage = stage.name
                with trace_span(
                    f"stage.{stage.name}", experiment=experiment, pipeline=self.name
                ):
                    start = time.perf_counter()
                    artifact = stage.run(ctx)
                    ctx.timings[stage.name] = time.perf_counter() - start
                metrics().histogram(
                    "pipeline.stage.seconds", stage=stage.name
                ).observe(ctx.timings[stage.name])
                ctx.artifacts[stage.name] = artifact
                if ctx.on_stage is not None:
                    ctx.on_stage(stage.name, ctx.timings[stage.name])
        metrics().counter("pipeline.runs", experiment=experiment).inc()
        ctx.current_stage = None
        return artifact

    def describe(self) -> str:
        return f"{self.name}: " + " -> ".join(self.stage_names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pipeline({self.describe()})"


def fidelity_dispatch(
    ctx: PipelineContext,
    *,
    vectorized: Callable[[PipelineContext], Any],
    analytic: Callable[[PipelineContext], Any] | None = None,
    scalar: Callable[[PipelineContext], Any] | None = None,
) -> Any:
    """Route a ``simulate`` stage to the tier the request asks for.

    The single dispatch point of the fidelity knob: an experiment's simulate
    stage calls this with its tier implementations, and the request's
    ``fidelity`` field picks one.  ``scalar`` falls back to ``vectorized``
    when not given, which is how every built-in experiment runs it (serial
    execution is a run option, not a tier).  An experiment without an
    ``analytic`` implementation rejects that tier loudly — silently
    simulating at the wrong tier would poison fidelity-salted caches.
    """
    from repro.analytic.fidelity import Fidelity, fidelity_of

    tier = fidelity_of(ctx.request)
    if tier is Fidelity.ANALYTIC and analytic is None:
        raise ValueError(
            f"experiment {ctx.request.experiment!r} has no analytic tier; "
            "run it at --fidelity vectorized or scalar"
        )
    metrics().counter(
        "pipeline.fidelity.dispatch",
        tier=tier.value,
        experiment=ctx.request.experiment,
    ).inc()
    if tier is Fidelity.ANALYTIC:
        return analytic(ctx)
    if tier is Fidelity.SCALAR and scalar is not None:
        return scalar(ctx)
    return vectorized(ctx)


__all__ = [
    "DeadlineExceeded",
    "STAGE_ORDER",
    "Stage",
    "Pipeline",
    "PipelineContext",
    "fidelity_dispatch",
]
