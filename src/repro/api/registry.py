"""Decorator-based registries: workloads and experiments.

Instead of each harness hand-wiring its own train/prune/profile/compile/
simulate chain, harness modules *register* two kinds of entries:

* **workloads** (:func:`register_workload`) — named model families whose
  full-size :class:`~repro.models.spec.ModelSpec` the zoo can build per
  dataset.  ``repro.models.zoo`` registers the paper's AlexNet/ResNet grid
  plus the VGG/MobileNet families.
* **experiments** (:func:`register_experiment`) — named pipeline builders.
  ``eval/fig8``, ``eval/fig9``, ``eval/table1``, ``eval/table2``,
  ``eval/ablations``, ``bench`` and ``explore/experiments`` each register
  one or more.

Every consumer — the CLI, the figure harness wrappers, services built on
top — resolves names through the same :class:`Registry`, so an unknown name
fails with a listing of what *is* registered, and adding a new experiment or
workload is a registry entry, not a new module of wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro import _IMPORT_LOCK
from repro.api.request import (
    ExperimentReport,
    ExperimentRequest,
    ExperimentResult,
    RunOptions,
)
from repro.api.runner import Runner
from repro.api.stages import Pipeline, PipelineContext


class UnknownNameError(ValueError):
    """Lookup of an unregistered name; the message lists the alternatives."""


class Registry:
    """A small name -> entry map with helpful errors and decorator support."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}

    def add(self, name: str, entry: Any) -> Any:
        if name in self._entries:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> Any:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(
                f"unknown {self.kind} {name!r}; registered {self.kind}s: "
                f"{', '.join(self.names()) or '(none)'}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def items(self) -> Iterator[tuple[str, Any]]:
        for name in self.names():
            yield name, self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class Workload:
    """One registered model family entry.

    ``build(dataset)`` returns the full-size :class:`ModelSpec`; ``family``
    names the reduced model family whose training run measures densities for
    this workload.
    """

    name: str
    family: str
    build: Callable[[str], Any]
    datasets: tuple[str, ...] = ("CIFAR-10", "CIFAR-100", "ImageNet")
    description: str = ""

    def spec(self, dataset: str):
        return self.build(dataset)


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: a named pipeline builder.

    ``build(request)`` returns the :class:`Pipeline` for one request; the
    pipeline's ``report`` stage must return an
    :class:`~repro.api.request.ExperimentReport`.
    """

    name: str
    build: Callable[[ExperimentRequest], Pipeline]
    description: str = ""
    tags: tuple[str, ...] = field(default=())
    #: Grouping used by ``repro list`` (``"paper-figures"``,
    #: ``"design-space"``, ``"ablations"``, ...).
    category: str = "general"
    #: Whether the experiment's simulate stage dispatches on the request's
    #: fidelity tier (``--fidelity`` is meaningful).
    supports_fidelity: bool = False

    def pipeline(self, request: ExperimentRequest) -> Pipeline:
        return self.build(request)

    def run(
        self,
        request: ExperimentRequest,
        options: RunOptions | None = None,
        extras: dict[str, Any] | None = None,
        on_stage: Callable[[str, float], None] | None = None,
        deadline: float | None = None,
        trace_id: str | None = None,
    ) -> ExperimentResult:
        """Execute the pipeline for ``request`` and package the result.

        ``on_stage`` is the per-stage progress callback
        (``on_stage(stage_name, seconds)``), invoked as each stage completes —
        the hook the job service uses to persist live stage timings.
        ``deadline`` is an absolute epoch-seconds budget checked at stage
        boundaries; past it the run raises
        :class:`~repro.api.stages.DeadlineExceeded`.
        ``trace_id`` stamps every span of the run for cross-process trace
        merging; when omitted it is inherited from the ambient trace context
        (the one a fleet worker establishes around execution).
        """
        if request.experiment != self.name:
            raise ValueError(
                f"request is for experiment {request.experiment!r}, "
                f"not {self.name!r}"
            )
        options = options if options is not None else RunOptions()
        if trace_id is None:
            from repro.obs import current_trace

            trace_id = current_trace().trace_id
        ctx = PipelineContext(
            request=request,
            options=options,
            runner=Runner(),
            extras=dict(extras or {}),
            on_stage=on_stage,
            deadline=deadline,
            trace_id=trace_id,
        )
        pipeline = self.pipeline(request)
        report = pipeline.run(ctx)
        if not isinstance(report, ExperimentReport):
            raise TypeError(
                f"the report stage of {self.name!r} returned "
                f"{type(report).__name__}, expected ExperimentReport"
            )
        return ExperimentResult(
            experiment=self.name,
            request=request,
            payload=report.payload,
            summary=report.summary,
            timings=tuple(
                (name, ctx.timings[name]) for name in pipeline.stage_names
            ),
            cache_hits=tuple(sorted(ctx.stage_cache_hits().items())),
            native=report.native,
        )


WORKLOADS = Registry("workload")
EXPERIMENTS = Registry("experiment")


def register_workload(
    name: str,
    family: str,
    datasets: tuple[str, ...] = ("CIFAR-10", "CIFAR-100", "ImageNet"),
    description: str = "",
) -> Callable[[Callable[[str], Any]], Callable[[str], Any]]:
    """Decorator registering a ``dataset -> ModelSpec`` builder as a workload."""

    def decorator(build: Callable[[str], Any]) -> Callable[[str], Any]:
        WORKLOADS.add(
            name,
            Workload(
                name=name,
                family=family,
                build=build,
                datasets=datasets,
                description=description,
            ),
        )
        return build

    return decorator


def register_experiment(
    name: str,
    description: str = "",
    tags: tuple[str, ...] = (),
    category: str = "general",
    supports_fidelity: bool = False,
) -> Callable[[Callable[[ExperimentRequest], Pipeline]], Callable[[ExperimentRequest], Pipeline]]:
    """Decorator registering a ``request -> Pipeline`` builder as an experiment."""

    def decorator(
        build: Callable[[ExperimentRequest], Pipeline],
    ) -> Callable[[ExperimentRequest], Pipeline]:
        EXPERIMENTS.add(
            name,
            Experiment(
                name=name,
                build=build,
                description=description,
                tags=tags,
                category=category,
                supports_fidelity=supports_fidelity,
            ),
        )
        return build

    return decorator


_BUILTINS_LOADED = False


def ensure_builtins_registered() -> None:
    """Import the modules that register the built-in workloads/experiments.

    Registration happens at module import time; this forces those imports
    exactly once, lazily, so ``repro.api`` itself stays import-light and free
    of circular dependencies.  It is the one first-use path into the
    experiment pipeline (numpy, ``nn``, ``models``, ``eval``, ``explore``,
    ``arch``, ...): every lazy import of pipeline code that a service thread
    can reach calls it first, and it imports under ``repro``'s first-use
    import lock, so concurrent first uses load the pipeline once, in one
    thread, while the others wait.  The modules it imports must not call it
    at import time: the nested call would mark the registry loaded early.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    with _IMPORT_LOCK:
        if _BUILTINS_LOADED:  # another thread loaded it while this one waited
            return
        import repro.analytic.validate  # noqa: F401  (analytic-validate)
        import repro.bench  # noqa: F401  (registers: bench)
        import repro.eval.ablations  # noqa: F401  (ablate-fifo/-rate/-pes/-energy)
        import repro.eval.fig8  # noqa: F401  (fig8)
        import repro.eval.fig9  # noqa: F401  (fig9)
        import repro.eval.table1  # noqa: F401  (table1)
        import repro.eval.table2  # noqa: F401  (table2)
        import repro.explore.experiments  # noqa: F401  (sweep, pareto)
        import repro.models.zoo  # noqa: F401  (the workload grid)
        # Only marked loaded once every import succeeded: a failed import is
        # retried (and re-reported accurately) on the next lookup instead of
        # leaving a silently half-populated registry.  Modules that did
        # register are cached in sys.modules, so the retry cannot
        # double-register.
        _BUILTINS_LOADED = True


def get_experiment(name: str) -> Experiment:
    ensure_builtins_registered()
    return EXPERIMENTS.get(name)


def get_workload(name: str) -> Workload:
    ensure_builtins_registered()
    return WORKLOADS.get(name)


def list_experiments() -> tuple[Experiment, ...]:
    ensure_builtins_registered()
    return tuple(entry for _, entry in EXPERIMENTS.items())


def list_workloads() -> tuple[Workload, ...]:
    ensure_builtins_registered()
    return tuple(entry for _, entry in WORKLOADS.items())


def run_experiment(
    request: ExperimentRequest,
    options: RunOptions | None = None,
    extras: dict[str, Any] | None = None,
    on_stage: Callable[[str, float], None] | None = None,
    deadline: float | None = None,
    trace_id: str | None = None,
) -> ExperimentResult:
    """Resolve ``request.experiment`` in the registry and execute it."""
    return get_experiment(request.experiment).run(
        request, options, extras, on_stage, deadline, trace_id
    )


__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "Registry",
    "UnknownNameError",
    "WORKLOADS",
    "Workload",
    "ensure_builtins_registered",
    "get_experiment",
    "get_workload",
    "list_experiments",
    "list_workloads",
    "register_experiment",
    "register_workload",
    "run_experiment",
]
