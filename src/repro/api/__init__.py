"""``repro.api`` — the stable, typed public API of the reproduction.

Every harness in this repository (Fig. 8/9, Table I/II, the ablations, the
benchmark, the design-space sweeps) executes through this layer:

* :class:`ExperimentRequest` / :class:`ExperimentResult` — frozen, JSON
  round-trippable, content-hashable descriptions of what to compute and what
  came out.
* :class:`Pipeline` / :class:`Stage` / :class:`PipelineContext` — the named
  stage graph (``train``, ``prune``, ``profile``, ``compile``, ``simulate``,
  ``report``) with per-stage timing and disk-caching hooks.
* :class:`Runner` — the order-preserving in-process map every fan-out
  stage goes through (experiments run in the calling process;
  ``default_runner`` is its deprecated factory).
* :func:`register_workload` / :func:`register_experiment` — decorator-based
  registries that ``models/zoo``, the figure/table harnesses, ``bench`` and
  the exploration engine register into; :func:`run_experiment` resolves and
  executes by name.

Minimal use::

    from repro.api import ExperimentRequest, run_experiment

    result = run_experiment(
        ExperimentRequest(experiment="fig8",
                          workloads=(("AlexNet", "CIFAR-10"),))
    )
    print(result.summary)          # the Fig. 8 latency/speedup table
    print(result.to_json())        # full JSON: request, payload, timings

API stability: names exported here are the public surface, pinned by
``tests/api/test_surface.py``.  Additive changes are fine; renames/removals
require a deprecation cycle (see DESIGN.md).
"""

from __future__ import annotations

from repro.analytic.fidelity import DEFAULT_FIDELITY, FIDELITY_CHOICES, Fidelity, fidelity_of
from repro.api.registry import (
    EXPERIMENTS,
    Experiment,
    Registry,
    UnknownNameError,
    WORKLOADS,
    Workload,
    get_experiment,
    get_workload,
    list_experiments,
    list_workloads,
    register_experiment,
    register_workload,
    run_experiment,
)
from repro.api.request import (
    ExperimentReport,
    ExperimentRequest,
    ExperimentResult,
    RunOptions,
    canonical_json,
    content_hash,
)
from repro.api.runner import Runner, default_runner
from repro.api.stages import (
    DeadlineExceeded,
    STAGE_ORDER,
    Pipeline,
    PipelineContext,
    Stage,
    fidelity_dispatch,
)

__all__ = [
    "DEFAULT_FIDELITY",
    "DeadlineExceeded",
    "EXPERIMENTS",
    "FIDELITY_CHOICES",
    "Fidelity",
    "Experiment",
    "ExperimentReport",
    "ExperimentRequest",
    "ExperimentResult",
    "Pipeline",
    "PipelineContext",
    "Registry",
    "RunOptions",
    "Runner",
    "STAGE_ORDER",
    "Stage",
    "UnknownNameError",
    "WORKLOADS",
    "Workload",
    "canonical_json",
    "content_hash",
    "default_runner",
    "fidelity_dispatch",
    "fidelity_of",
    "get_experiment",
    "get_workload",
    "list_experiments",
    "list_workloads",
    "register_experiment",
    "register_workload",
    "run_experiment",
]
