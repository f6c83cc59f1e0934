"""Registered ``sweep`` and ``pareto`` experiments over the exploration engine.

These wrap the design-space subsystem in the :mod:`repro.api` pipeline shape
(``compile -> simulate -> report``):

* ``compile`` builds the concrete :class:`DesignPoint` grid from the
  request's workloads and the ``pes`` / ``buffers`` / ``pruning_rates``
  parameters (optionally a seeded random subsample);
* ``simulate`` evaluates the points on the cost model's columns
  (:mod:`repro.analytic.model`) — through :class:`ExplorationEngine`, with
  deduplication and the persistent sweep cache resolved from the run
  options, or, at analytic fidelity, directly;
* ``report`` renders the latency-ranked table (``sweep``) or per-workload
  Pareto frontiers (``pareto``).

``python -m repro sweep`` / ``pareto`` / ``run sweep`` all dispatch here.
"""

from __future__ import annotations

import operator
from typing import Any

from repro.analytic.fidelity import Fidelity, fidelity_of
from repro.api import (
    ExperimentReport,
    ExperimentRequest,
    Pipeline,
    PipelineContext,
    Stage,
    fidelity_dispatch,
    register_experiment,
)
from repro.explore.engine import ExplorationEngine, points_for
from repro.explore.pareto import parse_objectives, pareto_by_workload
from repro.explore.space import DesignSpace, grid_axis
from repro.explore.report import format_frontier, format_records_table
from repro.models.zoo import normalize_dataset_name, normalize_model_name

# Sweep payloads are stored verbatim by the serve job store; a million-point
# analytic sweep must not turn one SQLite row into a gigabyte.  Reports keep
# the full record list in ``native`` and cap the serialized payload at this
# many (latency-ranked) records unless the request overrides ``max_records``.
DEFAULT_MAX_PAYLOAD_RECORDS = 10000

# Default sweep grid (kept in sync with the CLI's documented defaults).
DEFAULT_SWEEP_WORKLOADS: tuple[tuple[str, str], ...] = (
    ("AlexNet", "CIFAR-10"),
    ("ResNet-18", "CIFAR-10"),
    ("VGG-16", "CIFAR-10"),
    ("MobileNetV1", "CIFAR-10"),
)
DEFAULT_PES: tuple[int, ...] = (84, 168, 336, 672)
DEFAULT_BUFFERS: tuple[int, ...] = (192, 386, 772)
DEFAULT_RATES: tuple[float, ...] = (0.5, 0.7, 0.9, 0.95)
DEFAULT_OBJECTIVE_NAMES: tuple[str, ...] = ("latency_us", "energy_uj", "area_mm2")


def _compile_stage(ctx: PipelineContext):
    """``compile`` — cross the parameter grid with the workload list.

    Returns a :class:`DesignPoint` list, except for full (unsampled,
    duplicate-free) grids at analytic fidelity, which stay in axis form
    (:class:`~repro.analytic.model.AnalyticGridPlan`): at 10^5+ points,
    materializing one point object per cell would dwarf the closed-form
    evaluation itself.
    """
    request = ctx.request
    workloads = request.workloads or DEFAULT_SWEEP_WORKLOADS
    pes = tuple(request.param("pes", list(DEFAULT_PES)))
    buffers = tuple(request.param("buffers", list(DEFAULT_BUFFERS)))
    rates = tuple(request.param("pruning_rates", list(DEFAULT_RATES)))
    sample = request.param("sample")
    if sample is None and fidelity_of(request) is Fidelity.ANALYTIC and all(
        len(set(axis)) == len(axis) for axis in (pes, buffers, rates)
    ):
        from repro.analytic.model import AnalyticGridPlan

        return AnalyticGridPlan(
            workloads=tuple(
                (normalize_model_name(m), normalize_dataset_name(d))
                for m, d in workloads
            ),
            pes=pes,
            buffers=buffers,
            rates=rates,
        )
    space = DesignSpace(
        axes=(
            grid_axis("num_pes", pes),
            grid_axis("buffer_kib", buffers),
            grid_axis("pruning_rate", rates),
        )
    )
    return points_for(space, workloads, sample=sample, seed=request.param("seed", 0))


def _simulate_vectorized(ctx: PipelineContext) -> dict[str, Any]:
    """The default tier: the deduplicating engine, cached per the run options."""
    engine = ExplorationEngine(cache=ctx.options.sweep_cache())
    records = engine.run(ctx["compile"])
    return {"records": records, "stats": engine.stats.describe()}


def _simulate_analytic(ctx: PipelineContext) -> dict[str, Any]:
    """The column evaluator without the engine's keys and cache.

    Analytic records carry ``analytic:`` keys
    (:func:`repro.analytic.model.analytic_point_key`) and are *not* written
    to the sweep cache: a point costs microseconds, less than hashing its
    cache key, so caching would only bloat the JSONL store.
    """
    from repro.analytic.model import (
        AnalyticGridPlan,
        evaluate_grid_analytic,
        evaluate_points_analytic,
    )

    compiled = ctx["compile"]
    if isinstance(compiled, AnalyticGridPlan):
        records = evaluate_grid_analytic(compiled)
        duplicates = 0  # duplicate-free axes => every grid cell is distinct
    else:
        records = evaluate_points_analytic(compiled)
        duplicates = len(compiled) - len(records)
    stats = (
        f"{len(compiled)} points ({duplicates} duplicate), "
        f"{len(records)} analytic (closed-form)"
    )
    return {"records": records, "stats": stats}


def _simulate_stage(ctx: PipelineContext) -> dict[str, Any]:
    """``simulate`` — evaluate at the tier the request's fidelity asks for.

    ``scalar`` runs the default engine (``fidelity_dispatch``'s fallback).
    """
    return fidelity_dispatch(
        ctx, vectorized=_simulate_vectorized, analytic=_simulate_analytic
    )


def _sweep_report_stage(ctx: PipelineContext) -> ExperimentReport:
    simulated = ctx["simulate"]
    records, stats = simulated["records"], simulated["stats"]
    # attrgetter keeps the 10^6-record sort off the Python bytecode path.
    ranked = sorted(records, key=operator.attrgetter("latency_us"))
    top = ctx.request.param("top", 16)
    summary = format_records_table(ranked, limit=top) + f"\n\n{stats}"
    max_records = int(ctx.request.param("max_records", DEFAULT_MAX_PAYLOAD_RECORDS))
    payload: dict[str, Any] = {
        "records": [record.to_dict() for record in ranked[:max_records]],
        "stats": stats,
    }
    if len(records) > max_records:
        payload["records_truncated"] = True
        payload["records_total"] = len(records)
    native: dict[str, Any] = {"records": records, "stats": stats}
    return ExperimentReport(payload=payload, summary=summary, native=native)


def _pareto_report_stage(ctx: PipelineContext) -> ExperimentReport:
    simulated = ctx["simulate"]
    records, stats = simulated["records"], simulated["stats"]
    objectives = parse_objectives(
        tuple(ctx.request.param("objectives", list(DEFAULT_OBJECTIVE_NAMES)))
    )
    frontiers = pareto_by_workload(records, objectives)
    lines = [stats]
    for workload in sorted(frontiers):
        lines.append("")
        lines.append(f"[{workload}]")
        lines.append(format_frontier(frontiers[workload], objectives))
    payload = {
        "stats": stats,
        "frontiers": {
            workload: [record.to_dict() for record in frontier]
            for workload, frontier in frontiers.items()
        },
    }
    return ExperimentReport(
        payload=payload,
        summary="\n".join(lines),
        native={"records": records, "frontiers": frontiers, "stats": stats},
    )


@register_experiment(
    "sweep",
    description="Design-space sweep (PE count x buffer x pruning rate x workloads)",
    category="design-space",
    supports_fidelity=True,
)
def build_sweep_pipeline(request: ExperimentRequest) -> Pipeline:
    return Pipeline(
        "sweep",
        [
            Stage("compile", _compile_stage, "build the design-point grid"),
            Stage("simulate", _simulate_stage, "cached column evaluation"),
            Stage("report", _sweep_report_stage, "latency-ranked records table"),
        ],
    )


@register_experiment(
    "pareto",
    description="Per-workload Pareto frontiers over a design-space sweep",
    category="design-space",
    supports_fidelity=True,
)
def build_pareto_pipeline(request: ExperimentRequest) -> Pipeline:
    # Fail on a bad objective list at build time, before any simulation runs.
    parse_objectives(tuple(request.param("objectives", list(DEFAULT_OBJECTIVE_NAMES))))
    return Pipeline(
        "pareto",
        [
            Stage("compile", _compile_stage, "build the design-point grid"),
            Stage("simulate", _simulate_stage, "cached column evaluation"),
            Stage("report", _pareto_report_stage, "Pareto frontier extraction"),
        ],
    )


__all__ = [
    "DEFAULT_SWEEP_WORKLOADS",
    "DEFAULT_PES",
    "DEFAULT_BUFFERS",
    "DEFAULT_RATES",
    "build_pareto_pipeline",
    "build_sweep_pipeline",
]
