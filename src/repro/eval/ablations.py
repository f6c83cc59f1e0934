"""Ablation studies (E-A1, E-A2) for the design choices the paper calls out.

The paper motivates several design decisions without dedicating a figure to
each; these harnesses quantify them so the claims can be checked:

* **FIFO threshold prediction** (Section III-B) — the predicted threshold
  should track the exact per-batch threshold closely, otherwise the realised
  sparsity would drift from the target.  :func:`run_fifo_ablation` sweeps the
  FIFO depth and reports the relative prediction error and realised density.
* **Pruning-rate sweep** (Section VI) — how speedup and energy efficiency
  scale with the target pruning rate p, using the closed-form expected
  post-pruning density.  :func:`run_pruning_rate_sweep`.
* **PE-count sweep** — how the speedup over the dense baseline behaves as the
  array grows (it should be roughly constant: both architectures scale with
  PE count until DRAM bandwidth dominates).  :func:`run_pe_sweep`.
* **Energy-model sensitivity** — the Fig. 9 efficiency conclusion should not
  hinge on the exact pJ constants.  :func:`run_energy_sensitivity` scales the
  SRAM and DRAM costs and reports how the efficiency ratio moves.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.api import (
    ExperimentReport,
    ExperimentRequest,
    Pipeline,
    PipelineContext,
    Stage,
    get_experiment,
    register_experiment,
)
from repro.arch.energy import EnergyModel
from repro.explore.engine import DesignPoint, ExplorationEngine
from repro.pruning.algorithm import AlgorithmTrace, prune_gradient_batches
from repro.pruning.threshold import expected_density_after_pruning
from repro.utils.rng import new_rng


# ---------------------------------------------------------------------------
# E-A1: FIFO threshold prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FifoAblationPoint:
    """Result of running the pruning algorithm with one FIFO depth."""

    fifo_depth: int
    mean_prediction_error: float
    max_prediction_error: float
    mean_density_after: float
    target_density: float


def _fifo_prune_stage(ctx: PipelineContext) -> list[FifoAblationPoint]:
    """``prune`` — run the pruning algorithm over a drifting gradient stream."""
    request = ctx.request
    fifo_depths = request.param("fifo_depths", [1, 2, 5, 10, 20])
    target_sparsity = request.param("target_sparsity", 0.9)
    num_batches = request.param("num_batches", 64)
    batch_elements = request.param("batch_elements", 4096)
    sigma_drift = request.param("sigma_drift", 0.02)
    seed = request.param("seed", 0)

    rng = new_rng(seed)
    sigmas = np.cumprod(1.0 + sigma_drift * rng.standard_normal(num_batches)) * 1e-3
    batches = [rng.normal(0.0, sigma, size=batch_elements) for sigma in sigmas]

    points: list[FifoAblationPoint] = []
    for depth in fifo_depths:
        trace = AlgorithmTrace()
        pruned = prune_gradient_batches(
            batches, target_sparsity, depth, rng=new_rng(seed + 1), trace=trace
        )
        errors = trace.prediction_errors
        densities = [
            float(np.count_nonzero(batch) / batch.size) for batch in pruned[depth:]
        ]
        points.append(
            FifoAblationPoint(
                fifo_depth=depth,
                mean_prediction_error=float(np.mean(errors)) if errors else 0.0,
                max_prediction_error=float(np.max(errors)) if errors else 0.0,
                mean_density_after=float(np.mean(densities)) if densities else 1.0,
                target_density=expected_density_after_pruning(target_sparsity),
            )
        )
    return points


def _fifo_report_stage(ctx: PipelineContext) -> ExperimentReport:
    points = ctx["prune"]
    payload = {"points": [asdict(point) for point in points]}
    lines = [f"{'depth':>6} {'mean err':>10} {'max err':>10} {'density':>9} {'target':>9}"]
    for point in points:
        lines.append(
            f"{point.fifo_depth:>6} {point.mean_prediction_error:>10.4f} "
            f"{point.max_prediction_error:>10.4f} {point.mean_density_after:>9.4f} "
            f"{point.target_density:>9.4f}"
        )
    return ExperimentReport(payload=payload, summary="\n".join(lines), native=points)


@register_experiment(
    "ablate-fifo",
    description="E-A1 — FIFO threshold-prediction error and realised density vs depth",
    category="ablations",
)
def build_fifo_ablation_pipeline(request: ExperimentRequest) -> Pipeline:
    return Pipeline(
        "ablate-fifo",
        [
            Stage("prune", _fifo_prune_stage, "prune a synthetic gradient stream"),
            Stage("report", _fifo_report_stage, "prediction-error table"),
        ],
    )


def run_fifo_ablation(
    fifo_depths: tuple[int, ...] = (1, 2, 5, 10, 20),
    target_sparsity: float = 0.9,
    num_batches: int = 64,
    batch_elements: int = 4096,
    sigma_drift: float = 0.02,
    seed: int = 0,
) -> list[FifoAblationPoint]:
    """Sweep the FIFO depth on a synthetic stream of gradient batches.

    The gradient scale drifts slowly from batch to batch (``sigma_drift``
    relative change), mimicking the way gradient magnitudes evolve during
    training; the FIFO has to track that drift.  Runs as the registered
    ``ablate-fifo`` pipeline.
    """
    request = ExperimentRequest(
        experiment="ablate-fifo",
        params={
            "fifo_depths": list(fifo_depths),
            "target_sparsity": target_sparsity,
            "num_batches": num_batches,
            "batch_elements": batch_elements,
            "sigma_drift": sigma_drift,
            "seed": seed,
        },
    )
    return get_experiment("ablate-fifo").run(request).native


# ---------------------------------------------------------------------------
# E-A2: pruning-rate, PE-count and energy-model sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One point of a speedup/efficiency sweep."""

    parameter: float
    speedup: float
    energy_efficiency: float


def _sweep_simulate_stage(ctx: PipelineContext) -> list[SweepPoint]:
    """``simulate`` — evaluate the compiled points through the engine.

    The ablation pipelines share the engine's evaluation path (analytic
    densities, matched-resource configs) with the survey-scale sweeps of
    ``python -m repro sweep``; they stay uncached so calling them is
    side-effect free.  The engine returns one record per *unique* point, so
    records are matched back to the requested points by key — a repeated
    parameter value yields a repeated (correctly labelled) sweep point.
    """
    compiled = ctx["compile"]
    points, parameters = compiled["points"], compiled["parameters"]
    engine = ExplorationEngine(cache=None)
    by_key = {record.key: record for record in engine.run(points)}
    return [
        SweepPoint(
            parameter=parameter,
            speedup=by_key[point.key].speedup,
            energy_efficiency=by_key[point.key].energy_efficiency,
        )
        for parameter, point in zip(parameters, points)
    ]


def _sweep_report_stage(ctx: PipelineContext) -> ExperimentReport:
    points = ctx["simulate"]
    payload = {"points": [asdict(point) for point in points]}
    lines = [f"{'parameter':>12} {'speedup':>9} {'efficiency':>11}"]
    for point in points:
        lines.append(
            f"{point.parameter:>12.4g} {point.speedup:>9.3f} "
            f"{point.energy_efficiency:>11.3f}"
        )
    return ExperimentReport(payload=payload, summary="\n".join(lines), native=points)


def _sweep_pipeline(name: str, compile_stage) -> Pipeline:
    return Pipeline(
        name,
        [
            Stage("compile", compile_stage, "build the design points"),
            Stage("simulate", _sweep_simulate_stage, "evaluate through the engine"),
            Stage("report", _sweep_report_stage, "speedup/efficiency table"),
        ],
    )


def _rate_compile_stage(ctx: PipelineContext) -> dict:
    request = ctx.request
    model = request.param("model", "AlexNet")
    dataset = request.param("dataset", "CIFAR-10")
    rates = request.param("pruning_rates", [0.0, 0.5, 0.7, 0.8, 0.9, 0.99])
    points = [
        DesignPoint.from_assignment(model, dataset, {"pruning_rate": rate})
        for rate in rates
    ]
    return {"points": points, "parameters": tuple(rates)}


def _pes_compile_stage(ctx: PipelineContext) -> dict:
    request = ctx.request
    model = request.param("model", "AlexNet")
    dataset = request.param("dataset", "CIFAR-10")
    counts = request.param("pe_counts", [42, 84, 168, 336])
    points = [
        DesignPoint.from_assignment(
            model, dataset, {"num_pes": count, "pruning_rate": request.pruning_rate}
        )
        for count in counts
    ]
    return {"points": points, "parameters": tuple(float(count) for count in counts)}


def _energy_compile_stage(ctx: PipelineContext) -> dict:
    request = ctx.request
    model = request.param("model", "AlexNet")
    dataset = request.param("dataset", "CIFAR-10")
    component = request.param("component", "sram_pj")
    factors = request.param("scale_factors", [0.5, 1.0, 2.0, 4.0])
    base = EnergyModel()
    if not hasattr(base, component):
        raise ValueError(f"unknown energy-model component {component!r}")
    points = [
        DesignPoint.from_assignment(
            model,
            dataset,
            {"pruning_rate": request.pruning_rate},
            energy_overrides={component: getattr(base, component) * factor},
        )
        for factor in factors
    ]
    return {"points": points, "parameters": tuple(factors)}


@register_experiment(
    "ablate-rate",
    description="E-A2 — speedup/efficiency vs target pruning rate (analytic densities)",
    category="ablations",
)
def build_rate_ablation_pipeline(request: ExperimentRequest) -> Pipeline:
    return _sweep_pipeline("ablate-rate", _rate_compile_stage)


@register_experiment(
    "ablate-pes",
    description="E-A2 — speedup/efficiency vs PE count, both architectures scaled",
    category="ablations",
)
def build_pe_ablation_pipeline(request: ExperimentRequest) -> Pipeline:
    return _sweep_pipeline("ablate-pes", _pes_compile_stage)


@register_experiment(
    "ablate-energy",
    description="E-A2 — efficiency sensitivity to one energy-model constant",
    category="ablations",
)
def build_energy_ablation_pipeline(request: ExperimentRequest) -> Pipeline:
    return _sweep_pipeline("ablate-energy", _energy_compile_stage)


def run_pruning_rate_sweep(
    pruning_rates: tuple[float, ...] = (0.0, 0.5, 0.7, 0.8, 0.9, 0.99),
    model: str = "AlexNet",
    dataset: str = "CIFAR-10",
) -> list[SweepPoint]:
    """Speedup / efficiency vs target pruning rate, with analytic densities."""
    request = ExperimentRequest(
        experiment="ablate-rate",
        params={
            "model": model,
            "dataset": dataset,
            "pruning_rates": list(pruning_rates),
        },
    )
    return get_experiment("ablate-rate").run(request).native


def run_pe_sweep(
    pe_counts: tuple[int, ...] = (42, 84, 168, 336),
    model: str = "AlexNet",
    dataset: str = "CIFAR-10",
    pruning_rate: float = 0.9,
) -> list[SweepPoint]:
    """Speedup / efficiency vs PE count (both architectures scaled together)."""
    request = ExperimentRequest(
        experiment="ablate-pes",
        pruning_rate=pruning_rate,
        params={"model": model, "dataset": dataset, "pe_counts": list(pe_counts)},
    )
    return get_experiment("ablate-pes").run(request).native


def run_energy_sensitivity(
    scale_factors: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
    component: str = "sram_pj",
    model: str = "AlexNet",
    dataset: str = "CIFAR-10",
    pruning_rate: float = 0.9,
) -> list[SweepPoint]:
    """Energy-efficiency sensitivity to one energy-model constant.

    ``component`` is an :class:`~repro.arch.energy.EnergyModel` field name
    (``"sram_pj"``, ``"dram_pj"``, ``"mac_pj"``, ``"reg_pj"``).
    """
    request = ExperimentRequest(
        experiment="ablate-energy",
        pruning_rate=pruning_rate,
        params={
            "model": model,
            "dataset": dataset,
            "component": component,
            "scale_factors": list(scale_factors),
        },
    )
    return get_experiment("ablate-energy").run(request).native
