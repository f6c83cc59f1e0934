"""Cross-validation of the column evaluator against the instruction-stream walk.

The ``analytic-validate`` experiment samples a seeded grid of (workload,
architecture, density) points, evaluates every point through the simulator's
one step loop on *both* numeric types — numpy columns
(:mod:`repro.analytic.model`) and one point's floats (the instruction-stream
walk, ``AcceleratorSimulator.run_program``) — and reports the per-metric
relative-error distribution against enforceable bounds.

Error-bound policy
------------------
Both run the same step loop over the same instruction stream and add up the
same per-step terms in the same order, so every metric is expected to be
*equal*: ``max_rel_error`` is 0.0.  The default bound of **1e-9 relative
error on every metric** is kept as the gate's unit (callers divide by it);
any non-zero error means a numeric type computes a formula differently and
must be treated as a bug, never widened away.  CI runs the
smoke scale of this experiment and fails on ``payload["ok"] == False`` or a
non-zero ``max_rel_error``.

Relative error is ``|analytic - simulated| / max(|simulated|, eps)`` with
``eps = 1e-12`` guarding exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api import (
    ExperimentReport,
    ExperimentRequest,
    Pipeline,
    PipelineContext,
    Stage,
    register_experiment,
)
from repro.explore.engine import DesignPoint, evaluate_point
from repro.obs import metrics

#: Metrics compared point by point (EvaluationRecord field names).
VALIDATED_METRICS: tuple[str, ...] = (
    "latency_us",
    "energy_uj",
    "area_mm2",
    "baseline_latency_us",
    "baseline_energy_uj",
    "speedup",
    "energy_efficiency",
)

#: Per-metric relative-error bounds (see the module docstring: these are
#: float-noise ceilings, not modelling tolerances).
DEFAULT_ERROR_BOUNDS: dict[str, float] = {metric: 1e-9 for metric in VALIDATED_METRICS}

#: Workloads covering both paper families plus the grouped-convolution case.
DEFAULT_VALIDATE_WORKLOADS: tuple[tuple[str, str], ...] = (
    ("AlexNet", "CIFAR-10"),
    ("ResNet-18", "CIFAR-10"),
    ("MobileNetV1", "CIFAR-10"),
)

_ZERO_EPS = 1e-12


def sample_validation_points(
    workloads: tuple[tuple[str, str], ...],
    samples: int,
    seed: int,
) -> list[DesignPoint]:
    """A seeded random grid stressing every architecture knob at once.

    Unlike the sweep spaces (a few canonical axis values), this draws every
    :class:`~repro.arch.config.ArchConfig` field the cost model depends on
    from a wide range, so a formula that ignores a knob cannot pass by
    coincidence.
    """
    rng = np.random.default_rng(seed)
    points: list[DesignPoint] = []
    for index in range(samples):
        model, dataset = workloads[index % len(workloads)]
        overrides = {
            "num_pes": 3 * int(rng.integers(8, 121)),
            "buffer_kib": int(rng.integers(64, 1025)),
            "pe_utilization": float(rng.uniform(0.5, 1.0)),
            "dram_words_per_cycle": float(rng.choice([4.0, 8.0, 16.0, 32.0])),
            "weight_reload_overhead": float(rng.uniform(0.0, 0.5)),
            "sync_cycles_per_layer": int(rng.integers(0, 257)),
            "batch_size": int(rng.choice([8, 16, 32, 64])),
        }
        points.append(
            DesignPoint(
                model=model,
                dataset=dataset,
                pruning_rate=float(rng.uniform(0.0, 0.98)),
                overrides=tuple(sorted(overrides.items())),
            )
        )
    return points


@dataclass(frozen=True)
class MetricErrors:
    """Relative-error distribution of one metric over the sampled grid."""

    metric: str
    max_rel_error: float
    mean_rel_error: float
    p95_rel_error: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.max_rel_error <= self.bound

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "max_rel_error": self.max_rel_error,
            "mean_rel_error": self.mean_rel_error,
            "p95_rel_error": self.p95_rel_error,
            "bound": self.bound,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ValidationResult:
    """Cross-validation outcome: per-metric errors plus the sampled grid size."""

    samples: int
    seed: int
    errors: tuple[MetricErrors, ...]

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.errors)

    @property
    def max_rel_error(self) -> float:
        return max((entry.max_rel_error for entry in self.errors), default=0.0)

    @property
    def violations(self) -> tuple[str, ...]:
        return tuple(entry.metric for entry in self.errors if not entry.ok)


def _compile_stage(ctx: PipelineContext) -> list[DesignPoint]:
    request = ctx.request
    workloads = request.workloads or DEFAULT_VALIDATE_WORKLOADS
    samples = request.param("samples")
    if samples is None:
        # quick scale: 24 points; smoke: 8; thorough: 32 — sized so the
        # simulated half (the slow one) stays in CI-friendly territory.
        samples = max(8, min(32, ctx.request.scale.num_samples // 20))
    return sample_validation_points(
        tuple(workloads), int(samples), int(request.param("seed", 0))
    )


def _simulate_stage(ctx: PipelineContext) -> dict[str, Any]:
    from repro.analytic.model import evaluate_points_analytic

    points = ctx["compile"]
    # The simulator walk is the expensive half — fan it out over the shared
    # runner; the analytic half is one vectorized call.
    simulated = ctx.runner.map(evaluate_point, points)
    analytic = evaluate_points_analytic(points)
    return {"simulated": simulated, "analytic": analytic}


def _report_stage(ctx: PipelineContext) -> ExperimentReport:
    request = ctx.request
    pair = ctx["simulate"]
    simulated, analytic = pair["simulated"], pair["analytic"]
    bounds = dict(DEFAULT_ERROR_BOUNDS)
    bounds.update(request.param("bounds", {}) or {})

    errors: list[MetricErrors] = []
    for metric in VALIDATED_METRICS:
        sim = np.asarray([getattr(record, metric) for record in simulated])
        ana = np.asarray([getattr(record, metric) for record in analytic])
        rel = np.abs(ana - sim) / np.maximum(np.abs(sim), _ZERO_EPS)
        errors.append(
            MetricErrors(
                metric=metric,
                max_rel_error=float(np.max(rel)) if rel.size else 0.0,
                mean_rel_error=float(np.mean(rel)) if rel.size else 0.0,
                p95_rel_error=float(np.percentile(rel, 95)) if rel.size else 0.0,
                bound=float(bounds[metric]),
            )
        )
    result = ValidationResult(
        samples=len(simulated),
        seed=int(request.param("seed", 0)),
        errors=tuple(errors),
    )
    metrics().gauge("analytic.validate.max_rel_error").set(result.max_rel_error)

    payload = {
        "samples": result.samples,
        "seed": result.seed,
        "ok": result.ok,
        "max_rel_error": result.max_rel_error,
        "violations": list(result.violations),
        "metrics": [entry.to_dict() for entry in result.errors],
        "bounds": {name: float(value) for name, value in bounds.items()},
    }
    lines = [
        f"analytic-validate: {result.samples} sampled points, seed {result.seed}",
        f"{'metric':>22} {'max rel':>12} {'mean rel':>12} {'p95 rel':>12} {'bound':>9} {'ok':>4}",
    ]
    for entry in result.errors:
        lines.append(
            f"{entry.metric:>22} {entry.max_rel_error:>12.3e} "
            f"{entry.mean_rel_error:>12.3e} {entry.p95_rel_error:>12.3e} "
            f"{entry.bound:>9.0e} {'yes' if entry.ok else 'NO':>4}"
        )
    lines.append(
        "PASS: analytic tier within bounds"
        if result.ok
        else f"FAIL: bound exceeded for {', '.join(result.violations)}"
    )
    return ExperimentReport(payload=payload, summary="\n".join(lines), native=result)


@register_experiment(
    "analytic-validate",
    description="cross-validate the analytic cost model against the simulator "
    "on a seeded random grid (per-metric relative-error bounds)",
    category="validation",
)
def build_analytic_validate_pipeline(request: ExperimentRequest) -> Pipeline:
    return Pipeline(
        "analytic-validate",
        [
            Stage("compile", _compile_stage, "sample the seeded validation grid"),
            Stage("simulate", _simulate_stage, "run both cost-model tiers"),
            Stage("report", _report_stage, "relative-error distribution table"),
        ],
    )


__all__ = [
    "DEFAULT_ERROR_BOUNDS",
    "DEFAULT_VALIDATE_WORKLOADS",
    "MetricErrors",
    "VALIDATED_METRICS",
    "ValidationResult",
    "build_analytic_validate_pipeline",
    "sample_validation_points",
]
