"""``python -m repro bench`` — the staged performance benchmark.

Times the stages of the evaluation pipeline — reduced-model *training*
(density measurement), program *compilation* and workload *simulation* — and
writes the measurements to ``BENCH_repro.json``, seeding the repository's
performance trajectory.  The final ``report`` stage only packages those
timings, so every stage timing measures its own stage.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api import (
    ExperimentReport,
    ExperimentRequest,
    Pipeline,
    PipelineContext,
    RunOptions,
    Stage,
    get_experiment,
    register_experiment,
)
from repro.dataflow.compiler import compile_training_iteration
from repro.eval.common import ExperimentScale
from repro.eval.fig8 import densities_for_workload, train_stage
from repro.models.zoo import get_model_spec
from repro.sim.runner import compare_workload

DEFAULT_BENCH_PATH = "BENCH_repro.json"

# The workload every bench run times (small enough to train in seconds,
# representative of the Conv-ReLU family the paper leads with).
BENCH_WORKLOAD: tuple[tuple[str, str], ...] = (("AlexNet", "CIFAR-10"),)

# Scales: ``--smoke`` finishes in well under a minute on CI; the default run
# matches the quick experiment scale used by the benchmark suite.
SMOKE_SCALE = ExperimentScale.smoke()
FULL_SCALE = ExperimentScale.quick()


@dataclass
class BenchResult:
    """All stage timings of one ``repro bench`` run."""

    smoke: bool
    stages: dict[str, dict[str, Any]] = field(default_factory=dict)

    def stage_quantiles(self) -> dict[str, dict[str, Any]]:
        """Per-stage p50/p95 from the process-global metrics registry.

        The telemetry snapshot recorded alongside the raw timings: within one
        ``repro bench`` process the ``pipeline.stage.seconds`` histograms
        cover exactly this run's stages.
        """
        from repro.obs import metrics

        quantiles: dict[str, dict[str, Any]] = {}
        for entry in metrics().snapshot().get("pipeline.stage.seconds", ()):
            stage = entry["labels"].get("stage", "?")
            quantiles[stage] = {
                "count": entry["count"],
                "p50": entry["p50"],
                "p95": entry["p95"],
            }
        return quantiles

    def to_payload(self) -> dict[str, Any]:
        return {
            "schema": 2,
            "bench": "repro",
            "smoke": self.smoke,
            "workload": "/".join(BENCH_WORKLOAD[0]),
            "created_unix": time.time(),
            "stages": self.stages,
            "metrics": {"stage_seconds": self.stage_quantiles()},
        }

    def format(self) -> str:
        lines = [f"{'stage':<16} {'seconds':>10}  notes"]
        for name, stage in self.stages.items():
            notes = ", ".join(
                f"{key}={value:.3g}" if isinstance(value, float) else f"{key}={value}"
                for key, value in stage.items()
                if key != "seconds"
            )
            lines.append(f"{name:<16} {stage['seconds']:>10.3f}  {notes}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The bench pipeline: train -> compile -> simulate -> report
# ---------------------------------------------------------------------------
# The ``train`` stage is the fig8 pipeline's density-measurement stage run
# over BENCH_WORKLOAD, so bench shares both the measurement code path and the
# on-disk density cache (same content keys) with the figure harnesses.

def _is_smoke(request: ExperimentRequest) -> bool:
    return request.scale == SMOKE_SCALE


def _train_stage(ctx: PipelineContext):
    """``train`` — the fig8 density-measurement stage over the bench workload.

    A ``run bench`` request without explicit workloads means "the standard
    bench workload", not the fig8 quick grid the shared stage would default
    to, so the request is pinned to BENCH_WORKLOAD before delegating.
    """
    if not ctx.request.workloads:
        ctx.request = ExperimentRequest(
            experiment=ctx.request.experiment,
            workloads=BENCH_WORKLOAD,
            pruning_rate=ctx.request.pruning_rate,
            scale=ctx.request.scale,
            params=ctx.request.params,
        )
    return train_stage(ctx)


def _compile_stage(ctx: PipelineContext) -> dict[str, Any]:
    """``compile`` — lower the full-size spec to instruction programs."""
    model_name, dataset_name = ctx.request.workloads[0]
    spec = get_model_spec(model_name, dataset_name)
    densities = densities_for_workload(model_name, dataset_name, ctx["train"])
    sparse_program = compile_training_iteration(spec, densities=densities, sparse=True)
    dense_program = compile_training_iteration(spec, densities=None, sparse=False)
    return {
        "spec": spec,
        "densities": densities,
        "instructions": len(sparse_program.instructions)
        + len(dense_program.instructions),
    }


def _simulate_stage(ctx: PipelineContext):
    """``simulate`` — SparseTrain vs the dense baseline on the workload."""
    compiled = ctx["compile"]
    return ctx.runner.map(
        lambda spec: compare_workload(spec, compiled["densities"]),
        [compiled["spec"]],
    )[0]


def _report_stage(ctx: PipelineContext) -> ExperimentReport:
    request = ctx.request
    smoke = _is_smoke(request)
    comparison = ctx["simulate"]
    result = BenchResult(smoke=smoke)
    result.stages["train"] = {
        "seconds": ctx.timings["train"],
        "cache_hit": ctx.stage_cache_hit("train"),
        "epochs": request.scale.epochs,
        "samples": request.scale.num_samples,
    }
    result.stages["compile"] = {
        "seconds": ctx.timings["compile"],
        "instructions": ctx["compile"]["instructions"],
    }
    result.stages["simulate"] = {
        "seconds": ctx.timings["simulate"],
        "speedup": float(comparison.speedup),
        "energy_efficiency": float(comparison.energy_efficiency),
    }
    return ExperimentReport(
        payload=result.to_payload(), summary=result.format(), native=result
    )


@register_experiment(
    "bench",
    description="Staged performance benchmark (train/compile/simulate)",
    category="validation",
)
def build_bench_pipeline(request: ExperimentRequest) -> Pipeline:
    return Pipeline(
        "bench",
        [
            Stage("train", _train_stage, "measure densities (timed, cached)"),
            Stage("compile", _compile_stage, "lower to instruction programs"),
            Stage("simulate", _simulate_stage, "SparseTrain vs dense baseline"),
            Stage("report", _report_stage, "package the stage timings"),
        ],
    )


def run_bench(
    smoke: bool = False,
    out: str | Path | None = DEFAULT_BENCH_PATH,
    options: RunOptions = RunOptions(use_cache=False),
    pruning_rate: float = 0.9,
) -> BenchResult:
    """Run every bench stage; write ``out`` (unless ``None``) and return results.

    A thin wrapper over the registered ``bench`` experiment pipeline; the
    stage timings in the result are the pipeline's own stage clock.
    ``options`` selects the density cache the ``train`` stage reads (off by
    default; ``repro bench`` passes ``--cache-dir`` / ``--no-cache``).
    """
    request = ExperimentRequest(
        experiment="bench",
        workloads=BENCH_WORKLOAD,
        pruning_rate=pruning_rate,
        scale=SMOKE_SCALE if smoke else FULL_SCALE,
    )
    result = get_experiment("bench").run(request, options=options)
    bench_result: BenchResult = result.native
    if out is not None:
        _write_atomic(Path(out), bench_result.to_payload())
    return bench_result


#: Stages whose baseline p95 is below this are skipped by the regression
#: check: sub-50ms quantiles are dominated by scheduler and allocator noise,
#: and a 20% band around them gates on nothing real.
MIN_STAGE_SECONDS = 0.05


def check_regression(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = 0.2,
    min_stage_seconds: float = MIN_STAGE_SECONDS,
) -> tuple[list[str], list[str]]:
    """Compare a bench payload against a committed baseline.

    Returns ``(violations, checked)``: human-readable violation strings
    (empty = pass) and notes describing every comparison actually made.
    Each stage's ``p95`` (from ``metrics.stage_seconds``) must not exceed the
    baseline by more than ``tolerance``; stages whose baseline p95 sits under
    ``min_stage_seconds`` (pure noise) or that either run lacks are skipped.

    Raises ``ValueError`` when the two payloads ran at different scales
    (``smoke`` flags differ) — comparing a smoke run against a full-scale
    baseline measures the scale difference, not a regression.
    """
    if bool(current.get("smoke")) != bool(baseline.get("smoke")):
        raise ValueError(
            "bench scale mismatch: current smoke="
            f"{bool(current.get('smoke'))} vs baseline smoke="
            f"{bool(baseline.get('smoke'))}; rerun at the baseline's scale"
        )
    violations: list[str] = []
    checked: list[str] = []
    base_stages = (baseline.get("metrics") or {}).get("stage_seconds") or {}
    cur_stages = (current.get("metrics") or {}).get("stage_seconds") or {}
    for stage, base_info in base_stages.items():
        base_p95 = base_info.get("p95")
        cur_p95 = (cur_stages.get(stage) or {}).get("p95")
        if base_p95 is None or cur_p95 is None:
            checked.append(f"stage {stage}: skipped (p95 missing)")
            continue
        if base_p95 < min_stage_seconds:
            checked.append(
                f"stage {stage}: skipped (baseline p95 {base_p95:.3f}s "
                f"under the {min_stage_seconds:.2f}s noise floor)"
            )
            continue
        ceiling = base_p95 * (1.0 + tolerance)
        checked.append(
            f"stage {stage} p95 {cur_p95:.3f}s vs baseline {base_p95:.3f}s "
            f"(ceiling {ceiling:.3f}s)"
        )
        if cur_p95 > ceiling:
            violations.append(
                f"stage {stage} p95 regressed: {cur_p95:.3f}s > "
                f"{ceiling:.3f}s ({base_p95:.3f}s baseline + {tolerance:.0%})"
            )
    return violations, checked


def _write_atomic(out: Path, payload: dict[str, Any]) -> None:
    """Write the benchmark JSON via temp file + ``os.replace``.

    A reader (CI trend gates, a concurrent ``repro stats`` consumer) never
    sees a torn half-written file: the rename is atomic on POSIX, and the
    temp file lives in the target directory so the replace never crosses a
    filesystem boundary.  ``/dev/null``-style non-regular targets are written
    directly — there is nothing to tear.
    """
    text = json.dumps(payload, indent=2) + "\n"
    if out.exists() and not out.is_file():
        out.write_text(text, encoding="utf-8")
        return
    fd, tmp_name = tempfile.mkstemp(
        dir=str(out.parent) if str(out.parent) else ".",
        prefix=out.name + ".",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, out)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise
