"""Experiment E-F8 — reproduce Fig. 8 (training latency per sample and speedup).

The paper's Fig. 8 plots, for every (model, dataset) workload, the average
training latency per sample of the dense baseline and of SparseTrain, and
annotates the speedup: up to ~4.5x for AlexNet on CIFAR-10 and ~2.7x on
average.

The harness executes as a registered :mod:`repro.api` pipeline
(``train -> profile -> compile -> simulate -> report``):

1. ``train`` — train reduced per-family models on synthetic data with pruning
   enabled and profile the per-layer operand densities
   (:mod:`repro.sim.trace`); memoized on disk through the pipeline's
   per-stage cache hook when the run options enable caching.
2. ``profile`` — assign the measured densities to the paper's exact
   AlexNet/ResNet-18/34 layer geometries by relative depth.
3. ``compile`` — pair each workload's full-size spec with its densities
   (program compilation itself runs in the simulate stage, one workload at
   a time).
4. ``simulate`` — map :func:`~repro.sim.runner.compare_workload` (SparseTrain
   and the dense baseline, 168 PEs and 386 KB buffer each) over the
   workloads, in process, through the pipeline's
   :class:`~repro.api.runner.Runner`, at every fidelity.
5. ``report`` — per-sample latency and speedup tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
from repro.arch.config import ArchConfig
from repro.arch.energy import EnergyModel
from repro.dataflow.counts import LayerDensities
from repro.eval.common import (
    ExperimentScale,
    build_reduced_model,
    reduced_learning_rate,
    synthetic_dataset_for,
)
from repro.eval.density_cache import (
    density_cache_key,
    deserialize_measured,
    serialize_measured,
)
from repro.models.spec import ModelSpec
from repro.models.zoo import get_model_spec, model_family
from repro.pruning.config import PruningConfig
from repro.sim.report import format_latency_table
from repro.sim.runner import WorkloadResult, compare_workload
from repro.sim.trace import MeasuredDensities, map_densities_to_spec, profile_training_densities

# The (model, dataset) grid of the paper's Fig. 8 / Fig. 9.
PAPER_FIG8_WORKLOADS: tuple[tuple[str, str], ...] = (
    ("AlexNet", "CIFAR-10"),
    ("AlexNet", "CIFAR-100"),
    ("AlexNet", "ImageNet"),
    ("ResNet-18", "CIFAR-10"),
    ("ResNet-18", "CIFAR-100"),
    ("ResNet-18", "ImageNet"),
    ("ResNet-34", "CIFAR-10"),
    ("ResNet-34", "CIFAR-100"),
    ("ResNet-34", "ImageNet"),
)

# The paper grid extended with the efficiency-oriented families this
# reproduction adds (VGG's uniform 3x3 stacks and MobileNetV1's
# depthwise-separable pairs — the grouped-convolution stress test).
EXTENDED_FIG8_WORKLOADS: tuple[tuple[str, str], ...] = PAPER_FIG8_WORKLOADS + (
    ("VGG-16", "CIFAR-10"),
    ("VGG-16", "ImageNet"),
    ("MobileNetV1", "CIFAR-10"),
    ("MobileNetV1", "ImageNet"),
)

# Fast subset used by the benchmark suite (covers both model families, both
# dataset geometries).
QUICK_FIG8_WORKLOADS: tuple[tuple[str, str], ...] = (
    ("AlexNet", "CIFAR-10"),
    ("AlexNet", "ImageNet"),
    ("ResNet-18", "CIFAR-10"),
    ("ResNet-18", "ImageNet"),
    ("ResNet-34", "CIFAR-10"),
)

# Reduced model trained to measure the densities of each model family.
FAMILY_REFERENCE_MODELS: dict[str, str] = {
    "AlexNet": "AlexNet",
    "ResNet": "ResNet-18",
    "VGG": "VGG-16",
    "MobileNet": "MobileNetV1",
}


@dataclass
class Fig8Result:
    """Latency/speedup results for a set of workloads."""

    workloads: list[WorkloadResult] = field(default_factory=list)

    @property
    def speedups(self) -> dict[str, float]:
        return {w.workload_name: w.speedup for w in self.workloads}

    @property
    def mean_speedup(self) -> float:
        if not self.workloads:
            return 0.0
        return float(np.mean([w.speedup for w in self.workloads]))

    @property
    def max_speedup(self) -> float:
        if not self.workloads:
            return 0.0
        return float(np.max([w.speedup for w in self.workloads]))

    def workload(self, name: str) -> WorkloadResult:
        for entry in self.workloads:
            if entry.workload_name == name:
                return entry
        raise KeyError(f"no workload named {name!r}")

    def format(self) -> str:
        return format_latency_table(self.workloads)


def measure_model_densities(
    model_name: str,
    pruning_rate: float = 0.9,
    scale: ExperimentScale | None = None,
) -> MeasuredDensities:
    """Measure per-layer densities of one model family on synthetic data.

    Trains a reduced model with pruning enabled and profiles it.  The
    fig8/fig9/bench ``train`` stage memoizes this measurement on disk when
    the run options enable caching (:func:`train_stage`).
    """
    scale = scale if scale is not None else ExperimentScale.quick()
    train, _ = synthetic_dataset_for("CIFAR-10", scale)
    model = build_reduced_model(model_name, train.num_classes, scale)
    pruning = (
        PruningConfig(target_sparsity=pruning_rate, fifo_depth=3, seed=scale.seed)
        if pruning_rate > 0.0
        else None
    )
    return profile_training_densities(
        model,
        train,
        pruning=pruning,
        epochs=scale.epochs,
        batch_size=scale.batch_size,
        lr=reduced_learning_rate(model_name),
        seed=scale.seed,
    )


def densities_for_workload(
    model_name: str,
    dataset_name: str,
    measured: dict[str, MeasuredDensities],
) -> dict[str, LayerDensities]:
    """Map the measured densities of a model family onto a full-size spec."""
    family = model_family(model_name)
    if family not in measured:
        raise KeyError(f"no measured densities for model family {family!r}")
    spec = get_model_spec(model_name, dataset_name)
    return map_densities_to_spec(measured[family], spec)


# ---------------------------------------------------------------------------
# The fig8 pipeline (shared by fig9 and bench)
# ---------------------------------------------------------------------------

def request_workloads(request: ExperimentRequest) -> tuple[tuple[str, str], ...]:
    """The request's workloads, defaulting to the quick Fig. 8 subset."""
    return request.workloads or QUICK_FIG8_WORKLOADS


def train_stage(ctx: PipelineContext) -> dict[str, MeasuredDensities]:
    """``train`` — measure per-family densities, one reduced model per family.

    Each family's measurement goes through the pipeline's per-stage cache
    hook with the :func:`repro.eval.density_cache.density_cache_key` content
    hash and the run options' density cache (``--cache-dir`` /
    ``--no-cache``), so fig8, fig9 and bench runs share measurements on disk.
    """
    request = ctx.request
    preloaded = ctx.extras.get("measured")
    if preloaded is not None:
        return dict(preloaded)
    store = ctx.options.density_cache()
    measured: dict[str, MeasuredDensities] = {}
    for model_name, _ in request_workloads(request):
        family = model_family(model_name)
        if family in measured:
            continue
        reference = FAMILY_REFERENCE_MODELS[family]
        measured[family] = ctx.cached(
            density_cache_key(reference, request.pruning_rate, request.scale),
            lambda reference=reference: measure_model_densities(
                reference, request.pruning_rate, request.scale
            ),
            store=store,
            serialize=serialize_measured,
            deserialize=deserialize_measured,
        )
    return measured


def profile_stage(ctx: PipelineContext) -> dict[tuple[str, str], dict[str, LayerDensities]]:
    """``profile`` — map measured family densities onto full-size specs."""
    measured = ctx["train"]
    return {
        (model_name, dataset_name): densities_for_workload(
            model_name, dataset_name, measured
        )
        for model_name, dataset_name in request_workloads(ctx.request)
    }


def compile_stage(
    ctx: PipelineContext,
) -> list[tuple[ModelSpec, dict[str, LayerDensities]]]:
    """``compile`` — pair every workload's full-size spec with its densities."""
    densities_by_workload = ctx["profile"]
    return [
        (
            get_model_spec(model_name, dataset_name),
            densities_by_workload[(model_name, dataset_name)],
        )
        for model_name, dataset_name in request_workloads(ctx.request)
    ]


def simulate_stage(ctx: PipelineContext) -> list[WorkloadResult]:
    """``simulate`` — :func:`compare_workload` per workload, mapped in process.

    Shared by fig8 and fig9.  Every fidelity runs this one path: the
    instruction-stream walk yields the per-(layer, step) results the fig9
    energy breakdown reads, and a fig8 workload costs milliseconds, so the
    ``analytic`` and ``scalar`` tiers are accepted (and hashed) but change
    nothing here.  The architectures and energy model default to the
    paper's unless a library caller passes them as extras.
    """
    extras = ctx.extras

    def simulate(workload: tuple[ModelSpec, dict[str, LayerDensities]]):
        spec, densities = workload
        return compare_workload(
            spec,
            densities,
            sparse_config=extras.get("sparse_config"),
            baseline_config=extras.get("baseline_config"),
            energy_model=extras.get("energy_model"),
        )

    return ctx.runner.map(simulate, ctx["compile"])


def workload_payload(result_workloads: list[WorkloadResult]) -> dict[str, dict[str, float]]:
    """JSON-native per-workload metrics shared by the fig8/fig9 payloads."""
    return {
        w.workload_name: {
            "speedup": float(w.speedup),
            "energy_efficiency": float(w.energy_efficiency),
            "latency_us": float(w.comparison.sparsetrain.latency_us),
            "baseline_latency_us": float(w.comparison.baseline.latency_us),
            "energy_uj": float(w.comparison.sparsetrain.energy_uj),
            "baseline_energy_uj": float(w.comparison.baseline.energy_uj),
        }
        for w in result_workloads
    }


def _fig8_report_stage(ctx: PipelineContext) -> ExperimentReport:
    result = Fig8Result(workloads=list(ctx["simulate"]))
    payload = {
        "workloads": workload_payload(result.workloads),
        "mean_speedup": result.mean_speedup,
        "max_speedup": result.max_speedup,
    }
    return ExperimentReport(payload=payload, summary=result.format(), native=result)


@register_experiment(
    "fig8",
    description="Fig. 8 — per-sample training latency and speedup vs the dense baseline",
    category="paper-figures",
    supports_fidelity=True,
)
def build_fig8_pipeline(request: ExperimentRequest) -> Pipeline:
    return Pipeline(
        "fig8",
        [
            Stage("train", train_stage, "measure per-family operand densities"),
            Stage("profile", profile_stage, "map densities onto full-size specs"),
            Stage("compile", compile_stage, "lower workloads into simulation jobs"),
            Stage("simulate", simulate_stage, "SparseTrain vs dense baseline"),
            Stage("report", _fig8_report_stage, "latency/speedup tables"),
        ],
    )


def run_fig8(
    workloads: tuple[tuple[str, str], ...] = QUICK_FIG8_WORKLOADS,
    pruning_rate: float = 0.9,
    scale: ExperimentScale | None = None,
    sparse_config: ArchConfig | None = None,
    baseline_config: ArchConfig | None = None,
    energy_model: EnergyModel | None = None,
    measured: dict[str, MeasuredDensities] | None = None,
    options: RunOptions = RunOptions(use_cache=False),
) -> Fig8Result:
    """Regenerate the Fig. 8 latency/speedup comparison.

    A thin wrapper over the registered ``fig8`` experiment pipeline.
    ``measured`` can be passed to reuse density measurements across calls
    (e.g. Fig. 9 reuses Fig. 8's measurements); otherwise one reduced model
    per family is trained and profiled by the ``train`` stage, memoized on
    disk when ``options`` enables the cache (off by default).
    """
    request = ExperimentRequest(
        experiment="fig8",
        workloads=tuple(workloads),
        pruning_rate=pruning_rate,
        scale=scale,
    )
    result = get_experiment("fig8").run(
        request,
        options=options,
        extras={
            "measured": measured,
            "sparse_config": sparse_config,
            "baseline_config": baseline_config,
            "energy_model": energy_model,
        },
    )
    return result.native
