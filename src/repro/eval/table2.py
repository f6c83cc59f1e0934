"""Experiment E-T2 — reproduce Table II (accuracy and gradient density vs p).

The paper trains AlexNet and ResNet-18/34/152 on CIFAR-10/100 and ImageNet at
pruning rates p in {70, 80, 90, 99}% and reports, per configuration, the final
accuracy and the non-zero density of the output activation gradients
(``rho_nnz``).  The claims the table supports:

1. accuracy is essentially unchanged up to p = 90% (and often at 99%),
2. the gradient density drops by roughly 3-10x,
3. deeper networks end up with lower gradient density.

This harness reproduces the table's *shape* on reduced models and synthetic
datasets: every (model, dataset) row is trained once per pruning rate with
identical seeds and hyper-parameters, and accuracy plus measured ``rho_nnz``
are reported.  Absolute accuracies differ from the paper (different task);
what must hold is the relation between the pruned rows and the unpruned
baseline row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.eval.common import (
    ExperimentScale,
    build_reduced_model,
    reduced_learning_rate,
    synthetic_dataset_for,
    training_rng,
)
from repro.nn.optim import SGD
from repro.nn.trainer import Trainer, TrainingHistory
from repro.pruning.config import PruningConfig
from repro.pruning.controller import PruningController
from repro.sparsity.profiler import SparsityProfiler

# Pruning rates evaluated in the paper's Table II (None = unpruned baseline).
PAPER_PRUNING_RATES: tuple[float | None, ...] = (None, 0.7, 0.8, 0.9, 0.99)


@dataclass(frozen=True)
class Table2Cell:
    """One (model, dataset, pruning rate) measurement."""

    model: str
    dataset: str
    pruning_rate: float | None
    accuracy: float
    train_accuracy: float
    grad_density: float
    history: TrainingHistory

    @property
    def is_baseline(self) -> bool:
        return self.pruning_rate is None


@dataclass
class Table2Result:
    """All measurements of the Table II reproduction."""

    cells: list[Table2Cell] = field(default_factory=list)

    def rows(self) -> list[tuple[str, str]]:
        """Distinct (model, dataset) pairs in insertion order."""
        seen: list[tuple[str, str]] = []
        for cell in self.cells:
            key = (cell.model, cell.dataset)
            if key not in seen:
                seen.append(key)
        return seen

    def cell(self, model: str, dataset: str, pruning_rate: float | None) -> Table2Cell:
        for entry in self.cells:
            if (
                entry.model == model
                and entry.dataset == dataset
                and entry.pruning_rate == pruning_rate
            ):
                return entry
        raise KeyError(f"no cell for ({model}, {dataset}, p={pruning_rate})")

    def baseline(self, model: str, dataset: str) -> Table2Cell:
        return self.cell(model, dataset, None)

    def max_accuracy_drop(self, max_rate: float = 0.9) -> float:
        """Largest accuracy drop vs the baseline over rates <= ``max_rate``."""
        worst = 0.0
        for model, dataset in self.rows():
            base = self.baseline(model, dataset).accuracy
            for cell in self.cells:
                if (
                    cell.model == model
                    and cell.dataset == dataset
                    and cell.pruning_rate is not None
                    and cell.pruning_rate <= max_rate
                ):
                    worst = max(worst, base - cell.accuracy)
        return worst

    def format(self) -> str:
        """Render the table in the paper's layout (acc% and rho_nnz per p)."""
        rates = [r for r in PAPER_PRUNING_RATES if r is not None]
        header = f"{'Model':<14}{'Dataset':<12}{'Baseline':>16}"
        for rate in rates:
            header += f"{f'p={rate:.0%}':>16}"
        lines = [header, "-" * len(header)]
        for model, dataset in self.rows():
            try:
                base = self.baseline(model, dataset)
                base_text = f"{base.accuracy * 100:>8.2f}/{base.grad_density:>6.3f}"
            except KeyError:
                # Grids swept without an unpruned baseline row still format.
                base_text = f"{'--':>15}"
            line = f"{model:<14}{dataset:<12}{base_text}"
            for rate in rates:
                try:
                    cell = self.cell(model, dataset, rate)
                except KeyError:
                    line += f"{'--':>16}"
                    continue
                line += f"{cell.accuracy * 100:>8.2f}/{cell.grad_density:>6.3f}"
            lines.append(line)
        lines.append("-" * len(header))
        lines.append("Each cell is accuracy% / mean dO density (rho_nnz).")
        return "\n".join(lines)


def train_one_cell(
    model_name: str,
    dataset_name: str,
    pruning_rate: float | None,
    scale: ExperimentScale,
    fifo_depth: int = 5,
) -> Table2Cell:
    """Train one (model, dataset, pruning-rate) configuration and measure it."""
    train, test = synthetic_dataset_for(dataset_name, scale)
    model = build_reduced_model(model_name, train.num_classes, scale)

    callbacks = []
    if pruning_rate is not None:
        controller = PruningController(
            model,
            PruningConfig(target_sparsity=pruning_rate, fifo_depth=fifo_depth, seed=scale.seed),
        )
        callbacks.append(controller)
    profiler = SparsityProfiler(model)
    callbacks.append(profiler)

    trainer = Trainer(
        model,
        SGD(model.parameters(), lr=reduced_learning_rate(model_name), momentum=0.9, weight_decay=5e-4),
        callbacks=callbacks,
    )
    history = trainer.fit(
        train.images,
        train.labels,
        epochs=scale.epochs,
        batch_size=scale.batch_size,
        test_images=test.images,
        test_labels=test.labels,
        shuffle_rng=training_rng(scale, "table2", model_name, dataset_name, pruning_rate),
    )

    grad_densities = [
        trace["grad_output"] for trace in profiler.mean_densities().values()
    ]
    accuracy = history.best_test_accuracy
    return Table2Cell(
        model=model_name,
        dataset=dataset_name,
        pruning_rate=pruning_rate,
        accuracy=float(accuracy) if accuracy is not None else history.final_train_accuracy,
        train_accuracy=history.final_train_accuracy,
        grad_density=float(np.mean(grad_densities)) if grad_densities else 1.0,
        history=history,
    )


# ---------------------------------------------------------------------------
# The table2 pipeline: train -> report
# ---------------------------------------------------------------------------

def _train_cell_job(
    job: tuple[str, str, float | None, ExperimentScale],
) -> Table2Cell:
    """One cell of the grid, as a unit of work for ``ctx.runner.map``."""
    model_name, dataset_name, rate, scale = job
    return train_one_cell(model_name, dataset_name, rate, scale)


def _train_stage(ctx: PipelineContext) -> list[Table2Cell]:
    """``train`` — one training run per (model, dataset, pruning-rate) cell.

    Cells are mapped in process through the pipeline's Runner, one after
    another; every cell seeds its own training RNG, so a cell's numbers do
    not depend on the rest of the grid.
    """
    request = ctx.request
    models = request.param("models", ["AlexNet", "ResNet-18"])
    datasets = request.param("datasets", ["CIFAR-10"])
    rates = request.param("pruning_rates", list(PAPER_PRUNING_RATES))
    jobs = [
        (model_name, dataset_name, rate, request.scale)
        for model_name in models
        for dataset_name in datasets
        for rate in rates
    ]
    return ctx.runner.map(_train_cell_job, jobs)


def _report_stage(ctx: PipelineContext) -> ExperimentReport:
    result = Table2Result(cells=list(ctx["train"]))
    try:
        max_drop = result.max_accuracy_drop(0.9)
    except KeyError:
        # No unpruned baseline cells in this grid: the drop is undefined.
        max_drop = None
    payload = {
        "max_accuracy_drop_p90": max_drop,
        "cells": [
            {
                "model": cell.model,
                "dataset": cell.dataset,
                "pruning_rate": cell.pruning_rate,
                "accuracy": cell.accuracy,
                "train_accuracy": cell.train_accuracy,
                "grad_density": cell.grad_density,
            }
            for cell in result.cells
        ],
    }
    return ExperimentReport(payload=payload, summary=result.format(), native=result)


@register_experiment(
    "table2",
    description="Table II — accuracy and gradient density vs pruning rate p",
    category="paper-tables",
)
def build_table2_pipeline(request: ExperimentRequest) -> Pipeline:
    return Pipeline(
        "table2",
        [
            Stage("train", _train_stage, "train every grid cell"),
            Stage("report", _report_stage, "accuracy / rho_nnz table"),
        ],
    )


def run_table2(
    models: tuple[str, ...] = ("AlexNet", "ResNet-18"),
    datasets: tuple[str, ...] = ("CIFAR-10",),
    pruning_rates: tuple[float | None, ...] = PAPER_PRUNING_RATES,
    scale: ExperimentScale | None = None,
) -> Table2Result:
    """Run the Table II grid.

    A thin wrapper over the registered ``table2`` experiment pipeline.  The
    default grid (two models, one dataset, five pruning rates) is sized so
    the whole experiment runs in a couple of minutes; pass more models,
    datasets and :meth:`ExperimentScale.thorough` for a closer reproduction of
    the paper's 11-row table.
    """
    request = ExperimentRequest(
        experiment="table2",
        scale=scale,
        params={
            "models": list(models),
            "datasets": list(datasets),
            "pruning_rates": list(pruning_rates),
        },
    )
    return get_experiment("table2").run(request).native
