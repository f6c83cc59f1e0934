"""Experiment E-T1 — reproduce Table I (sparsity class of training data types).

The paper's Table I asserts which of the six tensors involved in training a
CONV layer are dense and which are sparse:

=========  ======
W, dW, dI, O   dense
I, dO          sparse
=========  ======

with the caveat (Section IV-A) that for batch-normalised networks ``dO`` is
only sparse *because* the gradient-pruning algorithm makes it so.  This
harness therefore measures the densities during a real (reduced) training run
— with pruning enabled, as the paper assumes — and derives the classification,
verifying the claim rather than restating it:

* ``W``  — convolution weights (read from the model parameters),
* ``dW`` — weight gradients (read after a backward pass),
* ``I``  — input activations of CONV layers (profiler forward hooks),
* ``dI`` — gradients to input activations (profiler gradient-input hooks),
* ``O``  — output activations of CONV layers before the non-linearity,
* ``dO`` — gradients to output activations (profiler gradient-output hooks).
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
from repro.eval.common import (
    ExperimentScale,
    build_reduced_model,
    reduced_learning_rate,
    synthetic_dataset_for,
    training_rng,
)
from repro.nn.optim import SGD
from repro.nn.trainer import Trainer
from repro.pruning.config import PruningConfig
from repro.pruning.controller import PruningController
from repro.sparsity.profiler import SparsityProfiler, iter_convs
from repro.sparsity.stats import density
from repro.sparsity.summary import DataTypeSparsity, format_table, summarize_data_types


@dataclass(frozen=True)
class Table1Result:
    """Measured Table I for one model."""

    model: str
    pruning_rate: float
    rows: tuple[DataTypeSparsity, ...]

    def matches_paper(self) -> bool:
        """True when every measured classification agrees with the paper."""
        return all(row.matches_paper for row in self.rows)

    def row(self, symbol: str) -> DataTypeSparsity:
        """Look up one data-type row by its symbol (W, dW, I, dI, O, dO)."""
        for entry in self.rows:
            if entry.symbol == symbol:
                return entry
        raise KeyError(f"no Table I row with symbol {symbol!r}")

    def format(self) -> str:
        return (
            f"Table I — {self.model} (pruning p={self.pruning_rate:.0%})\n"
            + format_table(list(self.rows))
        )


# ---------------------------------------------------------------------------
# The table1 pipeline: train -> profile -> report
# ---------------------------------------------------------------------------

def _model_name(request: ExperimentRequest) -> str:
    if request.workloads:
        return request.workloads[0][0]
    return request.param("model", "ResNet-18")


def _train_stage(ctx: PipelineContext) -> dict:
    """``train`` — train the reduced model with pruning and profiling hooks."""
    request = ctx.request
    model_name = _model_name(request)
    scale = request.scale
    train, _ = synthetic_dataset_for("CIFAR-10", scale)
    model = build_reduced_model(model_name, train.num_classes, scale)

    callbacks = []
    if request.pruning_rate > 0.0:
        controller = PruningController(
            model, PruningConfig(target_sparsity=request.pruning_rate, fifo_depth=3)
        )
        callbacks.append(controller)
    profiler = SparsityProfiler(model)
    callbacks.append(profiler)

    # Record the density of conv outputs (pre-ReLU) via extra forward hooks.
    output_densities: list[float] = []
    for conv in iter_convs(model):
        def output_hook(layer, x, out, _sink=output_densities):
            _sink.append(density(out))

        conv.register_forward_hook(output_hook)

    trainer = Trainer(
        model,
        SGD(model.parameters(), lr=reduced_learning_rate(model_name), momentum=0.9),
        callbacks=callbacks,
    )
    trainer.fit(
        train.images,
        train.labels,
        epochs=scale.epochs,
        batch_size=scale.batch_size,
        shuffle_rng=training_rng(scale, "table1", model_name),
    )
    return {
        "model": model,
        "profiler": profiler,
        "output_densities": output_densities,
    }


def _profile_stage(ctx: PipelineContext) -> tuple[DataTypeSparsity, ...]:
    """``profile`` — derive the six data-type densities and classify them."""
    trained = ctx["train"]
    model, profiler = trained["model"], trained["profiler"]
    output_densities = trained["output_densities"]

    convs = list(iter_convs(model))
    weight_density = float(np.mean([density(conv.weight.data) for conv in convs]))
    weight_grad_density = float(
        np.mean([density(conv.weight.grad) for conv in convs if conv.weight.grad is not None])
    )
    means = profiler.mean_densities()
    # Exclude the first conv layer: its input is the raw (dense) image, which
    # Table I does not treat as representative of CONV-layer inputs.
    inner = profiler.layer_names()[1:] or profiler.layer_names()
    input_density = float(np.mean([means[name]["input"] for name in inner]))
    grad_input_density = float(
        np.mean([means[name]["grad_input"] for name in profiler.layer_names()])
    )
    grad_output_density = float(
        np.mean([means[name]["grad_output"] for name in profiler.layer_names()])
    )
    output_density = float(np.mean(output_densities)) if output_densities else 1.0

    return tuple(
        summarize_data_types(
            weight_density=weight_density,
            weight_grad_density=weight_grad_density,
            input_density=input_density,
            grad_input_density=grad_input_density,
            output_density=output_density,
            grad_output_density=grad_output_density,
        )
    )


def _report_stage(ctx: PipelineContext) -> ExperimentReport:
    request = ctx.request
    result = Table1Result(
        model=_model_name(request),
        pruning_rate=request.pruning_rate,
        rows=ctx["profile"],
    )
    payload = {
        "model": result.model,
        "pruning_rate": result.pruning_rate,
        "matches_paper": result.matches_paper(),
        "rows": [asdict(row) for row in result.rows],
    }
    return ExperimentReport(payload=payload, summary=result.format(), native=result)


@register_experiment(
    "table1",
    description="Table I — measured sparsity class of the six training data types",
    category="paper-tables",
)
def build_table1_pipeline(request: ExperimentRequest) -> Pipeline:
    return Pipeline(
        "table1",
        [
            Stage("train", _train_stage, "train the reduced model with hooks"),
            Stage("profile", _profile_stage, "summarize data-type densities"),
            Stage("report", _report_stage, "Table I classification"),
        ],
    )


def run_table1(
    model_name: str = "ResNet-18",
    pruning_rate: float = 0.9,
    scale: ExperimentScale | None = None,
) -> Table1Result:
    """Measure the Table I sparsity summary for one (reduced) model.

    A thin wrapper over the registered ``table1`` experiment pipeline.  The
    default configuration is a reduced ResNet-18 with pruning at p = 90%,
    the representative Conv-BN-ReLU case; pass ``pruning_rate=0.0`` to observe
    natural sparsity only.
    """
    request = ExperimentRequest(
        experiment="table1",
        pruning_rate=pruning_rate,
        scale=scale,
        params={"model": model_name},
    )
    return get_experiment("table1").run(request).native
