"""Compiler from model specifications to accelerator instruction streams.

``training_instructions`` lowers a :class:`~repro.models.spec.ModelSpec` into
the instruction order a training iteration executes on the accelerator, one
instruction at a time, and ``compile_training_iteration`` collects that
stream into a :class:`~repro.dataflow.instructions.Program`:

1. Forward pass, first conv layer to last (SRC steps);
2. Backward pass, last conv layer to first — for every layer the GTA step
   (MSRC) followed by the GTW step (OSRC), matching the paper's Fig. 2 where
   ``dO`` of a layer feeds both products.

Per-layer operand densities come from a ``densities`` mapping (measured by the
sparsity profiler or constructed analytically); layers missing from the map
fall back to fully dense operands.  A map value may also be a
:class:`~repro.analytic.model.DensityGrid` of numpy columns: the count
formulas then yield column counts, which is how the column evaluator costs a
whole design grid with one pass over the stream.  Compiling with
``sparse=False`` produces the dense-baseline programme: identical structure,
densities forced to 1.0 and no compression.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.dataflow.counts import STEP_COUNTS, LayerDensities, StepKind
from repro.dataflow.instructions import (
    Instruction,
    LoadWeightsInstruction,
    Program,
    StepInstruction,
    StoreOutputInstruction,
    SyncInstruction,
)
from repro.models.spec import ConvLayerSpec, ModelSpec

DensityMap = Mapping[str, LayerDensities]


def _densities_for(layer: ConvLayerSpec, densities: DensityMap | None) -> LayerDensities:
    if densities is None:
        return LayerDensities.dense()
    return densities.get(layer.name, LayerDensities.dense())


def training_instructions(
    spec: ModelSpec, densities: DensityMap | None = None, sparse: bool = True
) -> Iterator[Instruction]:
    """Yield one training iteration's instructions (one sample), in order.

    Each step's counts are computed only when its instruction is produced
    and are not held once its output store has been consumed, so a consumer
    that costs the stream as it goes holds one step at a time — the column
    evaluator relies on this, since on numpy columns every count is a
    column.
    """
    # Forward pass: input layer to output layer.
    for layer in spec.conv_layers:
        yield LoadWeightsInstruction(layer.name, layer.weight_count)
        yield from _step(layer, StepKind.FORWARD, densities, sparse)
        yield SyncInstruction(f"{layer.name}/forward")

    # Backward pass: output layer back to input layer; GTA then GTW per layer.
    for layer in reversed(spec.conv_layers):
        yield LoadWeightsInstruction(layer.name, layer.weight_count)
        yield from _step(layer, StepKind.GTA, densities, sparse)
        yield from _step(layer, StepKind.GTW, densities, sparse)
        yield SyncInstruction(f"{layer.name}/backward")


def _step(
    layer: ConvLayerSpec, kind: StepKind, densities: DensityMap | None, sparse: bool
) -> Iterator[Instruction]:
    """One step of one layer and the store of its output."""
    counts = STEP_COUNTS[kind](layer, _densities_for(layer, densities), sparse)
    yield StepInstruction(layer.name, kind, layer, counts)
    yield StoreOutputInstruction(layer.name, counts.dram_write_words)


def compile_training_iteration(
    spec: ModelSpec, densities: DensityMap | None = None, sparse: bool = True
) -> Program:
    """Compile a full training iteration (Forward + GTA + GTW) for one sample."""
    return Program(
        model_name=spec.name,
        dataset=spec.dataset,
        sparse=sparse,
        instructions=list(training_instructions(spec, densities, sparse)),
    )


def uniform_densities(
    spec: ModelSpec,
    input_density: float = 1.0,
    grad_output_density: float = 1.0,
    mask_density: float = 1.0,
    grad_input_density: float = 1.0,
    output_density: float = 1.0,
    dense_first_layer_input: bool = True,
) -> dict[str, LayerDensities]:
    """Build a density map applying the same densities to every conv layer.

    The first convolution of a network reads the raw image, which is dense;
    ``dense_first_layer_input`` keeps its input density at 1.0 (the paper's
    AlexNet conv1 behaves the same way).
    """
    densities: dict[str, LayerDensities] = {}
    for index, layer in enumerate(spec.conv_layers):
        layer_input_density = input_density
        if index == 0 and dense_first_layer_input:
            layer_input_density = 1.0
        densities[layer.name] = LayerDensities(
            input_density=layer_input_density,
            grad_output_density=grad_output_density,
            mask_density=mask_density,
            grad_input_density=grad_input_density,
            output_density=output_density,
        )
    return densities
