"""Closed-form operation and traffic counts for the sparse training dataflow.

The PE model in :mod:`repro.arch.pe` counts cycles by executing row
operations one operand at a time.  It is the executable specification of the
dataflow, exact but far too slow for full-size AlexNet/ResNet layers, so only
the tests and the dataflow walkthrough run it.  This module provides the
layer-level expected-value counterparts: given a
:class:`~repro.models.spec.ConvLayerSpec` and the operand densities of the
layer, it computes how many row operations, processed operands, MACs, register
accesses and buffer words each of the three training steps needs.  The
architecture simulator turns these into cycles and energy, and every paper
figure, sweep and serve job is costed this way.

These are the only count formulas in the repository.  Every one is plain
arithmetic on the attributes it reads, so it evaluates element-wise on two
kinds of densities for one :class:`~repro.models.spec.ConvLayerSpec`: one
:class:`LayerDensities` (Python numbers — the simulator's instruction-stream
walk), or a :class:`~repro.analytic.model.DensityGrid`, whose fields carry the
same names as ``(points, 1)`` numpy columns (the analytic tier).  Branches are
taken only on the ``sparse`` flag, which both callers pass as a Python bool;
per-layer choices are arithmetic selections.

All formulas are per *sample*; batching is a pure multiplier handled by the
caller.  The same formulas with all densities forced to 1.0 and compression
disabled describe the dense baseline, so SparseTrain-vs-baseline comparisons
use one code path and differ only in the inputs — exactly the experimental
control the paper applies.

Grouped/depthwise convolutions are first-class: every per-channel product in
the row-operation counts uses the *group* fan-in/fan-out
(:attr:`~repro.models.spec.ConvLayerSpec.group_in_channels` /
``group_out_channels``) rather than the full channel counts, so MAC, operand
and weight accounting stays exact for MobileNet-style layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.models.spec import ConvLayerSpec
from repro.utils.validation import check_probability


class StepKind(Enum):
    """The three accelerated stages of CNN training."""

    FORWARD = "forward"
    GTA = "gta"
    GTW = "gtw"


@dataclass(frozen=True)
class LayerDensities:
    """Operand densities of one convolution layer during training.

    Attributes
    ----------
    input_density:
        Density of the input activations ``I`` (natural sparsity from the
        preceding ReLU/MaxPool; 1.0 for the first layer).
    grad_output_density:
        Density of the output activation gradients ``dO`` as seen by the
        accelerator — i.e. *after* gradient pruning when pruning is enabled.
    mask_density:
        Density of the forward ReLU mask over the layer's input positions;
        this is the fraction of ``dI`` values the GTA step actually has to
        produce (MSRC output skipping).
    grad_input_density:
        Density of the propagated gradient ``dI`` after masking/pruning, which
        determines how many words the PPU writes back in compressed form.
    output_density:
        Density of the output activations ``O`` after the following
        ReLU/MaxPool, which determines the compressed write-back volume of the
        Forward step.
    """

    input_density: float = 1.0
    grad_output_density: float = 1.0
    mask_density: float = 1.0
    grad_input_density: float = 1.0
    output_density: float = 1.0

    def __post_init__(self) -> None:
        for field_name in (
            "input_density",
            "grad_output_density",
            "mask_density",
            "grad_input_density",
            "output_density",
        ):
            check_probability(getattr(self, field_name), field_name)

    @classmethod
    def dense(cls) -> "LayerDensities":
        """All-dense densities (the baseline's view of every layer).

        One shared instance (the class is frozen): the compiler and the
        simulator ask for it once per step of every dense layer.
        """
        return _ALL_DENSE


_ALL_DENSE = LayerDensities()


@dataclass(frozen=True)
class StepCounts:
    """Expected event counts of one training step of one layer (per sample).

    ``processed_operands`` is the number of operand values a PE actually
    consumes (one per cycle in the PE model); ``weight_loads`` is the number
    of kernel-row words loaded into Reg-1.  Evaluated on numpy columns, every
    count is a column broadcastable to ``(points, 1)``.
    """

    step: StepKind
    row_ops: int
    processed_operands: float
    macs: float
    weight_loads: float
    reg_accesses: float
    sram_read_words: float
    sram_write_words: float
    dram_read_words: float
    dram_write_words: float

    @property
    def sram_words(self) -> float:
        return self.sram_read_words + self.sram_write_words

    @property
    def dram_words(self) -> float:
        return self.dram_read_words + self.dram_write_words


# Offsets are packed two per word in the compressed format (16-bit datapath).
OFFSET_PACKING = 2.0


def compressed_words(values):
    """Buffer words for ``values`` non-zero values in compressed format."""
    return values * (1.0 + 1.0 / OFFSET_PACKING)


def skip_factor(density, kernel: int):
    """Probability that at least one of ``kernel`` aligned positions is live.

    ``(1 - density) ** kernel`` is multiplied out left to right: numpy's
    ``pow`` and libm's can differ in the last ulp, a product cannot, so a
    Python float and a numpy column get bit-identical factors.
    """
    all_zero = 1.0
    for _ in range(kernel):
        all_zero = all_zero * (1.0 - density)
    return 1.0 - all_zero


def forward_counts(
    layer: ConvLayerSpec, densities: LayerDensities, sparse: bool = True
) -> StepCounts:
    """Event counts of the Forward step (SRC operations).

    Grouped convolutions: each output channel accumulates over only the
    ``in_channels / groups`` input channels of its group, so the row-operation
    count (and with it MACs, weight loads and operand traffic) uses
    ``layer.group_in_channels`` instead of the full channel fan-in.  With
    ``groups == 1`` the formulas reduce to the standard dense accounting.
    """
    kernel = layer.kernel
    # A dense PE streams the whole padded input row; a sparse PE only sees the
    # non-zero values, and the padding columns are always zero, so its operand
    # count scales with the *unpadded* row length.
    padded_width = layer.in_width + 2 * layer.padding
    row_ops = layer.out_channels * layer.out_height * layer.group_in_channels * kernel

    d_in = densities.input_density if sparse else 1.0
    d_out = densities.output_density if sparse else 1.0

    processed_per_op = (layer.in_width * d_in) if sparse else padded_width
    processed = row_ops * processed_per_op
    macs = processed * kernel
    weight_loads = row_ops * kernel

    input_read_words = (
        row_ops * compressed_words(processed_per_op) if sparse else row_ops * padded_width
    )
    weight_read_words = weight_loads
    psum_write_words = layer.out_channels * layer.out_height * layer.out_width
    output_write_words = (
        compressed_words(layer.output_size * d_out) if sparse else layer.output_size
    )
    reg_accesses = 2.0 * macs + processed

    # Weight DRAM traffic is carried by the LoadWeights instruction the
    # compiler emits, so only operand traffic is counted here.
    dram_read = compressed_words(layer.input_size * d_in) if sparse else layer.input_size
    dram_write = output_write_words

    return StepCounts(
        step=StepKind.FORWARD,
        row_ops=row_ops,
        processed_operands=processed,
        macs=macs,
        weight_loads=weight_loads,
        reg_accesses=reg_accesses,
        sram_read_words=input_read_words + weight_read_words,
        sram_write_words=psum_write_words + output_write_words,
        dram_read_words=dram_read,
        dram_write_words=dram_write,
    )


def gta_counts(
    layer: ConvLayerSpec, densities: LayerDensities, sparse: bool = True
) -> StepCounts:
    """Event counts of the GTA step (MSRC operations).

    Grouped convolutions: each input channel receives gradient contributions
    from only the ``out_channels / groups`` output channels of its group
    (``layer.group_out_channels``), mirroring the grouped Forward accounting.

    Mask skipping only exists behind a ReLU: ``layer.has_relu_mask`` selects
    the mask density or 1.0 by arithmetic, and gates the mask read traffic
    the same way.
    """
    kernel = layer.kernel
    row_ops = layer.in_channels * layer.in_height * layer.group_out_channels * kernel

    relu = layer.has_relu_mask
    d_grad = densities.grad_output_density if sparse else 1.0
    d_mask = relu * densities.mask_density + (1 - relu) * 1.0 if sparse else 1.0
    d_dI = densities.grad_input_density if sparse else 1.0

    grad_row_nnz = layer.out_width * d_grad
    processed_per_op = grad_row_nnz * skip_factor(d_mask, kernel)
    processed = row_ops * processed_per_op
    macs = row_ops * grad_row_nnz * kernel * d_mask
    weight_loads = row_ops * kernel

    grad_read_words = (
        row_ops * compressed_words(grad_row_nnz) if sparse else row_ops * layer.out_width
    )
    mask_read_words = (
        relu * row_ops * (layer.in_width * d_mask) / OFFSET_PACKING if sparse else 0.0
    )
    weight_read_words = weight_loads
    psum_write_words = layer.in_channels * layer.in_height * layer.in_width
    grad_input_write_words = (
        compressed_words(layer.input_size * d_dI) if sparse else layer.input_size
    )
    reg_accesses = 2.0 * macs + processed

    # Weight DRAM traffic is carried by the LoadWeights instruction.
    dram_read = (
        compressed_words(layer.output_size * d_grad) if sparse else layer.output_size
    )
    dram_write = grad_input_write_words

    return StepCounts(
        step=StepKind.GTA,
        row_ops=row_ops,
        processed_operands=processed,
        macs=macs,
        weight_loads=weight_loads,
        reg_accesses=reg_accesses,
        sram_read_words=grad_read_words + mask_read_words + weight_read_words,
        sram_write_words=psum_write_words + grad_input_write_words,
        dram_read_words=dram_read,
        dram_write_words=dram_write,
    )


def gtw_counts(
    layer: ConvLayerSpec, densities: LayerDensities, sparse: bool = True
) -> StepCounts:
    """Event counts of the GTW step (OSRC operations).

    Grouped convolutions: the weight-gradient tensor only has
    ``in_channels / groups`` channel slices per output channel, so the
    (f, c, kr) enumeration — and the weight write-back volume via
    ``layer.weight_count`` — shrinks by the group factor.
    """
    kernel = layer.kernel
    padded_width = layer.in_width + 2 * layer.padding
    row_ops = layer.out_channels * layer.group_in_channels * kernel * layer.out_height

    d_in = densities.input_density if sparse else 1.0
    d_grad = densities.grad_output_density if sparse else 1.0

    input_row_length = layer.in_width if sparse else padded_width
    processed_per_op = input_row_length * d_in * skip_factor(d_grad, kernel)
    processed = row_ops * processed_per_op
    macs = row_ops * input_row_length * d_in * kernel * d_grad
    # OSRC caches dO values in Reg-1 instead of a weight row; count those loads
    # as the gradient-row fetch below, so no separate kernel-row load.
    weight_loads = 0.0

    input_read_words = (
        row_ops * compressed_words(input_row_length * d_in)
        if sparse
        else row_ops * padded_width
    )
    grad_read_words = (
        row_ops * compressed_words(layer.out_width * d_grad)
        if sparse
        else row_ops * layer.out_width
    )
    weight_grad_write_words = layer.weight_count
    reg_accesses = 2.0 * macs + processed

    dram_read = (
        compressed_words(layer.input_size * d_in) + compressed_words(layer.output_size * d_grad)
        if sparse
        else layer.input_size + layer.output_size
    )
    dram_write = layer.weight_count

    return StepCounts(
        step=StepKind.GTW,
        row_ops=row_ops,
        processed_operands=processed,
        macs=macs,
        weight_loads=weight_loads,
        reg_accesses=reg_accesses,
        sram_read_words=input_read_words + grad_read_words,
        sram_write_words=weight_grad_write_words,
        dram_read_words=dram_read,
        dram_write_words=dram_write,
    )


#: The count formula of each training step, in program order.
STEP_COUNTS = {
    StepKind.FORWARD: forward_counts,
    StepKind.GTA: gta_counts,
    StepKind.GTW: gtw_counts,
}


def layer_counts(
    layer: ConvLayerSpec, densities: LayerDensities, sparse: bool = True
) -> dict[StepKind, StepCounts]:
    """All three training steps of one layer (Python numbers or columns)."""
    return {kind: counts(layer, densities, sparse) for kind, counts in STEP_COUNTS.items()}


def total_macs(counts: dict[StepKind, StepCounts]) -> float:
    """Total MACs across the three steps."""
    return sum(step.macs for step in counts.values())


def total_processed(counts: dict[StepKind, StepCounts]) -> float:
    """Total processed operands (the cycle-determining quantity)."""
    return sum(step.processed_operands for step in counts.values())
