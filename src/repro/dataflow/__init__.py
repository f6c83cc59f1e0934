"""The 1-D convolution sparse training dataflow (the paper's Section IV)."""

from repro.dataflow.compiler import (
    compile_training_iteration,
    training_instructions,
    uniform_densities,
)
from repro.dataflow.compressed import (
    CompressedFeatureMap,
    CompressedRow,
    compress_feature_map,
    compression_ratio,
)
from repro.dataflow.counts import (
    LayerDensities,
    StepCounts,
    StepKind,
    forward_counts,
    gta_counts,
    gtw_counts,
    layer_counts,
    total_macs,
    total_processed,
)
from repro.dataflow.decompose import (
    accumulate_forward,
    accumulate_gta,
    accumulate_gtw,
    decompose_forward,
    decompose_gta,
    decompose_gtw,
)
from repro.dataflow.instructions import (
    Instruction,
    InstructionKind,
    LoadWeightsInstruction,
    Program,
    StepInstruction,
    StoreOutputInstruction,
    SyncInstruction,
)
from repro.dataflow.ops import MSRCOp, OpType, OSRCOp, RowOp, SRCOp
from repro.dataflow.reference import (
    bias_gradient_by_rows,
    forward_by_rows,
    gta_by_rows,
    gtw_by_rows,
    row_convolution,
)

__all__ = [
    "CompressedRow",
    "CompressedFeatureMap",
    "compress_feature_map",
    "compression_ratio",
    "OpType",
    "SRCOp",
    "MSRCOp",
    "OSRCOp",
    "RowOp",
    "decompose_forward",
    "decompose_gta",
    "decompose_gtw",
    "accumulate_forward",
    "accumulate_gta",
    "accumulate_gtw",
    "forward_by_rows",
    "gta_by_rows",
    "gtw_by_rows",
    "bias_gradient_by_rows",
    "row_convolution",
    "LayerDensities",
    "StepCounts",
    "StepKind",
    "forward_counts",
    "gta_counts",
    "gtw_counts",
    "layer_counts",
    "total_macs",
    "total_processed",
    "Program",
    "Instruction",
    "InstructionKind",
    "StepInstruction",
    "LoadWeightsInstruction",
    "StoreOutputInstruction",
    "SyncInstruction",
    "compile_training_iteration",
    "training_instructions",
    "uniform_densities",
]
