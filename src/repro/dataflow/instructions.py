"""Instruction stream driving the architecture simulator.

The paper drives its cycle-accurate simulator with "internal instructions"
produced by a small Python compiler from the PyTorch model.  We mirror that
split: :mod:`repro.dataflow.compiler` lowers a :class:`ModelSpec` plus
per-layer densities into the instruction types defined here, and
:class:`repro.arch.accelerator.AcceleratorSimulator` executes them.

Granularity: one :class:`StepInstruction` per (layer, training step), wrapped
by weight-load and output-store instructions that carry the DRAM traffic the
step implies.  This is the right granularity for the layer-level performance
model; the PE-level model consumes raw row operations instead.  The compiler
produces the stream one instruction at a time and the simulator costs it as
it arrives; a :class:`Program` is that stream collected into a list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.dataflow.counts import StepCounts, StepKind
from repro.models.spec import ConvLayerSpec


class InstructionKind(Enum):
    """Instruction opcodes understood by the accelerator simulator."""

    LOAD_WEIGHTS = "load_weights"
    PROCESS_STEP = "process_step"
    STORE_OUTPUT = "store_output"
    SYNC = "sync"


@dataclass(frozen=True)
class LoadWeightsInstruction:
    """Bring a layer's weights (or a tile of them) from DRAM into the buffer."""

    layer_name: str
    words: int
    kind: InstructionKind = InstructionKind.LOAD_WEIGHTS


@dataclass(frozen=True)
class StepInstruction:
    """Execute one training step of one layer on the PE array."""

    layer_name: str
    step: StepKind
    layer: ConvLayerSpec
    counts: StepCounts
    kind: InstructionKind = InstructionKind.PROCESS_STEP


@dataclass(frozen=True)
class StoreOutputInstruction:
    """Write a layer's results (activations/gradients) back to DRAM."""

    layer_name: str
    words: float
    kind: InstructionKind = InstructionKind.STORE_OUTPUT


@dataclass(frozen=True)
class SyncInstruction:
    """Barrier between layers (PE array drain / controller bookkeeping)."""

    label: str
    kind: InstructionKind = InstructionKind.SYNC


Instruction = (
    LoadWeightsInstruction | StepInstruction | StoreOutputInstruction | SyncInstruction
)


@dataclass
class Program:
    """An ordered instruction stream for one training iteration of one sample."""

    model_name: str
    dataset: str
    sparse: bool
    instructions: list[Instruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    def step_instructions(self) -> list[StepInstruction]:
        """Only the PROCESS_STEP instructions, in program order."""
        return [inst for inst in self.instructions if isinstance(inst, StepInstruction)]

    def instructions_for_layer(self, layer_name: str) -> list[Instruction]:
        """All instructions touching the given layer."""
        return [
            inst
            for inst in self.instructions
            if getattr(inst, "layer_name", None) == layer_name
        ]

    def total_macs(self) -> float:
        """Total expected MACs of the programme (all steps, all layers)."""
        return sum(inst.counts.macs for inst in self.step_instructions())

    def describe(self) -> str:
        """Short human-readable summary."""
        steps = self.step_instructions()
        return (
            f"Program({self.model_name}/{self.dataset}, "
            f"{'sparse' if self.sparse else 'dense'}, "
            f"{len(self.instructions)} instructions, {len(steps)} steps, "
            f"{self.total_macs() / 1e9:.3f} GMAC)"
        )
