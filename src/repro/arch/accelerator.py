"""Layer-level accelerator simulator.

``AcceleratorSimulator`` executes the instruction stream produced by the
dataflow compiler and turns the expected event counts of every (layer, step)
into cycles and energy.  The model is deliberately explicit:

* **Compute cycles** — processed operands divided by the array's sustained
  operand rate (``num_pes * pe_utilization``; each PE consumes one operand per
  cycle and performs K MACs on it), plus the kernel-row reload overhead and a
  fixed per-step controller/drain cost.
* **DRAM cycles** — the step's operand traffic, the weight tile traffic and
  the step's output store, divided by the DRAM bandwidth.  Transfers are
  double-buffered, so a step's latency is ``max(compute, dram)``, not the sum.
* **Energy** — counted events (MACs, register accesses, SRAM words, DRAM
  words, elapsed cycles for leakage) multiplied by the per-event costs of the
  :class:`~repro.arch.energy.EnergyModel`.

There is one step loop, :meth:`AcceleratorSimulator.run_instructions`: it
costs a stream of compiled instructions and yields one
:class:`~repro.arch.results.StepResult` per (layer, step).  On one point's
Python floats it is the instruction-stream walk, which
:meth:`~AcceleratorSimulator.run_program` collects into a
:class:`~repro.arch.results.SimulationResult`; on the numpy columns of
:mod:`repro.analytic.model` (``ArchGrid``, ``EnergyGrid``, ``DensityGrid``)
it costs a whole design grid at once.  The machine model below is plain
arithmetic on the attributes it reads; only :func:`step_cycles` differs by
type (``max`` vs ``np.maximum``).

Running the same simulator on a program compiled with ``sparse=False`` and a
:func:`~repro.arch.config.dense_baseline_config` models the Eyeriss-like dense
training baseline with matched resources — the comparison the paper's Fig. 8
and Fig. 9 make.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.arch.buffer import weight_tiling_factor
from repro.arch.config import ArchConfig
from repro.arch.energy import (
    EnergyModel,
    EventCounts,
    default_energy_model,
    energy_from_events,
)
from repro.arch.results import SimulationResult, StepResult
from repro.dataflow.counts import LayerDensities, StepCounts, StepKind
from repro.dataflow.instructions import (
    Instruction,
    LoadWeightsInstruction,
    Program,
    StepInstruction,
    StoreOutputInstruction,
)


# ----------------------------------------------------------------------
# Per-step machine model
# ----------------------------------------------------------------------

def compute_cycles(counts: StepCounts, config: ArchConfig) -> float:
    """Cycles the PE array needs for one step (no DRAM stalls)."""
    operand_rate = config.num_pes * config.pe_utilization
    work = counts.processed_operands / operand_rate
    weight_reload = counts.weight_loads * config.weight_reload_overhead / config.num_pes
    return work + weight_reload + config.sync_cycles_per_layer


def weight_dram_words(load_words, tiling, config: ArchConfig) -> float:
    """Per-sample DRAM words of a step's weight load.

    Weights are fetched ``tiling`` times per batch iteration and reused for
    every sample in the batch, so the per-sample share divides by the batch
    size.
    """
    return load_words * tiling / config.batch_size


def store_dram_words(words, step: StepKind, config: ArchConfig) -> float:
    """Per-sample DRAM words of a step's output store.

    Weight gradients (the GTW step's output) are accumulated on chip over the
    whole batch and written back once per iteration, so their per-sample
    share divides by the batch size.
    """
    return words / config.batch_size if step is StepKind.GTW else words


def dram_cycles(counts: StepCounts, weight_words, store_words, config: ArchConfig) -> float:
    """Cycles to stream a step's operands, weight tile and output store."""
    bandwidth = config.dram_words_per_cycle
    return (counts.dram_read_words + weight_words) / bandwidth + store_words / bandwidth


def dram_words(counts: StepCounts, weight_words, store_words) -> float:
    """DRAM words a step moves: operand reads, weight tile, output store."""
    return counts.dram_read_words + weight_words + store_words


def step_cycles(compute, dram):
    """A step's latency: the longer of its compute and its DRAM transfers.

    Transfers are double-buffered, so they overlap the computation.  This is
    the one formula that must know its numeric type: ``max`` keeps one
    point's Python floats, ``np.maximum`` works element-wise on columns.
    """
    if isinstance(compute, np.ndarray) or isinstance(dram, np.ndarray):
        return np.maximum(compute, dram)
    return max(compute, dram)


class AcceleratorSimulator:
    """Simulate one accelerator configuration executing compiled programs.

    ``config``/``energy_model`` may be an ``ArchGrid``/``EnergyGrid`` of numpy
    columns: every step is then costed for a whole grid of points at once.
    """

    def __init__(self, config: ArchConfig, energy_model: EnergyModel | None = None) -> None:
        self.config = config
        self.energy_model = energy_model if energy_model is not None else default_energy_model()

    def run_program(
        self,
        program: Program,
        densities: dict[str, LayerDensities] | None = None,
    ) -> SimulationResult:
        """Execute a compiled program and return per-sample cycles and energy.

        ``densities`` is only needed for the buffer-fit (weight tiling)
        analysis; the per-step operand counts are already baked into the
        program by the compiler.
        """
        config = self.config
        result = SimulationResult(
            config_name=config.name,
            model_name=program.model_name,
            dataset=program.dataset,
            sparse=program.sparse,
            clock_ghz=config.clock_ghz,
        )
        result.steps.extend(
            self.run_instructions(program.instructions, program.sparse, densities)
        )
        return result

    def run_instructions(
        self,
        instructions: Iterable[Instruction],
        sparse: bool,
        densities: Mapping[str, LayerDensities] | None = None,
    ) -> Iterator[StepResult]:
        """Cost a stream of compiled instructions, one step at a time.

        Yields one :class:`StepResult` per (layer, step), in stream order.
        A step is costed together with the weight load before it and the
        output store that ends it, as soon as that store arrives, so the
        loop holds one step at a time.  ``sparse`` is the compiled
        program's flag; it selects the compressed working set for the
        weight tiling.  The FORWARD and GTA loads of a layer fetch identical
        tiles, so a load's weight traffic is computed once and reused by
        later loads of the same words.
        """
        config = self.config
        densities = densities if densities is not None else {}
        weight_traffic: dict[tuple[str, float], object] = {}
        pending_weight_words = 0.0
        step: StepInstruction | None = None
        weight_words = 0.0

        for instruction in instructions:
            if isinstance(instruction, LoadWeightsInstruction):
                pending_weight_words += float(instruction.words)
            elif isinstance(instruction, StoreOutputInstruction):
                if step is None:
                    raise ValueError(
                        f"output store of {instruction.layer_name!r} follows no step"
                    )
                store_words = store_dram_words(instruction.words, step.step, config)
                yield self._cost_step(step, weight_words, store_words)
                step = None
            elif isinstance(instruction, StepInstruction):
                if step is not None:  # a step that stores no output
                    yield self._cost_step(step, weight_words, 0.0)
                step = instruction
                weight_words = 0.0
                if pending_weight_words > 0.0:
                    key = (instruction.layer_name, pending_weight_words)
                    weight_words = weight_traffic.get(key)
                    if weight_words is None:
                        tiling = weight_tiling_factor(
                            instruction.layer,
                            densities.get(instruction.layer_name, LayerDensities.dense()),
                            config.buffer_words,
                            sparse,
                        )
                        weight_words = weight_traffic[key] = weight_dram_words(
                            pending_weight_words, tiling, config
                        )
                    pending_weight_words = 0.0
        if step is not None:
            yield self._cost_step(step, weight_words, 0.0)

    def _cost_step(
        self, instruction: StepInstruction, weight_words, store_words
    ) -> StepResult:
        """Cost one step with its weight load and output store."""
        counts = instruction.counts
        compute = compute_cycles(counts, self.config)
        dram = dram_cycles(counts, weight_words, store_words, self.config)
        cycles = step_cycles(compute, dram)
        events = EventCounts(
            macs=counts.macs,
            reg_accesses=counts.reg_accesses,
            sram_words=counts.sram_words,
            dram_words=dram_words(counts, weight_words, store_words),
            cycles=cycles,
        )
        return StepResult(
            layer_name=instruction.layer_name,
            step=instruction.step,
            compute_cycles=compute,
            dram_cycles=dram,
            cycles=cycles,
            events=events,
            energy=energy_from_events(events, self.energy_model),
        )
