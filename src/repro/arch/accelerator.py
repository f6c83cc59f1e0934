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

The per-step machine model is the module-level functions below.  They are
plain arithmetic on the attributes they read, so they evaluate on one step's
Python numbers (:meth:`AcceleratorSimulator.run_program`, the instruction-
stream walk) and element-wise on numpy columns (the column evaluator,
:func:`repro.analytic.model.estimate_batch`, passing an
:class:`~repro.analytic.model.ArchGrid` for ``config``).  Both evaluators cost
the steps in the compiled program's order and add them up in that order, so
their totals are equal; only ``max`` becomes ``np.maximum``.

Running the same simulator on a program compiled with ``sparse=False`` and a
:func:`~repro.arch.config.dense_baseline_config` models the Eyeriss-like dense
training baseline with matched resources — the comparison the paper's Fig. 8
and Fig. 9 make.
"""

from __future__ import annotations

from repro.arch.buffer import GlobalBuffer, weight_tiling_factor
from repro.arch.config import ArchConfig
from repro.arch.dram import DRAM
from repro.arch.energy import (
    EnergyModel,
    EventCounts,
    default_energy_model,
    energy_from_events,
)
from repro.arch.results import SimulationResult, StepResult
from repro.dataflow.counts import LayerDensities, StepCounts, StepKind
from repro.dataflow.instructions import (
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


def store_dram_words(words, step: StepKind | None, config: ArchConfig) -> float:
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


class AcceleratorSimulator:
    """Simulate one accelerator configuration executing compiled programs."""

    def __init__(self, config: ArchConfig, energy_model: EnergyModel | None = None) -> None:
        self.config = config
        self.energy_model = energy_model if energy_model is not None else default_energy_model()
        self.buffer = GlobalBuffer(config.buffer_words)
        self.dram = DRAM(config.dram_words_per_cycle)

    def run_program(
        self,
        program: Program,
        densities: dict[str, LayerDensities] | None = None,
    ) -> SimulationResult:
        """Execute a compiled program and return per-sample cycles and energy.

        ``densities`` is only needed for the buffer-fit (weight tiling)
        analysis; the per-step operand counts are already baked into the
        program by the compiler.  Each step is costed once, together with
        the weight load before it and the output store after it.
        """
        config = self.config
        result = SimulationResult(
            config_name=config.name,
            model_name=program.model_name,
            dataset=program.dataset,
            sparse=program.sparse,
            clock_ghz=config.clock_ghz,
        )

        pending_weight_words = 0.0
        step: StepInstruction | None = None
        weight_words = 0.0
        store_words = 0.0

        for instruction in program.instructions:
            if isinstance(instruction, LoadWeightsInstruction):
                pending_weight_words += float(instruction.words)
            elif isinstance(instruction, StoreOutputInstruction):
                # An output store belongs to the step that produced it.
                store_words += store_dram_words(
                    float(instruction.words), step.step if step is not None else None, config
                )
            elif isinstance(instruction, StepInstruction):
                if step is not None:
                    result.steps.append(self._run_step(step, weight_words, store_words))
                    store_words = 0.0
                step = instruction
                weight_words = 0.0
                if pending_weight_words > 0.0:
                    layer_densities = (densities or {}).get(instruction.layer.name)
                    tiling = weight_tiling_factor(
                        instruction.layer,
                        layer_densities if layer_densities is not None else LayerDensities.dense(),
                        self.buffer.capacity_words,
                        config.sparse_dataflow,
                    )
                    weight_words = weight_dram_words(pending_weight_words, tiling, config)
                    pending_weight_words = 0.0
        if step is not None:
            result.steps.append(self._run_step(step, weight_words, store_words))
        return result

    def _run_step(
        self, instruction: StepInstruction, weight_words: float, store_words: float
    ) -> StepResult:
        """Cost one step with its weight load and output store."""
        counts = instruction.counts
        compute = compute_cycles(counts, self.config)
        dram = dram_cycles(counts, weight_words, store_words, self.config)
        cycles = max(compute, dram)
        events = EventCounts(
            macs=counts.macs,
            reg_accesses=counts.reg_accesses,
            sram_words=counts.sram_words,
            dram_words=dram_words(counts, weight_words, store_words),
            cycles=cycles,
        )
        self.buffer.record_reads(counts.sram_read_words)
        self.buffer.record_writes(counts.sram_write_words)
        self.dram.record_reads(counts.dram_read_words + weight_words)
        self.dram.record_writes(store_words)
        return StepResult(
            layer_name=instruction.layer_name,
            step=instruction.step,
            compute_cycles=compute,
            dram_cycles=dram,
            cycles=cycles,
            events=events,
            energy=energy_from_events(events, self.energy_model),
        )
