"""End-to-end workload simulation: SparseTrain vs the dense baseline.

This module ties the pieces together for one workload (a full-size model
spec plus per-layer densities): compile the sparse and dense programs, run
them on the SparseTrain configuration and the dense-baseline configuration,
and return a :class:`~repro.arch.results.ComparisonResult` carrying the
speedup and energy-efficiency numbers the paper's Fig. 8 / Fig. 9 report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import AcceleratorSimulator
from repro.arch.config import ArchConfig, dense_baseline_config, sparsetrain_config
from repro.arch.energy import EnergyModel, default_energy_model
from repro.arch.results import ComparisonResult, SimulationResult
from repro.dataflow.compiler import compile_training_iteration
from repro.dataflow.counts import LayerDensities
from repro.models.spec import ModelSpec


@dataclass(frozen=True)
class WorkloadResult:
    """Comparison result plus the inputs that produced it (for reporting)."""

    spec: ModelSpec
    densities: dict[str, LayerDensities]
    comparison: ComparisonResult

    @property
    def workload_name(self) -> str:
        return f"{self.spec.name}/{self.spec.dataset}"

    @property
    def speedup(self) -> float:
        return self.comparison.speedup

    @property
    def energy_efficiency(self) -> float:
        return self.comparison.energy_efficiency


def simulate_sparsetrain(
    spec: ModelSpec,
    densities: dict[str, LayerDensities],
    config: ArchConfig | None = None,
    energy_model: EnergyModel | None = None,
) -> SimulationResult:
    """Simulate one SparseTrain training iteration (per sample) of ``spec``."""
    config = config if config is not None else sparsetrain_config()
    energy_model = energy_model if energy_model is not None else default_energy_model()
    program = compile_training_iteration(spec, densities=densities, sparse=True)
    simulator = AcceleratorSimulator(config, energy_model)
    return simulator.run_program(program, densities=densities)


def simulate_baseline(
    spec: ModelSpec,
    config: ArchConfig | None = None,
    energy_model: EnergyModel | None = None,
) -> SimulationResult:
    """Simulate one dense-baseline training iteration (per sample) of ``spec``.

    The baseline is Eyeriss "modified to support the dense training process"
    with SparseTrain's PE count and buffer: it shares all of SparseTrain's
    machinery except that it does not exploit sparsity, which is what a
    ``sparse=False`` program on a config with ``sparse_dataflow=False``
    models.  A config that skips zeros is rejected.
    """
    config = config if config is not None else dense_baseline_config()
    if config.sparse_dataflow:
        raise ValueError(
            "the dense baseline needs a config with sparse_dataflow=False"
        )
    energy_model = energy_model if energy_model is not None else default_energy_model()
    program = compile_training_iteration(spec, densities=None, sparse=False)
    simulator = AcceleratorSimulator(config, energy_model)
    return simulator.run_program(program)


def compare_workload(
    spec: ModelSpec,
    densities: dict[str, LayerDensities],
    sparse_config: ArchConfig | None = None,
    baseline_config: ArchConfig | None = None,
    energy_model: EnergyModel | None = None,
) -> WorkloadResult:
    """Run both architectures on one workload and package the comparison."""
    energy_model = energy_model if energy_model is not None else default_energy_model()
    sparse_result = simulate_sparsetrain(spec, densities, sparse_config, energy_model)
    baseline_result = simulate_baseline(spec, baseline_config, energy_model)
    comparison = ComparisonResult(
        workload=f"{spec.name}/{spec.dataset}",
        sparsetrain=sparse_result,
        baseline=baseline_result,
    )
    return WorkloadResult(spec=spec, densities=densities, comparison=comparison)
