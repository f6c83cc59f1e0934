"""Training-step simulation: density measurement, workload comparison, reports."""

from repro.sim.report import format_breakdown, format_energy_table, format_latency_table
from repro.sim.runner import (
    WorkloadResult,
    compare_workload,
    simulate_baseline,
    simulate_sparsetrain,
)
from repro.sim.trace import (
    MeasuredDensities,
    map_densities_to_spec,
    profile_training_densities,
)

__all__ = [
    "MeasuredDensities",
    "profile_training_densities",
    "map_densities_to_spec",
    "WorkloadResult",
    "compare_workload",
    "simulate_sparsetrain",
    "simulate_baseline",
    "format_latency_table",
    "format_energy_table",
    "format_breakdown",
]
