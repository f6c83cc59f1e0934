"""Experiment E-F9 — reproduce Fig. 9 (energy per sample and efficiency gain).

The paper's Fig. 9 plots the average energy consumption per training sample,
broken down by component (SRAM, registers, combinational logic, ...), for the
dense baseline and SparseTrain, and reports:

* 1.5x-2.8x (average ~2.2x) energy-efficiency improvement,
* 62%-71% of the baseline energy coming from SRAM accesses,
* 30%-59% reduction of SRAM energy and 53%-88% reduction of combinational
  logic energy for SparseTrain.

The harness shares its simulation pipeline with Fig. 8 (same workloads, same
measured densities, same architecture configurations) and differs only in the
quantities it extracts from the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api import (
    ExperimentReport,
    ExperimentRequest,
    Pipeline,
    PipelineContext,
    RunOptions,
    Stage,
    get_experiment,
    register_experiment,
)
from repro.arch.config import ArchConfig
from repro.arch.energy import EnergyModel
from repro.eval.common import ExperimentScale
from repro.eval.fig8 import (
    QUICK_FIG8_WORKLOADS,
    Fig8Result,
    compile_stage,
    profile_stage,
    simulate_stage,
    train_stage,
    workload_payload,
)
from repro.sim.report import format_breakdown, format_energy_table
from repro.sim.runner import WorkloadResult
from repro.sim.trace import MeasuredDensities


@dataclass
class Fig9Result:
    """Energy results for a set of workloads."""

    workloads: list[WorkloadResult] = field(default_factory=list)

    @property
    def efficiencies(self) -> dict[str, float]:
        return {w.workload_name: w.energy_efficiency for w in self.workloads}

    @property
    def mean_efficiency(self) -> float:
        if not self.workloads:
            return 0.0
        return float(np.mean([w.energy_efficiency for w in self.workloads]))

    @property
    def baseline_sram_fractions(self) -> dict[str, float]:
        """Share of baseline energy spent in SRAM, per workload."""
        return {
            w.workload_name: w.comparison.baseline.total_energy.fraction("sram")
            for w in self.workloads
        }

    @property
    def sram_reductions(self) -> dict[str, float]:
        """Fractional SRAM energy reduction of SparseTrain, per workload."""
        return {w.workload_name: w.comparison.sram_energy_reduction for w in self.workloads}

    @property
    def combinational_reductions(self) -> dict[str, float]:
        """Fractional combinational-logic energy reduction, per workload."""
        return {
            w.workload_name: w.comparison.combinational_energy_reduction
            for w in self.workloads
        }

    def workload(self, name: str) -> WorkloadResult:
        for entry in self.workloads:
            if entry.workload_name == name:
                return entry
        raise KeyError(f"no workload named {name!r}")

    def format(self) -> str:
        lines = [format_energy_table(self.workloads), ""]
        for workload in self.workloads:
            lines.append(format_breakdown(workload))
        return "\n".join(lines)


def _fig9_report_stage(ctx: PipelineContext) -> ExperimentReport:
    result = Fig9Result(workloads=list(ctx["simulate"]))
    payload = {
        "workloads": workload_payload(result.workloads),
        "mean_efficiency": result.mean_efficiency,
        "baseline_sram_fractions": result.baseline_sram_fractions,
        "sram_reductions": result.sram_reductions,
        "combinational_reductions": result.combinational_reductions,
    }
    return ExperimentReport(payload=payload, summary=result.format(), native=result)


@register_experiment(
    "fig9",
    description="Fig. 9 — per-sample training energy, breakdown and efficiency gain",
    category="paper-figures",
    supports_fidelity=True,
)
def build_fig9_pipeline(request: ExperimentRequest) -> Pipeline:
    """The fig8 stage graph with the energy-oriented report stage."""
    return Pipeline(
        "fig9",
        [
            Stage("train", train_stage, "measure per-family operand densities"),
            Stage("profile", profile_stage, "map densities onto full-size specs"),
            Stage("compile", compile_stage, "lower workloads into simulation jobs"),
            Stage("simulate", simulate_stage, "SparseTrain vs dense baseline"),
            Stage("report", _fig9_report_stage, "energy tables and breakdowns"),
        ],
    )


def run_fig9(
    workloads: tuple[tuple[str, str], ...] = QUICK_FIG8_WORKLOADS,
    pruning_rate: float = 0.9,
    scale: ExperimentScale | None = None,
    sparse_config: ArchConfig | None = None,
    baseline_config: ArchConfig | None = None,
    energy_model: EnergyModel | None = None,
    measured: dict[str, MeasuredDensities] | None = None,
    fig8_result: Fig8Result | None = None,
    options: RunOptions = RunOptions(use_cache=False),
) -> Fig9Result:
    """Regenerate the Fig. 9 energy comparison.

    Pass ``fig8_result`` to reuse an already-simulated Fig. 8 run (the two
    figures share the same workload simulations in the paper as well);
    otherwise the registered ``fig9`` experiment pipeline runs the shared
    train/profile/compile/simulate stages itself, with the density cache
    that ``options`` selects (off by default).
    """
    if fig8_result is not None:
        return Fig9Result(workloads=list(fig8_result.workloads))
    request = ExperimentRequest(
        experiment="fig9",
        workloads=tuple(workloads),
        pruning_rate=pruning_rate,
        scale=scale,
    )
    result = get_experiment("fig9").run(
        request,
        options=options,
        extras={
            "measured": measured,
            "sparse_config": sparse_config,
            "baseline_config": baseline_config,
            "energy_model": energy_model,
        },
    )
    return result.native
