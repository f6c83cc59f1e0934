"""Experiment harnesses regenerating the paper's tables and figures.

==============  =====================================================
Experiment      Entry point
==============  =====================================================
Table I         :func:`repro.eval.table1.run_table1`
Table II        :func:`repro.eval.table2.run_table2`
Fig. 8          :func:`repro.eval.fig8.run_fig8`
Fig. 9          :func:`repro.eval.fig9.run_fig9`
Ablations       :mod:`repro.eval.ablations`
==============  =====================================================
"""

from repro.eval.ablations import (
    FifoAblationPoint,
    SweepPoint,
    run_energy_sensitivity,
    run_fifo_ablation,
    run_pe_sweep,
    run_pruning_rate_sweep,
)
from repro.eval.common import ExperimentScale, build_reduced_model, synthetic_dataset_for
from repro.eval.fig8 import (
    EXTENDED_FIG8_WORKLOADS,
    PAPER_FIG8_WORKLOADS,
    QUICK_FIG8_WORKLOADS,
    Fig8Result,
    measure_model_densities,
    run_fig8,
)
from repro.eval.fig9 import Fig9Result, run_fig9
from repro.eval.table1 import Table1Result, run_table1
from repro.eval.table2 import (
    PAPER_PRUNING_RATES,
    Table2Cell,
    Table2Result,
    run_table2,
    train_one_cell,
)

__all__ = [
    "ExperimentScale",
    "build_reduced_model",
    "synthetic_dataset_for",
    "Table1Result",
    "run_table1",
    "Table2Cell",
    "Table2Result",
    "run_table2",
    "train_one_cell",
    "PAPER_PRUNING_RATES",
    "Fig8Result",
    "run_fig8",
    "measure_model_densities",
    "PAPER_FIG8_WORKLOADS",
    "QUICK_FIG8_WORKLOADS",
    "EXTENDED_FIG8_WORKLOADS",
    "Fig9Result",
    "run_fig9",
    "FifoAblationPoint",
    "SweepPoint",
    "run_fifo_ablation",
    "run_pruning_rate_sweep",
    "run_pe_sweep",
    "run_energy_sensitivity",
]
