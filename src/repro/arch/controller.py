"""Controller / scheduler for the row-operation level PE model.

The controller assigns row operations to PE groups with a greedy least-loaded
policy — the software counterpart of the paper's controller that keeps PEs fed
from the global buffer.  It schedules small layers for the tests and
``examples/dataflow_walkthrough.py``; the full-network Fig. 8 / Fig. 9 runs
cost layers with the closed-form counts of :mod:`repro.dataflow.counts` in
:class:`repro.arch.accelerator.AcceleratorSimulator` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import ArchConfig
from repro.arch.pe import PEOpStats
from repro.arch.pe_group import PEGroup
from repro.dataflow.ops import RowOp


@dataclass
class ScheduleResult:
    """Outcome of scheduling a batch of row operations onto the PE array."""

    results: list[np.ndarray]
    stats: PEOpStats
    cycles: int
    per_group_cycles: list[int]

    @property
    def utilization(self) -> float:
        """Achieved utilisation: average group cycles / critical-path cycles."""
        if self.cycles == 0 or not self.per_group_cycles:
            return 1.0
        return float(np.mean(self.per_group_cycles)) / self.cycles


class Controller:
    """Schedules row operations over the PE groups of one accelerator."""

    def __init__(self, config: ArchConfig) -> None:
        self.config = config
        self.groups = [
            PEGroup(
                num_pes=config.pes_per_group,
                zero_skipping=config.sparse_dataflow,
                amortize_weight_load=config.weight_reload_overhead == 0.0,
            )
            for _ in range(config.num_groups)
        ]

    def run_ops(
        self,
        ops: list[RowOp],
        apply_relu: bool = False,
        accumulate_gradients: bool = False,
    ) -> ScheduleResult:
        """Run ``ops`` over all PE groups, preserving result order.

        Operations are dealt to groups round-robin in chunks so every group
        receives a contiguous, similarly sized share; each group then
        load-balances internally across its PEs.  Result order matches input
        order so the caller can reassemble feature maps.
        """
        if not ops:
            return ScheduleResult(results=[], stats=PEOpStats.zero(), cycles=0, per_group_cycles=[])

        num_groups = len(self.groups)
        assignments: list[list[int]] = [[] for _ in range(num_groups)]
        for index in range(len(ops)):
            assignments[index % num_groups].append(index)

        results: list[np.ndarray | None] = [None] * len(ops)
        total_stats = PEOpStats.zero()
        per_group_cycles: list[int] = []
        for group, indices in zip(self.groups, assignments):
            if not indices:
                per_group_cycles.append(0)
                continue
            group_result = group.run_ops(
                [ops[i] for i in indices],
                apply_relu=apply_relu,
                accumulate_gradients=accumulate_gradients,
            )
            for local_index, op_index in enumerate(indices):
                results[op_index] = group_result.results[local_index]
            total_stats = total_stats + group_result.stats
            per_group_cycles.append(group_result.cycles)

        cycles = max(per_group_cycles) if per_group_cycles else 0
        return ScheduleResult(
            results=[r for r in results if r is not None],
            stats=total_stats,
            cycles=cycles,
            per_group_cycles=per_group_cycles,
        )
