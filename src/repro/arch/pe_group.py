"""PE group: three PEs sharing one Post Processing Unit (Fig. 7a)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.pe import PE, PEOpStats
from repro.arch.ppu import PPU
from repro.dataflow.ops import RowOp


@dataclass
class GroupResult:
    """Result of running a batch of row operations on one PE group."""

    results: list[np.ndarray]
    stats: PEOpStats
    cycles: int
    ppu_cycles: int


class PEGroup:
    """A group of PEs plus one PPU, scheduled with a greedy least-loaded policy.

    Within a group the PEs operate independently on different row operations;
    the group's completion time is the busiest PE's cycle count.  The PPU
    post-processes finished rows; its work overlaps with PE computation so it
    only adds to the critical path when it exceeds the PE time (rare — it is
    one cycle per produced value).
    """

    def __init__(
        self,
        num_pes: int = 3,
        zero_skipping: bool = True,
        amortize_weight_load: bool = False,
    ) -> None:
        if num_pes <= 0:
            raise ValueError(f"num_pes must be positive, got {num_pes}")
        self.pes = [
            PE(zero_skipping=zero_skipping, amortize_weight_load=amortize_weight_load)
            for _ in range(num_pes)
        ]
        self.ppu = PPU()

    def run_ops(
        self,
        ops: list[RowOp],
        apply_relu: bool = False,
        accumulate_gradients: bool = False,
    ) -> GroupResult:
        """Run ``ops`` across the group's PEs and post-process the results."""
        pe_cycles = [0] * len(self.pes)
        total_stats = PEOpStats.zero()
        results: list[np.ndarray] = []
        ppu_cycles = 0

        for op in ops:
            pe_index = int(np.argmin(pe_cycles))
            result, stats = self.pes[pe_index].run(op)
            pe_cycles[pe_index] += stats.cycles
            total_stats = total_stats + stats
            _, row_cycles = self.ppu.process_row(
                result, apply_relu=apply_relu, accumulate_gradients=accumulate_gradients
            )
            ppu_cycles += row_cycles
            results.append(result)

        cycles = max(max(pe_cycles), 0)
        return GroupResult(
            results=results, stats=total_stats, cycles=cycles, ppu_cycles=ppu_cycles
        )
