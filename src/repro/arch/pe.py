"""Processing Element model (the paper's Fig. 7c).

The PE executes a complete 1-D row operation rather than a single multiply:
each cycle it consumes one (non-zero) operand from Port-1, multiplies it by
the K values held in Reg-1 and accumulates the K products into the partial
sums in Reg-2.  Sparse operands arrive in compressed form, so zero values
never cost a cycle; for MSRC the offset vector of the following ReLU mask
(Port-3) additionally lets the PE skip operands whose every output position is
masked off — the look-ahead logic means skipped operands cost no stall cycles.

``PE.run(op)`` returns both the exact numerical result of the operation and
its event counts (cycles, MACs, register accesses).  The per-operand loops
below are the executable specification of the SRC / MSRC / OSRC semantics:
the tests and ``examples/dataflow_walkthrough.py`` check their results against
the row-wise reference (:mod:`repro.dataflow.reference`) and their counts
against hand-derived values and the closed-form model
(:mod:`repro.dataflow.counts`).  Paper figures and sweeps never execute row
operations; they cost whole layers with those closed-form counts.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.dataflow.ops import MSRCOp, OSRCOp, RowOp, SRCOp


class PEOpStats(NamedTuple):
    """Event counts of one row operation executed on one PE.

    Totals over many operations are field-wise sums (``+``); ``zero()`` is
    the identity.
    """

    cycles: int
    macs: int
    processed_operands: int
    skipped_operands: int
    weight_loads: int
    reg_accesses: int

    def __add__(self, other: "PEOpStats") -> "PEOpStats":  # type: ignore[override]
        return PEOpStats(
            cycles=self.cycles + other.cycles,
            macs=self.macs + other.macs,
            processed_operands=self.processed_operands + other.processed_operands,
            skipped_operands=self.skipped_operands + other.skipped_operands,
            weight_loads=self.weight_loads + other.weight_loads,
            reg_accesses=self.reg_accesses + other.reg_accesses,
        )

    @classmethod
    def zero(cls) -> "PEOpStats":
        return cls(0, 0, 0, 0, 0, 0)


class PE:
    """A single processing element.

    Parameters
    ----------
    zero_skipping:
        When ``False`` the PE behaves like a dense PE: every operand position
        (zero or not) costs a cycle and a full K-wide MAC.  This models the
        Eyeriss-like baseline PE at matched peak throughput.
    amortize_weight_load:
        When ``True``, kernel-row loads are assumed to be overlapped with the
        previous operation's drain (the controller schedules row operations
        that reuse the same kernel row back to back), so they do not add
        cycles; they are still counted as register loads for energy.
    """

    def __init__(self, zero_skipping: bool = True, amortize_weight_load: bool = False) -> None:
        self.zero_skipping = zero_skipping
        self.amortize_weight_load = amortize_weight_load
        self.total_stats = PEOpStats.zero()

    def run(self, op: RowOp) -> tuple[np.ndarray, PEOpStats]:
        """Execute one row operation; returns (result, stats)."""
        if isinstance(op, SRCOp):
            execute = _run_src
        elif isinstance(op, MSRCOp):
            execute = _run_msrc
        elif isinstance(op, OSRCOp):
            execute = _run_osrc
        else:
            raise TypeError(f"unsupported op type {type(op).__name__}")
        result, stats = execute(op, self.zero_skipping, self.amortize_weight_load)
        self.total_stats = self.total_stats + stats
        return result, stats


def _run_src(
    op: SRCOp, zero_skipping: bool, amortize_weight_load: bool
) -> tuple[np.ndarray, PEOpStats]:
    """SRC (Forward step): dense kernel row x sparse input row."""
    kernel = op.kernel_row
    kernel_size = kernel.size
    out = np.zeros(op.out_len, dtype=np.float64)

    if zero_skipping:
        positions = op.input_row.offsets
        values = op.input_row.values
    else:
        dense = op.input_row.to_dense()
        positions = np.arange(dense.size)
        values = dense

    processed = 0
    macs = 0
    for position, value in zip(positions, values):
        processed += 1
        macs += kernel_size
        if value == 0.0:
            continue
        for k in range(kernel_size):
            remainder = position - k
            if remainder < 0:
                continue
            if op.stride > 1 and remainder % op.stride != 0:
                continue
            ow = remainder // op.stride
            if 0 <= ow < op.out_len:
                out[ow] += value * kernel[k]

    weight_loads = kernel_size
    load_cycles = 0 if amortize_weight_load else kernel_size
    cycles = load_cycles + processed
    reg_accesses = 2 * macs + processed + weight_loads
    stats = PEOpStats(
        cycles=cycles,
        macs=macs,
        processed_operands=processed,
        skipped_operands=int(op.input_row.length - processed) if zero_skipping else 0,
        weight_loads=weight_loads,
        reg_accesses=reg_accesses,
    )
    return out, stats


def _run_msrc(
    op: MSRCOp, zero_skipping: bool, amortize_weight_load: bool
) -> tuple[np.ndarray, PEOpStats]:
    """MSRC (GTA step): scatter dO into the ReLU-masked dI positions."""
    kernel = op.kernel_row
    kernel_size = kernel.size
    out = np.zeros(op.out_len, dtype=np.float64)
    mask = op.output_mask

    if zero_skipping:
        positions = op.grad_row.offsets
        values = op.grad_row.values
    else:
        dense = op.grad_row.to_dense()
        positions = np.arange(dense.size)
        values = dense

    processed = 0
    skipped = 0
    macs = 0
    for position, value in zip(positions, values):
        start = position * op.stride
        targets = [
            start + k
            for k in range(kernel_size)
            if start + k < op.out_len and mask[start + k]
        ]
        if zero_skipping and not targets:
            # Every output this operand would touch is masked off: the
            # look-ahead logic skips it without spending a cycle.
            skipped += 1
            continue
        processed += 1
        if not zero_skipping:
            targets = [start + k for k in range(kernel_size) if start + k < op.out_len]
        macs += len(targets)
        if value != 0.0:
            for target in targets:
                out[target] += value * kernel[target - start]

    if not zero_skipping:
        # The dense baseline has no mask either: it computes every position
        # and lets the ReLU backward zero them later.
        out_unmasked = out
    else:
        out_unmasked = out * mask

    weight_loads = kernel_size
    load_cycles = 0 if amortize_weight_load else kernel_size
    cycles = load_cycles + processed
    reg_accesses = 2 * macs + processed + weight_loads
    stats = PEOpStats(
        cycles=cycles,
        macs=macs,
        processed_operands=processed,
        skipped_operands=skipped
        + (int(op.grad_row.length - op.grad_row.nnz) if zero_skipping else 0),
        weight_loads=weight_loads,
        reg_accesses=reg_accesses,
    )
    return out_unmasked, stats


def _run_osrc(
    op: OSRCOp, zero_skipping: bool, amortize_weight_load: bool
) -> tuple[np.ndarray, PEOpStats]:
    """OSRC (GTW step): two sparse rows in, a K-element dW row out."""
    del amortize_weight_load  # OSRC loads no kernel row
    kernel_size = op.kernel_size
    dw = np.zeros(kernel_size, dtype=np.float64)
    grad_dense = op.grad_row.to_dense()
    # Boolean membership array instead of a per-op Python set: O(1) numpy
    # lookups and no per-op ``set(offsets.tolist())`` rebuild.
    grad_nonzero = np.zeros(op.grad_row.length, dtype=bool)
    grad_nonzero[op.grad_row.offsets] = True

    if zero_skipping:
        positions = op.input_row.offsets
        values = op.input_row.values
    else:
        dense = op.input_row.to_dense()
        positions = np.arange(dense.size)
        values = dense

    processed = 0
    skipped = 0
    macs = 0
    for position, value in zip(positions, values):
        # Pairings: dw[kw] needs input[ow*stride + kw] * grad[ow].
        pairings = []
        for kw in range(kernel_size):
            remainder = position - kw
            if remainder < 0:
                continue
            if op.stride > 1 and remainder % op.stride != 0:
                continue
            ow = remainder // op.stride
            if ow >= op.grad_row.length:
                continue
            if zero_skipping and not grad_nonzero[ow]:
                continue
            pairings.append((kw, ow))
        if zero_skipping and not pairings:
            skipped += 1
            continue
        processed += 1
        macs += len(pairings)
        if value != 0.0:
            for kw, ow in pairings:
                dw[kw] += value * grad_dense[ow]

    cycles = processed
    reg_accesses = 2 * macs + processed + op.grad_row.nnz
    stats = PEOpStats(
        cycles=cycles,
        macs=macs,
        processed_operands=processed,
        skipped_operands=skipped
        + (int(op.input_row.length - op.input_row.nnz) if zero_skipping else 0),
        weight_loads=0,
        reg_accesses=reg_accesses,
    )
    return dw, stats
