"""Tests for the PE and PPU cycle/event models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.pe import PE, PEOpStats
from repro.arch.ppu import PPU
from repro.dataflow.compressed import CompressedRow
from repro.dataflow.ops import MSRCOp, OSRCOp, SRCOp
from repro.pruning.threshold import determine_threshold_from_abs_sum


def _stored(values, offsets, length):
    """A compressed row stored as given, explicit ``0.0`` values included."""
    return CompressedRow(
        values=np.asarray(values, dtype=np.float64),
        offsets=np.asarray(offsets, dtype=np.int64),
        length=length,
    )


def _src_op(row, kernel=(1.0, 1.0, 1.0), stride=1):
    kernel = np.asarray(kernel, dtype=np.float64)
    row = np.asarray(row, dtype=np.float64)
    out_len = (row.size - kernel.size) // stride + 1
    return SRCOp(
        kernel_row=kernel,
        input_row=CompressedRow.from_dense(row),
        stride=stride,
        out_len=out_len,
    )


class TestPESRC:
    def test_cycles_are_kernel_load_plus_nnz(self):
        pe = PE(zero_skipping=True)
        row = np.array([0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0])
        _, stats = pe.run(_src_op(row))
        assert stats.processed_operands == 3
        assert stats.cycles == 3 + 3  # K load + nnz
        assert stats.macs == 3 * 3
        assert stats.skipped_operands == 5

    def test_dense_pe_processes_every_position(self):
        pe = PE(zero_skipping=False)
        row = np.array([0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0])
        _, stats = pe.run(_src_op(row))
        assert stats.processed_operands == row.size
        assert stats.skipped_operands == 0

    def test_sparse_and_dense_compute_identical_results(self, rng):
        row = rng.normal(size=12) * (rng.random(12) < 0.5)
        op = _src_op(row, kernel=rng.normal(size=3))
        sparse_result, _ = PE(zero_skipping=True).run(op)
        dense_result, _ = PE(zero_skipping=False).run(op)
        np.testing.assert_allclose(sparse_result, dense_result, atol=1e-12)

    def test_amortized_weight_load_removes_load_cycles(self):
        row = np.array([1.0, 2.0, 3.0, 4.0])
        with_load = PE(zero_skipping=True, amortize_weight_load=False)
        without_load = PE(zero_skipping=True, amortize_weight_load=True)
        _, stats_with = with_load.run(_src_op(row))
        _, stats_without = without_load.run(_src_op(row))
        assert stats_with.cycles == stats_without.cycles + 3

    def test_total_stats_accumulate(self):
        pe = PE()
        row = np.array([1.0, 0.0, 2.0, 0.0, 0.0])
        pe.run(_src_op(row))
        pe.run(_src_op(row))
        assert pe.total_stats.processed_operands == 4

    def test_explicit_stored_zero_counts_but_adds_nothing(self):
        # Input [0, 2, 0, 0.0*, 3, 0] (* = stored), kernel [1, 10, 100],
        # out_len 4.  Each of the 3 stored operands costs a cycle and 3 MACs:
        # processed 3, macs 9, skipped 6 - 3 = 3, weight_loads 3, cycles
        # 3 + 3 = 6, reg_accesses 2*9 + 3 + 3 = 24.  out[ow] = sum_k
        # x[ow + k] * kernel[k] = [2*10, 2*1, 3*100, 3*10]; the zero adds
        # nothing.
        op = SRCOp(
            kernel_row=np.array([1.0, 10.0, 100.0]),
            input_row=_stored([2.0, 0.0, 3.0], [1, 3, 4], 6),
            stride=1,
            out_len=4,
        )
        result, stats = PE(zero_skipping=True).run(op)
        assert stats == PEOpStats(
            cycles=6, macs=9, processed_operands=3, skipped_operands=3,
            weight_loads=3, reg_accesses=24,
        )
        np.testing.assert_array_equal(result, [20.0, 2.0, 300.0, 30.0])

    def test_stats_addition(self):
        a = PEOpStats(1, 2, 3, 4, 5, 6)
        b = PEOpStats(10, 20, 30, 40, 50, 60)
        total = a + b
        assert total.cycles == 11 and total.reg_accesses == 66


class TestPEMSRC:
    def _msrc_op(self, grad, mask, kernel=(1.0, 1.0, 1.0), stride=1):
        grad = np.asarray(grad, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        return MSRCOp(
            kernel_row=np.asarray(kernel, dtype=np.float64),
            grad_row=CompressedRow.from_dense(grad),
            output_mask=mask,
            stride=stride,
            out_len=mask.size,
        )

    def test_fully_masked_operands_are_skipped_for_free(self):
        grad = np.array([1.0, 0.0, 2.0, 0.0])
        mask = np.zeros(6, dtype=bool)
        _, stats = PE(zero_skipping=True).run(self._msrc_op(grad, mask))
        assert stats.processed_operands == 0
        assert stats.cycles == 3  # only the kernel-row load
        assert stats.macs == 0

    def test_partially_masked_counts_only_live_targets(self):
        grad = np.array([1.0, 0.0, 0.0, 0.0])
        mask = np.array([True, False, True, False, False, False])
        _, stats = PE(zero_skipping=True).run(self._msrc_op(grad, mask))
        assert stats.processed_operands == 1
        assert stats.macs == 2  # positions 0 and 2 of the kernel window

    def test_masked_result_is_zero_outside_mask(self, rng):
        grad = rng.normal(size=5) * (rng.random(5) < 0.6)
        mask = rng.random(7) < 0.5
        result, _ = PE(zero_skipping=True).run(self._msrc_op(grad, mask))
        assert np.all(result[~mask] == 0.0)

    def test_dense_pe_ignores_mask(self, rng):
        grad = rng.normal(size=5)
        mask = np.zeros(7, dtype=bool)
        result, stats = PE(zero_skipping=False).run(self._msrc_op(grad, mask))
        assert stats.processed_operands == 5
        assert np.any(result != 0.0)

    def test_explicit_stored_zero_counts_but_adds_nothing(self):
        # dO [2, 0, 0.0*, 0] (* = stored), kernel [1, 10, 100], mask all
        # true over 6 outputs.  Operand 0 writes outputs 0..2, the stored
        # zero at 2 writes 2..4: processed 2, macs 3 + 3 = 6, skipped
        # 4 - 2 = 2, weight_loads 3, cycles 3 + 2 = 5, reg_accesses
        # 2*6 + 2 + 3 = 17.  Only operand 0 adds: [2*1, 2*10, 2*100, 0, 0, 0].
        op = MSRCOp(
            kernel_row=np.array([1.0, 10.0, 100.0]),
            grad_row=_stored([2.0, 0.0], [0, 2], 4),
            output_mask=np.ones(6, dtype=bool),
            stride=1,
            out_len=6,
        )
        result, stats = PE(zero_skipping=True).run(op)
        assert stats == PEOpStats(
            cycles=5, macs=6, processed_operands=2, skipped_operands=2,
            weight_loads=3, reg_accesses=17,
        )
        np.testing.assert_array_equal(result, [2.0, 20.0, 200.0, 0.0, 0.0, 0.0])

    def test_mask_length_validation(self):
        with pytest.raises(ValueError):
            MSRCOp(
                kernel_row=np.ones(3),
                grad_row=CompressedRow.from_dense(np.ones(4)),
                output_mask=np.ones(3, dtype=bool),
                stride=1,
                out_len=6,
            )


class TestPEOSRC:
    def _osrc_op(self, input_row, grad_row, kernel_size=3, stride=1):
        return OSRCOp(
            input_row=CompressedRow.from_dense(np.asarray(input_row, dtype=np.float64)),
            grad_row=CompressedRow.from_dense(np.asarray(grad_row, dtype=np.float64)),
            kernel_size=kernel_size,
            stride=stride,
        )

    def test_result_is_row_correlation(self):
        input_row = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        grad_row = np.array([1.0, 1.0, 1.0])
        result, _ = PE(zero_skipping=True).run(self._osrc_op(input_row, grad_row))
        # dw[kw] = sum_ow grad[ow] * input[ow + kw]
        np.testing.assert_allclose(result, [6.0, 9.0, 12.0])

    def test_both_sparsities_reduce_processing(self):
        input_row = np.array([1.0, 0.0, 0.0, 0.0, 5.0])
        grad_row = np.array([0.0, 0.0, 1.0])
        _, stats = PE(zero_skipping=True).run(self._osrc_op(input_row, grad_row))
        # Input position 0 pairs only with grad positions that are zero.
        assert stats.processed_operands == 1
        assert stats.skipped_operands >= 1

    def test_dense_pe_processes_every_input_position(self):
        input_row = np.array([1.0, 0.0, 0.0, 0.0, 5.0])
        grad_row = np.array([0.0, 0.0, 1.0])
        _, stats = PE(zero_skipping=False).run(self._osrc_op(input_row, grad_row))
        assert stats.processed_operands == 5

    def test_explicit_stored_zero_counts_but_adds_nothing(self):
        # Input [2, 0, 0.0*, 0, 7] (* = stored), dO [1, 3, 5], K 3.  Pairs
        # (kw, ow) with ow = position - kw in [0, 3): position 0 -> (0, 0);
        # the stored zero at 2 -> (0, 2), (1, 1), (2, 0); position 4 ->
        # (2, 2).  processed 3, macs 1 + 3 + 1 = 5, skipped 5 - 3 = 2, no
        # weight loads, cycles 3, reg_accesses 2*5 + 3 + 3 (dO nnz) = 16.
        # dw = [2*1, 0, 7*5]; the zero adds nothing.
        op = OSRCOp(
            input_row=_stored([2.0, 0.0, 7.0], [0, 2, 4], 5),
            grad_row=CompressedRow.from_dense(np.array([1.0, 3.0, 5.0])),
            kernel_size=3,
            stride=1,
        )
        result, stats = PE(zero_skipping=True).run(op)
        assert stats == PEOpStats(
            cycles=3, macs=5, processed_operands=3, skipped_operands=2,
            weight_loads=0, reg_accesses=16,
        )
        np.testing.assert_array_equal(result, [2.0, 0.0, 35.0])

    def test_sparse_and_dense_agree_numerically(self, rng):
        input_row = rng.normal(size=10) * (rng.random(10) < 0.5)
        grad_row = rng.normal(size=8) * (rng.random(8) < 0.4)
        op = self._osrc_op(input_row, grad_row)
        sparse_result, _ = PE(zero_skipping=True).run(op)
        dense_result, _ = PE(zero_skipping=False).run(op)
        np.testing.assert_allclose(sparse_result, dense_result, atol=1e-12)


_EMPTY = CompressedRow.from_dense(np.zeros(6))


class TestAllZeroRows:
    """An all-zero operand row (length 6, kernel [1, 1, 1]) in both PE modes.

    The sparse PE stores nothing, so only the kernel-row load remains; the
    dense PE streams all 6 positions and does every MAC for a zero result.

    * SRC, out_len 4.  Sparse: cycles 3 (load), skipped 6, weight_loads 3,
      reg_accesses 3.  Dense: processed 6, macs 6*3 = 18, cycles 3 + 6 = 9,
      reg_accesses 2*18 + 6 + 3 = 45.
    * MSRC, mask all true over 8 outputs: every window of 3 fits, so the
      counts are SRC's.
    * OSRC, dO all zero over 4 positions.  Sparse: skipped 6 and nothing
      else (no load, no dO values).  Dense: positions 0..5 pair with
      1, 2, 3, 3, 2, 1 outputs, macs 12, cycles 6, reg_accesses 2*12 + 6 = 30.
    """

    OPS = {
        "src": SRCOp(kernel_row=np.ones(3), input_row=_EMPTY, stride=1, out_len=4),
        "msrc": MSRCOp(
            kernel_row=np.ones(3),
            grad_row=_EMPTY,
            output_mask=np.ones(8, dtype=bool),
            stride=1,
            out_len=8,
        ),
        "osrc": OSRCOp(
            input_row=_EMPTY,
            grad_row=CompressedRow.from_dense(np.zeros(4)),
            kernel_size=3,
            stride=1,
        ),
    }

    @pytest.mark.parametrize(
        "kind,zero_skipping,expected,out_len",
        [
            ("src", True, PEOpStats(3, 0, 0, 6, 3, 3), 4),
            ("src", False, PEOpStats(9, 18, 6, 0, 3, 45), 4),
            ("msrc", True, PEOpStats(3, 0, 0, 6, 3, 3), 8),
            ("msrc", False, PEOpStats(9, 18, 6, 0, 3, 45), 8),
            ("osrc", True, PEOpStats(0, 0, 0, 6, 0, 0), 3),
            ("osrc", False, PEOpStats(6, 12, 6, 0, 0, 30), 3),
        ],
    )
    def test_counts_and_zero_result(self, kind, zero_skipping, expected, out_len):
        result, stats = PE(zero_skipping=zero_skipping).run(self.OPS[kind])
        assert stats == expected
        np.testing.assert_array_equal(result, np.zeros(out_len))


class TestPPU:
    def test_relu_and_compression(self):
        ppu = PPU()
        row = np.array([-1.0, 2.0, 0.0, -3.0, 4.0])
        compressed, cycles = ppu.process_row(row, apply_relu=True)
        np.testing.assert_array_equal(compressed.to_dense(), [0.0, 2.0, 0.0, 0.0, 4.0])
        assert cycles == 5
        assert ppu.stats.relu_applied == 5
        assert ppu.stats.values_written == 2

    def test_gradient_accumulators(self, rng):
        ppu = PPU()
        rows = [rng.normal(size=16) for _ in range(4)]
        for row in rows:
            ppu.process_row(row, accumulate_gradients=True)
        stacked = np.concatenate(rows)
        assert ppu.bias_gradient() == pytest.approx(stacked.sum())
        assert ppu.mean_abs_gradient() == pytest.approx(np.abs(stacked).mean())

    def test_threshold_from_ppu_accumulators_matches_reference(self, rng):
        """The PPU's streaming statistics are sufficient for threshold determination."""
        from repro.pruning.threshold import determine_threshold

        ppu = PPU()
        gradient = rng.normal(0.0, 1e-3, size=(8, 64))
        for row in gradient:
            ppu.process_row(row, accumulate_gradients=True)
        streaming = determine_threshold_from_abs_sum(
            ppu.gradient_abs_sum, ppu.gradient_count, 0.9
        )
        reference = determine_threshold(gradient, 0.9)
        assert streaming == pytest.approx(reference, rel=1e-12)

    def test_reset_accumulators(self, rng):
        ppu = PPU()
        ppu.process_row(rng.normal(size=8), accumulate_gradients=True)
        ppu.reset_accumulators()
        assert ppu.gradient_count == 0
        assert ppu.mean_abs_gradient() == 0.0
        assert ppu.bias_gradient() == 0.0

    def test_no_accumulation_by_default(self, rng):
        ppu = PPU()
        ppu.process_row(rng.normal(size=8))
        assert ppu.gradient_count == 0
