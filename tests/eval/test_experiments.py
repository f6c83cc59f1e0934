"""Integration tests for the experiment harnesses (Table I/II, Fig. 8/9, ablations).

These use deliberately tiny :class:`ExperimentScale` settings so the whole
module runs in a couple of minutes; the benchmark suite runs the same
harnesses at their default (larger) scales.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.ablations import (
    run_energy_sensitivity,
    run_fifo_ablation,
    run_pe_sweep,
    run_pruning_rate_sweep,
)
from repro.eval.common import ExperimentScale, build_reduced_model, synthetic_dataset_for
from repro.eval.fig8 import measure_model_densities, run_fig8
from repro.eval.fig9 import run_fig9
from repro.eval.table1 import run_table1
from repro.eval.table2 import run_table2, train_one_cell

TINY = ExperimentScale(
    num_samples=160, num_classes=4, image_size=8, epochs=2, batch_size=32,
    width_scale=0.1, resnet_blocks=(1,), resnet_width=8, seed=3,
)


class TestCommon:
    def test_scale_presets(self):
        assert ExperimentScale.thorough().num_samples > ExperimentScale.quick().num_samples

    def test_synthetic_dataset_class_counts(self):
        train10, _ = synthetic_dataset_for("CIFAR-10", TINY)
        train100, _ = synthetic_dataset_for("CIFAR-100", TINY)
        assert train100.num_classes > train10.num_classes

    def test_build_reduced_model_families(self):
        alexnet = build_reduced_model("AlexNet", 4, TINY)
        resnet18 = build_reduced_model("ResNet-18", 4, TINY)
        resnet34 = build_reduced_model("ResNet-34", 4, TINY)
        from repro.sparsity import iter_convs

        assert len(list(iter_convs(resnet34))) > len(list(iter_convs(resnet18)))
        assert len(list(iter_convs(alexnet))) == 5

    def test_build_reduced_model_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_reduced_model("LeNet", 4, TINY)


class _LearningRateSeen(Exception):
    """Stops a harness at the moment it hands its optimizer a step size."""


def _learning_rate_of(monkeypatch, module, name: str, run) -> float:
    """The ``lr`` a harness passes to ``module.<name>``; training never runs."""
    seen = []

    def record(*args, lr, **kwargs):
        seen.append(lr)
        raise _LearningRateSeen

    monkeypatch.setattr(module, name, record)
    with pytest.raises(_LearningRateSeen):
        run()
    return seen[0]


class TestReducedLearningRate:
    @pytest.mark.parametrize("model, lr", [("VGG-16", 0.01), ("ResNet-18", 0.05)])
    def test_every_harness_trains_at_the_family_rate(self, monkeypatch, model, lr):
        # Conv-ReLU families without batch norm (AlexNet, VGG) need the
        # smaller step; table1, table2 and fig8 share one rule.
        import repro.eval.fig8 as fig8
        import repro.eval.table1 as table1
        import repro.eval.table2 as table2

        assert _learning_rate_of(
            monkeypatch, table1, "SGD", lambda: run_table1(model, scale=TINY)
        ) == lr
        assert _learning_rate_of(
            monkeypatch, table2, "SGD",
            lambda: train_one_cell(model, "CIFAR-10", 0.9, TINY),
        ) == lr
        assert _learning_rate_of(
            monkeypatch, fig8, "profile_training_densities",
            lambda: fig8._measure_densities_uncached(model, 0.9, TINY),
        ) == lr


class TestTable1:
    def test_resnet_matches_paper_classification(self):
        result = run_table1("ResNet-18", pruning_rate=0.9, scale=TINY)
        assert result.matches_paper()
        assert result.row("I").classification == "sparse"
        assert result.row("dO").classification == "sparse"
        assert result.row("W").classification == "dense"

    def test_format_contains_all_symbols(self):
        result = run_table1("ResNet-18", pruning_rate=0.9, scale=TINY)
        text = result.format()
        for symbol in ("W", "dW", "dI", "dO"):
            assert symbol in text

    def test_unknown_symbol_lookup(self):
        result = run_table1("ResNet-18", pruning_rate=0.9, scale=TINY)
        with pytest.raises(KeyError):
            result.row("XX")


class TestTable2:
    @pytest.fixture(scope="class")
    def table2(self):
        return run_table2(
            models=("ResNet-18",),
            datasets=("CIFAR-10",),
            pruning_rates=(None, 0.9),
            scale=TINY,
        )

    def test_grid_contains_expected_cells(self, table2):
        assert len(table2.cells) == 2
        assert table2.rows() == [("ResNet-18", "CIFAR-10")]

    def test_pruning_reduces_gradient_density(self, table2):
        baseline = table2.baseline("ResNet-18", "CIFAR-10")
        pruned = table2.cell("ResNet-18", "CIFAR-10", 0.9)
        assert pruned.grad_density < baseline.grad_density

    def test_accuracy_not_destroyed_by_pruning(self, table2):
        baseline = table2.baseline("ResNet-18", "CIFAR-10")
        pruned = table2.cell("ResNet-18", "CIFAR-10", 0.9)
        assert pruned.accuracy >= baseline.accuracy - 0.25

    def test_format_table(self, table2):
        text = table2.format()
        assert "ResNet-18" in text
        assert "p=90%" in text

    def test_missing_cell_lookup_raises(self, table2):
        with pytest.raises(KeyError):
            table2.cell("ResNet-18", "CIFAR-10", 0.5)

    def test_train_one_cell_baseline_has_no_pruning(self):
        cell = train_one_cell("ResNet-18", "CIFAR-10", None, TINY)
        assert cell.is_baseline
        assert cell.grad_density > 0.9  # BN network without pruning: dense dO


class TestFig8Fig9:
    @pytest.fixture(scope="class")
    def measured(self):
        return {
            "AlexNet": measure_model_densities("AlexNet", 0.9, TINY),
            "ResNet": measure_model_densities("ResNet-18", 0.9, TINY),
        }

    @pytest.fixture(scope="class")
    def fig8(self, measured):
        return run_fig8(
            workloads=(("AlexNet", "CIFAR-10"), ("ResNet-18", "CIFAR-10")),
            scale=TINY,
            measured=measured,
        )

    def test_speedups_above_one(self, fig8):
        assert all(speedup > 1.0 for speedup in fig8.speedups.values())
        assert fig8.mean_speedup > 1.0
        assert fig8.max_speedup >= fig8.mean_speedup

    def test_alexnet_speedup_exceeds_resnet(self, fig8):
        """The paper's Fig. 8 shape: AlexNet benefits more than ResNet."""
        assert fig8.speedups["AlexNet/CIFAR-10"] > fig8.speedups["ResNet-18/CIFAR-10"]

    def test_format_table(self, fig8):
        assert "Average speedup" in fig8.format()

    def test_workload_lookup(self, fig8):
        assert fig8.workload("AlexNet/CIFAR-10").speedup == fig8.speedups["AlexNet/CIFAR-10"]
        with pytest.raises(KeyError):
            fig8.workload("VGG/CIFAR-10")

    def test_fig9_reuses_fig8_results(self, fig8):
        fig9 = run_fig9(fig8_result=fig8)
        assert set(fig9.efficiencies) == set(fig8.speedups)
        assert fig9.mean_efficiency > 1.0

    def test_fig9_energy_shape(self, fig8):
        fig9 = run_fig9(fig8_result=fig8)
        # SRAM dominates baseline energy, and SparseTrain cuts combinational
        # energy by more than SRAM energy — the Fig. 9 qualitative claims.
        for name in fig9.efficiencies:
            assert fig9.baseline_sram_fractions[name] > 0.4
            assert fig9.combinational_reductions[name] > fig9.sram_reductions[name]
            assert fig9.sram_reductions[name] > 0.0

    def test_fig9_format(self, fig8):
        text = run_fig9(fig8_result=fig8).format()
        assert "Energy breakdown" in text

    def test_new_families_end_to_end(self):
        """VGG/MobileNet: reduced training -> measured densities -> simulation."""
        result = run_fig8(
            workloads=(("VGG-16", "CIFAR-10"), ("MobileNetV1", "CIFAR-10")),
            scale=TINY,
        )
        assert set(result.speedups) == {"VGG-16/CIFAR-10", "MobileNetV1/CIFAR-10"}
        assert all(speedup > 1.0 for speedup in result.speedups.values())
        fig9 = run_fig9(fig8_result=result)
        assert all(eff > 1.0 for eff in fig9.efficiencies.values())


class TestAblations:
    def test_fifo_ablation_tracks_target(self):
        points = run_fifo_ablation(fifo_depths=(1, 5), num_batches=20, batch_elements=2048)
        assert len(points) == 2
        for point in points:
            assert point.mean_prediction_error < 0.25
            assert point.mean_density_after == pytest.approx(point.target_density, abs=0.1)

    def test_pruning_rate_sweep_monotone_speedup(self):
        points = run_pruning_rate_sweep(pruning_rates=(0.0, 0.9, 0.99))
        speedups = [p.speedup for p in points]
        assert speedups == sorted(speedups)
        assert all(p.speedup >= 1.0 for p in points)

    def test_pe_sweep_keeps_speedup_in_band(self):
        points = run_pe_sweep(pe_counts=(84, 168))
        assert all(p.speedup > 1.0 for p in points)

    def test_energy_sensitivity_direction(self):
        points = run_energy_sensitivity(scale_factors=(0.5, 4.0), component="sram_pj")
        # Raising the SRAM cost lowers the efficiency gain (SRAM is reduced
        # less than compute), but the gain never drops below 1.
        assert points[0].energy_efficiency >= points[1].energy_efficiency * 0.8
        assert all(p.energy_efficiency > 1.0 for p in points)

    def test_energy_sensitivity_rejects_unknown_component(self):
        with pytest.raises(ValueError):
            run_energy_sensitivity(component="quantum_pj")
