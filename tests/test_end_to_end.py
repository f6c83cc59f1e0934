"""End-to-end integration tests: the full algorithm -> dataflow -> architecture pipeline."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.data import make_cifar_like
from repro.models import build_resnet, get_model_spec
from repro.nn import SGD, Trainer
from repro.pruning import PruningConfig, PruningController
from repro.sim import compare_workload, map_densities_to_spec, profile_training_densities
from repro.utils.rng import new_rng


class TestPackage:
    def test_version_and_subpackages(self):
        assert repro.__version__
        for name in ("nn", "data", "models", "pruning", "sparsity", "dataflow", "arch", "sim"):
            assert hasattr(repro, name)


class TestFullPipeline:
    """Train a reduced model with pruning, measure densities, map them onto the
    paper's full-size geometry and simulate both architectures — the complete
    Fig. 8 pipeline in one test."""

    @pytest.fixture(scope="class")
    def pipeline_result(self):
        dataset = make_cifar_like(
            num_samples=192, num_classes=4, image_size=8, rng=np.random.default_rng(0)
        )
        model = build_resnet(
            num_classes=4, image_size=8, blocks_per_stage=(1,), base_width=8, rng=new_rng(0)
        )
        measured = profile_training_densities(
            model,
            dataset,
            pruning=PruningConfig(target_sparsity=0.9, fifo_depth=2),
            epochs=2,
            batch_size=32,
            lr=0.1,
        )
        spec = get_model_spec("ResNet-18", "CIFAR-10")
        densities = map_densities_to_spec(measured, spec)
        return measured, spec, compare_workload(spec, densities)

    def test_measured_densities_reflect_pruning(self, pipeline_result):
        measured, _, _ = pipeline_result
        grad_densities = [
            measured.densities[name].grad_output_density for name in measured.layer_names
        ]
        assert float(np.mean(grad_densities)) < 0.7

    def test_simulated_speedup_and_efficiency(self, pipeline_result):
        _, _, workload = pipeline_result
        assert workload.speedup > 1.2
        assert workload.energy_efficiency > 1.1

    def test_energy_breakdown_shape(self, pipeline_result):
        _, _, workload = pipeline_result
        baseline = workload.comparison.baseline
        assert baseline.total_energy.fraction("sram") > 0.4
        assert (
            workload.comparison.combinational_energy_reduction
            > workload.comparison.sram_energy_reduction
        )

    def test_per_layer_cycles_cover_whole_network(self, pipeline_result):
        _, spec, workload = pipeline_result
        layer_cycles = workload.comparison.sparsetrain.cycles_by_layer()
        assert set(layer_cycles) == {layer.name for layer in spec.conv_layers}
        assert all(value > 0 for value in layer_cycles.values())


class TestPruningDoesNotHurtLearning:
    """Direct head-to-head: same model/seed trained with and without pruning."""

    def _train(self, with_pruning: bool) -> float:
        dataset = make_cifar_like(
            num_samples=256, num_classes=4, image_size=8, rng=np.random.default_rng(1)
        )
        train, test = dataset.split(0.8, np.random.default_rng(2))
        model = build_resnet(
            num_classes=4, image_size=8, blocks_per_stage=(1,), base_width=8, rng=new_rng(5)
        )
        callbacks = []
        if with_pruning:
            callbacks.append(
                PruningController(model, PruningConfig(target_sparsity=0.9, fifo_depth=2))
            )
        trainer = Trainer(
            model, SGD(model.parameters(), lr=0.1, momentum=0.9), callbacks=callbacks
        )
        history = trainer.fit(
            train.images, train.labels, epochs=4, batch_size=32,
            test_images=test.images, test_labels=test.labels,
            shuffle_rng=np.random.default_rng(3),
        )
        return float(history.best_test_accuracy)

    def test_accuracy_with_pruning_close_to_baseline(self):
        baseline_accuracy = self._train(with_pruning=False)
        pruned_accuracy = self._train(with_pruning=True)
        assert baseline_accuracy > 0.5
        assert pruned_accuracy >= baseline_accuracy - 0.2
