"""Tests for the controller (row-op scheduler), the accelerator simulator and baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.accelerator import AcceleratorSimulator
from repro.arch.config import dense_baseline_config, sparsetrain_config
from repro.arch.controller import Controller
from repro.arch.energy import EnergyModel
from repro.arch.pe import PE
from repro.arch.results import ComparisonResult
from repro.dataflow.compiler import compile_training_iteration, uniform_densities
from repro.dataflow.counts import StepKind
from repro.dataflow.decompose import accumulate_forward, decompose_forward
from repro.dataflow.instructions import StoreOutputInstruction
from repro.models.alexnet import alexnet_cifar_spec
from repro.models.resnet import resnet_spec
from repro.nn import functional as F
from repro.sim.runner import simulate_baseline


@pytest.fixture
def sparse_alexnet_workload():
    spec = alexnet_cifar_spec()
    densities = uniform_densities(
        spec,
        input_density=0.4,
        grad_output_density=0.1,
        mask_density=0.4,
        grad_input_density=0.3,
        output_density=0.4,
    )
    return spec, densities


class TestController:
    def test_results_identical_to_single_pe(self, small_conv_layer, rng):
        layer = small_conv_layer
        x = rng.normal(size=(layer.in_channels, layer.in_height, layer.in_width))
        x *= rng.random(x.shape) < 0.5
        w = rng.normal(size=(layer.out_channels, layer.in_channels, layer.kernel, layer.kernel))
        ops = decompose_forward(layer, x, w)

        controller = Controller(sparsetrain_config(num_pes=9, pes_per_group=3))
        schedule = controller.run_ops(ops)
        out = accumulate_forward(layer, ops, schedule.results)
        expected, _ = F.conv2d_forward(x[None], w, None, layer.stride, layer.padding)
        np.testing.assert_allclose(out, expected[0], atol=1e-12)

    def test_critical_path_shorter_with_more_groups(self, small_conv_layer, rng):
        layer = small_conv_layer
        x = rng.normal(size=(layer.in_channels, layer.in_height, layer.in_width))
        w = rng.normal(size=(layer.out_channels, layer.in_channels, layer.kernel, layer.kernel))
        ops = decompose_forward(layer, x, w)
        small = Controller(sparsetrain_config(num_pes=3, pes_per_group=3)).run_ops(ops)
        large = Controller(sparsetrain_config(num_pes=24, pes_per_group=3)).run_ops(ops)
        assert large.cycles < small.cycles
        # Total work is identical regardless of the array size.
        assert large.stats.macs == small.stats.macs

    def test_utilization_bounded(self, small_conv_layer, rng):
        layer = small_conv_layer
        x = rng.normal(size=(layer.in_channels, layer.in_height, layer.in_width))
        w = rng.normal(size=(layer.out_channels, layer.in_channels, layer.kernel, layer.kernel))
        ops = decompose_forward(layer, x, w)
        schedule = Controller(sparsetrain_config(num_pes=12, pes_per_group=3)).run_ops(ops)
        assert 0.0 < schedule.utilization <= 1.0

    def test_empty_op_list(self):
        schedule = Controller(sparsetrain_config(num_pes=6, pes_per_group=3)).run_ops([])
        assert schedule.cycles == 0
        assert schedule.results == []


class TestAcceleratorSimulator:
    def test_dense_baseline_not_faster_than_roofline(self):
        spec = alexnet_cifar_spec()
        config = dense_baseline_config()
        result = simulate_baseline(spec, config)
        # Every dense MAC at the array's peak rate: no schedule beats it.
        roofline = spec.conv_training_macs / config.peak_macs_per_cycle
        assert result.total_cycles >= roofline

    def test_sparse_faster_than_dense_for_sparse_workload(self, sparse_alexnet_workload):
        spec, densities = sparse_alexnet_workload
        sparse_program = compile_training_iteration(spec, densities, sparse=True)
        dense_program = compile_training_iteration(spec, None, sparse=False)
        sparse_result = AcceleratorSimulator(sparsetrain_config()).run_program(sparse_program, densities)
        dense_result = AcceleratorSimulator(dense_baseline_config()).run_program(dense_program)
        assert sparse_result.total_cycles < dense_result.total_cycles
        assert sparse_result.energy_uj < dense_result.energy_uj

    def test_speedup_increases_with_sparsity(self):
        spec = alexnet_cifar_spec()
        dense_result = simulate_baseline(spec)
        cycles = []
        for grad_density in (0.8, 0.4, 0.1):
            densities = uniform_densities(
                spec, input_density=0.5, grad_output_density=grad_density,
                mask_density=0.5, grad_input_density=0.5, output_density=0.5,
            )
            program = compile_training_iteration(spec, densities, sparse=True)
            result = AcceleratorSimulator(sparsetrain_config()).run_program(program, densities)
            cycles.append(result.total_cycles)
            assert result.total_cycles < dense_result.total_cycles
        assert cycles[0] > cycles[1] > cycles[2]

    def test_step_results_cover_all_layers_and_steps(self, sparse_alexnet_workload):
        spec, densities = sparse_alexnet_workload
        program = compile_training_iteration(spec, densities, sparse=True)
        result = AcceleratorSimulator(sparsetrain_config()).run_program(program, densities)
        assert len(result.steps) == 3 * spec.num_conv_layers
        by_step = result.cycles_by_step()
        assert all(by_step[kind] > 0 for kind in StepKind)
        by_layer = result.cycles_by_layer()
        assert set(by_layer) == {layer.name for layer in spec.conv_layers}

    def test_latency_and_energy_units(self, sparse_alexnet_workload):
        spec, densities = sparse_alexnet_workload
        program = compile_training_iteration(spec, densities, sparse=True)
        config = sparsetrain_config()
        result = AcceleratorSimulator(config).run_program(program, densities)
        assert result.latency_us == pytest.approx(result.total_cycles / (config.clock_ghz * 1e3))
        assert result.energy_uj > 0
        fractions = result.energy_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_larger_batch_amortises_weight_dram_traffic(self, sparse_alexnet_workload):
        spec, densities = sparse_alexnet_workload
        program = compile_training_iteration(spec, densities, sparse=True)
        small_batch = AcceleratorSimulator(sparsetrain_config(batch_size=1)).run_program(program, densities)
        large_batch = AcceleratorSimulator(sparsetrain_config(batch_size=64)).run_program(program, densities)
        assert large_batch.total_dram_words < small_batch.total_dram_words

    def test_more_pes_reduce_latency(self, sparse_alexnet_workload):
        spec, densities = sparse_alexnet_workload
        program = compile_training_iteration(spec, densities, sparse=True)
        few = AcceleratorSimulator(sparsetrain_config(num_pes=42)).run_program(program, densities)
        many = AcceleratorSimulator(sparsetrain_config(num_pes=336)).run_program(program, densities)
        assert many.total_cycles < few.total_cycles

    def test_energy_model_override(self, sparse_alexnet_workload):
        spec, densities = sparse_alexnet_workload
        program = compile_training_iteration(spec, densities, sparse=True)
        expensive_sram = EnergyModel(sram_pj=50.0)
        base = AcceleratorSimulator(sparsetrain_config()).run_program(program, densities)
        expensive = AcceleratorSimulator(sparsetrain_config(), expensive_sram).run_program(program, densities)
        assert expensive.energy_uj > base.energy_uj
        assert expensive.total_energy.fraction("sram") > base.total_energy.fraction("sram")

    def test_describe_mentions_workload(self, sparse_alexnet_workload):
        spec, densities = sparse_alexnet_workload
        program = compile_training_iteration(spec, densities, sparse=True)
        result = AcceleratorSimulator(sparsetrain_config()).run_program(program, densities)
        assert "AlexNet" in result.describe()

    def test_step_without_output_store_costs_zero_store_words(self):
        program = compile_training_iteration(alexnet_cifar_spec(), sparse=False)
        simulator = AcceleratorSimulator(dense_baseline_config())
        stored = list(simulator.run_instructions(program.instructions, sparse=False))
        unstored = list(
            simulator.run_instructions(
                [i for i in program.instructions if not isinstance(i, StoreOutputInstruction)],
                sparse=False,
            )
        )
        assert [s.step for s in unstored] == [s.step for s in stored]
        for with_store, without in zip(stored, unstored):
            assert without.events.macs == with_store.events.macs
            assert without.events.dram_words < with_store.events.dram_words

    def test_output_store_must_follow_a_step(self):
        stream = [StoreOutputInstruction("conv1", 10.0)]
        with pytest.raises(ValueError, match="follows no step"):
            list(AcceleratorSimulator(sparsetrain_config()).run_instructions(stream, sparse=True))


class TestComparisonResult:
    def _comparison(self):
        spec = alexnet_cifar_spec()
        densities = uniform_densities(
            spec, input_density=0.4, grad_output_density=0.1, mask_density=0.4,
            grad_input_density=0.3, output_density=0.4,
        )
        sparse_program = compile_training_iteration(spec, densities, sparse=True)
        dense_program = compile_training_iteration(spec, None, sparse=False)
        sparse = AcceleratorSimulator(sparsetrain_config()).run_program(sparse_program, densities)
        dense = AcceleratorSimulator(dense_baseline_config()).run_program(dense_program)
        return ComparisonResult("AlexNet/CIFAR-10", sparse, dense)

    def test_speedup_and_efficiency_above_one(self):
        comparison = self._comparison()
        assert comparison.speedup > 1.0
        assert comparison.energy_efficiency > 1.0

    def test_energy_reductions_in_unit_range(self):
        comparison = self._comparison()
        assert 0.0 < comparison.sram_energy_reduction < 1.0
        assert 0.0 < comparison.combinational_energy_reduction < 1.0


class TestDenseBaseline:
    def test_rejects_sparse_config(self):
        with pytest.raises(ValueError, match="sparse_dataflow=False"):
            simulate_baseline(alexnet_cifar_spec(), sparsetrain_config())

    def test_resnet_slower_than_alexnet_on_cifar(self):
        alexnet = simulate_baseline(alexnet_cifar_spec())
        resnet = simulate_baseline(resnet_spec(18, "CIFAR-10"))
        assert resnet.total_cycles > alexnet.total_cycles

    def test_imagenet_slower_than_cifar(self):
        cifar = simulate_baseline(resnet_spec(18, "CIFAR-10"))
        imagenet = simulate_baseline(resnet_spec(18, "ImageNet"))
        assert imagenet.total_cycles > cifar.total_cycles
